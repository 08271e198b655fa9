#!/usr/bin/env python3
"""Print a table of limiting tail relative-error constants.

Covers the closed-form single-eigenvalue limits over a grid of (n, nu0)
and the noncentral beta family over (n, m, theta), each beside the
numerical limit_multiple values for the same edge, and the general
multiple-eigenvalue limits for a few built statistics.  Exits 1 when a
closed form and its limit_multiple value differ by more than 1e-9
relative.

    PYTHONPATH=src python scripts/tail_limit_table.py
"""

import math
import sys

import numpy as np

from qfratio import (
    beta_limit,
    beta_matrices,
    edge_structure,
    limit_multiple,
    limit_simple,
    ls_serial_corr,
    ratio_n2,
    support,
)
from qfratio.support import EdgeStructure


def main():
    print("single-eigenvalue limits")
    print(f"{'n':>3} {'nu0':>5} {'t0':>10} {'u0':>10} {'RE':>10} {'RE_cdf':>10} {'RE_pdf':>10}")
    rows = [(n, nu0) for n in (2, 3, 5, 8) for nu0 in (0.0, 1.0, 2.0)]
    worst_gap = 0.0
    for n, nu0 in rows + [(40, 12.0), (100, 12.0)]:
        lim = limit_simple(n, nu0)
        edge = EdgeStructure(side="right", r_edge=math.inf, m=1, nu0=np.array([nu0]),
                             omega=np.ones(1), H_edge=np.eye(1))
        multi = limit_multiple(n, edge)
        worst_gap = max(worst_gap, abs(lim.RE / multi.RE_cdf - 1.0),
                        abs(lim.RE / multi.RE_pdf - 1.0))
        print(f"{n:>3} {nu0:>5.1f} {lim.t0:>10.6f} {lim.u0:>10.6f} {lim.RE:>10.6f} "
              f"{multi.RE_cdf:>10.6f} {multi.RE_pdf:>10.6f}")
    print(f"largest relative gap between RE and the limit_multiple columns: {worst_gap:.1e}")

    print("\nnoncentral beta limits")
    print(f"{'n':>3} {'m':>3} {'theta':>6} {'RE':>10} {'RE_cdf':>10} {'RE_pdf':>10}")
    beta_gap = 0.0
    for n, m in ((4, 2), (6, 3), (10, 4)):
        for theta in (0.0, 1.0, 4.0):
            ref = beta_limit(n, m, theta).RE
            # the beta edge: m equal rates, all of the mean along one direction
            nu0 = np.zeros(m)
            nu0[0] = math.sqrt(theta)
            edge = EdgeStructure(side="right", r_edge=math.inf, m=m, nu0=nu0,
                                 omega=np.ones(m), H_edge=np.eye(m))
            lim = limit_multiple(n, edge)
            beta_gap = max(beta_gap, abs(ref / lim.RE_cdf - 1.0), abs(ref / lim.RE_pdf - 1.0))
            print(f"{n:>3} {m:>3} {theta:>6.1f} {ref:>10.6f} {lim.RE_cdf:>10.6f} {lim.RE_pdf:>10.6f}")
    print(f"largest relative gap between RE and the limit_multiple columns: {beta_gap:.1e}")
    worst_gap = max(worst_gap, beta_gap)

    print("\ngeneral limits from edge structures")
    instances = {
        "ratio e2/e1, mu=(0.2,2)": ratio_n2(0.2, 2.0),
        "lag-2 serial corr, n=3": ls_serial_corr(3, 2, mu=np.array([0.4, -1.2, 0.7])),
        "beta n=6 m=2, mu=(1,0)": beta_matrices(6, 2, [1.0, 0.0]),
    }
    print(f"{'instance':<28} {'side':>6} {'m':>3} {'RE_cdf':>10} {'RE_pdf':>10}")
    for name, rt in instances.items():
        info = support(rt)
        for side, wanted in (("right", info.in_CR), ("left", info.in_CL)):
            if not wanted:
                continue
            edge = edge_structure(rt, info, side)
            lim = limit_multiple(rt.n, edge)
            print(f"{name:<28} {side:>6} {edge.m:>3} "
                  f"{lim.RE_cdf:>10.6f} {lim.RE_pdf:>10.6f}")
    # the two routes to one constant must agree; a gap means one of them is wrong
    return 0 if worst_gap <= 1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())
