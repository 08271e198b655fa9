"""Acceptance gate: the quantitative anchors the package must reproduce.

Each criterion prints exactly one PASS/FAIL line (visible with pytest -s, or
in the captured output of a failing test) and then asserts.

Criteria 1 and 2 check the tail error ratios of the heavy-tailed
two-dimensional instance at finite r against the values in ``anchors.py``:
f_R/f_hat = 0.8201098 at r = -10 and 0.8228837 at r = +10, and
F_R/F_hat = 0.8293627 at r = -25000.  ``test_anchors.py`` recomputes them at
50 digits without the package.  These ratios tend to the limiting constant
0.8222154... as |r| grows, but do not equal it at these r; criterion 1 also
checks that constant.
"""

import math
import time

import numpy as np
import pytest
import scipy.special

from qfratio import (
    Chi2Combo,
    beta_limit,
    beta_matrices,
    cdf,
    density_at_zero,
    edge_structure,
    exact_cdf_n2,
    exact_density_n2,
    imhof_cdf_of_R,
    limit_multiple,
    limit_simple,
    ls_serial_corr,
    mc_cdf,
    pdf,
    ratio_n2,
    solve_saddlepoint,
    spectrum_at,
    stirling_beta_hat,
    support,
)
from qfratio.saddlepoint import cumulant_sums
from qfratio.support import EdgeStructure

from anchors import CDF_RATIO, DENSITY_RATIO
from conftest import random_case1, random_case2b, rng_for


def _report(k, desc, ok, detail):
    print(f"[criterion {k:02d}] {'PASS' if ok else 'FAIL'} - {desc}: {detail}")
    assert ok, f"criterion {k}: {desc}: {detail}"


def test_criterion_01_density_limit():
    t0 = time.perf_counter()
    rt = ratio_n2(0.2, 2.0)
    ratios = {
        r: exact_density_n2(0.2, 2.0, r) / pdf(rt, r).value for r in (-10.0, 10.0)
    }
    re = limit_simple(2, 2.0).RE
    elapsed = time.perf_counter() - t0
    ok = (
        all(abs(v - DENSITY_RATIO[r]) <= 1e-3 for r, v in ratios.items())
        and abs(re - 0.8222) <= 5e-4
        and elapsed < 1.0
    )
    _report(
        1,
        "density ratio at r = -10/+10 -> 0.8201098/0.8228837, limit 0.8222",
        ok,
        f"ratio(-10)={ratios[-10.0]:.7f}, ratio(+10)={ratios[10.0]:.7f}, "
        f"RE={re:.7f}, {elapsed:.2f}s",
    )


def test_criterion_02_cdf_limit():
    t0 = time.perf_counter()
    rt = ratio_n2(0.2, 2.0)
    r = -25000.0
    F = exact_cdf_n2(0.2, 2.0, r)
    F_hat = cdf(rt, r).value
    ratio = F / F_hat
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - CDF_RATIO[r]) <= 1e-3 and elapsed < 30.0
    _report(
        2,
        "CDF ratio at r = -25000 -> 0.8293627",
        ok,
        f"F={F:.6e}, F_hat={F_hat:.6e}, ratio={ratio:.7f}, {elapsed:.2f}s",
    )


def test_criterion_03_cauchy_exactness():
    rt = ratio_n2(0.0, 0.0)
    worst_s = worst_f = 0.0
    for r in range(-5, 6):
        sol = solve_saddlepoint(spectrum_at(rt, float(r)))
        worst_s = max(worst_s, abs(sol.s_hat - r))
        exact = 1.0 / (math.pi * (1.0 + r * r))
        rel = abs(pdf(rt, float(r)).value / (math.sqrt(math.pi / 2.0) * exact) - 1.0)
        worst_f = max(worst_f, rel)
    ok = worst_s <= 1e-10 and worst_f <= 1e-10
    _report(
        3,
        "Cauchy: s_hat = r and f_hat = sqrt(pi/2) f",
        ok,
        f"max|s_hat - r|={worst_s:.2e}, max rel density error={worst_f:.2e}",
    )


def test_criterion_04_constant_beta_ratio():
    rt = beta_matrices(6, 2)
    grid = np.linspace(0.02, 0.98, 50)
    import scipy.stats

    exact = scipy.stats.beta.pdf(grid, 1.0, 2.0)
    approx = np.array([pdf(rt, float(r)).value for r in grid])
    ratio = approx / exact
    spread = float((ratio.max() - ratio.min()) / ratio.mean())
    target = float(scipy.special.beta(1.0, 2.0)) / stirling_beta_hat(1.0, 2.0)
    dev = abs(float(ratio.mean()) - target)
    ok = spread < 1e-8 and dev <= 1e-10
    _report(
        4,
        "central beta: f_hat/f constant = B(1,2)/B_hat(1,2)",
        ok,
        f"spread={spread:.2e}, |mean - target|={dev:.2e}",
    )


def test_criterion_05_multiple_reduces_to_simple():
    worst = 0.0
    for n, nu0 in ((2, 0.0), (2, 2.0), (5, 1.0), (8, 3.0)):
        simple = limit_simple(n, nu0)
        edge = EdgeStructure(
            side="right", r_edge=math.inf, m=1,
            nu0=np.array([nu0]), omega=np.array([1.0]), H_edge=np.eye(1),
        )
        multi = limit_multiple(n, edge)
        worst = max(
            worst,
            abs(multi.t0 - simple.t0),
            abs(multi.u0 - simple.u0),
            abs(multi.RE_cdf - simple.RE),
        )
    ok = worst <= 1e-6
    _report(5, "m=1 reduction of the multiple-eigenvalue limit", ok,
            f"max deviation={worst:.2e}")


def test_criterion_06_beta_consistency():
    worst = 0.0
    for n, m, theta in ((4, 2, 0.0), (4, 2, 1.0), (6, 3, 2.0)):
        mu = np.zeros(m)
        mu[0] = math.sqrt(theta)
        rt = beta_matrices(n, m, mu)
        edge = edge_structure(rt, support(rt), "right")
        worst = max(worst, abs(limit_multiple(n, edge).RE_cdf - beta_limit(n, m, theta).RE))
    ok = worst <= 1e-6
    _report(6, "beta closed form vs multiple-eigenvalue limit", ok,
            f"max deviation={worst:.2e}")


def test_criterion_07_lag2_edge_structure():
    mu = np.array([0.4, -1.2, 0.7])
    rt = ls_serial_corr(3, 2, mu=mu)
    edge = edge_structure(rt, support(rt), "right")
    dev_omega = float(np.max(np.abs(np.asarray(edge.omega) - np.array([0.0, 1.0]))))
    dev_nu = float(np.max(np.abs(np.abs(edge.nu0) - np.abs(mu[1:]))))
    ok = edge.m == 2 and dev_omega <= 1e-6 and dev_nu <= 1e-6
    _report(7, "lag-2 serial correlation edge: m=2, omega=(0,1), nu0=(mu2,mu3)",
            ok, f"m={edge.m}, |d omega|={dev_omega:.2e}, |d nu0|={dev_nu:.2e}")


def test_criterion_08_eigenvalue_monotonicity():
    violations = 0
    for seed in range(100):
        rt = random_case1(4, rng_for(80000 + seed))
        grid = np.linspace(-3.0, 3.0, 20)
        lams = np.array([spectrum_at(rt, float(r)).lambdas for r in grid])
        if not np.all(np.diff(lams, axis=0) < 0.0):
            violations += 1
    ok = violations == 0
    _report(8, "eigenvalues strictly decreasing in r for B > 0", ok,
            f"violations={violations}/100")


def test_criterion_09_edge_eigenvalue_vanishes():
    worst = 0.0
    for seed in range(50):
        rng = rng_for(90000 + seed)
        if seed % 2 == 0:
            rt = random_case1(5, rng)
        else:
            rt = random_case2b(5, rng)
        info = support(rt)
        lam = np.asarray(spectrum_at(rt, info.r_bar).lambdas)
        worst = max(worst, abs(lam[-1]) / np.max(np.abs(lam)))
    ok = worst <= 1e-8
    _report(9, "top pencil eigenvalue vanishes at r_bar", ok,
            f"max |lambda_n(r_bar)| / max|lambda| = {worst:.2e}")


def test_criterion_10_cgf_derivatives():
    worst = 0.0
    for seed in range(200):
        rng = rng_for(100000 + seed)
        rt = random_case1(4, rng)
        r = float(rng.uniform(-1.5, 1.5))
        sp = spectrum_at(rt, r)
        lam, nu2 = np.asarray(sp.lambdas), np.asarray(sp.nu) ** 2
        # 0.6 of the way to each edge of the strip 1/(2 lam_min) < s < 1/(2 lam_max)
        lo = max(0.3 / lam[0], -20.0) if lam[0] < 0 else -20.0
        hi = min(0.3 / lam[-1], 20.0) if lam[-1] > 0 else 20.0
        s = float(rng.uniform(lo, hi))
        h = 1e-6 * (hi - lo)
        K = cumulant_sums(lam, nu2, np.array([s, s + h, s - h]))
        for j in range(1, 4):
            exact, fd = K[j][0], (K[j - 1][1] - K[j - 1][2]) / (2 * h)
            worst = max(worst, abs(exact - fd) / max(abs(exact), 1e-8))
    ok = worst <= 1e-6
    _report(10, "CGF derivatives vs central differences", ok,
            f"max relative error={worst:.2e}")


def test_criterion_11_oracle_agreement():
    worst_rel = 0.0
    worst_sigma = 0.0
    for seed in range(20):
        rng = rng_for(110000 + seed)
        n = int(rng.integers(4, 9))
        rt = random_case1(n, rng)
        info = support(rt)
        width = info.r_bar - info.l
        grid = np.linspace(info.l + 0.02 * width, info.r_bar - 0.02 * width, 9)
        kept = []
        for r in grid:
            exact = imhof_cdf_of_R(rt, float(r))
            if 0.005 <= exact <= 0.995:
                kept.append((float(r), exact))
        assert kept, "no interior grid points survived the quantile filter"
        for r, exact in kept:
            approx = cdf(rt, r).value
            rel = abs(approx - exact) / min(exact, 1.0 - exact)
            worst_rel = max(worst_rel, rel)
        r_mid, exact_mid = kept[len(kept) // 2]
        est = mc_cdf(rt, r_mid, n_draws=10**6, seed=seed)
        worst_sigma = max(worst_sigma, abs(exact_mid - est.value) / est.std_error)
    ok = worst_rel <= 0.25 and worst_sigma <= 4.0
    _report(11, "saddlepoint vs inversion oracle vs Monte Carlo", ok,
            f"max smaller-tail rel error={worst_rel:.3f}, max |z| vs MC={worst_sigma:.2f}")


def test_criterion_12_density_at_zero_operator():
    laplace = density_at_zero(Chi2Combo(((0.5, 2, 0.0), (-0.5, 2, 0.0))))
    dev_laplace = abs(laplace - 0.5)
    combos = [
        Chi2Combo(((1.0, 2, 0.5), (-0.7, 3, 0.0))),
        Chi2Combo(((0.8, 3, 1.0), (-1.2, 2, 0.0), (0.5, 2, 0.0))),
    ]
    worst_sigma = 0.0
    n = 10**7
    for i, combo in enumerate(combos):
        rng = rng_for(120000 + i)
        total = np.zeros(n)
        for w, df, nc in combo.terms:
            if nc > 0:
                total += w * rng.noncentral_chisquare(df, nc, n)
            else:
                total += w * rng.chisquare(df, n)
        h = 0.02
        p = float(np.mean(np.abs(total) <= h))
        est = p / (2.0 * h)
        se = math.sqrt(p * (1.0 - p) / n) / (2.0 * h)
        worst_sigma = max(worst_sigma, abs(density_at_zero(combo) - est) / se)
    ok = dev_laplace <= 1e-8 and worst_sigma <= 3.0
    _report(12, "density-at-zero: Laplace closed form and MC kernels", ok,
            f"|laplace - 0.5|={dev_laplace:.2e}, max |z| vs kernel={worst_sigma:.2f}")


def test_criterion_13_central_beta_reduction():
    worst = 0.0
    for n in range(2, 11):
        for m in range(1, n):
            target = stirling_beta_hat(m / 2.0, (n - m) / 2.0) / math.exp(
                float(scipy.special.betaln(m / 2.0, (n - m) / 2.0))
            )
            worst = max(worst, abs(beta_limit(n, m, 0.0).RE - target))
    ok = worst <= 1e-10
    _report(13, "central beta limit equals the Stirling beta ratio", ok,
            f"max deviation={worst:.2e}")
