"""Safeguarded Newton iteration for monotone root problems, one per lane."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_MAX_ITER = 200


def newton_bracketed(f, lo, hi, x0=None, f_tol=0.0):
    """Roots of increasing functions, one per lane, each with a sign change on (lo, hi).

    ``lo``, ``hi``, ``x0`` and ``f_tol`` are scalars or arrays of lanes, and
    scalar brackets give a scalar root.  ``f`` maps an array of points, one
    per lane, to the pair (value, slope) for every lane from one evaluation;
    its first call stacks the bracket ends and the starting points, shape
    (3, lanes).  The slope is that of each Newton step: the derivative of
    the value, or value*(g'/g) + value' for a positive g, which steps as
    Newton on value*g.

    Newton steps are taken while they stay inside the lane's current
    bracket; otherwise the step falls back to bisection.  A lane stops when
    |f| <= f_tol, after one last Newton step from the accepted point, or when
    its step collapses to machine precision.  Stopped lanes are frozen by
    masking, so every call of f sees all lanes.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    scalar = a.ndim == 0
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    mid = 0.5 * (a + b)
    x = mid if x0 is None else np.where((a < x0) & (x0 < b), x0, mid)
    # one evaluation covers the bracket ends and the starting point
    (fa, fb, fx), (_, _, slope) = f(np.stack([a, b, x]))
    bad = (fa > 0.0) | (fb < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"no sign change across the bracket: f({a[i]:g})={fa[i]:g}, f({b[i]:g})={fb[i]:g}"
        )
    live = np.ones(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            hit = abs(fx) <= f_tol
            up = fx > 0.0
            np.copyto(b, x, where=up)
            np.copyto(a, x, where=~up)
            x_new = x - fx / slope
            # a step leaving (a, b), as any step with slope <= 0 does, bisects
            inside = hit | ((a < x_new) & (x_new < b))
            if not inside.all():
                x_new = np.where(inside, x_new, 0.5 * (a + b))
            stay = ~hit & (x_new != x)
            np.copyto(x, x_new, where=live)
            live &= stay
            if not live.any():
                break
            fx, slope = f(x)
    return float(x[0]) if scalar else x
