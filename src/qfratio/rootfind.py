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

    Each evaluated point becomes an end of its lane's bracket, and the lane
    then tests, in this order: it stops when |f| <= f_tol, after one last
    Newton step from the accepted point; it stops at x when its Newton step
    collapses, x - f/slope == x (a converged x is a bracket end, so this
    test comes before the bracket test); it takes the step when it lies
    strictly inside the bracket, and else bisects, or stops when no float is
    left strictly inside.  Stopped lanes are frozen by masking, so every
    call of f sees all lanes.

    Returns the pair (x, x_eval): the final points and the points at which
    f was last evaluated.  They differ only where the last Newton step was
    taken; that step is not evaluated and, where the slope is rounding
    noise, can land farther from the root, so a caller that evaluates f at
    its result anyway keeps whichever of the two has the smaller |f|.
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
            # a collapsed step stays at x, which after a converged step is a
            # bracket end; any other step leaving (a, b), as any step with
            # slope <= 0 does, bisects, unless no float is left inside (a, b)
            inside = (x_new == x) | ((a < x_new) & (x_new < b))
            if not inside.all():
                mid = 0.5 * (a + b)
                x_new = np.where(inside, x_new, np.where((a < mid) & (mid < b), mid, x))
            # a lane that meets f_tol stays at its evaluated point, so fx and
            # slope keep describing x for every stopped lane
            live &= ~hit & (x_new != x)
            np.copyto(x, x_new, where=live)
            if not live.any():
                break
            fx, slope = f(x)
        x_last = np.where(abs(fx) <= f_tol, x - fx / slope, x)
    return (float(x_last[0]), float(x[0])) if scalar else (x_last, x)
