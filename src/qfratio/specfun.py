"""Special functions and characteristic-function machinery.

Hosts the confluent hypergeometric 1F1 (one Kummer sum with a log-space
scale, for every argument), Stirling substitutes for the beta and gamma
functions, and exact distributional kernels for signed combinations of
independent noncentral chi-squares: the density at zero and Pr(Q <= 0).

Both inversions run on one kernel, a nested trapezoid rule in x = log t
over the vectorized characteristic function `cf`, on
[log(1/(2 max|w|)) - 40, log(1/(2 min|w|)) + 40/decay].  Their integrands,
Re cf(e^x) e^x for the density and Im cf(e^x) for Gil-Pelaez's CDF, are
analytic in the strip |Im x| < pi/2 and decay exponentially at both ends,
so the rule converges like exp(-pi^2/h) (Trefethen and Weideman, SIAM
Review 56, 2014).  Halving h from 1/2 at most 6 times, it stops once two
levels agree to max(tol/10, 1e-13 |S|); the stated error is that difference
plus a bound on the two truncated ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import InvalidInputError, NumericalError

_LN_MAX = 700.0  # ~log of the largest double
_NEGLIGIBLE_WEIGHT = 1e-12  # relative to the largest |weight| of a combination
_KUMMER_MAX_TERMS = 1e6  # the sum takes about a + z terms at most, ~0.3 us each
_LOG_T_MARGIN = 40.0  # e-folds of decay kept past the outermost damping scales
_TRAPEZOID_H0 = 0.5  # first step of the density-at-zero rule in log t
_TRAPEZOID_HALVINGS = 6  # h = 1/128 at most; typical combinations stop after 2 or 3


def ln_hyp1f1(a: float, b: float, z: float) -> float:
    """log of 1F1(a; b; z) for finite a > 0, b > 0 and z >= 0: one Kummer sum.

    Each term is the last times (a + k) z / ((b + k)(k + 1)), all positive.
    The terms k >= 1 are summed apart from the leading 1, and the log is
    log1p of that sum, so a 1F1 close to 1 keeps its relative accuracy.
    Past 1e280 the whole sum is folded into ln_scale, so no term overflows
    at any z.  It stops once a term is below 1e-17 of the sum of the terms
    k >= 1 and no later term can grow: past the peak when a >= b (the term
    ratio then decreases in k), and once k + 1 >= z when a < b.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf and 0.0 <= z < math.inf):
        raise InvalidInputError(f"ln_hyp1f1 needs finite a, b > 0 and z >= 0, got {a}, {b}, {z}")
    if a + z > _KUMMER_MAX_TERMS:
        raise NumericalError(f"1F1({a}; {b}; {z}) needs about a + z > {_KUMMER_MAX_TERMS:g} terms")
    term = lead = 1.0  # the k = 0 term; 0 once folded into ln_scale
    rest = ln_scale = 0.0
    k = 0
    while True:
        term *= (a + k) * z / ((b + k) * (k + 1))
        rest += term
        k += 1
        if rest > 1e280:
            total = lead + rest
            ln_scale += math.log(total)
            term /= total
            lead, rest = 0.0, 1.0
        if term <= 1e-17 * rest and (a + k) * z < (b + k) * (k + 1) and (a >= b or k + 1 >= z):
            return math.log1p(rest) if lead else ln_scale + math.log(rest)


def hyp1f1(a: float, b: float, z: float) -> float:
    """1F1(a; b; z); raises on overflow past double range."""
    ln_val = ln_hyp1f1(a, b, z)
    if ln_val > _LN_MAX:
        raise NumericalError(f"1F1({a}; {b}; {z}) overflows double precision")
    return math.exp(ln_val)


def ln_beta(a: float, b: float) -> float:
    if a <= 0 or b <= 0:
        raise InvalidInputError("ln_beta needs positive arguments")
    return float(scipy.special.betaln(a, b))


def ln_stirling_beta_hat(a: float, b: float) -> float:
    """log of B_hat(a,b) = sqrt(2*pi) a^(a-1/2) b^(b-1/2) (a+b)^(-(a+b-1/2))."""
    if a <= 0 or b <= 0:
        raise InvalidInputError("stirling_beta_hat needs positive arguments")
    return (
        0.5 * math.log(2.0 * math.pi)
        + (a - 0.5) * math.log(a)
        + (b - 0.5) * math.log(b)
        - (a + b - 0.5) * math.log(a + b)
    )


def stirling_beta_hat(a: float, b: float) -> float:
    return math.exp(ln_stirling_beta_hat(a, b))


def stirling_gamma_hat(x: float) -> float:
    """Gamma_hat(x) = sqrt(2*pi) x^(x-1/2) e^(-x); raises on overflow past double range."""
    if not x > 0:
        raise InvalidInputError("stirling_gamma_hat needs x > 0")
    ln_val = 0.5 * math.log(2.0 * math.pi) + (x - 0.5) * math.log(x) - x
    if ln_val > _LN_MAX:
        raise NumericalError(f"stirling_gamma_hat({x}) overflows double precision")
    return math.exp(ln_val)


@dataclass(frozen=True)
class Chi2Combo:
    """Signed combination sum_j w_j * chi2(df_j, nc_j) of independent terms."""

    terms: tuple  # of (weight, df, noncentrality)

    def __post_init__(self):
        if not self.terms:
            raise InvalidInputError("Chi2Combo needs at least one term")
        clean = []
        for w, df, nc in self.terms:
            w, nc = float(w), float(nc)
            df = int(df)
            if df < 1:
                raise InvalidInputError("chi-square degrees of freedom must be >= 1")
            if nc < 0:
                raise InvalidInputError("noncentrality must be nonnegative")
            clean.append((w, df, nc))
        object.__setattr__(self, "terms", tuple(clean))

    def arrays(self):
        w = np.array([t[0] for t in self.terms])
        df = np.array([t[1] for t in self.terms], dtype=float)
        nc = np.array([t[2] for t in self.terms])
        return w, df, nc

    def significant_terms(self) -> tuple:
        """Terms whose weight is not negligible: |w| > 1e-12 * max|w|.

        A rounding-level weight moves the distribution by a rounding-level
        amount, but its damping scale 1/|w| would stretch the range of the
        log-t trapezoid rule by up to 28 e-folds for nothing.
        """
        cut = _NEGLIGIBLE_WEIGHT * max(abs(w) for w, _, _ in self.terms)
        return tuple(t for t in self.terms if abs(t[0]) > cut)

    def active_df(self) -> float:
        """Total degrees of freedom carried by non-negligible-weight terms."""
        return float(sum(df for _, df, _ in self.significant_terms()))


def cf(combo: Chi2Combo, t):
    """Characteristic function of the combination at real t (vectorized)."""
    w, df, nc = combo.arrays()
    tw = np.multiply.outer(np.asarray(t, dtype=float), w)
    z = 1.0 - 2.0j * tw
    return np.exp(np.sum(-0.5 * df * np.log(z) + 1.0j * tw * nc / z, axis=-1))


def _log_t_trapezoid(terms: Chi2Combo, integrand, decay: float, slope: float, tol: float):
    """(S, err) for S = int_0^inf Re g(t) dt/t by the trapezoid rule in x = log t.

    ``terms`` are the significant terms of a combination; their damping
    scales 1/(2|w|) set the range.  ``integrand`` maps an array of t to
    complex g(t), analytic in the strip |Im x| < pi/2; past the largest scale
    |g| decays like t^(-decay), and below the smallest |g(t)| <= slope * t.
    The rule runs over [log(1/(2 max|w|)) - 40, log(1/(2 min|w|)) + 40/decay],
    where the integrand has fallen by e^-40 at both ends, starting at h = 1/2
    and halving h at most 6 times; each level evaluates g only at the new
    (odd) nodes.  It stops once two levels differ by at most
    max(tol/10, 1e-13 |S|).  err is that difference plus the two truncated
    ends: slope * t at the low end node, and |g| / decay at the high one.
    """
    scales = [0.5 / abs(w) for w, _, _ in terms.terms]
    lo = math.log(min(scales)) - _LOG_T_MARGIN
    n = math.ceil((math.log(max(scales)) + _LOG_T_MARGIN / decay - lo) / _TRAPEZOID_H0)
    h = _TRAPEZOID_H0
    t = np.exp(lo + h * np.arange(n + 1))
    g = integrand(t)
    total = h * float(np.sum(g.real))
    truncation = slope * t[0] + abs(g[-1]) / decay
    for _ in range(_TRAPEZOID_HALVINGS):
        t = np.exp(lo + h * (np.arange(n) + 0.5))
        refined = 0.5 * total + 0.5 * h * float(np.sum(integrand(t).real))
        change = abs(refined - total)
        total, h, n = refined, 0.5 * h, 2 * n
        if change <= max(tol / 10.0, 1e-13 * abs(total)):
            break
    return total, change + truncation


def density_at_zero(combo: Chi2Combo, tol: float = 1e-10) -> float:
    """Density at 0 of the combination, by inversion of its CF.

    The density is (1/pi) int_0^inf Re cf(t) dt.  Requires total df >= 3
    over non-negligible-weight terms so that the CF is integrable; 0 lies
    inside the support when the weights have mixed signs (else the value is
    0 to the stated accuracy).

    In x = log t the integrand is Re cf(e^x) e^x, analytic in the strip
    |Im x| < pi/2 (the CF is singular only on the imaginary t axis) and
    decaying exponentially at both ends: like e^x below the smallest damping
    scale 1/(2 max|w|) (|cf| <= 1), and like e^(-(df/2 - 1) x) above the
    largest, 1/(2 min|w|).  ``_log_t_trapezoid`` takes it; past
    max(100 tol, 1e-6 |S|) its error bound raises NumericalError.
    """
    df_total = combo.active_df()
    if df_total < 3:
        raise InvalidInputError(
            "characteristic function not integrable: need total df >= 3 on nonzero weights"
        )
    terms = Chi2Combo(combo.significant_terms())
    total, err = _log_t_trapezoid(terms, lambda t: cf(terms, t) * t, 0.5 * df_total - 1.0, 1.0, tol)
    if err > max(100.0 * tol, 1e-6 * abs(total)):
        raise NumericalError(f"density_at_zero trapezoid error estimate too large: {err:g}")
    return total / math.pi


def imhof_cdf(combo: Chi2Combo, *, tol: float = 1e-10) -> float:
    """Pr(combination <= 0) by the Gil-Pelaez inversion integral.

    Pr(Q <= 0) = 1/2 - (1/pi) int_0^inf Im cf(t) dt/t, which in x = log t is
    the integral of Im cf(e^x): analytic in the same strip as the density at
    zero, bounded by t E|Q| <= t sum_j |w_j| (df_j + nc_j) at the low end and
    decaying like e^(-(df/2) x) at the high end.  ``_log_t_trapezoid`` takes
    it; past max(1e3 tol, 1e-6) its error bound raises NumericalError.  The
    value is clamped to [0, 1].
    """
    significant = combo.significant_terms()
    if not significant:
        raise InvalidInputError("all weights are zero: the combination is a point mass at 0")
    terms = Chi2Combo(significant)
    w, df, nc = terms.arrays()
    total, err = _log_t_trapezoid(terms, lambda t: -1j * cf(terms, t), 0.5 * float(np.sum(df)),
                                  float(np.sum(np.abs(w) * (df + nc))), tol)
    if err > max(1e3 * tol, 1e-6):
        raise NumericalError(f"imhof_cdf trapezoid error estimate too large: {err:g}")
    return min(max(0.5 - total / math.pi, 0.0), 1.0)
