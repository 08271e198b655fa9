"""Special functions and characteristic-function machinery.

Hosts the confluent hypergeometric 1F1 (Kummer series with a large-argument
asymptotic branch, plus a log-space variant), Stirling substitutes for the
beta and gamma functions, and exact distributional kernels for signed
combinations of independent noncentral chi-squares: the density at zero and
the inversion-integral CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .errors import InvalidInputError, NumericalError

HYP1F1_Z_SWITCH = 60.0
_LN_MAX = 700.0  # ~log of the largest double
_NEGLIGIBLE_WEIGHT = 1e-12  # relative to the largest |weight| of a combination


def ln_hyp1f1(a: float, b: float, z: float) -> float:
    """log of 1F1(a; b; z) for z >= 0, a > 0, b > 0.

    Kummer series up to z = 60 (all terms positive, no cancellation);
    beyond that the large-argument expansion
    1F1 ~ Gamma(b)/Gamma(a) e^z z^(a-b) sum_k (b-a)_k (1-a)_k / (k! z^k).
    """
    if b <= 0 and float(b).is_integer():
        raise InvalidInputError("1F1 undefined: b is a non-positive integer")
    if z < 0:
        raise InvalidInputError("ln_hyp1f1 implemented for z >= 0 only")
    if z == 0.0:
        return 0.0
    if z <= HYP1F1_Z_SWITCH:
        total = 1.0
        term = 1.0
        k = 0
        while True:
            term *= (a + k) * z / ((b + k) * (k + 1))
            total += term
            k += 1
            if term <= 1e-16 * total or k > 10000:
                break
        return math.log(total)
    # asymptotic branch; the series terminates when a is a positive integer
    total = 1.0
    term = 1.0
    prev = math.inf
    k = 0
    while k < 200:
        term *= (b - a + k) * (1.0 - a + k) / ((k + 1) * z)
        if abs(term) >= prev:  # divergent tail of the asymptotic series
            break
        total += term
        prev = abs(term)
        k += 1
        if abs(term) <= 1e-16 * abs(total):
            break
    return (
        scipy.special.gammaln(b)
        - scipy.special.gammaln(a)
        + z
        + (a - b) * math.log(z)
        + math.log(total)
    )


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
    """Gamma_hat(x) = sqrt(2*pi) x^(x-1/2) e^(-x)."""
    if x <= 0:
        raise InvalidInputError("stirling_gamma_hat needs x > 0")
    return math.sqrt(2.0 * math.pi) * x ** (x - 0.5) * math.exp(-x)


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
        amount, but its damping scale 1/|w| would stretch the inversion
        integrals over an interval the quadrature cannot resolve.
        """
        cut = _NEGLIGIBLE_WEIGHT * max(abs(w) for w, _, _ in self.terms)
        return tuple(t for t in self.terms if abs(t[0]) > cut)

    def active_df(self) -> float:
        """Total degrees of freedom carried by non-negligible-weight terms."""
        return float(sum(df for _, df, _ in self.significant_terms()))


def cf(combo: Chi2Combo, t):
    """Characteristic function of the combination at real t (vectorized)."""
    w, df, nc = combo.arrays()
    t = np.asarray(t, dtype=float)
    z = 1.0 - 2.0j * np.multiply.outer(t, w)
    val = np.exp(
        np.sum(-0.5 * df * np.log(z) + 1.0j * np.multiply.outer(t, w) * nc / z, axis=-1)
    )
    return val


def _cf_polar(combo: Chi2Combo):
    """Scalar kernel u -> (theta, log_rho) with cf(combo, u/2) = exp(i*theta - log_rho).

    These are Imhof's phase (without the -x*u/2 shift) and log modulus:
    theta = sum_j df_j/2 atan(w_j u) + nc_j/2 w_j u / (1 + w_j^2 u^2) and
    log_rho = sum_j df_j/4 log1p(w_j^2 u^2) + nc_j/2 w_j^2 u^2 / (1 + w_j^2 u^2),
    in plain floats over the significant terms.  rho itself is never formed,
    so it cannot overflow.
    """
    terms = [(w, 0.5 * df, 0.25 * df, 0.5 * nc) for w, df, nc in combo.significant_terms()]
    atan, log, log1p, inf = math.atan, math.log, math.log1p, math.inf

    def parts(u):
        theta = log_rho = 0.0
        for w, hdf, qdf, hnc in terms:
            x = w * u
            x2 = x * x
            if x2 < inf:
                q = 1.0 + x2
                theta += hdf * atan(x) + hnc * x / q
                log_rho += qdf * log1p(x2) + hnc * x2 / q
            else:  # |w u| > 1e154: x/(1+x^2) -> 0, x^2/(1+x^2) -> 1
                theta += hdf * atan(x)
                log_rho += hdf * log(abs(x)) + hnc
        return theta, log_rho

    return parts


def _scale_breakpoints(combo: Chi2Combo):
    """Damping scales 1/|w| of the CF factors, one per distinct significant weight.

    A gap wider than 100x between consecutive scales gets decade points, so
    the quadrature samples the integrand across the whole gap: without them
    one Gauss-Kronrod panel on, say, [1, 1e5] can miss the mass on [1, 100]
    and still pass its own error estimate.
    """
    scales = sorted({1.0 / abs(w) for w, _, _ in combo.significant_terms()})
    fill = [lo * 10.0**j for lo, hi in zip(scales, scales[1:]) if hi > 100.0 * lo
            for j in range(1, int(math.log10(hi / lo)))]
    return sorted(scales + fill)


def density_at_zero(combo: Chi2Combo, tol: float = 1e-10) -> float:
    """Density at 0 of the combination, by inversion of its CF.

    Requires 0 to be interior to the support (mixed-sign weights) and total
    df >= 3 over non-negligible-weight terms so that the CF is integrable.
    """
    if combo.active_df() < 3:
        raise InvalidInputError(
            "characteristic function not integrable: need total df >= 3 on nonzero weights"
        )
    parts = _cf_polar(combo)

    def integrand(t):
        # Re cf(combo, t)
        theta, log_rho = parts(2.0 * t)
        return math.cos(theta) * math.exp(-log_rho)

    scales = _scale_breakpoints(combo)
    T = 50.0 * scales[-1]
    val, err = scipy.integrate.quad(
        integrand, 0.0, T, points=scales, epsabs=tol / 10.0, epsrel=1e-12, limit=800
    )
    tail, err2 = scipy.integrate.quad(
        integrand, T, np.inf, epsabs=tol / 10.0, epsrel=1e-12, limit=800
    )
    val += tail
    err += err2
    if err > max(100.0 * tol, 1e-6 * abs(val)):
        raise NumericalError(f"density_at_zero quadrature error estimate too large: {err:g}")
    return val / math.pi


def imhof_cdf(combo: Chi2Combo, x: float, tol: float = 1e-10) -> float:
    """Pr(combination <= x) by the standard inversion integral.

    The oscillation-free part is integrated adaptively on [0, T]; for x != 0
    the residual Fourier tail over (T, inf) is handled by QUADPACK's
    oscillatory-weight rule.
    """
    if not combo.significant_terms():
        raise InvalidInputError("all weights are zero: the combination is a point mass at 0")
    parts = _cf_polar(combo)
    half_x = 0.5 * x
    # the integrand's limit at u = 0: theta'(0) - x/2, with rho -> 1
    at_zero = 0.5 * (sum((df + nc) * w for w, df, nc in combo.significant_terms()) - x)

    def integrand(u):
        if u == 0.0:
            return at_zero
        theta, log_rho = parts(u)
        return math.sin(theta - half_x * u) * math.exp(-log_rho) / u

    scales = _scale_breakpoints(combo)
    T = 200.0 * scales[-1]
    if x != 0.0:
        # past ten periods of the phase x*u/2 the Fourier rule is cheaper than
        # resolving each oscillation adaptively
        T = min(T, 20.0 * math.pi / abs(half_x))
    main, err1 = scipy.integrate.quad(
        integrand, 0.0, T, points=scales, epsabs=tol / 10.0, epsrel=1e-13, limit=2000
    )
    if abs(x) * T < 1e-6:
        # x = 0 (or so small the phase x*u is flat over the effective tail):
        # the remaining phase converges at infinity and the integrand decays
        # like u^(-1 - total_df/2); a straight tail integral converges
        tail, err2 = scipy.integrate.quad(
            integrand, T, np.inf, epsabs=tol / 10.0, epsrel=1e-13, limit=2000
        )
    else:
        # sin(theta(u) - x u / 2) with theta(u) converging at infinity; split
        # against QUADPACK's oscillatory Fourier rules with frequency |x|/2
        omega = abs(half_x)
        sign = 1.0 if x > 0 else -1.0

        def f_sin(u):
            theta, log_rho = parts(u)
            return math.sin(theta) * math.exp(-log_rho) / u

        def f_cos(u):
            theta, log_rho = parts(u)
            return math.cos(theta) * math.exp(-log_rho) / u

        t1, e1 = scipy.integrate.quad(
            f_sin, T, np.inf, weight="cos", wvar=omega, limit=2000, epsabs=tol / 10.0
        )
        t2, e2 = scipy.integrate.quad(
            f_cos, T, np.inf, weight="sin", wvar=omega, limit=2000, epsabs=tol / 10.0
        )
        tail = t1 - sign * t2
        err2 = e1 + e2
    if err1 + err2 > max(1e3 * tol, 1e-6):
        raise NumericalError(
            f"imhof_cdf quadrature error estimate too large: {err1 + err2:g}"
        )
    value = 0.5 - (main + tail) / math.pi
    return min(max(value, 0.0), 1.0)
