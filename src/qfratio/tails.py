"""Limiting relative-error constants at the edges of support.

Two routes to the same kind of constant: an explicit form for the
noncentral beta family, whose m = 1 case is the simple vanishing eigenvalue,
and an implicit form for any edge structure, which checks the explicit one:
the root of a scalar equation and one limiting chi-square combination,
inverted once for its density at zero (the CDF constant) and once for its
Jacobian-weighted density at zero (the density constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .rootfind import newton_bracketed
from .saddlepoint import cumulant_sums
from .specfun import (Chi2Combo, density_at_zero, ln_beta, ln_hyp1f1, ln_stirling_beta_hat,
                      weighted_density_at_zero)
from .support import EdgeStructure

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TailLimitMultiple:
    t0: float
    u0: float
    eta1: np.ndarray
    eta2: np.ndarray
    eta3: np.ndarray
    W_J: float
    RE_cdf: float
    RE_pdf: float


@dataclass(frozen=True)
class BetaLimit:
    theta: float
    t0: float
    u0: float
    eta2: float
    RE: float


def limit_simple(n: int, nu0: float) -> BetaLimit:
    """Closed-form limiting relative error for a simple vanishing eigenvalue.

    This is the noncentral beta limit at m = 1 with theta = nu0^2; its RE is
    shared by the CDF and density approximations.
    """
    return beta_limit(n, 1, float(nu0) ** 2)


def _solve_t0(n: int, omega: np.ndarray, nu0sq: np.ndarray) -> float:
    """Unique root in (0, 1/2) of the edge saddlepoint-rate equation.

    The equation is K'(t) = c/(2t), c = n - m, for the cumulant sums of the
    edge terms omega, nu0^2; the right side is the central (n - m) block.
    Newton starts at the root of the same equation with every omega_i < 1
    set to 0: the beta t0 with m -> m1 = #{omega_i = 1}, n -> c + m1 and
    theta -> the sum of nu0_i^2 over those terms.  That start is the root
    itself when every omega_i is 0 or 1 (the beta family, every m = 1 edge),
    and Newton still checks its residual.
    """
    m = omega.shape[0]
    c = n - m
    ones = omega == 1.0
    m1 = int(ones.sum())
    x0 = _beta_t0(c + m1, m1, float(nu0sq[ones].sum()))

    def g(t):
        G1, G2 = cumulant_sums(omega, nu0sq, t, (1, 2))
        return G1 - c / (2.0 * t), G2 + c / (2.0 * t**2)

    eps = 1e-12
    return newton_bracketed(g, eps, 0.5 - eps, x0=x0)[0]


def limit_multiple(n: int, edge: EdgeStructure, quad_tol: float = 1e-10) -> TailLimitMultiple:
    """Limiting relative errors (CDF and density) for a multiple vanishing eigenvalue.

    Both come from Y = sum_i eta1_i chi2_1(2 eta2_i) - chi2_c / (2 u0): the CDF
    constant is sqrt(2*pi) times its density at zero with c = n - m + 2, the
    density constant sqrt(2*pi)/W_J times E[J delta(Y)] with c = n - m and
    J(s) = sum_i H_ii eta3_i/d_i + m'Hm, H = H_edge, d = 1 - 2 s eta1 and
    m = nu0 eta3/d, so J(0) = W_J.  Both are invariant to the scale of H_edge.
    """
    omega = np.asarray(edge.omega, dtype=float)
    nu0 = np.asarray(edge.nu0, dtype=float)
    H = np.asarray(edge.H_edge, dtype=float)
    m = omega.shape[0]
    if not (1 <= m <= n - 1):
        raise InvalidInputError(f"multiplicity m={m} must satisfy 1 <= m <= n-1")
    if abs(omega[-1] - 1.0) > 1e-12 or np.any(np.diff(omega) < -1e-12) or omega[0] < 0.0:
        raise InvalidInputError("omega must be ascending and nonnegative with last entry 1")
    nu0sq = nu0**2
    t0 = _solve_t0(n, omega, nu0sq)
    d = 1.0 - 2.0 * t0 * omega
    u0 = math.sqrt((n - m) / 2.0 + t0**2 * float(cumulant_sums(omega, nu0sq, t0, (2,))[0]))
    eta1 = t0 * omega / (u0 * d)
    eta2 = nu0sq / (2.0 * d)
    eta3 = 1.0 / d
    a, v = np.diag(H) * eta3, nu0 * eta3
    W_J = float(np.sum(a) + v @ H @ v)
    if W_J <= 0.0:
        raise NumericalError(f"nonpositive Jacobian weight W_J={W_J:g}")

    w = np.append(eta1, -1.0 / (2.0 * u0))
    nc = np.append(2.0 * eta2, 0.0)
    ones = np.ones(m)
    cdf_terms = Chi2Combo(tuple(zip(w, np.append(ones, n - m + 2), nc)))
    re_cdf = _SQRT_2PI * density_at_zero(cdf_terms, tol=quad_tol)
    # J / W_J, which is 1 at s = 0, so that quad_tol means what it means for RE_cdf
    weighted = weighted_density_at_zero(w, np.append(ones, n - m), nc, np.append(a, 0.0) / W_J,
                                        np.append(v, 0.0), np.pad(H, (0, 1)) / W_J, quad_tol)
    return TailLimitMultiple(
        t0=t0, u0=u0, eta1=eta1, eta2=eta2, eta3=eta3,
        W_J=W_J, RE_cdf=re_cdf, RE_pdf=_SQRT_2PI * weighted,
    )


def beta_limit(n: int, m: int, theta: float) -> BetaLimit:
    """Explicit limiting relative error for the noncentral Beta(m/2, (n-m)/2)."""
    if not (1 <= m <= n - 1):
        raise InvalidInputError("need min(m, n - m) >= 1")
    if not 0.0 <= theta < math.inf:
        raise InvalidInputError(f"theta must be finite and nonnegative, got {theta}")
    t0 = _beta_t0(n, m, theta)
    one_m = 1.0 - 2.0 * t0
    u0 = math.sqrt(
        (n - m) / 2.0 + 2.0 * t0**2 * (m / one_m**2 + 2.0 * theta / one_m**3)
    )
    eta2 = theta / (2.0 * one_m)
    ln_re = (
        0.5 * math.log(2.0 * math.pi)
        + 0.5 * m * math.log(one_m)
        + 0.5 * (n - m) * math.log(2.0 * t0)
        + math.log(u0)
        - eta2
        - ln_beta(m / 2.0, (n - m) / 2.0)
        - math.log((n - m) / 2.0)
        + ln_hyp1f1(n / 2.0, m / 2.0, theta / 2.0)
    )
    return BetaLimit(theta=float(theta), t0=t0, u0=u0, eta2=eta2, RE=math.exp(ln_re))


def _beta_t0(n: int, m: int, theta: float) -> float:
    """The smaller root of the beta rate equation, in a form free of cancellation."""
    return (n - m) / (2.0 * n - m + theta + math.sqrt((theta - m) ** 2 + 4.0 * theta * n))


def central_ratio(a: float, b: float) -> float:
    """Stirling-to-exact beta ratio B_hat(a, b) / B(a, b)."""
    return math.exp(ln_stirling_beta_hat(a, b) - ln_beta(a, b))
