"""Limiting relative-error constants at the edges of support.

Three routes to the same kind of constant: a closed form for a simple
vanishing eigenvalue, an implicit form (root of a scalar equation plus a
density-at-zero operator) for multiple vanishing eigenvalues, and an
explicit form for the noncentral beta family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .rootfind import newton_bracketed
from .saddlepoint import cumulant_sums
from .specfun import Chi2Combo, density_at_zero, ln_beta, ln_hyp1f1, ln_stirling_beta_hat
from .support import EdgeStructure

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TailLimitSimple:
    t0: float
    u0: float
    eta2: float
    RE: float  # shared by the CDF and density approximations


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


def limit_simple(n: int, nu0: float) -> TailLimitSimple:
    """Closed-form limiting relative error for a simple vanishing eigenvalue."""
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if not np.isfinite(nu0):
        raise InvalidInputError("nu0 must be finite")
    v2 = float(nu0) ** 2
    t0 = (2.0 * n - 1.0 + v2 - math.sqrt((v2 + 2.0 * n - 1.0) ** 2
                                         - (2.0 * n - 1.0) ** 2 + 1.0)) / (4.0 * n)
    one_m = 1.0 - 2.0 * t0
    u0 = math.sqrt(
        (n - 1.0) / 2.0 + 2.0 * t0**2 / one_m**2 + 4.0 * v2 * t0**2 / one_m**3
    )
    eta2 = v2 / (2.0 * one_m)
    ln_re = (
        0.5 * math.log(2.0 * math.pi * one_m)
        + 0.5 * (n - 1.0) * math.log(2.0 * t0)
        + math.log(u0)
        - eta2
        - ln_beta(0.5, (n + 1.0) / 2.0)
        - math.log(n / 2.0)
        + ln_hyp1f1(n / 2.0, 0.5, v2 / 2.0)
    )
    return TailLimitSimple(t0=t0, u0=u0, eta2=eta2, RE=math.exp(ln_re))


def _solve_t0(n: int, omega: np.ndarray, nu0sq: np.ndarray) -> float:
    """Unique root in (0, 1/2) of the edge saddlepoint-rate equation.

    The equation is K'(t) = (n - m)/(2t) for the cumulant sums of the edge
    terms omega, nu0^2; the right side is the central (n - m) block.
    """
    m = omega.shape[0]

    def g(t):
        G1, G2 = cumulant_sums(omega, nu0sq, t, (1, 2))
        return G1 - (n - m) / (2.0 * t), G2 + (n - m) / (2.0 * t**2)

    eps = 1e-12
    return newton_bracketed(g, eps, 0.5 - eps, x0=0.25)


def limit_multiple(n: int, edge: EdgeStructure, quad_tol: float = 1e-10) -> TailLimitMultiple:
    """Limiting relative errors (CDF and density) for a multiple vanishing eigenvalue.

    The CDF constant is sqrt(2*pi) times the density at zero of a signed
    chi-square combination; the density constant adds Jacobian-weighted terms
    from the limiting B-block H_edge.  Both are invariant to the scale of
    H_edge.
    """
    omega = np.asarray(edge.omega, dtype=float)
    nu0 = np.asarray(edge.nu0, dtype=float)
    H = np.asarray(edge.H_edge, dtype=float)
    m = omega.shape[0]
    if not (1 <= m <= n - 1):
        raise InvalidInputError(f"multiplicity m={m} must satisfy 1 <= m <= n-1")
    if abs(omega[-1] - 1.0) > 1e-12 or np.any(np.diff(omega) < -1e-12):
        raise InvalidInputError("omega must be ascending with last entry 1")
    nu0sq = nu0**2
    t0 = _solve_t0(n, omega, nu0sq)
    d = 1.0 - 2.0 * t0 * omega
    u0 = math.sqrt((n - m) / 2.0 + t0**2 * float(cumulant_sums(omega, nu0sq, t0, (2,))[0]))
    eta1 = t0 * omega / (u0 * d)
    eta2 = nu0sq / (2.0 * d)
    eta3 = 1.0 / d
    W_J = float(np.sum(np.diag(H) * eta3) + (nu0 * eta3) @ H @ (nu0 * eta3))
    if W_J <= 0.0:
        raise NumericalError(f"nonpositive Jacobian weight W_J={W_J:g}")

    # zero-weight (omega_i = 0) chi-square terms carry no mass and are dropped
    base = [(eta1[i], 1, 2.0 * eta2[i]) for i in range(m) if eta1[i] > 0.0]
    cache: dict = {}

    def d0(extra_idx, df_central):
        # one quadrature per distinct combination: with equal eta1 entries
        # (beta family, clusters) every index set shifts the same combination.
        # density_at_zero depends on the significant terms only.
        extra = [(eta1[i], 2, 0.0) for i in extra_idx if eta1[i] > 0.0]
        combo = Chi2Combo(tuple(base + extra + [(-1.0 / (2.0 * u0), df_central, 0.0)]))
        key = combo.significant_terms()
        if key not in cache:
            cache[key] = density_at_zero(combo, tol=quad_tol)
        return cache[key]

    re_cdf = _SQRT_2PI * d0((), n - m + 2)

    # density limit: diagonal and cross terms, each with its own shifted combo
    num = 0.0
    for i in range(m):
        if H[i, i] != 0.0:
            num += H[i, i] * eta3[i] * d0((i,), n - m)
        for j in range(m):
            hij = H[i, j]
            if hij == 0.0 or nu0[i] == 0.0 or nu0[j] == 0.0:
                continue
            num += nu0[i] * nu0[j] * eta3[i] * eta3[j] * hij * d0(sorted((i, j)), n - m)
    re_pdf = float(_SQRT_2PI * num / W_J)
    return TailLimitMultiple(
        t0=t0, u0=u0, eta1=eta1, eta2=eta2, eta3=eta3,
        W_J=W_J, RE_cdf=re_cdf, RE_pdf=re_pdf,
    )


def beta_limit(n: int, m: int, theta: float) -> BetaLimit:
    """Explicit limiting relative error for the noncentral Beta(m/2, (n-m)/2)."""
    if not (1 <= m <= n - 1):
        raise InvalidInputError("need min(m, n - m) >= 1")
    if theta < 0:
        raise InvalidInputError("theta must be nonnegative")
    t0 = 0.5 + ((theta - m) - math.sqrt((theta - m) ** 2 + 4.0 * theta * n)) / (4.0 * n)
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


def central_ratio(a: float, b: float) -> float:
    """Stirling-to-exact beta ratio B_hat(a, b) / B(a, b)."""
    return math.exp(ln_stirling_beta_hat(a, b) - ln_beta(a, b))
