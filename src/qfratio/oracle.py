"""Ground-truth references for validating the saddlepoint approximations.

Monte-Carlo CDF estimates with a counter-based generator, the exact CDF and
density of R through inversion of the chi-square-combination representation,
the closed form n = 2 density of e2/e1, and the tail error-ratio diagnostic
curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from .core import DEFAULT_TOL, QuadFormRatio, Tolerances, spectrum_at
from .errors import InvalidInputError
from .saddlepoint import cdf_grid, pdf_grid
from .specfun import imhof_cdf, weighted_density_at_zero

_MC_CHUNK = 1 << 18


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_draws: int
    seed: int


def mc_draws(ratio: QuadFormRatio, n_draws: int, seed: int) -> np.ndarray:
    """Reproducible draws of R; counter-based streams, one per chunk.

    Philox is counter-based, so chunk c of a given seed is always the same
    block of variates no matter how the chunks are scheduled; the reduction
    below is deterministic.  The seed is Philox's 128-bit key: one outside
    [0, 2**128) raises InvalidInputError.
    """
    if not 0 <= seed < 2**128:
        raise InvalidInputError(f"seed must be in [0, 2**128), got {seed}")
    n = ratio.n
    out = np.empty(n_draws)
    pos = 0
    chunk_idx = 0
    while pos < n_draws:
        k = min(_MC_CHUNK, n_draws - pos)
        # chunk index in the top counter word: streams are spaced 2^192 blocks
        # apart and can never overlap, whatever the chunk length
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, chunk_idx]))
        eps = rng.standard_normal((k, n))
        eps += np.asarray(ratio.mu)
        # e'Me for every row e as ((E M) * E).sum(1), reusing one work array
        form = eps @ np.asarray(ratio.A)
        form *= eps
        num = form.sum(axis=1)
        np.matmul(eps, np.asarray(ratio.B), out=form)
        form *= eps
        out[pos : pos + k] = num / form.sum(axis=1)
        pos += k
        chunk_idx += 1
    return out


def mc_cdf_grid(ratio: QuadFormRatio, rs, n_draws: int = 10**5, seed: int = 0) -> list:
    """Monte-Carlo Pr(R <= r) with binomial standard errors, one draw set for all r in rs."""
    if n_draws < 10**3:
        raise InvalidInputError("n_draws must be at least 1000")
    draws = mc_draws(ratio, n_draws, seed)
    out = []
    for r in np.asarray(rs, dtype=float).reshape(-1):
        p = float(np.mean(draws <= r))
        se = math.sqrt(max(p * (1.0 - p), 1.0 / n_draws) / n_draws)
        out.append(McEstimate(value=p, std_error=se, n_draws=n_draws, seed=seed))
    return out


def mc_cdf(ratio: QuadFormRatio, r: float, n_draws: int = 10**5, seed: int = 0) -> McEstimate:
    """Monte-Carlo Pr(R <= r) with a binomial standard error."""
    return mc_cdf_grid(ratio, [r], n_draws, seed)[0]


def imhof_cdf_of_R(ratio: QuadFormRatio, r: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Exact Pr(R <= r) = Pr(X_r <= 0) by inversion of the CF of X_r."""
    spec = spectrum_at(ratio, r)
    return imhof_cdf(spec.lambdas, np.ones(spec.nu.size), spec.nu * spec.nu, tol=tol.tol_quad)


def imhof_pdf_of_R(ratio: QuadFormRatio, r: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Exact density f_R(r) = E[e'Be delta(X_r)] by inversion of the CF of X_r.

    X_r = sum_j lambda_j chi2_1(nu_j^2) over the spectrum of A - rB, and e'Be
    gives the Jacobian of ``weighted_density_at_zero`` with H = P B P' and
    a = diag(H), whose errors this function raises; the value is clamped at 0.
    """
    spec = spectrum_at(ratio, r)
    nu = np.asarray(spec.nu)
    H = spec.P @ np.asarray(ratio.B) @ spec.P.T
    f = weighted_density_at_zero(spec.lambdas, np.ones(nu.size), nu * nu, np.diag(H), nu, H,
                                 tol.tol_quad)
    return max(f, 0.0)


def exact_density_n2(mu1: float, mu2: float, r: float) -> float:
    """Closed-form density of R = e2/e1 with e_i ~ N(mu_i, 1)."""
    delta = 1.0 + r * r
    theta = math.erf((mu1 + r * mu2) / math.sqrt(2.0 * delta))
    lam = math.exp(-0.5 * (mu1 * r - mu2) ** 2 / delta)
    return (
        math.exp(-0.5 * (mu1**2 + mu2**2)) / (math.pi * delta)
        + lam * theta * (mu1 + r * mu2) / (delta * math.sqrt(2.0 * math.pi * delta))
    )


def exact_cdf_n2(mu1: float, mu2: float, r: float, tol: float = 1e-11) -> float:
    """CDF of R = e2/e1 by adaptive integration of the closed-form density.

    The far tail is integrated in the variable u = -1/r where the density is
    smooth and bounded.
    """
    def f(x):
        return exact_density_n2(mu1, mu2, x)

    def f_inv(u):  # x = 1/u, dx = -du / u^2; covers both tails by sign of u
        return exact_density_n2(mu1, mu2, 1.0 / u) / u**2

    if r <= -1.0:
        # mass below r, integrated in u = 1/x over (1/r, 0)
        total, _ = scipy.integrate.quad(f_inv, 1.0 / r, 0.0, epsabs=tol,
                                        epsrel=1e-12, limit=400)
        return min(max(total, 0.0), 1.0)
    if r >= 1.0:
        upper, _ = scipy.integrate.quad(f_inv, 0.0, 1.0 / r, epsabs=tol,
                                        epsrel=1e-12, limit=400)
        return min(max(1.0 - upper, 0.0), 1.0)
    left_tail, err = scipy.integrate.quad(f_inv, -1.0, 0.0, epsabs=tol,
                                          epsrel=1e-12, limit=400)
    body, err2 = scipy.integrate.quad(f, -1.0, r, epsabs=tol,
                                      epsrel=1e-12, limit=400)
    return min(max(left_tail + body, 0.0), 1.0)


def relative_error_curve(
    ratio: QuadFormRatio,
    grid,
    exact_cdf=None,
    exact_pdf=None,
    tol: Tolerances = DEFAULT_TOL,
):
    """Tail error ratios F/F_hat (left tilt) or (1-F)/(1-F_hat) (right tilt).

    exact_cdf/exact_pdf are callables r -> value; the exact CDF defaults to
    the inversion-integral oracle.  The approximation is evaluated on the
    whole grid in one batched call; with exact_pdf, the density reads the
    pencil chunk the CDF call solved when the grid fits one chunk.  Each record carries r, the exact and
    approximate CDF values, their ratio (nan where its denominator is 0) and
    s_hat, plus the density ratio when an exact density is supplied.  A grid
    point outside the open support raises InvalidInputError.
    """
    if exact_cdf is None:
        exact_cdf = lambda r: imhof_cdf_of_R(ratio, r, tol)
    grid = np.asarray(grid, dtype=float).reshape(-1)
    approx = cdf_grid(ratio, grid, tol)
    outside = [r for r, a in zip(grid, approx) if a.branch == "boundary"]
    if outside:
        raise InvalidInputError(f"grid point r={outside[0]} is outside the open support")
    dens = pdf_grid(ratio, grid, tol) if exact_pdf is not None else [None] * grid.size
    records = []
    for r, a, d in zip(grid.tolist(), approx, dens):
        exact = float(exact_cdf(r))
        num, den = (exact, a.value) if a.s_hat < 0 else (1.0 - exact, 1.0 - a.value)
        rec = {"r": r, "exact": exact, "approx": a.value, "cdf_ratio": _ratio(num, den),
               "s_hat": a.s_hat}
        if d is not None:
            rec["pdf_ratio"] = _ratio(float(exact_pdf(r)), d.value)
        records.append(rec)
    return records


def _ratio(num: float, den: float) -> float:
    """num / den, or nan where the denominator has rounded to 0."""
    return num / den if den > 0.0 else math.nan
