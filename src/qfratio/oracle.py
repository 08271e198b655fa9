"""Ground-truth references for validating the saddlepoint approximations.

Monte-Carlo CDF estimates with a counter-based generator, the exact CDF of R
through inversion of the chi-square-combination representation, the closed
form n = 2 density of e2/e1, and the tail error-ratio diagnostic curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from .core import DEFAULT_TOL, QuadFormRatio, Tolerances, spectrum_at
from .errors import InvalidInputError
from .saddlepoint import cdf as sp_cdf
from .saddlepoint import pdf as sp_pdf
from .specfun import Chi2Combo, imhof_cdf

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
    below is deterministic.
    """
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
    spec = spectrum_at(ratio, r, tol)
    lam = np.asarray(spec.lambdas)
    nu2 = np.asarray(spec.nu) ** 2
    scale = np.max(np.abs(lam))
    terms = [
        (float(l), 1, float(v2))
        for l, v2 in zip(lam, nu2)
        if abs(l) > 1e-14 * scale
    ]
    return imhof_cdf(Chi2Combo(tuple(terms)), 0.0, tol=tol.tol_quad)


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
    the inversion-integral oracle.  Records carry the density ratio when an
    exact density is supplied.
    """
    if exact_cdf is None:
        exact_cdf = lambda r: imhof_cdf_of_R(ratio, r, tol)
    records = []
    for r in np.asarray(grid, dtype=float):
        approx = sp_cdf(ratio, r, tol)
        if approx.branch == "boundary":
            raise InvalidInputError(f"grid point r={r} is outside the open support")
        exact = exact_cdf(r)
        if approx.s_hat < 0:
            ratio_value = exact / approx.value
        else:
            ratio_value = (1.0 - exact) / (1.0 - approx.value)
        rec = {"r": float(r), "cdf_ratio": float(ratio_value), "s_hat": approx.s_hat}
        if exact_pdf is not None:
            rec["pdf_ratio"] = float(exact_pdf(r) / sp_pdf(ratio, r, tol).value)
        records.append(rec)
    return records
