"""CGF of X_r, saddlepoint solving, Lugannani-Rice CDF and the density of R.

X_r = e'(A - rB)e is the signed quadratic form whose sign probabilities give
the CDF of R.  Its CGF is a sum of noncentral chi-square cumulant terms over
the pencil spectrum; the saddlepoint is the unique root of K' inside the
convergence strip, found by safeguarded Newton bracketed by the strip.
``cdf_grid``/``pdf_grid`` evaluate a whole grid at once on stacked spectra,
one Newton lane per point; ``cdf``/``pdf`` are their one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .core import DEFAULT_TOL, QuadFormRatio, SpectrumAtR, Tolerances, pencil_eigh
from .errors import InvalidInputError, NumericalError, UnsupportedInstanceError
from .rootfind import newton_bracketed

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Strip:
    """Open convergence strip (lo, hi) of the MGF of X_r, containing 0."""

    lo: float
    hi: float


@dataclass(frozen=True)
class CgfEval:
    s: float
    K: float
    K1: float
    K2: float
    K3: float


@dataclass(frozen=True)
class SaddlepointSolution:
    s_hat: float
    w_hat: float
    u_hat: float
    cgf_at_shat: CgfEval


@dataclass(frozen=True)
class CdfApprox:
    value: float
    branch: str  # "regular", "mean" or "boundary"
    s_hat: float
    w_hat: float
    u_hat: float


@dataclass(frozen=True)
class DensityApprox:
    value: float
    branch: str
    J: float
    s_hat: float
    w_hat: float
    u_hat: float


def _strip_bounds(lam: np.ndarray):
    """Strip edges 1/(2*lambda_min), 1/(2*lambda_max) per lane; -inf/+inf when one-signed."""
    lam_min, lam_max = lam[..., 0], lam[..., -1]
    if ((lam_min == 0.0) & (lam_max == 0.0)).any():
        raise InvalidInputError("all-zero spectrum: degenerate instance")
    with np.errstate(divide="ignore"):
        return (np.where(lam_min < 0, 0.5 / lam_min, -np.inf),
                np.where(lam_max > 0, 0.5 / lam_max, np.inf))


def strip(spectrum: SpectrumAtR) -> Strip:
    """Convergence strip: 1/(2*lambda_min) < s < 1/(2*lambda_max).

    One-signed spectra give a half-infinite strip on the unconstrained side.
    """
    lo, hi = _strip_bounds(np.asarray(spectrum.lambdas))
    return Strip(lo=float(lo), hi=float(hi))


def cumulant_sums(lam, nu2, s, orders=(0, 1, 2, 3)) -> list:
    """K^(j)(s) for each j in ``orders``, X = sum_i lam_i chi2_1(nu2_i).

    The last axis of ``lam`` and ``nu2`` runs over the terms; ``s`` holds
    one tilt per lane of the leading axes.  With d = 1 - 2*s*lam and
    x = lam/d, K = sum(-log(d)/2 + s*lam*nu2/d) and, for j >= 1,
    K^(j) = 2^(j-1) (j-1)! sum(x^j (1 + j*nu2/d)).
    """
    t = 2.0 * np.asarray(s, dtype=float)[..., None] * lam
    d = 1.0 - t
    y = nu2 / d
    x = lam / d
    out = []
    for j in orders:
        if j == 0:
            out.append((0.5 * t * y - 0.5 * np.log1p(-t)).sum(axis=-1))
        else:
            term = ((x if j == 1 else x**j) * (1.0 + j * y)).sum(axis=-1)
            out.append(term if j == 1 else 2 ** (j - 1) * math.factorial(j - 1) * term)
    return out


def cgf(spectrum: SpectrumAtR, s: float) -> CgfEval:
    """K and its first three derivatives at a strip-interior tilt s."""
    lam = np.asarray(spectrum.lambdas)
    if np.any(1.0 - 2.0 * s * lam <= 0.0):
        raise InvalidInputError(f"tilt s={s} is outside the convergence strip")
    K, K1, K2, K3 = (float(v) for v in cumulant_sums(lam, np.asarray(spectrum.nu) ** 2, s))
    return CgfEval(s=float(s), K=K, K1=K1, K2=K2, K3=K3)


def _raise_first(bad: np.ndarray, make) -> None:
    """Raise ``make(i)`` for the first lane i flagged in ``bad``, if any."""
    if bad.any():
        raise make(int(np.argmax(bad)))


def _solve(lam: np.ndarray, nu2: np.ndarray, tol: Tolerances):
    """Saddlepoints of a (k, n) stack of spectra: s_hat, K, K'', w_hat, u_hat per lane."""
    if not ((lam[:, 0] < 0.0) & (lam[:, -1] > 0.0)).all():
        _strip_bounds(lam)  # an all-zero spectrum is invalid input
        # one-signed spectrum: K' never changes sign, r is outside the open support
        raise UnsupportedInstanceError(
            "no saddlepoint: the spectrum is one-signed (r outside the open support)"
        )
    edges = 2.0 * lam[:, [0, -1]]
    lo, hi = 1.0 / edges[:, 0], 1.0 / edges[:, 1]

    def k1_and_slope(s):
        # Newton steps on K' * d_min * d_max (d = 1 - 2*s*lambda at the two
        # extreme eigenvalues): the same root without the poles at the strip
        # edges, near which plain Newton creeps
        K1, K2 = cumulant_sums(lam, nu2, s, (1, 2))
        return K1, K2 - K1 * (edges / (1.0 - s[..., None] * edges)).sum(axis=-1)

    # Newton stops on the |K'| test enforced below; its last step leaves
    # |K'| far under the tolerance
    k1_tol = tol.tol_root * (np.abs(lam) * (1.0 + nu2)).sum(axis=-1)
    s_hat = newton_bracketed(k1_and_slope, lo + 1e-12 * np.abs(lo), hi - 1e-12 * np.abs(hi),
                             x0=0.0, f_tol=k1_tol)
    K, K1, K2 = cumulant_sums(lam, nu2, s_hat, (0, 1, 2))
    _raise_first(abs(K1) > k1_tol, lambda i: NumericalError(
        f"saddlepoint solve left |K'|={abs(K1[i]):.3e} above tolerance"))
    w_hat = np.copysign(np.sqrt(np.maximum(-2.0 * K, 0.0)), s_hat)
    return s_hat, K, K2, w_hat, s_hat * np.sqrt(K2)


def solve_saddlepoint(
    spectrum: SpectrumAtR, tol: Tolerances = DEFAULT_TOL
) -> SaddlepointSolution:
    """Unique root of K' in the strip, with the w-hat/u-hat pair."""
    lam = np.asarray(spectrum.lambdas)[None]
    s, _, _, w, u = (float(v[0]) for v in _solve(lam, np.asarray(spectrum.nu)[None] ** 2, tol))
    return SaddlepointSolution(s_hat=s, w_hat=w, u_hat=u, cgf_at_shat=cgf(spectrum, s))


# eigenvalues are zero "within floating point" at this relative scale; the
# structural tol_zero_eig is far too coarse here (interior spectra can have
# genuine eigenvalue ratios below 1e-9 deep in a tail)
_BOUNDARY_RTOL = 1e-13


def _boundary_side(lam: np.ndarray) -> np.ndarray:
    """Per lane, 0.0/1.0 when r sits at or beyond the support (one-signed spectrum), else nan."""
    edge = _BOUNDARY_RTOL * np.abs(lam).max(axis=-1)
    if (edge == 0.0).any():
        raise InvalidInputError("all-zero spectrum: degenerate instance")
    return np.where(lam[..., -1] <= edge, 1.0, np.where(lam[..., 0] >= -edge, 0.0, np.nan))


def _lr_value(w, u, lam, nu2, tol: Tolerances):
    """Lugannani-Rice values, blended across the mean switch, and their branch tags."""
    th = tol.mean_branch_threshold
    aw = np.abs(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = scipy.special.ndtr(w) + np.exp(-0.5 * w * w) / _SQRT_2PI * (1.0 / w - 1.0 / u)
    near = aw < 3.0 * th
    if near.any():
        K2, K3 = cumulant_sums(lam[near], nu2[near], 0.0, (2, 3))
        mean_val = 0.5 + K3 / (6.0 * _SQRT_2PI * K2**1.5)
        t = (aw[near] - th) / (2.0 * th)
        value[near] = np.where(t >= 0.0, (1.0 - t) * mean_val + t * value[near], mean_val)
    return value, np.where(aw < th, "mean", "regular")


def _grid(ratio: QuadFormRatio, rs, tol: Tolerances, density: bool) -> list:
    """CdfApprox (or, with ``density``, DensityApprox) records for every point of rs."""
    rs = np.asarray(rs, dtype=float).reshape(-1)
    B, mu = np.asarray(ratio.B), np.asarray(ratio.mu)
    out = []
    for start, lam, P in pencil_eigh(ratio, rs):
        side = _boundary_side(lam)
        interior = np.isnan(side)
        # a basic slice gives views, not copies, when every point is interior
        inner = slice(None) if interior.all() else interior
        s, w, u, J = np.full((4,) + side.shape, math.nan)
        value = np.zeros(side.shape) if density else side
        branch = np.full(side.shape, "boundary", dtype=object)
        if interior.any():
            lam, P = lam[inner], P[inner]
            nu = P @ mu
            nu2 = nu * nu
            s_i, K, K2, w[inner], u[inner] = _solve(lam, nu2, tol)
            s[inner] = s_i
            if density:
                # J = tr(H D^-1) + x'Hx with H = P B P', D = diag(d), x = nu/d
                d = 1.0 - 2.0 * s_i[:, None] * lam
                Ptx = ((nu / d)[:, None, :] @ P)[:, 0]
                J_i = ((((P @ B) * P).sum(axis=-1) / d).sum(axis=-1)
                       + ((Ptx @ B) * Ptx).sum(axis=-1))
                r_i = rs[start : start + side.shape[0]][inner]
                _raise_first(J_i <= 0.0, lambda i: NumericalError(
                    f"nonpositive Jacobian weight J={J_i[i]:g} at r={r_i[i]}"))
                J[inner] = J_i
                value[inner] = np.exp(np.log(J_i) + K - 0.5 * np.log(2.0 * math.pi * K2))
                branch[inner] = "regular"
            else:
                lr, branch[inner] = _lr_value(w[inner], u[inner], lam, nu2, tol)
                value[inner] = np.clip(lr, 0.0, 1.0)
        cols = (value, branch, J, s, w, u) if density else (value, branch, s, w, u)
        kind = DensityApprox if density else CdfApprox
        out += [kind(*rec) for rec in zip(*(c.tolist() for c in cols))]
    return out


def cdf_grid(ratio: QuadFormRatio, rs, tol: Tolerances = DEFAULT_TOL) -> list:
    """First-order Lugannani-Rice approximations of Pr(R <= r), one CdfApprox per r in rs."""
    return _grid(ratio, rs, tol, density=False)


def pdf_grid(ratio: QuadFormRatio, rs, tol: Tolerances = DEFAULT_TOL) -> list:
    """Saddlepoint densities of R, assembled in log space, one DensityApprox per r in rs."""
    return _grid(ratio, rs, tol, density=True)


def cdf(ratio: QuadFormRatio, r: float, tol: Tolerances = DEFAULT_TOL) -> CdfApprox:
    """First-order Lugannani-Rice approximation of Pr(R <= r)."""
    return _grid(ratio, [r], tol, density=False)[0]


def pdf(ratio: QuadFormRatio, r: float, tol: Tolerances = DEFAULT_TOL) -> DensityApprox:
    """Saddlepoint density of R at r, assembled in log space."""
    return _grid(ratio, [r], tol, density=True)[0]


def normalized_pdf(ratio: QuadFormRatio, grid, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Saddlepoint density renormalized to unit mass over the support."""
    from .support import support as _support  # local import avoids a cycle

    info = _support(ratio, tol)

    def f(r):
        return pdf(ratio, r, tol).value

    mass, err = scipy.integrate.quad(f, info.l, info.r_bar, epsabs=tol.tol_quad * 10,
                                     epsrel=1e-10, limit=400)
    if not np.isfinite(mass) or mass <= 0.0 or err > 1e-6 * mass:
        raise NumericalError(
            f"normalization quadrature failed: mass={mass:g}, err={err:g}"
        )
    return np.array([a.value for a in pdf_grid(ratio, grid, tol)]) / mass
