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
from .support import support

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


def _newton_pass(lam, nu2, lo, hi, x0, f_tol):
    """One bracketed Newton solve of K' = 0 per lane: s, K, K', K'' at its better last point."""
    edges = 2.0 * lam[:, [0, -1]]

    def k1_and_slope(s):
        # Newton steps on K' * d_min * d_max (d = 1 - 2*s*lambda at the two
        # extreme eigenvalues): the same root without the poles at the strip
        # edges, near which plain Newton creeps
        K1, K2 = cumulant_sums(lam, nu2, s, (1, 2))
        return K1, K2 - K1 * (edges / (1.0 - s[..., None] * edges)).sum(axis=-1)

    # Newton stops on the |K'| test; its last step leaves |K'| far under the
    # tolerance, unless the slope there is rounding noise: one cumulant pass
    # covers both the last point and the accepted one before it, and the
    # smaller |K'| wins
    s_pair = newton_bracketed(k1_and_slope, lo, hi, x0=x0, f_tol=f_tol)
    cols = (s_pair, *cumulant_sums(lam, nu2, s_pair, (0, 1, 2)))
    last = abs(cols[2][0]) <= abs(cols[2][1])
    if last.all():
        return [v[0] for v in cols]
    return [np.where(last, v[0], v[1]) for v in cols]


def _solve(lam: np.ndarray, nu2: np.ndarray, tol: Tolerances):
    """Saddlepoints of a (k, n) stack of spectra: s_hat, K, K'', w_hat, u_hat per lane.

    K' is accepted at tol_root times the sum of its own terms' magnitudes,
    sum |lambda/d| (1 + nu^2/d) with d = 1 - 2*s_hat*lambda, the rounding
    scale of K' at the root.  The first pass stops on the same test with
    d = 1, which needs no root; deep in an infinite tail, where one lambda
    is about -r, that bound grows like |r| and passes points far from the
    root, so lanes that miss the scaled test take a second pass from there.
    """
    if not ((lam[:, 0] < 0.0) & (lam[:, -1] > 0.0)).all():
        _strip_bounds(lam)  # an all-zero spectrum is invalid input
        # one-signed spectrum: K' never changes sign, r is outside the open support
        raise UnsupportedInstanceError(
            "no saddlepoint: the spectrum is one-signed (r outside the open support)"
        )
    lo, hi = 0.5 / lam[:, 0], 0.5 / lam[:, -1]
    lo, hi = lo + 1e-12 * np.abs(lo), hi - 1e-12 * np.abs(hi)
    s_hat, K, K1, K2 = _newton_pass(lam, nu2, lo, hi, 0.0,
                                    tol.tol_root * (np.abs(lam) * (1.0 + nu2)).sum(axis=-1))
    d = 1.0 - 2.0 * s_hat[:, None] * lam
    k1_tol = tol.tol_root * (np.abs(lam / d) * (1.0 + nu2 / d)).sum(axis=-1)
    redo = abs(K1) > k1_tol
    if redo.any():
        again = _newton_pass(lam[redo], nu2[redo], lo[redo], hi[redo], s_hat[redo], k1_tol[redo])
        for col, v in zip((s_hat, K, K1, K2), again):
            col[redo] = v
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


# prefilter: a spectrum one-signed to within this relative scale flags its
# lane for the support test in _boundary_side.  The flag alone does not
# decide the boundary: deep in an infinite tail an interior spectrum can
# have an eigenvalue ratio below it (ratio_n2(0.2, 2) at |r| > 1.6e6)
_BOUNDARY_RTOL = 1e-13


def _boundary_side(lam: np.ndarray, r: np.ndarray, support_of) -> np.ndarray:
    """Per lane, 0.0/1.0 when r sits at or beyond an edge of the support, else nan.

    Lanes whose spectrum is one-signed to within _BOUNDARY_RTOL are decided
    by the support (l, r_bar) from ``support_of()``, called only for them:
    such a lane is interior only if l < r < r_bar and its computed spectrum
    has both signs, since Newton needs a sign change of K'.
    """
    edge = _BOUNDARY_RTOL * np.abs(lam).max(axis=-1)
    if (edge == 0.0).any():
        raise InvalidInputError("all-zero spectrum: degenerate instance")
    lam_min, lam_max = lam[..., 0], lam[..., -1]
    side = np.where(lam_max <= edge, 1.0, np.where(lam_min >= -edge, 0.0, np.nan))
    flagged = ~np.isnan(side)
    if not flagged.any():
        return side
    info = support_of()
    interior = (info.l < r) & (r < info.r_bar) & (lam_min < 0.0) & (lam_max > 0.0)
    at_edge = np.where(r >= info.r_bar, 1.0, np.where(r <= info.l, 0.0, side))
    return np.where(flagged & ~interior, at_edge, np.nan)


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


def _grid(ratio: QuadFormRatio, rs, tol: Tolerances, density: bool, info=None) -> tuple:
    """Arrays over rs: value, branch, s_hat, w_hat, u_hat; with ``density``, J after branch.

    ``info`` is the support of ``ratio`` when the caller has it; otherwise it
    is computed at most once, and only if a point is flagged near an edge.
    """
    rs = np.asarray(rs, dtype=float).reshape(-1)
    B = np.asarray(ratio.B)
    value = np.zeros(rs.shape)
    branch = np.full(rs.shape, "boundary", dtype=object)
    s, w, u, J = np.full((4,) + rs.shape, math.nan)

    def support_of():
        nonlocal info
        if info is None:
            info = support(ratio, tol)
        return info

    for start, lam, nu, h, P in pencil_eigh(ratio, rs):
        at = slice(start, start + lam.shape[0])
        side = _boundary_side(lam, rs[at], support_of)
        interior = np.isnan(side)
        if not density:
            value[at] = side
        if not interior.any():
            continue
        # idx addresses this chunk's interior lanes in the output arrays; a
        # basic slice gives views, not copies, when every lane is interior
        if interior.all():
            idx = at
        else:
            idx = np.arange(start, start + lam.shape[0])[interior]
            lam, nu, h, P = (None if v is None else v[interior] for v in (lam, nu, h, P))
        nu2 = nu * nu
        s_i, K, K2, w[idx], u[idx] = _solve(lam, nu2, tol)
        s[idx] = s_i
        if density:
            # J = tr(H D^-1) + x'Hx with H = P B P', D = diag(d), x = nu/d
            d = 1.0 - 2.0 * s_i[:, None] * lam
            if P is None:  # commuting pencil: H = diag(h)
                J_i = (h / d * (1.0 + nu2 / d)).sum(axis=-1)
            else:
                Ptx = ((nu / d)[:, None, :] @ P)[:, 0]
                J_i = ((((P @ B) * P).sum(axis=-1) / d).sum(axis=-1)
                       + ((Ptx @ B) * Ptx).sum(axis=-1))
            _raise_first(J_i <= 0.0, lambda i: NumericalError(
                f"nonpositive Jacobian weight J={J_i[i]:g} at r={rs[idx][i]}"))
            J[idx] = J_i
            value[idx] = np.exp(np.log(J_i) + K - 0.5 * np.log(2.0 * math.pi * K2))
            branch[idx] = "regular"
        else:
            lr, branch[idx] = _lr_value(w[idx], u[idx], lam, nu2, tol)
            value[idx] = np.clip(lr, 0.0, 1.0)
    return (value, branch, J, s, w, u) if density else (value, branch, s, w, u)


def _records(kind, cols) -> list:
    return [kind(*rec) for rec in zip(*(c.tolist() for c in cols))]


def cdf_grid(ratio: QuadFormRatio, rs, tol: Tolerances = DEFAULT_TOL) -> list:
    """First-order Lugannani-Rice approximations of Pr(R <= r), one CdfApprox per r in rs."""
    return _records(CdfApprox, _grid(ratio, rs, tol, density=False))


def pdf_grid(ratio: QuadFormRatio, rs, tol: Tolerances = DEFAULT_TOL) -> list:
    """Saddlepoint densities of R, assembled in log space, one DensityApprox per r in rs."""
    return _records(DensityApprox, _grid(ratio, rs, tol, density=True))


def cdf(ratio: QuadFormRatio, r: float, tol: Tolerances = DEFAULT_TOL) -> CdfApprox:
    """First-order Lugannani-Rice approximation of Pr(R <= r)."""
    return cdf_grid(ratio, [r], tol)[0]


def pdf(ratio: QuadFormRatio, r: float, tol: Tolerances = DEFAULT_TOL) -> DensityApprox:
    """Saddlepoint density of R at r, assembled in log space."""
    return pdf_grid(ratio, [r], tol)[0]


def _delta_centre_scale(ratio: QuadFormRatio):
    """Delta-method centre c = E[e'Ae]/E[e'Be] of R and its scale sd(e'(A - cB)e)/E[e'Be]."""
    A, B, mu = np.asarray(ratio.A), np.asarray(ratio.B), np.asarray(ratio.mu)
    eb = np.trace(B) + mu @ B @ mu
    c = (np.trace(A) + mu @ A @ mu) / eb
    M = A - c * B
    Mmu = M @ mu
    return float(c), math.sqrt(2.0 * np.sum(M * M) + 4.0 * Mmu @ Mmu) / eb


def normalized_pdf(ratio: QuadFormRatio, grid, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Saddlepoint density renormalized to unit mass over the support.

    The mass is the integral of f_hat over (l, r_bar) by tanh-sinh
    quadrature (``scipy.integrate.tanhsinh``) in theta, with r = c + s*tan(theta)
    for the delta-method centre c and scale s of R: theta runs over
    (atan((l - c)/s), atan((r_bar - c)/s)), +/-pi/2 at an infinite edge, and
    the integrand is f_hat(r) * s / cos(theta)^2.  Each refinement level
    evaluates all its nodes in one batched pass of the grid path.  The rule
    stops at relative error 1e-10 or absolute error ``tol.tol_quad * 10``;
    a rule that does not converge, a mass that is not finite and positive,
    or an error estimate above 1e-6 of the mass raises NumericalError.
    """
    info = support(ratio, tol)
    c, scale = _delta_centre_scale(ratio)

    def integrand(theta):
        t = np.tan(theta)
        f = _grid(ratio, c + scale * t, tol, True, info)[0]
        return f.reshape(theta.shape) * scale * (1.0 + t * t)

    res = scipy.integrate.tanhsinh(integrand, math.atan((info.l - c) / scale),
                                   math.atan((info.r_bar - c) / scale),
                                   rtol=1e-10, atol=tol.tol_quad * 10)
    mass, err = float(res.integral), float(res.error)
    if res.status != 0 or not math.isfinite(mass) or mass <= 0.0 or not err <= 1e-6 * mass:
        raise NumericalError(
            f"normalization quadrature failed: status={int(res.status)}, mass={mass:g}, "
            f"err={err:g}"
        )
    return _grid(ratio, grid, tol, True, info)[0] / mass
