"""Saddlepoint solving, Lugannani-Rice CDF and the density of R.

X_r = e'(A - rB)e is the signed quadratic form whose sign probabilities give
the CDF of R.  Its CGF K is a sum of noncentral chi-square cumulant terms
over the pencil spectrum; ``cumulant_sums`` evaluates K and its derivatives
for a whole stack of spectra at once.  The saddlepoint is the unique root of
K' inside the convergence strip 1/(2*lambda_min) < s < 1/(2*lambda_max),
found by one safeguarded Newton pass bracketed by the strip and stopped at
the rounding scale of K' itself.  ``cdf_grid``/``pdf_grid`` evaluate a whole
grid at once on stacked spectra, one Newton lane per point; ``cdf``/``pdf``
are their one-point case, and ``solve_saddlepoint`` solves one spectrum.

The ratio keeps the last chunk of points it solved (spectra, boundary sides
and saddlepoints).  A cdf and a pdf request at the same points, on an equal
``tol`` and within one chunk of ``pencil_eigh``, pay one pass: the second
request only assembles its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.integrate
import scipy.special

from .core import DEFAULT_TOL, QuadFormRatio, SpectrumAtR, Tolerances, pencil_eigh
from .errors import InvalidInputError, NumericalError, UnsupportedInstanceError
from .rootfind import newton_bracketed
from .support import support

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_G_SERIES = (-1.0) ** np.arange(16, 0, -1) / np.arange(18, 2, -1)  # g(z), top power first


@dataclass(frozen=True)
class SaddlepointSolution:
    s_hat: float
    w_hat: float
    u_hat: float
    K: float
    K2: float


@dataclass(frozen=True)
class CdfApprox:
    value: float
    branch: str  # "regular" (Lugannani-Rice) or "boundary"
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


def cumulant_sums(lam, nu2, s, orders=(0, 1, 2, 3), k1_scale=False) -> list:
    """K^(j)(s) for each j in ``orders``, X = sum_i lam_i chi2_1(nu2_i).

    The last axis of ``lam`` and ``nu2`` runs over the terms; ``s`` holds
    one tilt per lane of the leading axes.  With d = 1 - 2*s*lam and
    x = lam/d, K = sum(-log(d)/2 + s*lam*nu2/d) and, for j >= 1,
    K^(j) = 2^(j-1) (j-1)! sum(x^j (1 + j*nu2/d)).  With ``k1_scale`` the
    list ends with sum(|x| (1 + nu2/d)), the magnitudes of the terms of K'.
    """
    t = 2.0 * np.asarray(s, dtype=float)[..., None] * lam
    d = 1.0 - t
    y = nu2 / d
    x = lam / d
    k1_terms = x * (1.0 + y)
    out = []
    for j in orders:
        if j == 0:
            out.append((0.5 * t * y - 0.5 * np.log1p(-t)).sum(axis=-1))
        elif j == 1:
            out.append(k1_terms.sum(axis=-1))
        else:
            term = (x**j * (1.0 + j * y)).sum(axis=-1)
            out.append(2 ** (j - 1) * math.factorial(j - 1) * term)
    if k1_scale:  # d > 0 in the strip: |x (1 + nu2/d)| = |x| (1 + nu2/d)
        out.append(np.abs(k1_terms).sum(axis=-1))
    return out


def _raise_first(bad: np.ndarray, make) -> None:
    """Raise ``make(i)`` for the first lane i flagged in ``bad``, if any."""
    if bad.any():
        raise make(int(np.argmax(bad)))


def _solve(lam: np.ndarray, nu2: np.ndarray, tol: Tolerances):
    """Saddlepoints of a (k, n) stack of spectra: s_hat, K, K'' and ``_lr_terms`` per lane.

    One bracketed Newton pass per lane accepts K' at tol_root times the
    rounding scale of K' at s, the smaller of sum |lambda/d| (1 + nu^2/d),
    with d = 1 - 2*s*lambda, and its s = 0 value sum |lambda| (1 + nu^2).
    Deep in an infinite tail, where one lambda is about -r, the s = 0 sum
    grows like |r| while K' at the root keeps the scale of its own terms.
    Newton sees K' and its step slope both divided by that scale: the steps
    are those on K', and only the stop test is scaled.
    """
    if not ((lam[:, 0] < 0.0) & (lam[:, -1] > 0.0)).all():
        if ((lam[:, 0] == 0.0) & (lam[:, -1] == 0.0)).any():
            raise InvalidInputError("all-zero spectrum: degenerate instance")
        # one-signed spectrum: K' never changes sign, r is outside the open support
        raise UnsupportedInstanceError(
            "no saddlepoint: the spectrum is one-signed (r outside the open support)"
        )
    lo, hi = 0.5 / lam[:, 0], 0.5 / lam[:, -1]
    lo, hi = lo + 1e-12 * np.abs(lo), hi - 1e-12 * np.abs(hi)
    edges = 2.0 * lam[:, [0, -1]]
    cap = (np.abs(lam) * (1.0 + nu2)).sum(axis=-1)

    def k1_and_slope(s):
        # Newton steps on K' * d_min * d_max (d = 1 - 2*s*lambda at the two
        # extreme eigenvalues): the same root without the poles at the strip
        # edges, near which plain Newton creeps
        K1, K2, scale = cumulant_sums(lam, nu2, s, (1, 2), k1_scale=True)
        slope = K2 - K1 * (edges / (1.0 - s[..., None] * edges)).sum(axis=-1)
        scale = np.minimum(scale, cap)
        return K1 / scale, slope / scale

    # Newton stops on the scaled test; its last step leaves |K'| far under the
    # tolerance, unless the slope there is rounding noise: one cumulant pass
    # covers both the last point and the accepted one before it, and the
    # smaller scaled |K'| wins
    s_pair = np.array(newton_bracketed(k1_and_slope, lo, hi, x0=0.0, f_tol=tol.tol_root))
    K, K1, K2, scale = cumulant_sums(lam, nu2, s_pair, (0, 1, 2), k1_scale=True)
    miss = np.abs(K1) / np.minimum(scale, cap)
    last = miss[0] <= miss[1]
    s_hat, K, K1, K2, miss = (np.where(last, v[0], v[1]) for v in (s_pair, K, K1, K2, miss))
    _raise_first(miss > tol.tol_root, lambda i: NumericalError(
        f"saddlepoint solve left |K'|={abs(K1[i]):.3e} above tolerance"))
    return (s_hat, K, K2) + _lr_terms(lam, nu2, s_hat, K1, K2)


def _lr_terms(lam, nu2, s, K1, K2) -> tuple:
    """w_hat, u_hat and lr = 1/w_hat - 1/u_hat per lane, by one formula that cancels nothing.

    With y = 2 s lambda, z = y/(1 - y), q = z/s and g = (z - z^2/2 - log1p z)/z^3 (its
    series for |z| < 0.1), w = s omega and u = s kappa for kappa^2 = K'' and
    omega^2 = sum q^2 (1/2 + z g + nu^2), and lr = sum q^3 (nu^2 - g)/(kappa omega (kappa
    + omega)), K'''/(6 K''^(3/2)) at s = 0.  Unlike -2K, w^2 = 2(s K' - K) moves with s.
    """
    y = 2.0 * s[:, None] * lam
    q, z = 2.0 * lam / (1.0 - y), y / (1.0 - y)
    series = np.abs(z) < 0.1  # where the closed form of g cancels
    zc = np.where(series, 1.0, z)
    a = (zc + np.log1p(-y)) / (zc * zc)  # (z - log(1 + z))/z^2 = 1/2 + z g, finite at z = -1
    g = np.where(series, np.polyval(_G_SERIES, z), (a - 0.5) / zc)
    a = np.where(series, 0.5 + z * g, a)
    omega, kappa = np.sqrt((q * q * (a + nu2)).sum(axis=-1)), np.sqrt(K2)
    lr = (q**3 * (nu2 - g)).sum(axis=-1) / (kappa * omega * (kappa + omega))
    return s * omega - K1 / omega, s * kappa - K1 / kappa, lr  # first-order step to K' = 0


def solve_saddlepoint(
    spectrum: SpectrumAtR, tol: Tolerances = DEFAULT_TOL
) -> SaddlepointSolution:
    """Unique root of K' in the strip, with the w-hat/u-hat pair and K, K'' there."""
    lam = np.asarray(spectrum.lambdas)[None]
    s, K, K2, w, u, _ = (float(v[0]) for v in _solve(lam, np.asarray(spectrum.nu)[None] ** 2, tol))
    return SaddlepointSolution(s_hat=s, w_hat=w, u_hat=u, K=K, K2=K2)


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


class _Chunk(NamedTuple):
    """One solved ``pencil_eigh`` chunk: ``side`` per lane, the rest per interior lane.

    ``side`` is 0.0/1.0 where r is at or beyond an edge of the support and
    nan inside it; the interior lanes keep the spectrum (lam, nu, nu^2 and
    h or P, as ``pencil_eigh`` gives them) and the saddlepoint solve (s_hat,
    K, K'', w_hat, u_hat and the Lugannani-Rice term 1/w_hat - 1/u_hat).
    """

    side: np.ndarray
    lam: np.ndarray
    nu: np.ndarray
    nu2: np.ndarray
    h: np.ndarray | None
    P: np.ndarray | None
    s: np.ndarray
    K: np.ndarray
    K2: np.ndarray
    w: np.ndarray
    u: np.ndarray
    lr: np.ndarray


# where a ratio keeps the last chunk _solved_chunks solved, as one tuple
# ((bytes of the chunk's points, tol), _Chunk)
_LAST_CHUNK = "_last_solved_chunk"


def _solved_chunks(ratio: QuadFormRatio, rs: np.ndarray, tol: Tolerances, info=None):
    """Yield ``(start, _Chunk)`` for each ``pencil_eigh`` chunk of ``rs``.

    The last chunk solved is kept on ``ratio``.  A request for exactly its
    points, on an equal ``tol``, reads it back and decomposes, tests and
    solves nothing: a cdf and a pdf at the same points pay one pass.  The
    entry is written as one tuple of read-only arrays, so threads sharing a
    ratio see the old entry or the new one whole.  ``info`` is the support
    of ``ratio`` when the caller has it; otherwise it is computed at most
    once, and only if a point is flagged near an edge.
    """
    last = ratio.__dict__.get(_LAST_CHUNK)
    if last is not None and last[0] == (rs.tobytes(), tol):
        yield 0, last[1]
        return

    def support_of():
        nonlocal info
        if info is None:
            info = support(ratio, tol)
        return info

    for start, lam, nu, h, P in pencil_eigh(ratio, rs):
        points = rs[start : start + lam.shape[0]]
        side = _boundary_side(lam, points, support_of)
        interior = np.isnan(side)
        # every lane interior: keep pencil_eigh's arrays rather than copies
        if not interior.all():
            lam, nu, h, P = (None if v is None else v[interior] for v in (lam, nu, h, P))
        nu2 = nu * nu
        solved = _solve(lam, nu2, tol) if interior.any() else np.empty((6, 0))
        chunk = _Chunk(side, lam, nu, nu2, h, P, *solved)
        for v in chunk:
            if v is not None:
                v.setflags(write=False)
        ratio.__dict__[_LAST_CHUNK] = ((points.tobytes(), tol), chunk)
        yield start, chunk


def _grid(ratio: QuadFormRatio, rs, tol: Tolerances, density: bool, info=None) -> tuple:
    """Arrays over rs: value, branch, s_hat, w_hat, u_hat; with ``density``, J after branch.

    Both are assembled from ``_solved_chunks`` (which takes ``info``):
    Lugannani-Rice for the CDF; for the density, J and then
    exp(log J + K - log(2 pi K'')/2), so J is computed only for a density.
    """
    rs = np.asarray(rs, dtype=float).reshape(-1)
    B = np.asarray(ratio.B)
    value = np.zeros(rs.shape)
    branch = np.full(rs.shape, "boundary", dtype=object)
    s, w, u, J = np.full((4,) + rs.shape, math.nan)
    for start, c in _solved_chunks(ratio, rs, tol, info):
        if not density:
            value[start : start + c.side.shape[0]] = c.side
        idx = start + np.flatnonzero(np.isnan(c.side))
        if not idx.size:
            continue
        s[idx], w[idx], u[idx] = c.s, c.w, c.u
        if density:
            # J = tr(H D^-1) + x'Hx with H = P B P', D = diag(d), x = nu/d
            d = 1.0 - 2.0 * c.s[:, None] * c.lam
            if c.P is None:  # commuting pencil: H = diag(h)
                J_i = (c.h / d * (1.0 + c.nu2 / d)).sum(axis=-1)
            else:
                Ptx = ((c.nu / d)[:, None, :] @ c.P)[:, 0]
                J_i = ((((c.P @ B) * c.P).sum(axis=-1) / d).sum(axis=-1)
                       + ((Ptx @ B) * Ptx).sum(axis=-1))
            _raise_first(J_i <= 0.0, lambda i: NumericalError(
                f"nonpositive Jacobian weight J={J_i[i]:g} at r={rs[idx][i]}"))
            J[idx] = J_i
            value[idx] = np.exp(np.log(J_i) + c.K - 0.5 * np.log(2.0 * math.pi * c.K2))
        else:
            F = scipy.special.ndtr(c.w) + np.exp(-0.5 * c.w * c.w) / _SQRT_2PI * c.lr
            value[idx] = np.clip(F, 0.0, 1.0)
        branch[idx] = "regular"
    return (value, branch, J, s, w, u) if density else (value, branch, s, w, u)


def _records(kind, cols) -> list:
    return [kind(*rec) for rec in zip(*(c.tolist() for c in cols))]


def cdf_grid(ratio: QuadFormRatio, rs, tol: Tolerances = DEFAULT_TOL) -> list:
    """First-order Lugannani-Rice approximations of Pr(R <= r), one CdfApprox per r in rs.

    After a ``pdf_grid`` at the same points and ``tol``, within one chunk,
    this reads the ratio's solved chunk instead of solving again.
    """
    return _records(CdfApprox, _grid(ratio, rs, tol, density=False))


def pdf_grid(ratio: QuadFormRatio, rs, tol: Tolerances = DEFAULT_TOL) -> list:
    """Saddlepoint densities of R, assembled in log space, one DensityApprox per r in rs.

    After a ``cdf_grid`` at the same points and ``tol``, within one chunk,
    this reads the ratio's solved chunk instead of solving again; only the
    Jacobian weight J is computed here, and J <= 0 raises NumericalError.
    """
    return _records(DensityApprox, _grid(ratio, rs, tol, density=True))


def cdf(ratio: QuadFormRatio, r: float, tol: Tolerances = DEFAULT_TOL) -> CdfApprox:
    """First-order Lugannani-Rice approximation of Pr(R <= r).

    Right after a ``pdf`` at the same r and ``tol``, its solve is reused.
    """
    return cdf_grid(ratio, [r], tol)[0]


def pdf(ratio: QuadFormRatio, r: float, tol: Tolerances = DEFAULT_TOL) -> DensityApprox:
    """Saddlepoint density of R at r, assembled in log space.

    Right after a ``cdf`` at the same r and ``tol``, its solve is reused.
    """
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
