"""Problem representation and spectral decomposition of the pencil A - r*B.

A problem instance is the ratio R = e'Ae / e'Be with e ~ N(mu, I_n),
A symmetric and B symmetric positive semidefinite.  Everything downstream
(support, saddlepoints, tail limits) is driven by the ordered eigenvalues
and eigenvectors of the symmetric pencil A - r*B.  When A and B commute
(Durbin-Watson, Yule-Walker, the beta family) one joint eigenbasis serves
every r; otherwise each r takes its own eigen-decomposition.

The fields of every object are fixed at construction and the functions have
no side effects, except that a ``QuadFormRatio`` caches two things derived
from its fields: ``joint_basis`` and the last pencil chunk the saddlepoint
layer solved.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, NumericalError


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package; the Lugannani-Rice CDF takes none.

    Eigenvalue-zero judgments (tol_zero_eig, tol_psd) are relative: they are
    scaled by the largest eigenvalue magnitude of the matrix being judged.
    """

    tol_psd: float = 1e-9
    tol_zero_eig: float = 1e-9
    tol_root: float = 1e-12
    tol_quad: float = 1e-10

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not getattr(self, f.name) > 0.0:
                raise InvalidInputError(f"tolerance {f.name} must be strictly positive")

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)


DEFAULT_TOL = Tolerances()


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class JointBasis:
    """One orthonormal basis that diagonalizes both A and B.

    The rows of ``P`` are the basis vectors: P A P' = diag(a) and
    P B P' = diag(b) to within ``_JOINT_TAU``, so the pencil spectrum at any
    r is a - r*b, with fixed noncentralities ``nu = P mu``.
    """

    P: np.ndarray
    a: np.ndarray
    b: np.ndarray
    nu: np.ndarray


@dataclass(frozen=True)
class QuadFormRatio:
    """The ratio R = e'Ae / e'Be with e ~ N(mu, I_n).

    A is symmetric, B symmetric positive semidefinite (both enforced at
    construction through :func:`new_ratio`).  The fields never change; the
    instance caches two things derived from them.  ``joint_basis`` is the
    eigenbasis that A and B share when they commute, else None; it is
    computed on first use and kept for the life of the instance.  The
    saddlepoint layer keeps the last pencil chunk it solved, with its points
    and tolerances, so that a cdf and a pdf at the same points solve once.
    """

    A: np.ndarray
    B: np.ndarray
    mu: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @functools.cached_property
    def joint_basis(self) -> "JointBasis | None":
        return _joint_basis(self.A, self.B, self.mu)


@dataclass(frozen=True)
class SpectrumAtR:
    """Eigen-data of A - r*B at a fixed evaluation point r.

    ``lambdas`` are ascending; the rows of the orthogonal matrix ``P`` are
    the matching eigenvectors, so P (A - rB) P' = diag(lambdas).
    ``nu = P mu`` carries the noncentralities.  For a commuting pencil P is
    the joint basis in the order of the lambdas, so P B P' is diagonal to
    rounding.
    """

    r: float
    lambdas: np.ndarray
    P: np.ndarray
    nu: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]


def _as_square(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return M


def symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M')/2; quadratic forms only see the symmetric part."""
    return 0.5 * (M + M.T)


def fix_eigenvector_signs(V: np.ndarray) -> np.ndarray:
    """Make the first nonzero component of each column positive.

    ``V`` is one basis or a ``(..., n, n)`` stack of them.  A component
    counts as nonzero above 1e-12 times the largest magnitude in its column;
    all-zero columns are left alone.  Deterministic tie-breaking for
    eigenvector bases; every downstream quantity is invariant to these
    signs, only reproducibility is at stake.
    """
    V = np.asarray(V, dtype=float)
    mag = np.abs(V)
    big = mag > 1e-12 * mag.max(axis=-2, keepdims=True)
    lead = np.take_along_axis(V, np.argmax(big, axis=-2)[..., None, :], axis=-2)
    return np.where(big.any(axis=-2, keepdims=True) & (lead < 0), -V, V)


def new_ratio(A_raw, B_raw, mu, tol: Tolerances = DEFAULT_TOL) -> QuadFormRatio:
    """Validate and build a problem instance.

    Inputs are symmetrized; B must be PSD within tol.tol_psd (relative to
    its largest eigenvalue magnitude) and not identically zero.
    """
    A = symmetrize(_as_square(A_raw, "A"))
    B = symmetrize(_as_square(B_raw, "B"))
    if A.shape != B.shape:
        raise InvalidInputError(f"A and B sizes differ: {A.shape} vs {B.shape}")
    n = A.shape[0]
    if n < 2:
        raise InvalidInputError("need n >= 2")
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if mu.shape != (n,):
        raise InvalidInputError(f"mu must have length {n}, got {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise InvalidInputError("mu contains non-finite entries")

    eig_b = np.linalg.eigvalsh(B)
    scale_b = max(np.max(np.abs(eig_b)), 0.0)
    if scale_b == 0.0:
        raise InvalidInputError("B is zero: the denominator quadratic form vanishes")
    if eig_b[0] < -tol.tol_psd * scale_b:
        raise InvalidInputError(
            f"B is not positive semidefinite: smallest eigenvalue {eig_b[0]:.3e}"
        )
    return QuadFormRatio(A=_frozen(A), B=_frozen(B), mu=_frozen(mu))


def whiten(A, B, mu, Sigma, tol: Tolerances = DEFAULT_TOL) -> QuadFormRatio:
    """Reduce a N(mu, Sigma) model to the unit-covariance form.

    Returns the instance (S A S, S B S, S^{-1} mu) with S the symmetric
    square root of Sigma; the distribution of R is unchanged.
    """
    Sigma = symmetrize(_as_square(Sigma, "Sigma"))
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    mu = np.asarray(mu, dtype=float).reshape(-1)
    for name, M, shape in (("B", B, A.shape), ("Sigma", Sigma, A.shape), ("mu", mu, A.shape[:1])):
        if M.shape != shape:
            raise InvalidInputError(f"{name} must have shape {shape}, got {M.shape}")
    w, V = np.linalg.eigh(Sigma)
    if w[0] <= tol.tol_psd * max(np.max(np.abs(w)), 1.0):
        raise InvalidInputError("Sigma must be positive definite")
    S = (V * np.sqrt(w)) @ V.T
    S_inv = (V / np.sqrt(w)) @ V.T
    return new_ratio(S @ A @ S, S @ B @ S, S_inv @ mu, tol=tol)


# off-diagonal mass, relative to the Frobenius norm, at which a rotated A or
# B still counts as diagonal: about 400 times the rounding of one eigh and
# two basis changes at n = 200 (2.6e-15 for Durbin-Watson)
_JOINT_TAU = 1e-12
# weight of B/||B|| against A/||A|| in the matrix whose eigenvectors are
# tried first as the joint basis; irrational, so that the simple fractions
# of structured instances do not make two distinct pairs (a_i, b_i) tie
_JOINT_MIX = (5.0**0.5 - 1.0) / 2.0


def _off_diagonal_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M - np.diag(np.diag(M))))


def _joint_basis(A, B, mu) -> JointBasis | None:
    """The eigenbasis shared by A and B when they commute, else None.

    A commutator ||AB - BA||_F = ||AB - (AB)'||_F above _JOINT_TAU ||A|| ||B||
    rules the pair out at the cost of one product.  Otherwise the basis is
    taken from one eigh of A/||A|| + _JOINT_MIX B/||B||.  Where that matrix
    has one eigenvalue for two different pairs (a_i, b_i), its eigenvectors
    mix two joint eigenspaces; then the basis is the eigenvectors of B with,
    inside each cluster of equal eigenvalues of B, those of A.  Either basis
    is accepted only if it is verified: P A P' and P B P' must both be
    diagonal to _JOINT_TAU relative to ||A||_F and ||B||_F.
    """
    A, B = np.asarray(A), np.asarray(B)
    norm_a, norm_b = float(np.linalg.norm(A)), float(np.linalg.norm(B))
    AB = A @ B
    if not np.linalg.norm(AB - AB.T) <= _JOINT_TAU * norm_a * norm_b:
        return None

    def verified(V):
        P = fix_eigenvector_signs(V).T
        PA, PB = P @ A @ P.T, P @ B @ P.T
        if (_off_diagonal_norm(PA) <= _JOINT_TAU * norm_a
                and _off_diagonal_norm(PB) <= _JOINT_TAU * norm_b):
            return JointBasis(P=_frozen(P), a=_frozen(np.diag(PA)), b=_frozen(np.diag(PB)),
                              nu=_frozen(P @ np.asarray(mu)))
        return None

    _, V = np.linalg.eigh(A / (norm_a or 1.0) + _JOINT_MIX / norm_b * B)
    basis = verified(V)
    if basis is None:
        w, V = np.linalg.eigh(B)
        clusters = np.split(V, np.flatnonzero(np.diff(w) > _JOINT_TAU * norm_b) + 1, axis=1)
        basis = verified(np.hstack([Vc @ np.linalg.eigh(Vc.T @ A @ Vc)[1] for Vc in clusters]))
    return basis


# a stacked eigen-decomposition holds at most this many entries per (k, n, n)
# array, so that long grids at large n are processed chunk by chunk
_STACK_ELEMENTS = 1 << 20


def _joint_spectra(basis: JointBasis, rs: np.ndarray):
    """Per r in rs, the order of the joint basis that sorts a - r*b, and the sorted values."""
    lam = basis.a - rs[:, None] * basis.b
    order = np.argsort(lam, axis=-1, kind="stable")
    return order, np.take_along_axis(lam, order, axis=-1)


def pencil_eigh(ratio: QuadFormRatio, rs):
    """Spectra of A - r*B for every r in ``rs``, chunk by chunk.

    Yields ``(start, lambdas, nu, h, P)`` per chunk of consecutive points:
    ascending eigenvalues ``(k, n)`` and the noncentralities ``nu = P mu``
    ``(k, n)`` in the same order, P being each point's eigenvector rows.

    When A and B commute (``ratio.joint_basis``), no point is decomposed:
    ``lambdas`` is a - r*b sorted per lane, ``nu`` and ``h`` are the joint
    basis' nu and b permuted alike, H = P B P' = diag(h), and ``P`` is None.
    Otherwise each chunk takes one stacked eigh, ``P`` holds the rows
    ``(k, n, n)``, so that ``P[i] (A - r_i B) P[i]' = diag(lambdas[i])``,
    and ``h`` is None.  The rows keep the signs the eigensolver gives them:
    the saddlepoint quantities are invariant to them, and ``spectrum_at``
    fixes them for its one point.
    """
    rs = np.asarray(rs, dtype=float).reshape(-1)
    bad = ~np.isfinite(rs)
    if bad.any():
        raise InvalidInputError(f"evaluation point r={rs[bad][0]} must be finite")
    basis = ratio.joint_basis
    step = max(1, _STACK_ELEMENTS // ratio.n**2)
    for start in range(0, rs.shape[0], step):
        chunk = rs[start : start + step]
        if basis is not None:
            order, lam = _joint_spectra(basis, chunk)
            yield start, lam, basis.nu[order], basis.b[order], None
            continue
        try:
            lam, V = np.linalg.eigh(ratio.A - chunk[:, None, None] * ratio.B)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(
                f"symmetric eigensolver failed for r in [{chunk.min()}, {chunk.max()}]: {exc}"
            ) from exc
        P = np.swapaxes(V, -1, -2)
        yield start, lam, P @ ratio.mu, None, P


def spectrum_at(ratio: QuadFormRatio, r: float) -> SpectrumAtR:
    """Eigen-decompose A - r*B: ascending eigenvalues, sign-fixed eigenvectors.

    A commuting pencil reads them off its joint basis, reordered for r;
    any other takes one eigh, through ``pencil_eigh``.
    """
    basis = ratio.joint_basis
    if basis is not None:
        order, lam = _joint_spectra(basis, np.array([float(r)]))
        P = basis.P[order[0]]
    else:
        _, lam, _, _, rows = next(pencil_eigh(ratio, [r]))
        P = fix_eigenvector_signs(rows[0].T).T
    return SpectrumAtR(
        r=float(r),
        lambdas=_frozen(lam[0]),
        P=_frozen(P),
        nu=_frozen(P @ ratio.mu),
    )


def is_degenerate(ratio: QuadFormRatio, tol: Tolerances = DEFAULT_TOL):
    """Return the constant c if R is degenerate at c (A = c*B), else None.

    c is the least-squares fit of A on B over matrix entries; the match is
    accepted when ||A - cB|| is small relative to ||A|| + |c|*||B||.
    """
    A, B = ratio.A, ratio.B
    bb = float(np.sum(B * B))
    c = float(np.sum(A * B)) / bb
    resid = np.linalg.norm(A - c * B)
    scale = np.linalg.norm(A) + abs(c) * np.linalg.norm(B)
    if scale == 0.0:
        return 0.0  # A = 0 = 0*B: point mass at zero
    if resid <= 1e3 * tol.tol_zero_eig * scale:
        return c
    return None
