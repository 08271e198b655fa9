"""Problem representation and spectral decomposition of the pencil A - r*B.

A problem instance is the ratio R = e'Ae / e'Be with e ~ N(mu, I_n),
A symmetric and B symmetric positive semidefinite.  Everything downstream
(support, saddlepoints, tail limits) is driven by the ordered eigenvalues
and eigenvectors of the symmetric pencil A - r*B.

All objects are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, NumericalError


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    Eigenvalue-zero judgments (tol_zero_eig, tol_psd) are relative: they are
    scaled by the largest eigenvalue magnitude of the matrix being judged.
    """

    tol_psd: float = 1e-9
    tol_zero_eig: float = 1e-9
    tol_root: float = 1e-12
    tol_quad: float = 1e-10
    mean_branch_threshold: float = 1e-5

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
class QuadFormRatio:
    """The ratio R = e'Ae / e'Be with e ~ N(mu, I_n).

    A is symmetric, B symmetric positive semidefinite (both enforced at
    construction through :func:`new_ratio`).
    """

    A: np.ndarray
    B: np.ndarray
    mu: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SpectrumAtR:
    """Eigen-data of A - r*B at a fixed evaluation point r.

    ``lambdas`` are ascending; the rows of the orthogonal matrix ``P`` are
    the matching eigenvectors, so P (A - rB) P' = diag(lambdas).
    ``nu = P mu`` carries the noncentralities and ``H = P B P'``.
    """

    r: float
    lambdas: np.ndarray
    P: np.ndarray
    nu: np.ndarray
    H: np.ndarray

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


# a stacked eigen-decomposition holds at most this many entries per (k, n, n)
# array, so that long grids at large n are processed chunk by chunk
_STACK_ELEMENTS = 1 << 20


def pencil_eigh(ratio: QuadFormRatio, rs):
    """Eigen-decompose A - r*B for every r in ``rs``, one stacked eigh per chunk.

    Yields ``(start, lambdas, P)`` per chunk of consecutive points: ascending
    eigenvalues ``(k, n)`` and eigenvector rows ``(k, n, n)``, so that
    ``P[i] (A - r_i B) P[i]' = diag(lambdas[i])``.  The rows keep the signs
    the eigensolver gives them: the saddlepoint quantities are invariant to
    them, and ``spectrum_at`` fixes them for its one point.
    """
    rs = np.asarray(rs, dtype=float).reshape(-1)
    bad = ~np.isfinite(rs)
    if bad.any():
        raise InvalidInputError(f"evaluation point r={rs[bad][0]} must be finite")
    step = max(1, _STACK_ELEMENTS // ratio.n**2)
    for start in range(0, rs.shape[0], step):
        chunk = rs[start : start + step]
        try:
            lam, V = np.linalg.eigh(ratio.A - chunk[:, None, None] * ratio.B)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(
                f"symmetric eigensolver failed for r in [{chunk.min()}, {chunk.max()}]: {exc}"
            ) from exc
        yield start, lam, np.swapaxes(V, -1, -2)


def spectrum_at(ratio: QuadFormRatio, r: float, tol: Tolerances = DEFAULT_TOL) -> SpectrumAtR:
    """Eigen-decompose A - r*B: ascending eigenvalues, sign-fixed eigenvectors."""
    _, lam, rows = next(pencil_eigh(ratio, [r]))
    P = fix_eigenvector_signs(rows[0].T).T
    return SpectrumAtR(
        r=float(r),
        lambdas=_frozen(lam[0]),
        P=_frozen(P),
        nu=_frozen(P @ ratio.mu),
        H=_frozen(P @ ratio.B @ P.T),
    )


def negate(ratio: QuadFormRatio) -> QuadFormRatio:
    """Map R to -R by flipping A; left-tail queries become right-tail ones."""
    return QuadFormRatio(A=_frozen(-ratio.A), B=ratio.B, mu=ratio.mu)


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
