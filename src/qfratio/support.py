"""Support of R, tail-class membership and edge eigen-structure.

The support endpoints and their case classification follow one block
decomposition of A in the eigenbasis of B, read with sign -1 for the left
edge.  The edge structure collects everything the tail-limit formulas
need: the multiplicity m of the vanishing pencil eigenvalue, the limiting
noncentralities nu0, the relative vanishing rates omega and the limiting
B-block H_edge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_TOL,
    QuadFormRatio,
    Tolerances,
    _frozen,
    fix_eigenvector_signs,
    is_degenerate,
)
from .errors import InvalidInputError, UnsupportedInstanceError

CASE_1 = "Case1"
CASE_2A = "Case2a"
CASE_2B = "Case2b"
CASE_2C_FINITE = "Case2c-finite"
CASE_2C_INFINITE = "Case2c-infinite"

_RIGHT_TAIL_CASES = frozenset({CASE_1, CASE_2B, CASE_2C_FINITE, CASE_2C_INFINITE})


@dataclass(frozen=True)
class BlockDecomp:
    """Blocks of A in the eigenbasis of B, null directions of B last."""

    p: int
    O_B: np.ndarray  # rows are eigenvectors of B; last p rows span null(B)
    Lambda_B: np.ndarray  # the n-p positive eigenvalues of B
    C11: np.ndarray
    C12: np.ndarray
    C21: np.ndarray
    C22: np.ndarray


@dataclass(frozen=True)
class SupportInfo:
    l: float
    r_bar: float
    case_tag: str
    in_CR: bool
    in_CL: bool


@dataclass(frozen=True)
class EdgeStructure:
    """Limiting data at one edge of support.

    The m pencil eigenvalues that vanish at the edge have limiting
    eigenvectors P (columns in the basis that diagonalizes their rates);
    nu0 = P'mu.  Just inside a finite edge r_bar they vanish like
    (r_bar - r) * g, and at r = infinity like eps^2 * g in eps*A - B, both
    in closed form.  omega = g / max(g) is ascending with omega[-1] == 1
    and rounding-level rates set to 0.  H_edge = diag(g) at a finite edge
    and diag(omega), unit spectral norm, at infinity (the density limit
    is invariant to the scale of H_edge).  side="left" gives the right edge
    -l of -R, read on R at l (nu0 up to a rotation within equal omega).
    """

    side: str
    r_edge: float
    m: int
    nu0: np.ndarray
    omega: np.ndarray
    H_edge: np.ndarray


def decompose_B(ratio: QuadFormRatio, tol: Tolerances = DEFAULT_TOL) -> BlockDecomp:
    """Split A along the positive/null eigenspaces of B."""
    w, V = np.linalg.eigh(ratio.B)
    scale = np.max(np.abs(w))
    zero = np.abs(w) <= tol.tol_zero_eig * scale
    p = int(np.count_nonzero(zero))
    # positive eigenvalues first, null directions last
    order = np.concatenate([np.nonzero(~zero)[0], np.nonzero(zero)[0]])
    O_B = fix_eigenvector_signs(V[:, order]).T
    C = O_B @ ratio.A @ O_B.T
    k = ratio.n - p
    return BlockDecomp(
        p=p,
        O_B=_frozen(O_B),
        Lambda_B=_frozen(w[order][:k]),
        C11=_frozen(C[:k, :k]),
        C12=_frozen(C[:k, k:]),
        C21=_frozen(C[k:, :k]),
        C22=_frozen(C[k:, k:]),
    )


def _scale_a(ratio: QuadFormRatio) -> float:
    """A-scale max|eig(A)| of the zero judgments on blocks of A."""
    return max(np.max(np.abs(np.linalg.eigvalsh(ratio.A))), 1e-300)


def _right_edge(bd: BlockDecomp, scale_a: float, sign: float, tol: Tolerances):
    """Right support endpoint and Lemma-3 case tag of sign*R, whose blocks are sign*C."""
    zero_tol = tol.tol_zero_eig * scale_a
    eig_c22, O_C = np.linalg.eigh(sign * bd.C22)
    if np.any(eig_c22 > zero_tol):
        return np.inf, CASE_2A
    negative = eig_c22 < -zero_tol
    # case 2(c) with C12 reaching a null direction of C22: unbounded above.
    # A numerically-zero C12 block trivially satisfies the inclusion.
    c12_norm = np.linalg.norm(bd.C12)
    if c12_norm > zero_tol and np.any(
        np.linalg.norm(bd.C12 @ O_C[:, ~negative], axis=0) > tol.tol_zero_eig * c12_norm
    ):
        return np.inf, CASE_2C_INFINITE
    # cases 1 (p = 0), 2(b) (C22 < 0) and 2(c)-finite (C22 <= 0): the edge is the
    # top eigenvalue of the pencil (M, diag(Lambda_B)), M the Schur complement
    # over the negative eigenpairs of C22, where C12 enters squared
    C12_neg = bd.C12 @ O_C[:, negative]
    M = sign * bd.C11 - (C12_neg / eig_c22[negative]) @ C12_neg.T
    d = bd.Lambda_B ** -0.5
    tag = CASE_1 if bd.p == 0 else CASE_2B if np.all(negative) else CASE_2C_FINITE
    return float(np.linalg.eigvalsh(d[:, None] * M * d)[-1]), tag


def support(ratio: QuadFormRatio, tol: Tolerances = DEFAULT_TOL) -> SupportInfo:
    """Support endpoints (l, r_bar), Lemma-3 case tag and tail-class flags."""
    if is_degenerate(ratio, tol) is not None:
        raise UnsupportedInstanceError("degenerate ratio: A = c*B, support is a point")
    bd = decompose_B(ratio, tol)
    scale_a = _scale_a(ratio)
    r_bar, case_right = _right_edge(bd, scale_a, 1.0, tol)
    neg_l, case_left = _right_edge(bd, scale_a, -1.0, tol)
    return SupportInfo(
        l=-neg_l,
        r_bar=r_bar,
        case_tag=case_right,
        in_CR=case_right in _RIGHT_TAIL_CASES,
        in_CL=case_left in _RIGHT_TAIL_CASES,
    )


def _edge_from_rates(
    ratio: QuadFormRatio,
    basis: np.ndarray,
    rates: np.ndarray,
    r_edge: float,
    floor: float,
    tol: Tolerances,
) -> EdgeStructure:
    """Edge data from a basis of the vanishing cluster and its rate matrix.

    The eigenvectors W of the symmetric rate matrix give the edge basis
    P = basis @ W and its eigenvalues g the vanishing rates, so that
    P'BP is diag(g) up to a common scale.  Rates at most tol_zero_eig times
    the largest are exact zeros.
    """
    g, W = np.linalg.eigh(0.5 * (rates + rates.T))
    g = np.clip(g, 0.0, None)
    if g[-1] <= floor:
        raise UnsupportedInstanceError("B vanishes on the edge null space (top rate is 0)")
    g[g <= tol.tol_zero_eig * g[-1]] = 0.0
    omega = g / g[-1]
    P = fix_eigenvector_signs(basis @ W)
    return EdgeStructure(
        side="right",
        r_edge=float(r_edge),
        m=basis.shape[1],
        nu0=_frozen(P.T @ ratio.mu),
        omega=_frozen(omega),
        H_edge=_frozen(np.diag(g if np.isfinite(r_edge) else omega)),
    )


def _edge_finite(ratio: QuadFormRatio, r_bar: float, tol: Tolerances) -> EdgeStructure:
    # the cluster U0 of A - r_bar*B eigenvalues that vanish at the edge; just
    # inside it they move at rates eig(U0'BU0)
    lam, V = np.linalg.eigh(ratio.A - r_bar * ratio.B)
    scale = max(np.max(np.abs(lam)), 1e-300)
    cluster = np.abs(lam) <= max(tol.tol_zero_eig, 1e-12) * scale
    m = int(np.count_nonzero(cluster))
    if m == 0:
        raise UnsupportedInstanceError(
            "no vanishing pencil eigenvalue at the support edge (not in the tail class)"
        )
    if m == ratio.n:
        raise UnsupportedInstanceError("all pencil eigenvalues vanish: degenerate limit")
    U0 = V[:, cluster]
    floor = tol.tol_zero_eig * max(np.max(np.linalg.eigvalsh(ratio.B)), 1e-300)
    return _edge_from_rates(ratio, U0, U0.T @ ratio.B @ U0, r_bar, floor, tol)


def _edge_infinite(ratio: QuadFormRatio, tol: Tolerances) -> EdgeStructure:
    # In the eigenbasis of B the pencil eps*A - B is eps*C - diag(Lambda_B, 0).
    # Its eigenvalues on null(B) are eps*eig(C22) to first order; on the null
    # directions N of C22 second-order degenerate perturbation theory gives
    # eps^2 * eig(G), G = N'C21 Lambda_B^-1 C12 N, with eigenvectors tending
    # to null(B)-coordinates N @ W.  Their B-block is eps^2 * W'GW.
    bd = decompose_B(ratio, tol)
    eig_c22, O_C = np.linalg.eigh(bd.C22)
    N = O_C[:, np.abs(eig_c22) <= tol.tol_zero_eig * _scale_a(ratio)]
    if N.shape[1] == 0:
        raise UnsupportedInstanceError("r_bar = infinity outside case 2(c)")
    C12N = bd.C12 @ N
    G = C12N.T @ (C12N / bd.Lambda_B[:, None])
    basis = bd.O_B.T[:, ratio.n - bd.p:] @ N
    return _edge_from_rates(ratio, basis, G, np.inf, 0.0, tol)


def edge_structure(
    ratio: QuadFormRatio,
    info: SupportInfo,
    side: str = "right",
    tol: Tolerances = DEFAULT_TOL,
) -> EdgeStructure:
    """Edge eigen-structure (m, nu0, omega, H_edge) on the requested side."""
    if side not in ("right", "left"):
        raise InvalidInputError(f"side must be 'right' or 'left', got {side!r}")
    if not (info.in_CR if side == "right" else info.in_CL):
        raise UnsupportedInstanceError(
            f"ratio is not in the {side} tail class (case {info.case_tag})"
        )
    # the left edge l of R is the right edge -l of -R; flipping the sign of A
    # keeps the vanishing cluster, its rates and nu0, finite l or infinite
    at = info.r_bar if side == "right" else info.l
    es = _edge_finite(ratio, at, tol) if np.isfinite(at) else _edge_infinite(ratio, tol)
    return replace(es, side=side, r_edge=at if side == "right" else -at)
