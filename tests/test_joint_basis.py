"""Commuting pencils: one joint eigenbasis per instance instead of one eigh per point."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qfratio import (
    QuadFormRatio,
    beta_matrices,
    cdf,
    cdf_grid,
    durbin_watson,
    ls_serial_corr,
    new_ratio,
    normalized_pdf,
    pdf,
    pdf_grid,
    ratio_n2,
    spectrum_at,
    support,
)
from qfratio import core, saddlepoint

from conftest import random_case1, rng_for

GOLDEN = json.loads((Path(__file__).parent / "data" / "commuting_golden.json").read_text())


def trend(n):
    return np.column_stack([np.ones(n), np.arange(float(n))])


def yule_walker(n):
    """Lag-1 Yule-Walker autocorrelation: 1/2 on the lag-1 diagonals of A, B = I."""
    A = np.zeros((n, n))
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = 0.5
    return new_ratio(A, np.eye(n), np.zeros(n))


COMMUTING = {
    "dw20": lambda: durbin_watson(20, trend(20)),
    "dw100": lambda: durbin_watson(100, trend(100)),
    "beta62": lambda: beta_matrices(6, 2),
    "beta83_noncentral": lambda: beta_matrices(8, 3, mu=[0.5, -1.0, 1.5]),
    "yule_walker10": lambda: yule_walker(10),
}


def colliding():
    """A commuting pencil on which the first-choice matrix A/||A|| + g B/||B|| ties.

    In a random basis Q, b = (1, 1, 2, 3) and a = 2u with ||u|| = 1, where
    u_1 - u_2 = g (beta_2 - beta_1), beta = b/||b||: the joint eigenvectors 1
    and 2 (b = 1 and b = 2) share one eigenvalue of the first-choice matrix.
    """
    g = core._JOINT_MIX
    b = np.array([1.0, 1.0, 2.0, 3.0])
    beta = b / np.linalg.norm(b)
    u = np.zeros(4)
    u[0], u[2] = -0.5, -0.2
    u[1] = u[2] + g * (beta[2] - beta[1])
    u[3] = math.sqrt(1.0 - u[:3] @ u[:3])
    Q, _ = np.linalg.qr(rng_for(3).standard_normal((4, 4)))
    return new_ratio((Q * 2.0 * u) @ Q.T, (Q * b) @ Q.T, Q @ np.array([0.3, -0.8, 0.5, 1.1]))


def per_point(rt):
    """The same instance with its joint basis withheld: one eigh per point."""
    ref = QuadFormRatio(A=rt.A, B=rt.B, mu=rt.mu)
    ref.__dict__["joint_basis"] = None
    return ref


@pytest.mark.parametrize("name", sorted(COMMUTING))
def test_commuting_instances_take_the_joint_basis(name):
    basis = COMMUTING[name]().joint_basis
    assert basis is not None
    assert np.allclose(basis.P @ basis.P.T, np.eye(basis.P.shape[0]), atol=1e-13)


def test_non_commuting_instances_keep_the_per_point_path():
    for rt in (ratio_n2(0.2, 2.0), ls_serial_corr(3, 2, mu=(0.4, -1.2, 0.7)),
               ls_serial_corr(20, 1, X=trend(20)), random_case1(8, rng_for(4))):
        assert rt.joint_basis is None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_commuting_golden_set(name):
    # values of the per-point eigh path, frozen before the joint basis existed
    rt, gold = COMMUTING[name](), GOLDEN[name]
    info = support(rt)
    assert (info.l, info.r_bar) == pytest.approx((gold["l"], gold["r_bar"]), rel=1e-10, abs=0.0)
    c, p = cdf_grid(rt, gold["grid"]), pdf_grid(rt, gold["grid"])
    assert [a.branch for a in c] == gold["cdf_branch"]
    assert [a.value for a in c] == pytest.approx(gold["cdf"], rel=1e-10, abs=0.0)
    assert [a.value for a in p] == pytest.approx(gold["pdf"], rel=1e-10, abs=0.0)
    assert [a.J for a in p] == pytest.approx(gold["J"], rel=1e-10, abs=0.0)


def test_colliding_first_choice_falls_back_to_clusters_of_b(monkeypatch):
    rt = colliding()
    assert rt.B @ rt.A == pytest.approx(rt.A @ rt.B, abs=1e-14)
    g = core._JOINT_MIX
    first = rt.A / np.linalg.norm(rt.A) + g / np.linalg.norm(rt.B) * rt.B
    w = np.linalg.eigvalsh(first)
    assert np.min(np.diff(w)) < 1e-12  # the tie is real
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
    basis = rt.joint_basis
    monkeypatch.undo()
    # first choice, eigh(B), then one eigh of A per cluster b = 1, 2, 3
    assert calls == [(4, 4), (4, 4), (2, 2), (1, 1), (1, 1)]
    assert basis is not None
    assert np.sort(basis.b) == pytest.approx([1.0, 1.0, 2.0, 3.0], abs=1e-14)
    ref = per_point(rt)
    info = support(rt)
    grid = info.l + (info.r_bar - info.l) * np.array([0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    for fn in (cdf_grid, pdf_grid):
        for a, b in zip(fn(rt, grid), fn(ref, grid)):
            assert a.branch == b.branch
            assert a.value == pytest.approx(b.value, rel=1e-10, abs=0.0)
    sp, sp_ref = spectrum_at(rt, 1.3), spectrum_at(ref, 1.3)
    assert sp.lambdas == pytest.approx(sp_ref.lambdas, abs=1e-13)
    assert np.abs(sp.H - np.diag(np.diag(sp.H))).max() < 1e-13


def test_spectrum_at_reads_the_joint_basis():
    rt = COMMUTING["dw20"]()
    for r in (0.5, 2.0, 3.9):
        sp = spectrum_at(rt, r)
        M = rt.A - r * rt.B
        assert np.all(np.diff(sp.lambdas) >= 0.0)
        assert sp.P.T @ np.diag(sp.lambdas) @ sp.P == pytest.approx(M, abs=1e-13)
        assert sp.H == pytest.approx(sp.P @ rt.B @ sp.P.T, abs=1e-15)
        assert sp.lambdas == pytest.approx(np.linalg.eigvalsh(M), abs=1e-13)


def _decompositions_in_core(monkeypatch):
    """Count the matrices np.linalg.eigh decomposes when called from qfratio.core."""
    count = [0]
    eigh = np.linalg.eigh

    def spy(M):
        if sys._getframe(1).f_globals["__name__"] == "qfratio.core":
            count[0] += math.prod(np.shape(M)[:-2])
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return count


def _points_requested(monkeypatch):
    points = [0]
    pencil_eigh = saddlepoint.pencil_eigh

    def spy(ratio, rs):
        points[0] += np.size(rs)
        return pencil_eigh(ratio, rs)

    monkeypatch.setattr(saddlepoint, "pencil_eigh", spy)
    return points


@pytest.mark.parametrize("make, commuting", [
    (COMMUTING["dw20"], True),
    (COMMUTING["beta62"], True),
    (lambda: ratio_n2(0.2, 2.0), False),
    (lambda: ls_serial_corr(8, 3, X=trend(8)), False),
])
def test_one_basis_decomposition_per_commuting_instance(make, commuting, monkeypatch):
    rt = make()
    info = support(rt)
    lo = info.l if math.isfinite(info.l) else -20.0
    hi = info.r_bar if math.isfinite(info.r_bar) else 20.0
    grid = np.linspace(lo, hi, 41)[1:-1]
    decomposed = _decompositions_in_core(monkeypatch)
    points = _points_requested(monkeypatch)
    cdf_grid(rt, grid)
    pdf_grid(rt, grid)
    normalized_pdf(rt, grid)
    assert points[0] > 2 * len(grid)
    assert decomposed[0] == (1 if commuting else points[0])


def test_fresh_durbin_watson_point_pays_one_decomposition(monkeypatch):
    decomposed = _decompositions_in_core(monkeypatch)
    rt = durbin_watson(50, np.column_stack([trend(50), np.cos(np.arange(50.0))]))
    r = 1.7
    c, d = cdf(rt, r), pdf(rt, r)
    assert decomposed[0] == 1
    ref = per_point(rt)
    assert c.value == pytest.approx(cdf(ref, r).value, rel=1e-12)
    assert d.value == pytest.approx(pdf(ref, r).value, rel=1e-12)
