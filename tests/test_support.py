"""Support endpoints, case classification and edge eigen-structure."""

import importlib
import math

import numpy as np
import pytest
import scipy.linalg

from qfratio import (
    DEFAULT_TOL,
    UnsupportedInstanceError,
    beta_matrices,
    decompose_B,
    durbin_watson,
    edge_structure,
    limit_multiple,
    ls_serial_corr,
    new_ratio,
    ratio_n2,
    spectrum_at,
    support,
)
from qfratio.support import SupportInfo

supp = importlib.import_module("qfratio.support")  # qfratio.support is the function

from conftest import direct_edge_data, random_case1, random_case2b, random_case2c_infinite, rng_for


def test_decompose_B_rank_one_offdiag():
    rt = ratio_n2(0.0, 0.0)
    dec = decompose_B(rt)
    assert dec.p == 1
    assert np.allclose(dec.C22, [[0.0]], atol=1e-14)
    assert np.allclose(np.abs(dec.C12), [[0.5]], atol=1e-14)


def test_decompose_B_full_rank():
    rt = new_ratio(np.diag([1.0, 0.0, 0.0]), np.eye(3), np.zeros(3))
    assert decompose_B(rt).p == 0


def test_decompose_B_lag2_n3():
    rt = ls_serial_corr(3, 2)
    dec = decompose_B(rt)
    assert dec.p == 2
    assert np.allclose(dec.C22, np.zeros((2, 2)), atol=1e-14)


def test_support_case1_diagonal():
    rt = new_ratio(np.diag([1.0, 0.0]), np.eye(2), np.zeros(2))
    info = support(rt)
    assert info.case_tag == "Case1"
    assert info.l == pytest.approx(0.0, abs=1e-12)
    assert info.r_bar == pytest.approx(1.0, abs=1e-12)
    assert info.in_CR and info.in_CL


def test_support_case2a_one_sided():
    # numerator coordinate missing from the denominator: unbounded above
    rt = new_ratio(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros(2))
    info = support(rt)
    assert info.case_tag == "Case2a"
    assert math.isinf(info.r_bar)
    assert info.l == pytest.approx(0.0, abs=1e-12)
    assert not info.in_CR


def test_support_heavy_tail_doubly_infinite():
    info = support(ratio_n2(0.2, 2.0))
    assert info.case_tag == "Case2c-infinite"
    assert math.isinf(info.r_bar) and math.isinf(info.l)
    assert info.in_CR and info.in_CL


def test_support_durbin_watson_case2c_finite():
    rt = durbin_watson(5, np.ones((5, 1)))
    info = support(rt)
    assert info.case_tag.startswith("Case2")
    assert info.in_CR and info.in_CL
    # eigenvalues of the first-difference form on the residual space of an
    # intercept fit: 2(1 - cos(pi j / 5)), j = 1..4
    expected = 2.0 * (1.0 - np.cos(np.pi * np.arange(1, 5) / 5.0))
    assert info.l == pytest.approx(expected.min(), abs=1e-9)
    assert info.r_bar == pytest.approx(expected.max(), abs=1e-9)


def test_support_rejects_degenerate():
    with pytest.raises(UnsupportedInstanceError):
        support(new_ratio(3.0 * np.eye(3), np.eye(3), np.zeros(3)))


def test_tail_class_error_names_the_tag_of_its_side():
    # the left edge of diag(-1, 0) / diag(0, 1) is case 2(a), its right edge 2(b)
    rt = new_ratio(np.diag([-1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros(2))
    info = support(rt)
    assert (info.case_tag, info.case_tag_left, info.in_CR, info.in_CL) == (
        "Case2b", "Case2a", True, False)
    with pytest.raises(UnsupportedInstanceError, match=r"left tail class \(case Case2a\)"):
        edge_structure(rt, info, "left")


def test_top_eigenvalue_vanishes_at_right_edge(rng):
    # the largest pencil eigenvalue hits zero exactly at r_bar
    for seed in range(8):
        rt = random_case1(5, rng_for(300 + seed))
        info = support(rt)
        lam = np.asarray(spectrum_at(rt, info.r_bar).lambdas)
        assert abs(lam[-1]) <= 1e-8 * np.max(np.abs(lam))
        lam_in = np.asarray(spectrum_at(rt, info.r_bar - 1e-3).lambdas)
        assert lam_in[-1] > 0.0


def test_case2b_edge(rng):
    for seed in range(5):
        rt = random_case2b(5, rng_for(400 + seed))
        info = support(rt)
        assert info.case_tag in ("Case2b", "Case2c-finite")
        assert math.isfinite(info.r_bar)
        lam = np.asarray(spectrum_at(rt, info.r_bar).lambdas)
        assert abs(lam[-1]) <= 1e-8 * np.max(np.abs(lam))


def test_case2b_tag_and_schur_edge():
    # C22 < 0: the edge is the top eigenvalue of the pencil
    # (C11 + C12 (-C22)^-1 C21, Lambda_B)
    for seed in range(5):
        rt = random_case2b(6, rng_for(400 + seed), p=2)
        info = support(rt)
        assert info.case_tag == "Case2b"
        bd = decompose_B(rt)
        M = bd.C11 + bd.C12 @ np.linalg.solve(-bd.C22, bd.C21)
        top = np.linalg.eigvals(np.linalg.solve(np.diag(bd.Lambda_B), M)).real.max()
        assert info.r_bar == pytest.approx(top, rel=1e-10)


def test_edge_structure_infinite_multiple_matches_small_eps():
    # m = 2 at r = infinity with a negative direction in C22: the closed form
    # agrees with the eigen-data of eps*A - B at eps = 1e-5 up to O(eps)
    for seed in range(900, 906):
        rt = random_case2c_infinite(6, rng_for(seed))
        info = support(rt)
        assert info.case_tag == "Case2c-infinite"
        edge = edge_structure(rt, info, "right")
        assert edge.m == 2 and math.isinf(edge.r_edge)
        omega, nu0sq, h = direct_edge_data(rt, edge.m)
        assert np.allclose(edge.omega, omega, rtol=0.0, atol=1e-4)
        assert np.allclose(np.sort(edge.nu0**2), nu0sq, rtol=0.0, atol=1e-4)
        assert np.allclose(np.linalg.eigvalsh(edge.H_edge), h, rtol=0.0, atol=1e-4)
        assert np.array_equal(edge.H_edge, np.diag(edge.omega))


def test_edge_structure_beta():
    mu = [0.3, -0.7]
    rt = beta_matrices(5, 2, mu)
    info = support(rt)
    edge = edge_structure(rt, info, "right")
    assert edge.m == 2
    assert np.allclose(edge.omega, [1.0, 1.0], atol=1e-9)
    assert np.allclose(np.sort(np.abs(edge.nu0)), [0.3, 0.7], atol=1e-9)
    assert np.allclose(edge.H_edge, np.eye(2), atol=1e-9)


def test_edge_structure_heavy_tail_both_sides():
    rt = ratio_n2(0.2, 2.0)
    info = support(rt)
    right = edge_structure(rt, info, "right")
    left = edge_structure(rt, info, "left")
    assert right.m == 1 and left.m == 1
    assert abs(right.nu0[0]) == pytest.approx(2.0, abs=1e-6)
    assert abs(left.nu0[0]) == pytest.approx(2.0, abs=1e-6)
    assert right.omega[-1] == 1.0


def test_edge_structure_lag2_n3():
    mu = np.array([0.4, -1.2, 0.7])
    rt = ls_serial_corr(3, 2, mu=mu)
    info = support(rt)
    edge = edge_structure(rt, info, "right")
    assert edge.m == 2
    assert np.allclose(edge.omega, [0.0, 1.0], atol=1e-6)
    assert np.allclose(np.sort(np.abs(edge.nu0)), np.sort(np.abs(mu[1:])), atol=1e-6)


def _mirror(rt):
    return new_ratio(-np.asarray(rt.A), rt.B, rt.mu)


def _nu0sq_by_omega(edge):
    """Sum of nu0^2 over each run of equal omega, invariant to rotations inside it."""
    starts = np.flatnonzero(np.r_[True, np.diff(edge.omega) > 1e-9])
    return np.add.reduceat(np.asarray(edge.nu0) ** 2, starts)


def _intercept_trend(n):
    return np.column_stack([np.ones(n), np.arange(float(n))])


LEFT_EDGE_CASES = {
    "case1": lambda: random_case1(4, rng_for(77)),
    "case2b": lambda: _mirror(random_case2b(5, rng_for(401), p=2)),
    "durbin_watson": lambda: durbin_watson(20, _intercept_trend(20)),
    "case2c_infinite": lambda: _mirror(random_case2c_infinite(6, rng_for(900))),
    "ratio_n2": lambda: ratio_n2(0.2, 2.0),
    # two omega = 0 directions along the regressors: nu0 may rotate between them
    "regressor_block": lambda: ls_serial_corr(8, 3, X=_intercept_trend(8),
                                              mu=np.linspace(-1.0, 1.0, 8)),
}


@pytest.mark.parametrize("name", list(LEFT_EDGE_CASES))
def test_edge_structure_left_via_reflection(name):
    # the left edge of R, read at l, is the right edge of -R
    rt = LEFT_EDGE_CASES[name]()
    left = edge_structure(rt, support(rt), "left")
    neg = _mirror(rt)
    mirrored = edge_structure(neg, support(neg), "right")
    close = dict(rel=1e-12, abs=1e-12)
    assert left.side == "left" and left.m == mirrored.m
    assert left.r_edge == pytest.approx(mirrored.r_edge, **close)
    assert left.omega == pytest.approx(mirrored.omega, **close)
    assert np.linalg.eigvalsh(left.H_edge) == pytest.approx(
        np.linalg.eigvalsh(mirrored.H_edge), **close)
    assert _nu0sq_by_omega(left) == pytest.approx(_nu0sq_by_omega(mirrored), **close)
    lim_left, lim_mirrored = limit_multiple(rt.n, left), limit_multiple(rt.n, mirrored)
    assert lim_left.RE_cdf == pytest.approx(lim_mirrored.RE_cdf, **close)
    assert lim_left.RE_pdf == pytest.approx(lim_mirrored.RE_pdf, **close)


@pytest.mark.parametrize("n", range(3, 9))
def test_support_case1_matches_generalized_eigh(n):
    # p = 0: the endpoints are the extreme eigenvalues of the pencil (A, B)
    for seed in range(4):
        rt = random_case1(n, rng_for(500 + 10 * n + seed))
        info = support(rt)
        vals = scipy.linalg.eigh(rt.A, rt.B, eigvals_only=True)
        assert info.case_tag == "Case1" and info.in_CR and info.in_CL
        assert info.l == pytest.approx(vals[0], rel=1e-12, abs=1e-12)
        assert info.r_bar == pytest.approx(vals[-1], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("build, scale_a_calls", [
    (lambda rng: random_case1(50, rng), 0),
    (lambda rng: random_case2b(8, rng, p=2), 1),
])
def test_support_computes_the_a_scale_only_with_null_directions(monkeypatch, build, scale_a_calls):
    # the A-scale is a full eigvalsh(A), read only by the zero judgments on the
    # C22 and C12 blocks, which are empty when p = 0; the result must be the
    # one computed with the A-scale in hand
    rt = build(rng_for(7731))
    bd = decompose_B(rt)
    scale_a = supp._scale_a(rt)
    (neg_l, tag_left), (r_bar, tag) = (supp._right_edge(bd, scale_a, s, DEFAULT_TOL)
                                       for s in (-1.0, 1.0))
    calls = []
    inner = supp._scale_a
    monkeypatch.setattr(supp, "_scale_a", lambda ratio: calls.append(1) or inner(ratio))
    info = support(rt)
    assert len(calls) == scale_a_calls
    tail_cases = supp._RIGHT_TAIL_CASES
    assert info == SupportInfo(l=-neg_l, r_bar=r_bar, case_tag=tag, in_CR=tag in tail_cases,
                               in_CL=tag_left in tail_cases, case_tag_left=tag_left)


def test_nu0_block_invariance_under_permutation():
    # permuting coordinates must not change rotation-invariant edge data
    mu = np.array([0.4, -1.2, 0.7])
    rt = ls_serial_corr(3, 2, mu=mu)
    perm = [2, 0, 1]
    Pm = np.eye(3)[perm]
    rt_p = new_ratio(Pm @ rt.A @ Pm.T, Pm @ rt.B @ Pm.T, Pm @ np.asarray(rt.mu))
    e1 = edge_structure(rt, support(rt), "right")
    e2 = edge_structure(rt_p, support(rt_p), "right")
    assert np.allclose(e1.omega, e2.omega, atol=1e-6)
    assert np.allclose(np.sort(e1.nu0**2), np.sort(e2.nu0**2), atol=1e-6)
