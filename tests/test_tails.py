"""Limiting relative-error constants at the edges of support."""

import math

import numpy as np
import pytest
import scipy.special

from qfratio import (
    beta_limit,
    beta_matrices,
    central_ratio,
    durbin_watson,
    edge_structure,
    limit_multiple,
    limit_simple,
    ls_serial_corr,
    ratio_n2,
    stirling_gamma_hat,
    support,
)
from qfratio import tails
from qfratio.support import EdgeStructure

from conftest import random_case1, random_case2b, rng_for


def _edge(m, nu0, omega, H=None, side="right"):
    nu0 = np.asarray(nu0, dtype=float)
    omega = np.asarray(omega, dtype=float)
    H = np.eye(m) if H is None else np.asarray(H, dtype=float)
    return EdgeStructure(
        side=side, r_edge=math.inf, m=m, nu0=nu0, omega=omega, H_edge=H
    )


def test_limit_simple_reference_value():
    lim = limit_simple(2, 2.0)
    assert lim.RE == pytest.approx(0.8222154326625325, abs=1e-12)
    assert 0.0 < lim.t0 < 0.5
    assert lim.u0 > 0.0


def test_limit_simple_central_closed_form():
    for n in (2, 3, 5, 8):
        expected = central_ratio(0.5, (n - 1) / 2.0)
        assert limit_simple(n, 0.0).RE == pytest.approx(expected, rel=1e-12)


def test_limit_simple_cauchy_value():
    assert limit_simple(2, 0.0).RE == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)


def test_limit_simple_sign_invariance():
    assert limit_simple(4, 1.5).RE == pytest.approx(limit_simple(4, -1.5).RE, rel=1e-14)


def test_limit_simple_large_noncentrality_asymptote():
    # RE approaches the Stirling-to-exact gamma ratio at (n-1)/2
    for n in (2, 3, 5):
        target = stirling_gamma_hat((n - 1) / 2.0) / float(
            scipy.special.gamma((n - 1) / 2.0)
        )
        assert limit_simple(n, 100.0).RE == pytest.approx(target, rel=1e-2)


def test_limit_multiple_reduces_to_simple():
    for n, nu0 in ((2, 0.0), (2, 2.0), (5, 1.0), (8, 3.0)):
        simple = limit_simple(n, nu0)
        multi = limit_multiple(n, _edge(1, [nu0], [1.0]))
        assert multi.t0 == pytest.approx(simple.t0, abs=1e-6)
        assert multi.u0 == pytest.approx(simple.u0, abs=1e-6)
        assert multi.RE_cdf == pytest.approx(simple.RE, abs=1e-6)
        assert multi.RE_pdf == pytest.approx(simple.RE, abs=1e-6)


def test_limit_multiple_t0_in_range():
    lim = limit_multiple(6, _edge(2, [0.5, 1.0], [0.4, 1.0]))
    assert 0.0 < lim.t0 < 0.5
    assert lim.W_J > 0.0
    assert lim.RE_cdf > 0.0 and lim.RE_pdf > 0.0


def test_limit_multiple_handles_zero_rate():
    # an omega entry of zero contributes no chi-square term but keeps its
    # noncentrality in the Jacobian weight
    lim = limit_multiple(3, _edge(2, [-1.2, 0.7], [0.0, 1.0], H=np.diag([0.0, 1.0])))
    assert math.isfinite(lim.RE_cdf) and lim.RE_cdf > 0.0
    assert math.isfinite(lim.RE_pdf) and lim.RE_pdf > 0.0
    assert lim.eta1[0] == 0.0


def test_limit_multiple_matches_beta_closed_form():
    for n, m, theta in ((4, 2, 0.0), (4, 2, 1.0), (6, 3, 2.0)):
        mu = np.zeros(m)
        mu[0] = math.sqrt(theta)
        rt = beta_matrices(n, m, mu)
        edge = edge_structure(rt, support(rt), "right")
        multi = limit_multiple(n, edge)
        closed = beta_limit(n, m, theta)
        assert multi.RE_cdf == pytest.approx(closed.RE, abs=1e-6)


def test_beta_limit_central_reduction():
    for n in range(2, 11):
        for m in range(1, n):
            expected = central_ratio(m / 2.0, (n - m) / 2.0)
            lim = beta_limit(n, m, 0.0)
            assert lim.RE == pytest.approx(expected, abs=1e-10)
            assert lim.t0 == pytest.approx((n - m) / (2.0 * n), abs=1e-12)


def test_beta_limit_matches_simple_at_m1():
    assert beta_limit(2, 1, 4.0).RE == pytest.approx(limit_simple(2, 2.0).RE, abs=5e-4)


def test_beta_limit_large_theta_asymptote():
    for n, m in ((4, 2), (6, 3), (5, 1)):
        target = stirling_gamma_hat((n - m) / 2.0) / float(
            scipy.special.gamma((n - m) / 2.0)
        )
        assert beta_limit(n, m, 1e4).RE == pytest.approx(target, rel=1e-2)


def test_central_ratio_values():
    assert central_ratio(0.5, 0.5) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    # Stirling relative error at (50, 50) is 1/600 + 1/600 - 1/1200 = 2.5e-3
    assert central_ratio(50.0, 50.0) == pytest.approx(1.0, abs=3e-3)
    assert central_ratio(500.0, 500.0) == pytest.approx(1.0, abs=3e-4)
    assert central_ratio(3.0, 2.0) == pytest.approx(beta_limit(10, 6, 0.0).RE, abs=1e-10)


def test_lag2_n3_limits_finite():
    mu = np.array([0.4, -1.2, 0.7])
    rt = ls_serial_corr(3, 2, mu=mu)
    edge = edge_structure(rt, support(rt), "right")
    lim = limit_multiple(3, edge)
    assert 0.0 < lim.t0 < 0.5
    assert lim.RE_cdf > 0.0 and lim.RE_pdf > 0.0


def test_ratio_n2_tail_limits_match_simple():
    rt = ratio_n2(0.2, 2.0)
    info = support(rt)
    for side in ("right", "left"):
        edge = edge_structure(rt, info, side)
        lim = limit_multiple(2, edge)
        assert lim.RE_cdf == pytest.approx(limit_simple(2, 2.0).RE, rel=1e-13, abs=0.0)
        assert lim.RE_pdf == pytest.approx(limit_simple(2, 2.0).RE, rel=1e-13, abs=0.0)


# (RE_cdf, RE_pdf) of the parent implementation (numpy integrands), per edge
_LIMIT_GOLDENS = {
    ("ratio_n2", "right"): (0.8222154326625325, 0.8222154326625327),
    ("ratio_n2", "left"): (0.8222154326625325, 0.8222154326625327),
    ("ls_serial", "right"): (0.7846914388205314, 0.784691438820531),
    ("ls_serial", "left"): (0.7846914388205314, 0.784691438820531),
    ("beta63", "right"): (0.9169125823728471, 0.9169125823728499),
    ("beta63", "left"): (0.9213177319235611, 0.9213177319235611),
    ("beta104", "right"): (0.9473369081083538, 0.9473369081082587),
    ("beta104", "left"): (0.9489739502331547, 0.948973950233156),
    ("case1", "right"): (0.8410133751821105, 0.8410133751821102),
    ("case1", "left"): (0.8372034285370741, 0.837203428537074),
    ("case2b", "right"): (0.8405925549767034, 0.8405925549767035),
}


def _golden_instances():
    return {
        "ratio_n2": ratio_n2(0.2, 2.0),
        "ls_serial": ls_serial_corr(3, 2, mu=np.array([0.4, -1.2, 0.7])),
        "beta63": beta_matrices(6, 3, np.array([0.8, -0.5, 0.3])),
        "beta104": beta_matrices(10, 4, np.array([0.6, -1.1, 0.2, 0.9])),
        "case1": random_case1(6, rng_for(606)),
        "case2b": random_case2b(6, rng_for(607), p=2),
    }


def test_limit_multiple_goldens():
    insts = _golden_instances()
    for (name, side), (re_cdf, re_pdf) in _LIMIT_GOLDENS.items():
        rt = insts[name]
        lim = limit_multiple(rt.n, edge_structure(rt, support(rt), side))
        assert lim.RE_cdf == pytest.approx(re_cdf, rel=1e-10, abs=0.0)
        assert lim.RE_pdf == pytest.approx(re_pdf, rel=1e-10, abs=0.0)
        assert type(lim.RE_cdf) is float and type(lim.RE_pdf) is float


def test_durbin_watson_edge_matches_simple_limit():
    # Durbin-Watson with n = 20 and regressors [1, t]: the edge cluster has
    # m = 3, but two of its directions span the regressors, the common null
    # space of A and B, and vanish at rate 0 for every r.  With rounding-level
    # rates set to exact zeros, omega = (0, 0, 1) and H_edge is diagonal, and
    # the constants are those of a simple eigenvalue with nu0 = 0 in
    # n - p = 18 dimensions, limit_simple(18, 0)
    rt = durbin_watson(20, np.column_stack([np.ones(20), np.arange(20.0)]))
    info = support(rt)
    expected = limit_simple(18, 0.0).RE
    for side in ("right", "left"):
        edge = edge_structure(rt, info, side)
        assert edge.m == 3
        assert np.array_equal(edge.omega, [0.0, 0.0, 1.0])
        assert np.array_equal(edge.H_edge, np.diag(np.diag(edge.H_edge)))
        lim = limit_multiple(rt.n, edge)
        assert lim.RE_cdf == pytest.approx(expected, rel=1e-9)
        assert lim.RE_pdf == pytest.approx(expected, rel=1e-9)


def test_limit_multiple_integrates_each_distinct_combo_once(monkeypatch):
    # equal eta1 entries: every (i,) and (i, j) shift gives the same combo
    rt = beta_matrices(10, 4, np.array([0.6, -1.1, 0.2, 0.9]))
    edge = edge_structure(rt, support(rt), "right")
    assert edge.m == 4
    assert np.array_equal(edge.H_edge, np.diag(np.diag(edge.H_edge)))
    assert np.all(edge.nu0 != 0.0)
    seen = []
    inner = tails.density_at_zero

    def counted(combo, tol=1e-10):
        seen.append(combo.terms)
        return inner(combo, tol=tol)

    monkeypatch.setattr(tails, "density_at_zero", counted)
    lim = limit_multiple(rt.n, edge)
    assert len(seen) == len(set(seen)) == 3
    assert lim.RE_cdf == pytest.approx(_LIMIT_GOLDENS[("beta104", "right")][0], rel=1e-10)
