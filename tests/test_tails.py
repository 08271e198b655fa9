"""Limiting relative-error constants at the edges of support."""

import math

import numpy as np
import pytest
import scipy.special

from qfratio import (
    InvalidInputError,
    beta_limit,
    beta_matrices,
    central_ratio,
    density_at_zero,
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
from qfratio.saddlepoint import cumulant_sums
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
    edge = _edge(2, [0.5, 1.0], [0.4, 1.0])
    lim = limit_multiple(6, edge)
    assert 0.0 < lim.t0 < 0.5
    # omega = (0.4, 1): the closed-form start is not the root, and Newton
    # still takes t0 to a root of K'(t) = (n - m)/(2t) at rounding level
    (G1,) = cumulant_sums(edge.omega, edge.nu0**2, lim.t0, (1,))
    assert abs(G1 - 4.0 / (2.0 * lim.t0)) <= 4.0 * math.ulp(G1)
    assert lim.W_J > 0.0
    assert lim.RE_cdf > 0.0 and lim.RE_pdf > 0.0


def test_solve_t0_is_beta_limit_t0_on_beta_edges():
    # every omega is 1 on both edges of the beta family, so the start is the
    # root; the left edge is the central Beta((n - m)/2, m/2)
    for n, m, mu in ((4, 2, np.zeros(2)), (6, 3, np.array([math.sqrt(2.0), 0.0, 0.0])),
                     (6, 3, np.array([0.8, -0.5, 0.3])), (10, 4, np.array([0.6, -1.1, 0.2, 0.9]))):
        rt = beta_matrices(n, m, mu)
        info = support(rt)
        for side, closed in (("right", beta_limit(n, m, float(mu @ mu))), ("left", beta_limit(n, n - m, 0.0))):
            t0 = limit_multiple(n, edge_structure(rt, info, side)).t0
            assert abs(t0 - closed.t0) <= 2.0 * math.ulp(closed.t0)


def test_solve_t0_takes_at_most_two_evaluations_per_edge(monkeypatch):
    # every omega is 0 or 1 on these edges, so Newton starts at the root and
    # at most checks one step of an ulp
    counts = []
    inner = tails.newton_bracketed

    def counted(f, *args, **kwargs):
        counts.append(0)

        def g(x):
            counts[-1] += 1
            return f(x)

        return inner(g, *args, **kwargs)

    monkeypatch.setattr(tails, "newton_bracketed", counted)
    insts = _golden_instances()
    insts["durbin_watson"] = durbin_watson(20, np.column_stack([np.ones(20), np.arange(20.0)]))
    edges = 0
    for rt in insts.values():
        info = support(rt)
        for side, wanted in (("right", info.in_CR), ("left", info.in_CL)):
            if wanted:
                limit_multiple(rt.n, edge_structure(rt, info, side))
                edges += 1
    assert edges == 13 and len(counts) == edges
    assert max(counts) <= 2


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
    for n in range(2, 61):
        for nu0 in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0):
            assert beta_limit(n, 1, nu0**2).RE == pytest.approx(
                limit_simple(n, nu0).RE, rel=1e-13, abs=0.0
            )


@pytest.mark.parametrize("n, nu0", [(100, 11.5), (40, 12.0), (20, 11.5), (60, 15.0), (100, 20.0)])
def test_limit_simple_matches_limit_multiple_at_large_noncentrality(n, nu0):
    # 1F1(n/2; 1/2; nu0^2/2) with z > 60 and a = n/2 large, where the
    # large-argument expansion of 1F1 diverges after one or two terms
    simple = limit_simple(n, nu0)
    multi = limit_multiple(n, _edge(1, [nu0], [1.0]))
    assert simple.t0 == pytest.approx(multi.t0, rel=1e-9)
    assert simple.RE == pytest.approx(multi.RE_cdf, rel=1e-9)
    assert simple.RE == pytest.approx(multi.RE_pdf, rel=1e-9)


@pytest.mark.parametrize("n, m, theta", [(40, 3, 150.0), (30, 2, 200.0), (12, 4, 130.0)])
def test_beta_limit_matches_limit_multiple_at_large_theta(n, m, theta):
    mu = np.zeros(m)
    mu[0] = math.sqrt(theta)
    rt = beta_matrices(n, m, mu)
    multi = limit_multiple(n, edge_structure(rt, support(rt), "right"))
    assert beta_limit(n, m, theta).RE == pytest.approx(multi.RE_cdf, rel=1e-9)


def test_beta_limit_t0_is_free_of_cancellation():
    # t0 -> (n - m) / (2 theta) at large theta, where the textbook root
    # 0.5 + (x - sqrt(x^2 + 4 theta n)) / 4n, x = theta - m, cancels
    # (1e-6 relative off at theta = 1e6); that root at 40 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for n, m, theta in ((4, 2, 1e4), (5, 1, 1e5), (10, 4, 1e6), (40, 3, 150.0)):
        x = mp.mpf(theta) - m
        expected = 0.5 + (x - mp.sqrt(x**2 + 4 * mp.mpf(theta) * n)) / (4 * n)
        assert beta_limit(n, m, theta).t0 == pytest.approx(float(expected), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("theta", [math.inf, math.nan, -1.0])
def test_beta_limit_rejects_non_finite_or_negative_theta(theta):
    with pytest.raises(InvalidInputError):
        beta_limit(6, 2, theta)


@pytest.mark.parametrize("nu0", [math.inf, -math.inf, math.nan])
def test_limit_simple_rejects_non_finite_nu0(nu0):
    with pytest.raises(InvalidInputError):
        limit_simple(6, nu0)


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


@pytest.mark.parametrize("omega", [[0.5, 0.9], [1.0, 0.5, 1.0], [-0.5, 1.0]])
def test_limit_multiple_rejects_rates_outside_an_edge(omega):
    # rates are ascending, nonnegative and scaled to a largest of 1
    m = len(omega)
    with pytest.raises(InvalidInputError, match="omega"):
        limit_multiple(6, _edge(m, np.ones(m), omega))


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


def test_limit_multiple_makes_one_inversion_of_each_kind(monkeypatch):
    # one density at zero for RE_cdf and one weighted density for RE_pdf per
    # edge: on a beta edge with four equal rates and on an edge with a zero rate
    insts = _golden_instances()
    seen = []

    def counted(name):
        inner = getattr(tails, name)

        def call(*args, **kwargs):
            seen.append(name)
            return inner(*args, **kwargs)
        return call

    for name in ("density_at_zero", "weighted_density_at_zero"):
        monkeypatch.setattr(tails, name, counted(name))
    for name, side in (("beta104", "right"), ("ls_serial", "right")):
        rt = insts[name]
        seen.clear()
        lim = limit_multiple(rt.n, edge_structure(rt, support(rt), side))
        assert sorted(seen) == ["density_at_zero", "weighted_density_at_zero"]
        assert (lim.RE_cdf, lim.RE_pdf) == pytest.approx(_LIMIT_GOLDENS[(name, side)], rel=1e-10)


def _shifted_combination_re_pdf(n, edge, lim):
    """RE_pdf as a sum of densities at zero of shifted combinations.

    With Y the limiting variable at central df n - m, the density constant is
    sqrt(2 pi)/W_J times sum_i H_ii eta3_i f_(i) plus
    sum_ij nu0_i nu0_j eta3_i eta3_j H_ij f_(i, j), where f_S is the density
    at zero of Y plus an independent eta1_i chi2_2 for each index i in S.
    """
    m, nu0, H = edge.m, edge.nu0, edge.H_edge
    base = [(lim.eta1[i], 1, 2.0 * lim.eta2[i]) for i in range(m)]

    def f(*shifts):
        extra = [(lim.eta1[i], 2, 0.0) for i in shifts]
        central = [(-1.0 / (2.0 * lim.u0), n - m, 0.0)]
        return density_at_zero(*zip(*(base + extra + central)))

    num = sum(H[i, i] * lim.eta3[i] * f(i) for i in range(m))
    num += sum(nu0[i] * nu0[j] * lim.eta3[i] * lim.eta3[j] * H[i, j] * f(i, j)
               for i in range(m) for j in range(m))
    return math.sqrt(2.0 * math.pi) * num / lim.W_J


@pytest.mark.parametrize("n, omega, nu0", [
    (5, [0.4, 1.0], [0.8, -1.3]),
    (7, [0.2, 0.55, 1.0], [1.1, 0.0, -0.6]),
    (9, [0.1, 0.3, 0.7, 1.0], [0.5, -0.9, 1.4, 0.3]),
])
def test_limit_multiple_pdf_matches_shifted_combinations(n, omega, nu0):
    # no built edge has a non-diagonal H_edge, so no built edge reaches the
    # cross terms m'Hm; a random PSD H does
    m = len(omega)
    X = rng_for(4200 + m).standard_normal((m, m + 1))
    edge = _edge(m, nu0, omega, H=X @ X.T)
    lim = limit_multiple(n, edge)
    expected = _shifted_combination_re_pdf(n, edge, lim)
    assert lim.RE_pdf == pytest.approx(expected, rel=1e-12, abs=0.0)
