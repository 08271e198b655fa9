"""Cumulant sums, saddlepoint solving and the CDF/density approximations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfratio import (
    DEFAULT_TOL,
    InvalidInputError,
    SpectrumAtR,
    UnsupportedInstanceError,
    beta_matrices,
    cdf,
    exact_cdf_n2,
    exact_density_n2,
    ls_serial_corr,
    new_ratio,
    pdf,
    pdf_grid,
    normalized_pdf,
    ratio_n2,
    solve_saddlepoint,
    spectrum_at,
    support,
)
from qfratio.core import pencil_eigh
from qfratio.saddlepoint import _lr_terms, cumulant_sums

from conftest import random_case1, rng_for
from test_grid import INSTANCES, mean_and_near_points


def _terms(sp):
    return np.asarray(sp.lambdas), np.asarray(sp.nu) ** 2


def test_cgf_at_zero_is_zero():
    lam, nu2 = _terms(spectrum_at(ratio_n2(0.2, 2.0), 1.0))
    K, K1, K2, _ = cumulant_sums(lam, nu2, 0.0)
    assert K == pytest.approx(0.0, abs=1e-15)
    # K'(0) = E[X_r], K''(0) = Var[X_r] for the chi-square combination
    assert K1 == pytest.approx(float(np.sum(lam * (1.0 + nu2))), rel=1e-12)
    assert K2 == pytest.approx(float(np.sum(2 * lam**2 * (1 + 2 * nu2))), rel=1e-12)


def test_cgf_derivatives_match_finite_differences(rng):
    for seed in range(20):
        local = rng_for(1000 + seed)
        rt = random_case1(4, local)
        r = float(local.uniform(-1.0, 1.0))
        lam, nu2 = _terms(spectrum_at(rt, r))
        # 0.6 of the way to each edge of the strip 1/(2 lam_min) < s < 1/(2 lam_max)
        lo = max(0.3 / lam[0], -20.0) if lam[0] < 0 else -20.0
        hi = min(0.3 / lam[-1], 20.0) if lam[-1] > 0 else 20.0
        s = float(local.uniform(lo, hi))
        h = 1e-6 * (hi - lo)
        K = cumulant_sums(lam, nu2, np.array([s, s + h, s - h]))
        for j in range(1, 4):
            fd = (K[j - 1][1] - K[j - 1][2]) / (2 * h)
            assert K[j][0] == pytest.approx(fd, rel=1e-6, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_convexity_and_root(seed):
    from qfratio import support as support_of

    local = rng_for(seed)
    rt = random_case1(4, local)
    info = support_of(rt)
    r = float(info.l + local.uniform(0.05, 0.95) * (info.r_bar - info.l))
    sp = spectrum_at(rt, r)
    sol = solve_saddlepoint(sp)
    K, K1, K2 = cumulant_sums(*_terms(sp), sol.s_hat, (0, 1, 2))
    assert sol.K2 > 0.0
    assert (sol.K, sol.K2) == pytest.approx((K, K2), rel=1e-13, abs=1e-300)
    assert abs(K1) <= 1e-9 * float(np.sum(np.abs(sp.lambdas)))
    assert sol.u_hat == pytest.approx(sol.s_hat * math.sqrt(sol.K2), rel=1e-12)


def test_cauchy_saddlepoint_is_r():
    rt = ratio_n2(0.0, 0.0)
    for r in np.linspace(-5, 5, 21):
        sp = spectrum_at(rt, float(r))
        sol = solve_saddlepoint(sp)
        assert sol.s_hat == pytest.approx(float(r), abs=1e-10 * max(1.0, abs(r)))


def test_cdf_monotone_on_grid():
    rt = ratio_n2(0.2, 2.0)
    grid = np.linspace(-8.0, 8.0, 81)
    vals = [cdf(rt, float(r)).value for r in grid]
    assert np.all(np.diff(vals) > -1e-12)


def test_cdf_boundary_values_outside_support():
    rt = beta_matrices(4, 2)
    assert cdf(rt, -0.5).value == 0.0
    assert cdf(rt, -0.5).branch == "boundary"
    assert cdf(rt, 1.5).value == 1.0


@pytest.mark.parametrize("r", [-2e6, -1e5, 1e5, 2e6])
def test_deep_tail_points_are_interior(r):
    # the support of ratio_n2(0.2, 2) is the whole line, but beyond |r| ~ 1.6e6
    # the spectrum of A - rB is one-signed to within 1e-13: the support, not
    # the eigenvalue ratio, decides.  Both tail ratios tend to 0.8222154.
    rt = ratio_n2(0.2, 2.0)
    c, d = cdf(rt, r), pdf(rt, r)
    assert c.branch == d.branch == "regular"
    F = exact_cdf_n2(0.2, 2.0, r)
    cdf_ratio = F / c.value if r < 0 else (1.0 - F) / (1.0 - c.value)
    assert 0.8222 <= cdf_ratio <= 0.835
    assert exact_density_n2(0.2, 2.0, r) / d.value == pytest.approx(0.8222154, abs=1e-3)


def test_cdf_mean_branch_continuity():
    # one Lugannani-Rice formula through E[X_r] = 0: F increases across
    # r_mean, and w_hat/u_hat tends to 1 there as s_hat -> 0
    for name, make in sorted(INSTANCES.items()):
        rt = make()
        r_mean, _ = mean_and_near_points(rt)
        a = cdf(rt, r_mean)
        assert a.branch == "regular", name
        assert cdf(rt, r_mean - 1e-7).value < a.value < cdf(rt, r_mean + 1e-7).value, name
        assert a.w_hat / a.u_hat == pytest.approx(1.0, rel=0.0, abs=1e-8), name


def _mp_lugannani_rice(mp, lam, nu2, s0):
    """Lugannani-Rice value and w at the root of K', in mpmath, Newton from s0."""
    terms = [(mp.mpf(float(l)), mp.mpf(float(v))) for l, v in zip(lam, nu2)]

    def K(s, j):  # K^(j)(s), as in cumulant_sums
        if j == 0:
            return mp.fsum(-mp.log(1 - 2 * s * l) / 2 + s * l * v / (1 - 2 * s * l)
                           for l, v in terms)
        return 2 ** (j - 1) * mp.factorial(j - 1) * mp.fsum(
            (l / (1 - 2 * s * l)) ** j * (1 + j * v / (1 - 2 * s * l)) for l, v in terms)

    s = mp.mpf(float(s0))
    for _ in range(50):
        step = K(s, 1) / K(s, 2)
        s -= step
        if abs(step) <= mp.mpf(10) ** -45 * (1 + abs(s)):
            break
    w = mp.sign(s) * mp.sqrt(2 * (s * K(s, 1) - K(s, 0)))
    u = s * mp.sqrt(K(s, 2))
    return mp.ncdf(w) + mp.npdf(w) * (1 / w - 1 / u), w


def test_cdf_near_the_mean_against_mpmath():
    # 1/w - 1/u carries no cancelled digits as w -> 0: the float value matches
    # a 50-digit Lugannani-Rice on the same float spectrum
    mp = pytest.importorskip("mpmath")
    rt = random_case1(50, rng_for(17))
    r_mean, r_near = mean_and_near_points(rt)
    w_per_r = 2e-5 / (r_near - r_mean)  # w_hat ~ (r - r_mean) * w_per_r near the mean
    for target in (1e-6, 2e-5, 6.3e-4, 6.3e-3, 0.19, -1e-3, -0.1):
        r = r_mean + target / w_per_r
        a = cdf(rt, r)
        assert a.w_hat == pytest.approx(target, rel=0.05)
        ((_, lam, nu, _, _),) = pencil_eigh(rt, np.array([r]))
        with mp.workdps(50):
            F, w = _mp_lugannani_rice(mp, lam[0], nu[0] ** 2, a.s_hat)
        assert a.value == pytest.approx(float(F), rel=1e-14, abs=0.0), target
        assert a.w_hat == pytest.approx(float(w), rel=1e-12, abs=1e-15), target

    # at s_hat = 0 exactly the same formula is the mean limit, with no warning
    ((_, lam, nu, _, _),) = pencil_eigh(rt, np.array([r_mean]))
    K2, K3 = cumulant_sums(lam, nu**2, 0.0, (2, 3))
    zero = np.zeros(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, u, lr = _lr_terms(lam, nu**2, zero, zero, K2)
    assert w[0] == u[0] == 0.0
    limit = 0.5 + K3[0] / (6.0 * math.sqrt(2.0 * math.pi) * K2[0] ** 1.5)
    assert 0.5 + lr[0] / math.sqrt(2.0 * math.pi) == pytest.approx(limit, rel=1e-14, abs=0.0)


def test_w_hat_steps_to_the_root_of_k1():
    # unlike -2K, w^2 = 2(s K' - K) moves with s: w_hat takes the first-order
    # step to the root, so a saddlepoint 1e-9 off it still gives w to rounding
    mp = pytest.importorskip("mpmath")
    rt = random_case1(50, rng_for(17))
    info = support(rt)
    r = info.l + 0.1 * (info.r_bar - info.l)
    ((_, lam, nu, _, _),) = pencil_eigh(rt, np.array([r]))
    s = np.array([cdf(rt, r).s_hat + 1e-9])
    _, K1, K2 = cumulant_sums(lam, nu**2, s, (0, 1, 2))
    w = _lr_terms(lam, nu**2, s, K1, K2)[0][0]
    with mp.workdps(50):
        w_root = float(_mp_lugannani_rice(mp, lam[0], nu[0] ** 2, s[0])[1])
    assert w < -1.0
    assert w == pytest.approx(w_root, rel=1e-13, abs=0.0)


def test_solve_rejects_one_signed_spectrum():
    rt = new_ratio(np.diag([1.0, 2.0]), np.eye(2), np.zeros(2))
    with pytest.raises(UnsupportedInstanceError):
        solve_saddlepoint(spectrum_at(rt, 5.0))
    with pytest.raises(InvalidInputError):
        solve_saddlepoint(SpectrumAtR(r=1.0, lambdas=np.zeros(2), P=np.eye(2), nu=np.ones(2)))


def test_pdf_positive_and_jacobian_at_mean():
    rt = ratio_n2(0.2, 2.0)
    for r in (-3.0, 0.0, 1.0, 4.0):
        d = pdf(rt, r)
        assert d.value > 0.0
        assert d.J > 0.0


def test_pdf_cauchy_constant_ratio():
    rt = ratio_n2(0.0, 0.0)
    for r in np.linspace(-5, 5, 11):
        exact = 1.0 / (math.pi * (1.0 + r * r))
        approx = pdf(rt, float(r)).value
        assert approx / exact == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-10)


def test_pdf_matches_cdf_derivative():
    rt = ratio_n2(0.2, 2.0)
    h = 1e-5
    for r in (-2.0, 0.5, 3.0):
        fd = (cdf(rt, r + h).value - cdf(rt, r - h).value) / (2 * h)
        # the density approximation is not the derivative of the CDF
        # approximation and does not track the bimodal dip in the body, so
        # only require the same order of magnitude and sign
        assert fd > 0.0
        assert 0.3 < pdf(rt, r).value / fd < 3.0


def test_normalized_pdf_beta_mass():
    rt = beta_matrices(5, 2, [0.5, 0.0])
    grid = np.linspace(0.05, 0.95, 7)
    vals = normalized_pdf(rt, grid)
    raw = np.array([pdf(rt, float(r)).value for r in grid])
    # renormalization is a single positive constant
    c = vals / raw
    assert np.allclose(c, c[0], rtol=1e-10)
    import scipy.integrate

    mass, _ = scipy.integrate.quad(
        lambda r: vals[0] / raw[0] * pdf(rt, r).value, 0.0, 1.0, limit=200
    )
    assert mass == pytest.approx(1.0, abs=1e-6)


LIMIT_N2 = 0.8222154  # limiting tail constant of ratio_n2(0.2, 2), limit_simple(2, 2).RE


def test_deep_tail_density_ratio_reaches_the_limit():
    # K' is accepted relative to its own terms at the root, not to
    # sum |lambda| (1 + nu^2), which grows like |r| in the tail
    rt = ratio_n2(0.2, 2.0)
    for r in (-1e14, -1e10, -1e6, 1e6, 1e10, 1e14):
        ratio = exact_density_n2(0.2, 2.0, r) / pdf(rt, r).value
        assert ratio == pytest.approx(LIMIT_N2, abs=1e-5), r


def test_deep_tail_density_decays_like_r_squared():
    rt = ls_serial_corr(3, 2, mu=(0.4, -1.2, 0.7))
    rs = 10.0 ** np.arange(6, 17)
    scaled = np.array([d.value for d in pdf_grid(rt, rs)]) * rs**2
    assert np.ptp(scaled) <= 1e-4 * scaled[0]


def _count_newton_calls(monkeypatch):
    from qfratio import saddlepoint

    calls = []
    newton = saddlepoint.newton_bracketed
    monkeypatch.setattr(saddlepoint, "newton_bracketed",
                        lambda *a, **k: calls.append(1) or newton(*a, **k))
    return calls


def test_deep_tail_solve_adds_at_most_one_newton_pass(monkeypatch):
    # one pass with the scaled stop test serves body and deep-tail lanes alike
    calls = _count_newton_calls(monkeypatch)
    rt = ratio_n2(0.2, 2.0)
    pdf_grid(rt, np.linspace(-5.0, 5.0, 41))
    assert len(calls) == 1
    calls.clear()
    pdf_grid(rt, [-1e12, -3.0, 2.0, 1e8])
    assert len(calls) == 1


def test_normalized_pdf_solves_each_grid_pass_once(monkeypatch):
    # tanh-sinh nodes crowd toward |r| -> inf; each batched pass is one solve
    from qfratio import saddlepoint

    newton_calls = _count_newton_calls(monkeypatch)
    grid_calls = []
    grid = saddlepoint._grid
    monkeypatch.setattr(saddlepoint, "_grid",
                        lambda *a, **k: grid_calls.append(1) or grid(*a, **k))
    normalized_pdf(ratio_n2(0.2, 2.0), np.linspace(-10.0, 10.0, 21))
    assert len(grid_calls) >= 2
    assert len(newton_calls) == len(grid_calls)
