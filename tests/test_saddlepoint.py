"""CGF evaluation, saddlepoint solving and the CDF/density approximations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfratio import (
    DEFAULT_TOL,
    UnsupportedInstanceError,
    beta_matrices,
    cdf,
    cgf,
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
    strip,
)

from conftest import random_case1, rng_for


def test_strip_two_sided():
    sp = spectrum_at(ratio_n2(0.0, 0.0), 0.0)  # lambdas -1/2, +1/2
    st_ = strip(sp)
    assert st_.lo == pytest.approx(-1.0)
    assert st_.hi == pytest.approx(1.0)


def test_strip_half_infinite():
    rt = new_ratio(np.diag([1.0, 1.0]), np.eye(2), np.zeros(2))
    rt2 = new_ratio(np.diag([1.0, 2.0]), np.eye(2), np.zeros(2))
    sp = spectrum_at(rt2, 3.0)  # all eigenvalues negative
    assert math.isinf(strip(sp).hi) or math.isinf(strip(sp).lo)


def test_cgf_at_zero_is_zero():
    sp = spectrum_at(ratio_n2(0.2, 2.0), 1.0)
    ce = cgf(sp, 0.0)
    assert ce.K == pytest.approx(0.0, abs=1e-15)
    # K'(0) = E[X_r], K''(0) = Var[X_r] for the chi-square combination
    lam = np.asarray(sp.lambdas)
    nu2 = np.asarray(sp.nu) ** 2
    assert ce.K1 == pytest.approx(float(np.sum(lam * (1.0 + nu2))), rel=1e-12)
    assert ce.K2 == pytest.approx(float(np.sum(2 * lam**2 * (1 + 2 * nu2))), rel=1e-12)


def test_cgf_derivatives_match_finite_differences(rng):
    for seed in range(20):
        local = rng_for(1000 + seed)
        rt = random_case1(4, local)
        r = float(local.uniform(-1.0, 1.0))
        sp = spectrum_at(rt, r)
        st_ = strip(sp)
        lo = max(0.6 * st_.lo, -20.0)
        hi = min(0.6 * st_.hi, 20.0)
        s = float(local.uniform(lo, hi))
        h = 1e-6 * (hi - lo)
        ce = cgf(sp, s)
        k1_fd = (cgf(sp, s + h).K - cgf(sp, s - h).K) / (2 * h)
        k2_fd = (cgf(sp, s + h).K1 - cgf(sp, s - h).K1) / (2 * h)
        k3_fd = (cgf(sp, s + h).K2 - cgf(sp, s - h).K2) / (2 * h)
        assert ce.K1 == pytest.approx(k1_fd, rel=1e-6, abs=1e-9)
        assert ce.K2 == pytest.approx(k2_fd, rel=1e-6, abs=1e-9)
        assert ce.K3 == pytest.approx(k3_fd, rel=1e-6, abs=1e-9)


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
    ce = sol.cgf_at_shat
    assert ce.K2 > 0.0
    assert abs(ce.K1) <= 1e-9 * float(np.sum(np.abs(sp.lambdas)))
    assert sol.u_hat == pytest.approx(sol.s_hat * math.sqrt(ce.K2), rel=1e-12)


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
    # the blended switch stays continuous through E[X_r] = 0
    rt = ratio_n2(0.2, 2.0)
    sp0 = spectrum_at(rt, 0.0)
    lam = np.asarray(sp0.lambdas)
    nu2 = np.asarray(sp0.nu) ** 2

    # locate r_mean where E[X_r] = 0 by bisection on K'(0)
    def mean_x(r):
        s = spectrum_at(rt, float(r))
        return float(
            np.sum(np.asarray(s.lambdas) * (1.0 + np.asarray(s.nu) ** 2))
        )

    lo, hi = -5.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_x(mid) > 0:
            lo = mid
        else:
            hi = mid
    r_mean = 0.5 * (lo + hi)
    a = cdf(rt, r_mean)
    assert a.branch in ("mean", "regular")
    eps = 1e-7
    left = cdf(rt, r_mean - eps).value
    right = cdf(rt, r_mean + eps).value
    assert abs(right - left) < 1e-4
    assert left <= a.value + 1e-6 and a.value <= right + 1e-6


def test_solve_rejects_one_signed_spectrum():
    rt = new_ratio(np.diag([1.0, 2.0]), np.eye(2), np.zeros(2))
    with pytest.raises(UnsupportedInstanceError):
        solve_saddlepoint(spectrum_at(rt, 5.0))


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


def test_deep_tail_solve_adds_at_most_one_newton_pass(monkeypatch):
    from qfratio import saddlepoint

    calls = []
    newton = saddlepoint.newton_bracketed
    monkeypatch.setattr(saddlepoint, "newton_bracketed",
                        lambda *a, **k: calls.append(1) or newton(*a, **k))
    rt = ratio_n2(0.2, 2.0)
    pdf_grid(rt, np.linspace(-5.0, 5.0, 41))
    assert len(calls) == 1  # body points meet the scaled test in the first pass
    calls.clear()
    pdf_grid(rt, [-1e12, -3.0, 2.0, 1e8])
    assert len(calls) == 2
