"""Special functions and chi-square-combination kernels."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qfratio import (
    Chi2Combo,
    InvalidInputError,
    density_at_zero,
    hyp1f1,
    imhof_cdf,
    imhof_cdf_of_R,
    ln_beta,
    ln_hyp1f1,
    new_ratio,
    stirling_beta_hat,
    stirling_gamma_hat,
)
from qfratio.specfun import _cf_polar, cf

from conftest import rng_for


def _series_1f1(a, b, z, terms=400):
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
    return total


def test_hyp1f1_at_zero():
    assert hyp1f1(2.0, 0.5, 0.0) == 1.0


def test_hyp1f1_exponential_identity():
    assert hyp1f1(1.0, 1.0, 3.0) == pytest.approx(math.exp(3.0), rel=1e-12)


def test_hyp1f1_partial_sum_oracle():
    assert hyp1f1(1.0, 0.5, 2.0) == pytest.approx(_series_1f1(1.0, 0.5, 2.0), rel=1e-10)


def test_hyp1f1_matches_scipy_moderate():
    for a, b, z in [(1.0, 0.5, 2.0), (3.0, 1.5, 10.0), (2.5, 0.5, 40.0)]:
        assert hyp1f1(a, b, z) == pytest.approx(
            float(scipy.special.hyp1f1(a, b, z)), rel=1e-10
        )


def test_hyp1f1_branch_crossover_consistent():
    # series and asymptotic branches agree around the switch point
    for z in np.linspace(50.0, 70.0, 9):
        series = math.log(_series_1f1(1.5, 0.5, float(z), terms=600))
        assert ln_hyp1f1(1.5, 0.5, float(z)) == pytest.approx(series, rel=1e-8)


def test_ln_hyp1f1_extreme_argument_no_overflow():
    val = ln_hyp1f1(1.0, 0.5, 5000.0)
    assert val > 4000.0 and math.isfinite(val)


def test_hyp1f1_rejects_bad_b():
    with pytest.raises(InvalidInputError):
        hyp1f1(1.0, -2.0, 1.0)


def test_beta_closed_forms():
    assert math.exp(ln_beta(0.5, 0.5)) == pytest.approx(math.pi, rel=1e-14)
    assert stirling_beta_hat(0.5, 0.5) == pytest.approx(
        math.sqrt(2.0 * math.pi), rel=1e-14
    )


def test_stirling_gamma_converges():
    assert stirling_gamma_hat(10.0) / scipy.special.gamma(10.0) == pytest.approx(
        1.0, abs=1e-2
    )


def test_chi2combo_validation():
    with pytest.raises(InvalidInputError):
        Chi2Combo(())
    with pytest.raises(InvalidInputError):
        Chi2Combo(((1.0, 0, 0.0),))
    with pytest.raises(InvalidInputError):
        Chi2Combo(((1.0, 1, -1.0),))


def test_cf_at_zero_and_decay():
    combo = Chi2Combo(((1.0, 2, 1.0), (-0.5, 3, 0.0)))
    assert cf(combo, 0.0) == pytest.approx(1.0)
    mags = np.abs(cf(combo, np.array([0.5, 1.0, 2.0, 4.0])))
    assert np.all(np.diff(mags) < 0.0)


def test_density_at_zero_laplace():
    combo = Chi2Combo(((0.5, 2, 0.0), (-0.5, 2, 0.0)))
    assert density_at_zero(combo) == pytest.approx(0.5, abs=1e-8)


def test_density_at_zero_scaling_law():
    combo = Chi2Combo(((1.0, 2, 0.5), (-0.7, 3, 0.0)))
    base = density_at_zero(combo)
    scaled = Chi2Combo(((3.0, 2, 0.5), (-2.1, 3, 0.0)))
    assert density_at_zero(scaled) == pytest.approx(base / 3.0, rel=1e-8)


def test_density_at_zero_normal_difference():
    # chi2(1) - chi2(1)' scaled: X = (Z1^2 - Z2^2)/2 = Z1' Z2' has density
    # K0-type singularity, so use df >= 3 combos; difference of gamma(3/2)
    combo = Chi2Combo(((0.5, 3, 0.0), (-0.5, 3, 0.0)))
    # symmetric variable; compare against Monte Carlo below in test_oracle
    val = density_at_zero(combo)
    assert val > 0.0


def test_density_at_zero_integrability_guard():
    with pytest.raises(InvalidInputError):
        density_at_zero(Chi2Combo(((1.0, 1, 0.0), (-1.0, 1, 0.0))))


def test_imhof_all_zero_weights_is_invalid_input():
    # a point mass at 0 has no inversion integral; density_at_zero rejects it too
    combo = Chi2Combo(((0.0, 1, 0.0),))
    with pytest.raises(InvalidInputError):
        imhof_cdf(combo, 0.5)
    with pytest.raises(InvalidInputError):
        density_at_zero(combo)


def test_imhof_symmetry():
    combo = Chi2Combo(((1.0, 1, 0.0), (-1.0, 1, 0.0)))
    assert imhof_cdf(combo, 0.0) == pytest.approx(0.5, abs=1e-9)


def test_imhof_chi2_closed_form():
    combo = Chi2Combo(((1.0, 1, 0.0),))
    for q in (0.5, 1.0, 4.0):
        assert imhof_cdf(combo, q) == pytest.approx(
            float(scipy.stats.chi2.cdf(q, 1)), abs=1e-9
        )


def test_imhof_noncentral_chi2():
    combo = Chi2Combo(((2.0, 3, 1.5),))
    for q in (1.0, 5.0, 12.0):
        assert imhof_cdf(combo, q) == pytest.approx(
            float(scipy.stats.ncx2.cdf(q / 2.0, 3, 1.5)), abs=1e-8
        )


def test_imhof_mixed_combo_vs_mc():
    combo = Chi2Combo(((1.0, 2, 0.7), (-0.6, 1, 0.0), (0.3, 4, 2.0)))
    rng = rng_for(5150)
    n = 10**6
    draws = (
        rng.noncentral_chisquare(2, 0.7, n)
        - 0.6 * rng.chisquare(1, n)
        + 0.3 * rng.noncentral_chisquare(4, 2.0, n)
    )
    for x in (-1.0, 0.0, 2.0, 6.0):
        p_mc = float(np.mean(draws <= x))
        se = math.sqrt(max(p_mc * (1 - p_mc), 1.0 / n) / n)
        assert abs(imhof_cdf(combo, x) - p_mc) <= 4.0 * se


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.1, 3.0),
    st.floats(0.1, 3.0),
    st.floats(-4.0, 4.0),
    st.floats(0.05, 2.0),
)
def test_imhof_monotone_in_x(w1, w2, x, dx):
    combo = Chi2Combo(((w1, 2, 0.5), (-w2, 2, 0.0)))
    assert imhof_cdf(combo, x + dx) >= imhof_cdf(combo, x) - 1e-9


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_imhof_limits():
    combo = Chi2Combo(((1.0, 2, 0.0), (-0.5, 2, 1.0)))
    assert imhof_cdf(combo, 200.0) == pytest.approx(1.0, abs=1e-8)
    assert imhof_cdf(combo, -200.0) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("x", [10.0, 40.0])
def test_imhof_large_x_against_convolution(x):
    # 0.01*Y + 2*Z with Y ~ chi2'(3, 2), Z ~ chi2'(1, 0.5): the phase x*u/2
    # oscillates many times over the damping scale 100 of the small weight
    combo = Chi2Combo(((0.01, 3, 2.0), (2.0, 1, 0.5)))
    def joint(y):
        # density of Y at y times Pr(Z <= (x - 0.01 y) / 2)
        return (scipy.stats.ncx2.pdf(y, 3, 2.0)
                * scipy.stats.ncx2.cdf((x - 0.01 * y) / 2.0, 1, 0.5))

    exact, _ = scipy.integrate.quad(joint, 0.0, x / 0.01, points=[5.0, 20.0, 60.0],
                                    epsabs=1e-13, epsrel=1e-13, limit=500)
    assert imhof_cdf(combo, x) == pytest.approx(exact, abs=1e-10)


def _numpy_theta_rho(combo, u):
    """The former vectorized Imhof phase (at x = 0) and modulus rho."""
    w, df, nc = combo.arrays()
    wu = np.multiply.outer(u, w)
    with np.errstate(over="ignore", invalid="ignore"):
        frac = wu / (1.0 + wu**2)
        frac2 = wu**2 / (1.0 + wu**2)
        frac = np.where(np.isfinite(frac), frac, 0.0)
        frac2 = np.where(np.isfinite(wu**2), frac2, 1.0)
        rho = np.exp(np.sum(0.25 * df * np.log1p(wu**2) + 0.5 * nc * frac2, axis=-1))
    theta = 0.5 * np.sum(df * np.arctan(wu) + nc * frac, axis=-1)
    return theta, rho


def test_cf_polar_matches_cf_and_numpy_formulas():
    # the scalar kernel of both inversions: cos(theta) e^(-log rho) at u = 2t
    # is Re cf(t) (density_at_zero), sin(theta) e^(-log rho) / u is Imhof's
    # integrand at x = 0; errors are measured against the modulus
    rng = rng_for(7301)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        w = rng.uniform(0.05, 3.0, k) * rng.choice([-1.0, 1.0], k)
        df = rng.integers(1, 6, k)
        nc = np.where(rng.random(k) < 0.5, 0.0, rng.uniform(0.0, 5.0, k))
        combo = Chi2Combo(tuple(zip(w, df, nc)))
        u = 10.0 ** rng.uniform(-4.0, 4.0, 200) / np.median(np.abs(w))
        u[:3] = (1e-300, 1e155, 1e160)  # underflow and x^2 overflow
        parts = _cf_polar(combo)
        got = np.array([parts(float(ui)) for ui in u])
        theta, log_rho = got[:, 0], got[:, 1]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            ref = cf(combo, u / 2.0)
        mod = np.abs(ref)
        assert np.allclose(np.exp(-log_rho), mod, rtol=1e-13, atol=0.0)
        assert np.all(np.abs(np.cos(theta) * np.exp(-log_rho) - ref.real) <= 1e-13 * mod)
        old_theta, old_rho = _numpy_theta_rho(combo, u)
        assert np.all(np.abs(theta - old_theta) <= 1e-13 * np.maximum(np.abs(old_theta), 1.0))
        fin = np.isfinite(old_rho)  # past x^2 overflow the old rho was inf
        assert np.allclose(np.exp(log_rho[fin]), old_rho[fin], rtol=1e-13, atol=0.0)
        imhof_new = (np.sin(theta) * np.exp(-log_rho) / u)[fin]
        imhof_old = (np.sin(old_theta) / (u * old_rho))[fin]
        assert np.all(np.abs(imhof_new - imhof_old) <= 1e-13 / (u * old_rho)[fin])


def _convolution_density_at_zero(a, p, b, q):
    """Density at 0 of a*chi2(p) - b*chi2(q): int f_{a chi2(p)}(y) f_{b chi2(q)}(y) dy."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    a, b = mp.mpf(a), mp.mpf(b)

    def chi2(y, k):
        return y ** (mp.mpf(k) / 2 - 1) * mp.exp(-y / 2) / (2 ** (mp.mpf(k) / 2) * mp.gamma(mp.mpf(k) / 2))

    def f(y):
        return chi2(y / a, p) / a * chi2(y / b, q) / b

    return float(mp.quad(f, [0, b, a, 10 * a, 100 * a, mp.inf]))


def test_density_at_zero_rounding_level_weight():
    # the Durbin-Watson n = 20 edge leaves omega = 4.6e-16 where the exact
    # value is 0; its term must not stretch the quadrature to 50/|w| ~ 3e18
    tiny, a, b = 1.7554246404372988e-17, 0.6871842709362767, 0.04042260417272218
    for q in (19, 17):
        combo = Chi2Combo(((tiny, 1, 0.0), (a, 1, 0.0), (-b, q, 0.0)))
        exact = _convolution_density_at_zero(a, 1, b, q)
        assert density_at_zero(combo) == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert Chi2Combo(((tiny, 1, 0.0), (a, 1, 0.0), (-b, 19, 0.0))).active_df() == 20.0


def test_imhof_log_space_raises_no_overflow_warning():
    # mu = 30 makes rho overflow double range at moderate u; the values are
    # those of the former formula, which warned 86 to 110 times per point
    rt = new_ratio(np.diag([1.0, -1.0, 0.5, -0.5]), np.eye(4), 30.0 * np.ones(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        body = imhof_cdf_of_R(rt, -0.02)
        tail = imhof_cdf_of_R(rt, -0.5)
    assert 0.01 <= body <= 0.99
    assert body == pytest.approx(0.22380195717629991, abs=1e-12)
    assert tail == pytest.approx(0.0, abs=1e-12)
