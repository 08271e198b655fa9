"""Special functions and chi-square-combination kernels."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfratio import (
    Chi2Combo,
    InvalidInputError,
    NumericalError,
    density_at_zero,
    hyp1f1,
    imhof_cdf,
    imhof_cdf_of_R,
    ln_beta,
    ln_hyp1f1,
    new_ratio,
    stirling_beta_hat,
    stirling_gamma_hat,
    weighted_density_at_zero,
)
from qfratio.specfun import cf

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
    # the Kummer sum agrees with a plain 600-term partial sum over z = 50..70
    for z in np.linspace(50.0, 70.0, 9):
        series = math.log(_series_1f1(1.5, 0.5, float(z), terms=600))
        assert ln_hyp1f1(1.5, 0.5, float(z)) == pytest.approx(series, rel=1e-8)


def test_ln_hyp1f1_extreme_argument_no_overflow():
    val = ln_hyp1f1(1.0, 0.5, 5000.0)
    assert val > 4000.0 and math.isfinite(val)


def test_hyp1f1_rejects_bad_b():
    with pytest.raises(InvalidInputError):
        hyp1f1(1.0, -2.0, 1.0)


@pytest.mark.parametrize("a, b, z", [
    (0.0, 0.5, 1.0), (-1.5, 0.5, 1.0), (1.0, 0.0, 1.0), (1.0, -0.5, 1.0), (1.0, 0.5, -1.0),
    (math.nan, 0.5, 1.0), (1.0, math.inf, 1.0), (1.0, 0.5, math.inf), (1.0, 0.5, math.nan),
])
def test_ln_hyp1f1_rejects_outside_its_domain(a, b, z):
    with pytest.raises(InvalidInputError):
        ln_hyp1f1(a, b, z)


def test_ln_hyp1f1_raises_past_its_term_budget():
    with pytest.raises(NumericalError, match=r"a \+ z > 1e\+06 terms"):
        ln_hyp1f1(1.0, 0.5, 2e6)


# (a, b, z) from z = 2 to 5000 with a = n/2 up to 500, where the large-argument
# expansion of 1F1 diverges after one or two terms, and one a < b case
_HYP1F1_POINTS = [
    (1.0, 0.5, 2.0), (1.5, 0.5, 50.0), (1.5, 0.5, 70.0), (20.0, 0.5, 60.5), (50.0, 0.5, 61.0),
    (2.5, 0.5, 40.0), (3.0, 1.5, 10.0), (1.0, 1.0, 3.0), (30.0, 1.0, 100.0), (9.0, 4.5, 300.0),
    (100.0, 2.0, 500.0), (250.0, 0.5, 1000.0), (200.0, 1.5, 2000.0), (0.5, 100.0, 150.0),
    (1.0, 0.5, 5000.0), (500.0, 0.5, 5000.0), (20.0, 1.5, 75.0),
    (1.0, 0.5, 1e-12), (0.5, 0.5, 1e-8), (2.0, 0.5, 1e-300),
]


def test_ln_hyp1f1_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    for a, b, z in _HYP1F1_POINTS:
        # 40 digits past those that 1F1 - 1, about z for small z, needs
        with mp.workdps(40 + max(0, -math.floor(math.log10(z)))):
            expected = float(mp.log(mp.hyp1f1(a, b, z)))
        assert ln_hyp1f1(a, b, z) == pytest.approx(expected, rel=1e-13, abs=0.0), (a, b, z)


def test_beta_closed_forms():
    assert math.exp(ln_beta(0.5, 0.5)) == pytest.approx(math.pi, rel=1e-14)
    assert stirling_beta_hat(0.5, 0.5) == pytest.approx(
        math.sqrt(2.0 * math.pi), rel=1e-14
    )


def test_stirling_gamma_converges():
    assert stirling_gamma_hat(10.0) / scipy.special.gamma(10.0) == pytest.approx(
        1.0, abs=1e-2
    )


def test_stirling_gamma_overflow_is_typed():
    # Gamma_hat(150) = 3.8e260 is in range; Gamma_hat(200) = 3.9e372 is not
    assert stirling_gamma_hat(150.0) / scipy.special.gamma(150.0) == pytest.approx(
        1.0, abs=1e-3
    )
    with pytest.raises(NumericalError):
        stirling_gamma_hat(200.0)
    for x in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidInputError):
            stirling_gamma_hat(x)


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


def test_weighted_density_at_zero_is_a_shifted_density():
    # J(s) = 1/d_0 multiplies cf by the CF of an independent w_0 chi2_2, so
    # E[J delta(Y)] is the density at zero of Y + w_0 chi2_2
    got = weighted_density_at_zero([0.5, -0.7], [1, 3], [0.8, 0.0], [1.0, 0.0], [0.0, 0.0],
                                   np.zeros((2, 2)))
    expected = density_at_zero(Chi2Combo(((0.5, 1, 0.8), (0.5, 2, 0.0), (-0.7, 3, 0.0))))
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_weighted_density_at_zero_constant_jacobian_needs_decay():
    # the zero weight carries J mass, so J tends to 1 and cf of chi2_2 alone,
    # like 1/t, leaves an integrand that does not decay
    with pytest.raises(NumericalError, match="does not converge"):
        weighted_density_at_zero([1.0, 0.0], [2, 1], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0],
                                 np.diag([0.0, 1.0]))


def test_imhof_all_zero_weights_is_invalid_input():
    # a point mass at 0 has no inversion integral; density_at_zero rejects it too
    combo = Chi2Combo(((0.0, 1, 0.0),))
    with pytest.raises(InvalidInputError):
        imhof_cdf(combo)
    with pytest.raises(InvalidInputError):
        density_at_zero(combo)


def test_imhof_tol_is_keyword_only():
    # imhof_cdf is Pr(combo <= 0) only: a stale x argument is never read as tol
    with pytest.raises(TypeError):
        imhof_cdf(Chi2Combo(((1.0, 2, 0.0), (-1.0, 2, 0.0))), 0.5)


def test_imhof_symmetry():
    combo = Chi2Combo(((1.0, 1, 0.0), (-1.0, 1, 0.0)))
    assert imhof_cdf(combo) == pytest.approx(0.5, abs=1e-9)


def test_imhof_chi2_closed_form():
    # a chi2_p <= b chi2_q exactly when (chi2_p/p) / (chi2_q/q) <= bq/(ap)
    for a, p, b, q in [(1.0, 1, 0.5, 1), (1.0, 1, 4.0, 1), (2.0, 3, 0.7, 5), (0.05, 2, 30.0, 7)]:
        combo = Chi2Combo(((a, p, 0.0), (-b, q, 0.0)))
        expected = float(scipy.stats.f.cdf(b * q / (a * p), p, q))
        assert imhof_cdf(combo) == pytest.approx(expected, abs=1e-13)


def test_imhof_noncentral_chi2():
    # the same with a noncentral chi2_p: the noncentral F distribution
    for a, p, nc, b, q in [(2.0, 3, 1.5, 1.0, 2), (0.3, 1, 6.0, 2.0, 4)]:
        combo = Chi2Combo(((a, p, nc), (-b, q, 0.0)))
        expected = float(scipy.stats.ncf.cdf(b * q / (a * p), p, q, nc))
        assert imhof_cdf(combo) == pytest.approx(expected, abs=1e-10)


def test_imhof_mixed_combo_vs_mc():
    rng = rng_for(5150)
    n = 10**6
    pos = rng.noncentral_chisquare(2, 0.7, n) + 0.3 * rng.noncentral_chisquare(4, 2.0, n)
    neg = rng.chisquare(1, n)
    for c in (0.2, 0.6, 3.0, 12.0):
        combo = Chi2Combo(((1.0, 2, 0.7), (-c, 1, 0.0), (0.3, 4, 2.0)))
        p_mc = float(np.mean(pos - c * neg <= 0.0))
        se = math.sqrt(max(p_mc * (1 - p_mc), 1.0 / n) / n)
        assert abs(imhof_cdf(combo) - p_mc) <= 4.0 * se


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.1, 3.0),
    st.floats(0.1, 3.0),
    st.floats(0.05, 2.0),
)
def test_imhof_monotone_in_weight(w1, b, db):
    # Pr(w1 X - b Y <= 0) cannot fall as the negative weight grows
    lower = imhof_cdf(Chi2Combo(((w1, 2, 0.5), (-b, 2, 0.0))))
    upper = imhof_cdf(Chi2Combo(((w1, 2, 0.5), (-(b + db), 2, 0.0))))
    assert upper >= lower - 1e-12


def test_imhof_limits():
    combo = Chi2Combo(((1.0, 2, 0.0), (0.5, 2, 1.0)))
    assert imhof_cdf(combo) == pytest.approx(0.0, abs=1e-14)
    negated = Chi2Combo(((-1.0, 2, 0.0), (-0.5, 2, 1.0)))
    assert imhof_cdf(negated) == pytest.approx(1.0, abs=1e-14)


def test_imhof_two_scale_against_convolution():
    # 0.01*Y - 2*Z with Y ~ chi2'(3, 2), Z ~ chi2'(1, 0.5): damping scales 50
    # and 1/4, 200x apart
    combo = Chi2Combo(((0.01, 3, 2.0), (-2.0, 1, 0.5)))

    def joint(y):
        # density of Y at y times Pr(Z >= 0.005 y)
        return scipy.stats.ncx2.pdf(y, 3, 2.0) * scipy.stats.ncx2.sf(0.005 * y, 1, 0.5)

    exact, _ = scipy.integrate.quad(joint, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=500)
    assert imhof_cdf(combo) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("x", [10.0, 40.0])
def test_imhof_large_x_against_convolution(x):
    # Pr(0.01*Y + 2*Z <= x*E) with Y ~ chi2'(3, 2), Z ~ chi2'(1, 0.5) and
    # E = chi2(2)/2 ~ Exp(1): damping scales 50, 1/4 and 1/(2x), up to 4000x apart
    combo = Chi2Combo(((0.01, 3, 2.0), (2.0, 1, 0.5), (-0.5 * x, 2, 0.0)))
    s = 2.0 / x
    mgf_z = math.exp(-0.5 * s / (1.0 + 2.0 * s)) / math.sqrt(1.0 + 2.0 * s)  # E e^(-s Z)

    def joint(y):
        # density of Y at y times Pr(x E >= 0.01 y + 2 Z) = E e^(-(0.01 y + 2 Z)/x)
        return scipy.stats.ncx2.pdf(y, 3, 2.0) * math.exp(-0.01 * y / x) * mgf_z

    exact, _ = scipy.integrate.quad(joint, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=500)
    assert imhof_cdf(combo) == pytest.approx(exact, abs=1e-12)


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
    # value is 0; its term must not stretch the integration range to 1/|w| ~ 6e16
    tiny, a, b = 1.7554246404372988e-17, 0.6871842709362767, 0.04042260417272218
    for q in (19, 17):
        combo = Chi2Combo(((tiny, 1, 0.0), (a, 1, 0.0), (-b, q, 0.0)))
        exact = _convolution_density_at_zero(a, 1, b, q)
        assert density_at_zero(combo) == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert Chi2Combo(((tiny, 1, 0.0), (a, 1, 0.0), (-b, 19, 0.0))).active_df() == 20.0


# Densities at 0 of noncentral combinations by 30-digit mpmath integration of
# Re cf(t) over t > 0, broken at the damping scales 1/(2|w|):
#
#     mp.mp.dps = 30
#     def re_cf(t):
#         return mp.re(mp.exp(sum(-mp.mpf(df) / 2 * mp.log(mp.mpc(1, -2 * w * t))
#                                 + 1j * t * w * nc / mp.mpc(1, -2 * w * t)
#                                 for w, df, nc in terms)))
#     scales = sorted(1 / (2 * abs(mp.mpf(w))) for w, _, _ in terms)
#     points = [0] + scales + [10 * scales[-1], 100 * scales[-1], mp.inf]
#     value = mp.quad(re_cf, points) / mp.pi
_NONCENTRAL_DENSITY_AT_ZERO = [
    # adaptive quad on [0, 50/min|w|] returned 506.2610 here without raising
    (((0.00016690796643107524, 4, 0.14021387325342824),
      (-0.0007399886190175692, 1, 0.03836959749501296)), 506.06793679690979),
    # and raised NumericalError here
    (((0.005552874602018454, 4, 0.09037133164836474),
      (-0.00041855350469821985, 1, 0.0)), 2.9155642443398575),
]


@pytest.mark.parametrize("terms, expected", _NONCENTRAL_DENSITY_AT_ZERO)
def test_density_at_zero_noncentral_matches_mpmath(terms, expected):
    got = density_at_zero(Chi2Combo(terms))
    assert type(got) is float
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a, p, b, q", [
    (0.00011274443970741165, 1, 0.0051045934711402815, 5),  # quad: off by 3.9e-5
    # the Durbin-Watson n = 20 edge: one trapezoid level at h = 1/4 is off by
    # 8.7e-10 here, so the value needs the refinement
    (0.6871842709362767, 1, 0.04042260417272218, 19),
])
def test_density_at_zero_central_matches_convolution(a, p, b, q):
    exact = _convolution_density_at_zero(a, p, b, q)
    got = density_at_zero(Chi2Combo(((a, p, 0.0), (-b, q, 0.0))))
    assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


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
