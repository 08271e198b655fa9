"""Monte-Carlo and exact reference oracles."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from qfratio import (
    InvalidInputError,
    NumericalError,
    beta_matrices,
    cdf,
    durbin_watson,
    exact_cdf_n2,
    exact_density_n2,
    imhof_cdf_of_R,
    imhof_pdf_of_R,
    mc_cdf,
    new_ratio,
    ratio_n2,
    relative_error_curve,
)
from qfratio import oracle
from qfratio.oracle import mc_draws

from conftest import random_case1, rng_for


def test_mc_reproducible():
    rt = ratio_n2(0.2, 2.0)
    a = mc_cdf(rt, 1.0, n_draws=50000, seed=42)
    b = mc_cdf(rt, 1.0, n_draws=50000, seed=42)
    assert a.value == b.value and a.std_error == b.std_error


def test_mc_chunking_invariance():
    # draws must not depend on how the chunk boundary falls
    rt = ratio_n2(0.2, 2.0)
    full = mc_draws(rt, 2**18 + 100, seed=3)
    head = mc_draws(rt, 2**18, seed=3)
    assert np.array_equal(full[: 2**18], head)


def test_mc_draw_floor():
    with pytest.raises(InvalidInputError):
        mc_cdf(ratio_n2(0.0, 0.0), 0.0, n_draws=10)


def test_mc_point_mass_degenerate():
    rt = new_ratio(3.0 * np.eye(3), np.eye(3), np.zeros(3))
    assert mc_cdf(rt, 2.9, n_draws=10**4).value == 0.0
    assert mc_cdf(rt, 3.1, n_draws=10**4).value == 1.0


def test_mc_central_beta_median():
    rt = beta_matrices(2, 1)
    est = mc_cdf(rt, 0.5, n_draws=10**5, seed=1)
    assert abs(est.value - 0.5) <= 4.0 * est.std_error


def test_imhof_cauchy_closed_form():
    rt = ratio_n2(0.0, 0.0)
    for r in (-3.0, 0.0, 2.0):
        expected = 0.5 + math.atan(r) / math.pi
        assert imhof_cdf_of_R(rt, r) == pytest.approx(expected, abs=1e-8)


def test_imhof_central_beta_closed_form():
    # near either edge the CF damping scales are 1 and 10^k apart, and the
    # quadrature must sample the whole gap between them
    rt = beta_matrices(6, 2)
    edges = [r for k in range(3, 12) for r in (10.0**-k, 1.0 - 10.0**-k)]
    for r in [0.2, 0.5, 0.8] + edges:
        expected = float(scipy.stats.beta.cdf(r, 1.0, 2.0))
        assert imhof_cdf_of_R(rt, r) == pytest.approx(expected, abs=1e-9)


def test_imhof_matches_exact_integration_n2():
    for r in (-2.0, 0.0, 1.0, 4.0):
        assert imhof_cdf_of_R(ratio_n2(0.2, 2.0), r) == pytest.approx(
            exact_cdf_n2(0.2, 2.0, r), abs=1e-6
        )


def test_imhof_matches_mc_random_instance():
    rt = random_case1(5, rng_for(31))
    est = mc_cdf(rt, 0.3, n_draws=10**6, seed=9)
    assert abs(imhof_cdf_of_R(rt, 0.3) - est.value) <= 4.0 * est.std_error


def test_imhof_far_tails_match_exact_integration_n2():
    # the former quad-based inversion was off by 3.9e-10 at r = -1e3
    rt = ratio_n2(0.2, 2.0)
    for r in (-1e5, -1e3, -10.0, 0.5, 1e3, 1e4):
        assert imhof_cdf_of_R(rt, r) == pytest.approx(exact_cdf_n2(0.2, 2.0, r), abs=1e-14)


# Pr(R <= r) on three criterion-11 instances, random_case1(n, rng_for(110000 + seed)),
# by 30-digit mpmath: 1/2 - (1/pi) int_0^inf Im cf(t)/t dt over the spectrum of
# A - rB, broken at the damping scales.  The former quad-based inversion was off
# by 1.4e-12, 9.0e-13 and 3.4e-13 here.
_C11_MPMATH = [
    (16, 0.20991145780178488, 0.6018577118378728),
    (10, 0.08260536165081472, 0.8439116272201364),
    (2, -0.799189776822265, 1.9701951341744517e-05),
]


@pytest.mark.parametrize("seed, r, expected", _C11_MPMATH)
def test_imhof_matches_mpmath_random_instance(seed, r, expected):
    rng = rng_for(110000 + seed)
    rt = random_case1(int(rng.integers(4, 9)), rng)
    assert imhof_cdf_of_R(rt, r) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("r", [10.0, -10.0, 1e3, -1e3, 1e5, -1e5])
def test_imhof_pdf_matches_closed_form_n2(r):
    expected = exact_density_n2(0.2, 2.0, r)
    assert imhof_pdf_of_R(ratio_n2(0.2, 2.0), r) == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_imhof_pdf_central_beta_closed_form():
    # beta_matrices(6, 2) is Beta(1, 2), density 2 (1 - r)
    rt = beta_matrices(6, 2)
    for r in np.concatenate([np.geomspace(1e-6, 0.5, 12), np.linspace(0.5, 0.99, 12)]):
        assert imhof_pdf_of_R(rt, r) == pytest.approx(2.0 * (1.0 - r), rel=1e-10, abs=0.0)
    # at r = 1e-13 the four eigenvalues -r of A - rB are negligible: J tends to
    # the constant 4 and cf of (1 - r) chi2_2 decays only like 1/t, so the
    # modulus of the integrand does not decay
    with pytest.raises(NumericalError, match="does not converge"):
        imhof_pdf_of_R(rt, 1e-13)


def test_imhof_pdf_integrates_to_imhof_cdf():
    # Durbin-Watson keeps two zero eigenvalues of A - rB at every r, in the
    # null space of B; 32-point Gauss-Legendre over [1.5, 2.5]
    rt = durbin_watson(20, np.column_stack([np.ones(20), np.arange(20.0)]))
    x, w = np.polynomial.legendre.leggauss(32)
    a, b = 1.5, 2.5
    mass = 0.5 * (b - a) * sum(wi * imhof_pdf_of_R(rt, 0.5 * (b - a) * xi + 0.5 * (a + b))
                               for xi, wi in zip(x, w))
    assert mass == pytest.approx(imhof_cdf_of_R(rt, b) - imhof_cdf_of_R(rt, a), abs=1e-12)


def test_exact_density_n2_cauchy():
    for r in (0.0, 1.0, 5.0):
        assert exact_density_n2(0.0, 0.0, r) == pytest.approx(
            1.0 / (math.pi * (1.0 + r * r)), rel=1e-14
        )


def test_exact_density_n2_normalizes():
    mass, _ = scipy.integrate.quad(
        lambda u: exact_density_n2(0.2, 2.0, math.tan(u)) / math.cos(u) ** 2,
        -math.pi / 2 + 1e-12,
        math.pi / 2 - 1e-12,
        limit=400,
    )
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_exact_density_n2_matches_mc_kernel():
    rng = rng_for(77)
    n = 10**7
    e1 = rng.standard_normal(n) + 0.2
    e2 = rng.standard_normal(n) + 2.0
    draws = e2 / e1
    h = 0.02
    r0 = 2.0
    p = float(np.mean(np.abs(draws - r0) <= h))
    est = p / (2.0 * h)
    se = math.sqrt(p * (1.0 - p) / n) / (2.0 * h)
    assert abs(exact_density_n2(0.2, 2.0, r0) - est) <= 3.0 * se


def test_exact_cdf_n2_limits():
    assert exact_cdf_n2(0.2, 2.0, -1e8) == pytest.approx(0.0, abs=1e-6)
    assert exact_cdf_n2(0.2, 2.0, 1e8) == pytest.approx(1.0, abs=1e-6)


def test_relative_error_curve_cauchy_density_ratio():
    rt = ratio_n2(0.0, 0.0)
    records = relative_error_curve(
        rt,
        [-4.0, -1.0, 1.0, 4.0],
        exact_cdf=lambda r: 0.5 + math.atan(r) / math.pi,
        exact_pdf=lambda r: 1.0 / (math.pi * (1.0 + r * r)),
    )
    for rec in records:
        assert rec["pdf_ratio"] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-10)


def test_relative_error_curve_tail_sides():
    rt = ratio_n2(0.2, 2.0)
    records = relative_error_curve(rt, [-6.0, 6.0])
    assert records[0]["s_hat"] < 0 < records[1]["s_hat"]
    for rec in records:
        assert 0.5 < rec["cdf_ratio"] < 1.5


def test_relative_error_curve_batches_the_grid(monkeypatch):
    # one cdf_grid call per curve, and one pdf_grid call only with exact_pdf
    calls = []
    for name in ("cdf_grid", "pdf_grid"):
        def counted(*args, _inner=getattr(oracle, name), _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    rt = ratio_n2(0.0, 0.0)
    grid = [-4.0, -1.0, 1.0, 4.0]
    exact_cdf = lambda r: 0.5 + math.atan(r) / math.pi
    records = relative_error_curve(rt, grid, exact_cdf=exact_cdf)
    assert calls == ["cdf_grid"]
    assert all("pdf_ratio" not in rec for rec in records)
    calls.clear()
    records = relative_error_curve(rt, grid, exact_cdf=exact_cdf,
                                   exact_pdf=lambda r: 1.0 / (math.pi * (1.0 + r * r)))
    assert calls == ["cdf_grid", "pdf_grid"]
    for r, rec in zip(grid, records):
        assert rec["r"] == r and rec["exact"] == exact_cdf(r)
        assert rec["approx"] == cdf(rt, r).value and rec["s_hat"] == cdf(rt, r).s_hat


def test_relative_error_curve_nan_where_approximation_rounds_to_one():
    # F_hat rounds to 1 just inside the right edge: (1 - F)/(1 - F_hat) is undefined
    rt = beta_matrices(6, 2)
    r = 1.0 - 1e-9
    assert cdf(rt, r).value == 1.0
    (rec,) = relative_error_curve(rt, [r])
    assert rec["s_hat"] > 0 and math.isnan(rec["cdf_ratio"])
    assert rec["exact"] == pytest.approx(float(scipy.stats.beta.cdf(r, 1.0, 2.0)), abs=1e-9)


def test_relative_error_curve_rejects_point_outside_support():
    with pytest.raises(InvalidInputError, match="outside the open support"):
        relative_error_curve(beta_matrices(6, 2), [0.5, -0.5])
