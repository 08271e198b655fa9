"""Problem construction, whitening and pencil spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfratio import (
    InvalidInputError,
    Tolerances,
    is_degenerate,
    new_ratio,
    ratio_n2,
    spectrum_at,
    whiten,
)

from conftest import random_case1, random_spd, random_symmetric, rng_for


def test_new_ratio_symmetrizes():
    rt = new_ratio([[0.0, 1.0], [0.0, 0.0]], np.diag([1.0, 0.0]), [0.0, 0.0])
    assert np.allclose(rt.A, [[0.0, 0.5], [0.5, 0.0]])


def test_new_ratio_rejects_non_psd_B():
    with pytest.raises(InvalidInputError):
        new_ratio(np.eye(2), np.diag([1.0, -0.1]), [0.0, 0.0])


def test_new_ratio_rejects_zero_B():
    with pytest.raises(InvalidInputError):
        new_ratio(np.eye(2), np.zeros((2, 2)), [0.0, 0.0])


def test_new_ratio_rejects_size_mismatch():
    with pytest.raises(InvalidInputError):
        new_ratio(np.eye(3), np.eye(2), [0.0, 0.0])


def test_new_ratio_rejects_n1():
    with pytest.raises(InvalidInputError):
        new_ratio([[1.0]], [[1.0]], [0.0])


def test_arrays_are_read_only():
    rt = ratio_n2(0.2, 2.0)
    with pytest.raises(ValueError):
        rt.A[0, 0] = 7.0


def test_whiten_identity_is_noop():
    A = random_symmetric(3, rng_for(1))
    mu = np.array([1.0, -1.0, 0.5])
    rt = whiten(A, np.eye(3), mu, np.eye(3))
    assert np.allclose(rt.A, 0.5 * (A + A.T))
    assert np.allclose(rt.mu, mu)


def test_whiten_scalar_covariance():
    rt = whiten(np.eye(2), np.eye(2), [1.0, 2.0], 4.0 * np.eye(2))
    assert np.allclose(rt.A, 4.0 * np.eye(2))
    assert np.allclose(rt.B, 4.0 * np.eye(2))
    assert np.allclose(rt.mu, [0.5, 1.0])


def test_whiten_rejects_indefinite_sigma():
    with pytest.raises(InvalidInputError):
        whiten(np.eye(2), np.eye(2), [0.0, 0.0], np.diag([1.0, -1.0]))


def test_whiten_rejects_mismatched_shapes():
    with pytest.raises(InvalidInputError, match="Sigma must have shape"):
        whiten(np.eye(2), np.eye(2), [0.0, 0.0], np.eye(3))
    with pytest.raises(InvalidInputError, match="mu must have shape"):
        whiten(np.eye(2), np.eye(2), [0.0, 0.0, 0.0], np.eye(2))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_whiten_rejects_non_finite_mu(bad):
    # a typed error before S^-1 mu turns the entry into a NaN with a RuntimeWarning
    with pytest.raises(InvalidInputError, match="mu contains non-finite"):
        whiten(np.eye(2), np.eye(2), [0.0, bad], 4.0 * np.eye(2))


def test_whiten_matches_direct_sampler():
    # R under N(mu, Sigma) has the same law as the whitened instance under N(., I)
    rng = rng_for(7)
    n = 3
    A = random_symmetric(n, rng)
    B = random_spd(n, rng)
    Sigma = random_spd(n, rng)
    mu = rng.standard_normal(n)
    rt = whiten(A, B, mu, Sigma)
    L = np.linalg.cholesky(Sigma)
    draws = 200000
    z = rng.standard_normal((draws, n))
    eps_direct = mu + z @ L.T
    r_direct = np.einsum("ij,jk,ik->i", eps_direct, A, eps_direct) / np.einsum(
        "ij,jk,ik->i", eps_direct, B, eps_direct
    )
    z2 = rng.standard_normal((draws, n))
    eps_white = np.asarray(rt.mu) + z2
    r_white = np.einsum("ij,jk,ik->i", eps_white, rt.A, eps_white) / np.einsum(
        "ij,jk,ik->i", eps_white, rt.B, eps_white
    )
    q_direct = np.quantile(r_direct, [0.1, 0.25, 0.5, 0.75, 0.9])
    q_white = np.quantile(r_white, [0.1, 0.25, 0.5, 0.75, 0.9])
    assert np.allclose(q_direct, q_white, rtol=0.0, atol=0.05)


def test_spectrum_n2_closed_form_eigenvalues():
    rt = ratio_n2(0.2, 2.0)
    for r in (-3.0, 0.0, 5.0):
        sp = spectrum_at(rt, r)
        lo = (-r - math.sqrt(r * r + 1.0)) / 2.0
        hi = (-r + math.sqrt(r * r + 1.0)) / 2.0
        assert np.allclose(sp.lambdas, [lo, hi], atol=1e-12)


def test_spectrum_identity_pencil():
    rt = new_ratio(np.eye(2) + np.diag([0.0, 1e-3]), np.eye(2), [0.0, 0.0])
    sp = spectrum_at(rt, 1.0)
    assert abs(sp.lambdas[0]) < 1e-12


def test_spectrum_reconstruction_and_trace(rng):
    for seed in range(10):
        rt = random_case1(5, rng_for(100 + seed))
        r = float(rng.uniform(-2.0, 2.0))
        sp = spectrum_at(rt, r)
        M = np.asarray(rt.A) - r * np.asarray(rt.B)
        P = np.asarray(sp.P)
        assert np.allclose(P @ P.T, np.eye(5), atol=1e-8)
        assert np.allclose(P.T @ np.diag(sp.lambdas) @ P, M, atol=1e-10)
        assert math.isclose(float(np.sum(sp.lambdas)), float(np.trace(M)), abs_tol=1e-10)
        assert math.isclose(
            float(np.sum(np.asarray(sp.nu) ** 2)),
            float(np.dot(rt.mu, rt.mu)),
            abs_tol=1e-10,
        )


def test_spectrum_H_is_rotated_B(rng):
    # H = P B P' holds the eigenvalue slopes: d lambda_j / dr = -H_jj
    rt = random_case1(4, rng_for(55))
    sp = spectrum_at(rt, 0.7)
    H = sp.P @ np.asarray(rt.B) @ sp.P.T
    h = 1e-6
    up, down = spectrum_at(rt, 0.7 + h), spectrum_at(rt, 0.7 - h)
    slopes = (np.asarray(up.lambdas) - np.asarray(down.lambdas)) / (2.0 * h)
    assert np.allclose(slopes, -np.diag(H), rtol=0.0, atol=1e-7)


def test_reflection_flips_the_spectrum():
    # -R = e'(-A)e / e'Be: the spectrum at r is minus that of R at -r
    rt = ratio_n2(0.2, 2.0)
    sp = spectrum_at(new_ratio(-rt.A, rt.B, rt.mu), 1.5)
    sp0 = spectrum_at(rt, -1.5)
    assert np.allclose(np.sort(sp.lambdas), np.sort(-np.asarray(sp0.lambdas)[::-1]), atol=1e-12)


def test_is_degenerate_detects_multiple():
    B = np.eye(3)
    assert is_degenerate(new_ratio(3.0 * B, B, np.zeros(3))) == pytest.approx(3.0)
    assert is_degenerate(new_ratio(B, B, np.zeros(3))) == pytest.approx(1.0)
    assert is_degenerate(ratio_n2(0.2, 2.0)) is None


def test_tolerances_replace():
    tol = Tolerances()
    tol2 = tol.replace(tol_quad=1e-8)
    assert tol2.tol_quad == 1e-8
    assert tol.tol_quad != 1e-8
    assert tol2.replace() == tol2
    with pytest.raises(InvalidInputError, match="tol_root"):
        tol.replace(tol_root=0.0)
    with pytest.raises(TypeError):
        tol.replace(tol_unknown=1e-3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.floats(-3.0, 3.0))
def test_eigenvalues_nonincreasing_in_r(seed, r):
    # monotonicity of every pencil eigenvalue when B is positive definite
    rt = random_case1(4, rng_for(seed))
    h = 1e-3
    lo = np.asarray(spectrum_at(rt, r + h).lambdas)
    hi = np.asarray(spectrum_at(rt, r - h).lambdas)
    assert np.all(lo <= hi + 1e-12)


def _fix_signs_loop(V):
    """Column-by-column reference for fix_eigenvector_signs."""
    V = V.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        scale = np.max(np.abs(col))
        if scale == 0.0:
            continue
        nz = np.nonzero(np.abs(col) > 1e-12 * scale)[0]
        if nz.size and col[nz[0]] < 0:
            V[:, j] = -col
    return V


def test_fix_eigenvector_signs_matches_loop():
    from qfratio.core import fix_eigenvector_signs

    rng = rng_for(77)
    stack = [np.linalg.qr(rng.standard_normal((n, n)))[0] for n in (5, 5, 5)]
    V = stack[0].copy()
    V[:, 1] = 0.0  # zero column: left alone
    V[0, 2] = -1e-14 * np.max(np.abs(V[:, 2]))  # leading entry below 1e-12 * max
    V[1, 2] = -abs(V[1, 2])
    V[0, 3] = 1e-14 * np.max(np.abs(V[:, 3]))
    V[1, 3] = abs(V[1, 3])
    stack[0] = V
    for M in stack:  # bit for bit, signed zeros included
        assert fix_eigenvector_signs(M).tobytes() == _fix_signs_loop(M).tobytes()
    batched = fix_eigenvector_signs(np.stack(stack))
    for got, M in zip(batched, stack):
        assert got.tobytes() == _fix_signs_loop(M).tobytes()
    # the negative leading entry below the threshold did not decide the sign
    assert fix_eigenvector_signs(V)[1, 2] > 0
