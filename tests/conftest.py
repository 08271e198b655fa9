"""Shared random-instance generators for the test suite."""

import numpy as np
import pytest

from qfratio import new_ratio


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def random_spd(n, rng, cond=10.0):
    """Random symmetric positive-definite matrix with bounded conditioning."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.exp(rng.uniform(0.0, np.log(cond), n))
    return Q @ np.diag(d) @ Q.T


def random_symmetric(n, rng):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def random_case1(n, rng, with_mean=True):
    """Instance with B positive definite (bounded support, case 1)."""
    A = random_symmetric(n, rng)
    B = random_spd(n, rng)
    mu = rng.standard_normal(n) if with_mean else np.zeros(n)
    return new_ratio(A, B, mu)


def random_case2b(n, rng, p=1, with_mean=True):
    """Singular B with the trailing block of A negative definite (case 2b)."""
    k = n - p
    B = np.zeros((n, n))
    B[:k, :k] = random_spd(k, rng)
    A = random_symmetric(n, rng)
    G = rng.standard_normal((p, p))
    A[k:, k:] = -(G @ G.T + np.eye(p))
    mu = rng.standard_normal(n) if with_mean else np.zeros(n)
    return new_ratio(A, B, mu)


def random_case2c_infinite(n, rng, p=3):
    """Singular B with C22 = diag(-1, 0, ..., 0): case 2c at r = infinity, m = p - 1."""
    k = n - p
    B = np.zeros((n, n))
    B[:k, :k] = random_spd(k, rng)
    A = random_symmetric(n, rng)
    A[k:, k:] = np.diag([-1.0] + [0.0] * (p - 1))
    return new_ratio(A, B, rng.standard_normal(n))


def direct_edge_data(rt, m, eps=1e-5):
    """omega, sorted nu0^2 and eig(H_edge) from the m eigenvalues of eps*A - B nearest 0.

    Reference data for an edge at r = infinity, accurate to O(eps).
    """
    lam, V = np.linalg.eigh(eps * np.asarray(rt.A) - np.asarray(rt.B))
    idx = np.sort(np.argsort(np.abs(lam))[:m])
    P = V[:, idx]
    h = P.T @ np.asarray(rt.B) @ P
    return (lam[idx] / lam[idx[-1]], np.sort((P.T @ np.asarray(rt.mu)) ** 2),
            np.linalg.eigvalsh(h) / np.linalg.norm(h, 2))


@pytest.fixture
def rng():
    return rng_for(20240824)
