"""The batched grid path: cdf_grid/pdf_grid against per-point calls and golden values."""

import math

import numpy as np
import pytest

from qfratio import (
    NumericalError,
    Tolerances,
    beta_matrices,
    cdf,
    cdf_grid,
    durbin_watson,
    new_ratio,
    pdf,
    pdf_grid,
    ratio_n2,
    support,
)
from qfratio import core
from qfratio.rootfind import newton_bracketed


def case1_n50():
    """Deterministic case-1 instance (B positive definite) with n = 50."""
    i = np.arange(50.0)
    A = np.cos(0.7 * np.add.outer(i, i)) + np.diag(np.sin(i))
    B = np.eye(50) + 0.5 * np.exp(-np.abs(np.subtract.outer(i, i)) / 3.0)
    return new_ratio(A, B, np.sin(1.3 * i))


def dw20():
    return durbin_watson(20, np.column_stack([np.ones(20), np.arange(20.0)]))


INSTANCES = {
    "ratio_n2": lambda: ratio_n2(0.2, 2.0),
    "beta62": lambda: beta_matrices(6, 2),
    "case1_n50": case1_n50,
    "dw20": dw20,
}


def mean_and_blend_points(rt, tol=Tolerances()):
    """r where E[X_r] = 0 (mean branch) and a nearby r with |w_hat| inside the blend band.

    Near the mean, w_hat ~ E[X_r] / sd(X_r), with E[X_r] linear in r.
    """
    A, B, mu = np.asarray(rt.A), np.asarray(rt.B), np.asarray(rt.mu)
    eb = np.trace(B) + mu @ B @ mu
    r_mean = float((np.trace(A) + mu @ A @ mu) / eb)
    M = A - r_mean * B
    sd = math.sqrt(2.0 * np.trace(M @ M) + 4.0 * mu @ M @ M @ mu)
    return r_mean, r_mean + 2.0 * tol.mean_branch_threshold * sd / eb


def grid_for(rt):
    """Body and tail points, the mean and blend points, and points beyond a bounded support."""
    info = support(rt)
    lo = info.l if math.isfinite(info.l) else -60.0
    hi = info.r_bar if math.isfinite(info.r_bar) else 60.0
    pts = [lo + f * (hi - lo) for f in (0.002, 0.05, 0.3, 0.6, 0.9, 0.995)]
    pts += list(mean_and_blend_points(rt))
    if math.isfinite(info.l):
        pts += [info.l - 0.5, info.r_bar + 0.5]
    return np.array(pts)


def assert_same(batched, single, rel=1e-14):
    assert batched.branch == single.branch
    for name in ("value", "s_hat", "w_hat", "u_hat") + (("J",) if hasattr(single, "J") else ()):
        a, b = getattr(batched, name), getattr(single, name)
        if math.isnan(b):
            assert math.isnan(a), name
        else:
            assert a == pytest.approx(b, rel=rel, abs=0.0), name


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_batched_equals_per_point(name):
    rt = INSTANCES[name]()
    grid = grid_for(rt)
    for batched_fn, point_fn in ((cdf_grid, cdf), (pdf_grid, pdf)):
        batched = batched_fn(rt, grid)
        assert len(batched) == len(grid)
        for r, b in zip(grid, batched):
            assert_same(b, point_fn(rt, float(r)))
    # the grid exercises every branch it is meant to
    branches = {a.branch for a in cdf_grid(rt, grid)}
    assert {"regular", "mean"} <= branches
    if math.isfinite(support(rt).l):
        assert "boundary" in branches


def test_blend_point_is_in_the_blend_band():
    tol = Tolerances()
    for make in INSTANCES.values():
        rt = make()
        _, r_blend = mean_and_blend_points(rt, tol)
        w = abs(cdf(rt, r_blend).w_hat)
        assert tol.mean_branch_threshold <= w < 3.0 * tol.mean_branch_threshold


def test_single_point_grid():
    rt = ratio_n2(0.2, 2.0)
    (c,) = cdf_grid(rt, [1.5])
    (d,) = pdf_grid(rt, np.array([1.5]))
    assert c == cdf(rt, 1.5)
    assert d == pdf(rt, 1.5)
    assert cdf_grid(rt, []) == []


@pytest.mark.parametrize("name", ["case1_n50", "dw20"])
def test_grid_longer_than_one_chunk(name, monkeypatch):
    rt = INSTANCES[name]()
    grid = grid_for(rt)
    whole_c, whole_p = cdf_grid(rt, grid), pdf_grid(rt, grid)
    monkeypatch.setattr(core, "_STACK_ELEMENTS", 3 * rt.n**2)  # three points per chunk
    assert len(list(core.pencil_eigh(rt, grid))) == math.ceil(len(grid) / 3)
    for a, b in zip(cdf_grid(rt, grid), whole_c):
        assert_same(a, b)
    for a, b in zip(pdf_grid(rt, grid), whole_p):
        assert_same(a, b)


def test_residual_error_still_raises():
    # a root tolerance below the rounding of the K' sum cannot be met: the
    # solve must refuse rather than return
    tight = Tolerances(tol_root=1e-30)
    rt = case1_n50()
    grid = grid_for(rt)
    with pytest.raises(NumericalError, match="above tolerance"):
        cdf_grid(rt, grid, tight)
    with pytest.raises(NumericalError, match="above tolerance"):
        pdf_grid(rt, grid, tight)
    with pytest.raises(NumericalError, match="above tolerance"):
        cdf(rt, float(grid[2]), tight)


def test_nonfinite_grid_point_rejected():
    from qfratio import InvalidInputError

    with pytest.raises(InvalidInputError):
        cdf_grid(ratio_n2(0.2, 2.0), [0.0, math.inf])


def test_newton_lanes_with_value_slope_pairs():
    # x^3 + x = c per lane; one lane starts at its root and must stay there
    c = np.array([-5.0, 0.0, 2.0, 30.0])
    root = newton_bracketed(lambda x: (x**3 + x - c, 3 * x**2 + 1),
                            np.full(4, -10.0), np.full(4, 10.0), x0=0.0, f_tol=1e-13)
    assert np.allclose(root**3 + root, c, rtol=0, atol=1e-12)
    assert root[1] == 0.0
    assert newton_bracketed(lambda x: (x - 0.25, np.ones_like(x)), 0.0, 1.0) == 0.25


# cdf and pdf values of the parent implementation (per-point Newton run until
# the step collapsed), on fixed grids: (r, cdf, pdf)
GOLDEN = {
    "ratio_n2": [
        (-59.76, 0.015457256654101692, 0.00026621659579708333),  # regular
        (-54.0, 0.01707613113555526, 0.00032569144644518694),  # regular
        (-36.0, 0.025397398966405825, 0.0007285207356131936),  # regular
        (-12.0, 0.07284537379648431, 0.006255754033198726),  # regular
        (24.0, 0.9615943849508812, 0.001688960156174248),  # regular
        (48.0, 0.9806389083000551, 0.0004199017861955573),  # regular
        (59.400000000000006, 0.9843242041469171, 0.00027380925142313954),  # regular
        (0.38461538461538464, 0.4458672610721558, 0.19048665903204018),  # mean
    ],
    "beta62": [
        (0.002, 0.004243195839952226, 2.194313880956015),  # regular
        (0.05, 0.09946361030907329, 2.0887757383849825),  # regular
        (0.2, 0.3604701034037393, 1.7589690428505116),  # regular
        (0.4, 0.6381832487528574, 1.3192267821378838),  # regular
        (0.7, 0.9083200807070414, 0.659613391068942),  # regular
        (0.9, 0.9896293137340638, 0.2198711303563139),  # regular
        (0.995, 0.9999732449593923, 0.01099355651781568),  # regular
        (0.3333333333333333, 0.5542891679892133, 1.4658075357087599),  # mean
    ],
    "case1_n50": [
        (-15.213066708951246, 8.548287581542493e-64, 3.3674292478091e-61),  # regular
        (-13.7079081067607, 4.203258266184887e-29, 6.982937054135618e-28),  # regular
        (-9.004287474915245, 4.312159166111524e-13, 2.0268056471292897e-12),  # regular
        (-2.7327932991213064, 0.0003692833397570158, 0.0010437089843840326),  # regular
        (6.674447964569598, 0.999999987488692, 4.18092316344678e-08),  # regular
        (12.945942140363538, 1.0, 6.027748127540372e-21),  # regular
        (15.924901873865661, 1.0, 2.1400702370882435e-52),  # regular
        (0.018685076894317, 0.5105961168460642, 0.8004104960448519),  # mean
    ],
    "dw20": [
        (0.10564194498834135, 6.786856648128641e-21, 7.546604853341335e-18),  # regular
        (0.2917614068759691, 5.721526056690058e-09, 2.5897587336006425e-07),  # regular
        (0.8733847252748056, 0.0008974682380133861, 0.009392070717470707),  # regular
        (1.6488824831399211, 0.14204712643255715, 0.5199345952080408),  # regular
        (2.8121291199375937, 0.9535842524319639, 0.24922434583126707),  # regular
        (3.5876268778027094, 0.9999911877949167, 0.00019210533393532398),  # regular
        (3.955988312788639, 0.9999999999999999, 2.7092636250494838e-14),  # regular
        (2.109523809523809, 0.4970521047372927, 0.8991222364987456),  # mean
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_values(name):
    rt = INSTANCES[name]()
    rs, F, f = (np.array(col) for col in zip(*GOLDEN[name]))
    got_F = np.array([a.value for a in cdf_grid(rt, rs)])
    got_f = np.array([a.value for a in pdf_grid(rt, rs)])
    np.testing.assert_allclose(got_F, F, rtol=1e-10, atol=0)
    np.testing.assert_allclose(got_f, f, rtol=1e-10, atol=0)
