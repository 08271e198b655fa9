"""The batched grid path: cdf_grid/pdf_grid against per-point calls and golden values."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from qfratio import (
    NumericalError,
    Tolerances,
    beta_limit,
    beta_matrices,
    cdf,
    cdf_grid,
    durbin_watson,
    limit_simple,
    ls_serial_corr,
    new_ratio,
    normalized_pdf,
    pdf,
    pdf_grid,
    ratio_n2,
    support,
)
from qfratio import core, saddlepoint
from qfratio.rootfind import newton_bracketed

from conftest import random_case1, random_case2b


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


def mean_and_near_points(rt):
    """r where E[X_r] = 0 and a nearby r with |w_hat| about 2e-5.

    Near the mean, w_hat ~ E[X_r] / sd(X_r), with E[X_r] linear in r.
    """
    A, B, mu = np.asarray(rt.A), np.asarray(rt.B), np.asarray(rt.mu)
    eb = np.trace(B) + mu @ B @ mu
    r_mean = float((np.trace(A) + mu @ A @ mu) / eb)
    M = A - r_mean * B
    sd = math.sqrt(2.0 * np.trace(M @ M) + 4.0 * mu @ M @ M @ mu)
    return r_mean, r_mean + 2e-5 * sd / eb


def grid_for(rt):
    """Body and tail points, the mean and a point near it, and points beyond a bounded support."""
    info = support(rt)
    lo = info.l if math.isfinite(info.l) else -60.0
    hi = info.r_bar if math.isfinite(info.r_bar) else 60.0
    pts = [lo + f * (hi - lo) for f in (0.002, 0.05, 0.3, 0.6, 0.9, 0.995)]
    pts += list(mean_and_near_points(rt))
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
    assert "regular" in branches
    if math.isfinite(support(rt).l):
        assert "boundary" in branches


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
    rt = INSTANCES[name]()  # a fresh ratio: rt kept the whole grid's solved chunk
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
    root, _ = newton_bracketed(lambda x: (x**3 + x - c, 3 * x**2 + 1),
                               np.full(4, -10.0), np.full(4, 10.0), x0=0.0, f_tol=1e-13)
    assert np.allclose(root**3 + root, c, rtol=0, atol=1e-12)
    assert root[1] == 0.0
    assert newton_bracketed(lambda x: (x - 0.25, np.ones_like(x)), 0.0, 1.0) == (0.25, 0.25)


def test_newton_stops_where_its_step_collapses():
    # f(0.3) = -1e-20 misses 0, but its step of 1e-20 vanishes against 0.3:
    # the lane stops there at once instead of bisecting away from the root
    points = []

    def f(x):
        points.append(x.copy())
        return (x - 0.3) - 1e-20, np.ones_like(x)

    assert newton_bracketed(f, 0.0, 1.0, x0=0.3, f_tol=0.0) == (0.3, 0.3)
    assert len(points) == 1


def test_newton_stops_when_no_float_is_left_in_its_bracket():
    # the root lies halfway between two adjacent floats x0 < x1 and each
    # Newton step jumps to the other one; once both are bracket ends their
    # midpoint rounds to x0, and the lane stops instead of evaluating it again
    x0 = float.fromhex("0x1.3333333333334p-2")
    x1 = np.nextafter(x0, 1.0)
    points = []

    def f(x):
        points.append(x.copy())
        return 2.0 * (x - x0) - (x1 - x0), np.ones_like(x)

    assert newton_bracketed(f, 0.0, 1.0, x0=x0) == (x1, x1)
    assert len(points) == 2


def test_newton_returns_the_point_before_an_unchecked_last_step():
    # f = x - c, but lane 0 reports a slope of 0.4 near its root, as a slope
    # lost to rounding would: its accepted point 0.3 has |f| = 0.05 <= f_tol,
    # and the unevaluated last step lands at 0.175, where |f| = 0.075
    c = np.array([0.25, 0.5])

    def f(x):
        return x - c, np.where((np.abs(x - c) < 0.1) & (c == 0.25), 0.4, 1.0)

    x, x_eval = newton_bracketed(f, np.zeros(2), np.ones(2), x0=np.array([0.3, 0.9]),
                                 f_tol=np.array([0.06, 1e-12]))
    assert x[0] == pytest.approx(0.175, abs=1e-15) and x_eval[0] == 0.3
    assert abs(x_eval[0] - c[0]) < abs(x[0] - c[0])
    # lane 1 converges with ordinary steps; its last step lands on the root
    assert x[1] == 0.5 and abs(x_eval[1] - 0.5) <= 1e-12


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
        (0.38461538461538464, 0.4458672610721558, 0.19048665903204018),  # r_mean
    ],
    "beta62": [
        (0.002, 0.004243195839952226, 2.194313880956015),  # regular
        (0.05, 0.09946361030907329, 2.0887757383849825),  # regular
        (0.2, 0.3604701034037393, 1.7589690428505116),  # regular
        (0.4, 0.6381832487528574, 1.3192267821378838),  # regular
        (0.7, 0.9083200807070414, 0.659613391068942),  # regular
        (0.9, 0.9896293137340638, 0.2198711303563139),  # regular
        (0.995, 0.9999732449593923, 0.01099355651781568),  # regular
        (0.3333333333333333, 0.5542891679892133, 1.4658075357087599),  # r_mean
    ],
    "case1_n50": [
        (-15.213066708951246, 8.548287581542493e-64, 3.3674292478091e-61),  # regular
        (-13.7079081067607, 4.203258266184887e-29, 6.982937054135618e-28),  # regular
        (-9.004287474915245, 4.312159166111524e-13, 2.0268056471292897e-12),  # regular
        (-2.7327932991213064, 0.0003692833397570158, 0.0010437089843840326),  # regular
        (6.674447964569598, 0.999999987488692, 4.18092316344678e-08),  # regular
        (12.945942140363538, 1.0, 6.027748127540372e-21),  # regular
        (15.924901873865661, 1.0, 2.1400702370882435e-52),  # regular
        (0.018685076894317, 0.5105961168460642, 0.8004104960448519),  # r_mean
    ],
    "dw20": [
        (0.10564194498834135, 6.786856648128641e-21, 7.546604853341335e-18),  # regular
        (0.2917614068759691, 5.721526056690058e-09, 2.5897587336006425e-07),  # regular
        (0.8733847252748056, 0.0008974682380133861, 0.009392070717470707),  # regular
        (1.6488824831399211, 0.14204712643255715, 0.5199345952080408),  # regular
        (2.8121291199375937, 0.9535842524319639, 0.24922434583126707),  # regular
        (3.5876268778027094, 0.9999911877949167, 0.00019210533393532398),  # regular
        (3.955988312788639, 0.9999999999999999, 2.7092636250494838e-14),  # regular
        (2.109523809523809, 0.4970521047372927, 0.8991222364987456),  # r_mean
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


def test_solve_keeps_the_better_of_the_last_two_newton_points():
    # 6.1e-13 of the support inside its left edge, K' has slope ~3e-20: a
    # bisection midpoint meets the |K'| tolerance (8.5e-10 against 1.6e-9)
    # and the unchecked last Newton step from it lands at |K'| = 1.75e-9
    rng = np.random.default_rng([1, 1])
    random_case1(8, rng)
    rt = random_case1(50, rng)
    info = support(rt)
    r = info.l + 6.1e-13 * (info.r_bar - info.l)
    d = pdf(rt, r)
    assert d.branch == "regular"
    assert 0.0 < d.value < 1e-250


def test_points_within_rounding_of_a_finite_edge():
    # the support says inside, but the computed spectrum can be one-signed:
    # such points are boundary points, not an UnsupportedInstanceError
    rt = random_case1(8, np.random.default_rng([1, 1]))
    info = support(rt)
    k = np.arange(1, 41)
    rs = np.concatenate([info.l + k * np.spacing(info.l), info.r_bar - k * np.spacing(info.r_bar)])
    F = np.array([a.value for a in cdf_grid(rt, rs)])
    f = np.array([a.value for a in pdf_grid(rt, rs)])
    assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
    assert np.all(F[:40] < 1e-30) and np.all(F[40:] > 1.0 - 1e-12)


def test_support_computed_once_and_only_for_flagged_points(monkeypatch):
    calls = []
    real = saddlepoint.support
    monkeypatch.setattr(saddlepoint, "support", lambda *a: calls.append(1) or real(*a))
    rt = beta_matrices(6, 2)
    cdf_grid(rt, np.linspace(0.1, 0.9, 9))
    assert calls == []
    # outside points in three chunks of one grid: one support() call
    monkeypatch.setattr(core, "_STACK_ELEMENTS", 2 * rt.n**2)
    F = [a.value for a in cdf_grid(rt, [-1.0, 0.5, -0.5, 2.0, 0.5, 3.0])]
    assert F[0] == F[2] == 0.0 and F[3] == F[5] == 1.0
    assert calls == [1]
    calls.clear()
    normalized_pdf(rt, [0.5])
    assert calls == [1]


def _mass(rt):
    """Normalizing mass of the saddlepoint density: f_hat over the normalized density."""
    info = support(rt)
    lo = info.l if math.isfinite(info.l) else -1.0
    hi = info.r_bar if math.isfinite(info.r_bar) else 1.0
    r = lo + 0.37 * (hi - lo)
    return pdf(rt, r).value / float(normalized_pdf(rt, [r])[0])


def test_normalized_pdf_mass_against_closed_forms():
    # the central n = 2 ratio is Cauchy and beta_matrices(6, 2) is Beta(1, 2):
    # f_hat/f is constant, so the mass is 1/RE exactly
    assert _mass(ratio_n2(0.0, 0.0)) == pytest.approx(1.0 / limit_simple(2, 0.0).RE,
                                                      rel=1e-10, abs=0.0)
    assert _mass(beta_matrices(6, 2)) == pytest.approx(1.0 / beta_limit(6, 2, 0.0).RE,
                                                       rel=1e-10, abs=0.0)


# masses by adaptive quad over one-point pdf calls (epsabs 1e-9, epsrel 1e-10)
QUAD_MASS = {
    "ratio_n2": (INSTANCES["ratio_n2"], 1.4210850445487797),
    "case1_n50": (case1_n50, 0.8003712514931762),
    "dw20": (dw20, 0.9820039033369656),
    "ls_serial": (lambda: ls_serial_corr(3, 2, mu=np.array([0.4, -1.2, 0.7])), 1.2827570966702875),
}


@pytest.mark.parametrize("name", sorted(QUAD_MASS))
def test_normalized_pdf_mass_against_quad(name):
    make, mass = QUAD_MASS[name]
    assert _mass(make()) == pytest.approx(mass, rel=1e-8, abs=0.0)


# -- a cdf and a pdf at the same points share one solved chunk -------------------


def _spy(monkeypatch, owner, name):
    """Record one entry per call of owner.name, then call through."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def _fields(records):
    """Every field of every record, nan replaced by a marker so that == compares it."""
    return [tuple("nan" if v != v else v for v in dataclasses.astuple(a)) for a in records]


def _cold(rt, fn, grid, tol=Tolerances()):
    """fn on a fresh copy of rt, which has solved nothing yet."""
    return _fields(fn(new_ratio(rt.A, rt.B, rt.mu), grid, tol))


def test_cdf_then_pdf_at_one_point_solves_once(monkeypatch):
    rt = random_case1(8, np.random.default_rng([2, 2]))
    assert rt.joint_basis is None
    info = support(rt)
    r = 0.5 * (info.l + info.r_bar)
    eighs = _spy(monkeypatch, np.linalg, "eigh")
    newtons = _spy(monkeypatch, saddlepoint, "newton_bracketed")
    c, d = cdf(rt, r), pdf(rt, r)
    assert (len(eighs), len(newtons)) == (1, 1)
    monkeypatch.undo()
    assert _fields([c]) == _cold(rt, cdf_grid, [r])
    assert _fields([d]) == _cold(rt, pdf_grid, [r])


def test_deep_tail_point_tests_the_support_once(monkeypatch):
    calls = _spy(monkeypatch, saddlepoint, "support")
    rt = ratio_n2(0.2, 2.0)
    cdf(rt, 2e6)
    pdf(rt, 2e6)
    assert calls == [1]


def _beta62_grid():
    return np.concatenate([[-0.5, 0.0, 1e-12], np.linspace(0.1, 0.9, 5), [1.0 - 1e-12, 1.0, 1.5]])


REUSE = {
    "ratio_n2": (lambda: ratio_n2(0.2, 2.0),
                 lambda: np.concatenate([np.linspace(-10.0, 10.0, 21), [-2e6, 2e6]])),
    "beta62": (lambda: beta_matrices(6, 2), _beta62_grid),
    "dw20": (dw20, lambda: np.linspace(0.2, 3.8, 13)),
    "case2b_n6": (lambda: random_case2b(6, np.random.default_rng([2, 6])),
                  lambda: np.linspace(-20.0, 5.0, 11)),
}
ORDERS = [(cdf_grid, pdf_grid), (pdf_grid, cdf_grid), (cdf_grid, pdf_grid, cdf_grid)]


@pytest.mark.parametrize("order", ORDERS, ids=["cdf-pdf", "pdf-cdf", "cdf-pdf-cdf"])
@pytest.mark.parametrize("name", sorted(REUSE))
def test_warm_results_equal_cold_ones(name, order):
    make, grid_of = REUSE[name]
    rt, grid = make(), grid_of()
    for fn in order:
        assert _fields(fn(rt, grid)) == _cold(rt, fn, grid)
    if name == "beta62":  # the grid reaches both boundary sides
        assert {a.value for a in cdf_grid(rt, grid) if a.branch == "boundary"} == {0.0, 1.0}


def test_other_grid_or_tolerance_misses_the_stored_chunk(monkeypatch):
    rt = random_case1(8, np.random.default_rng([2, 2]))
    info = support(rt)
    g1 = np.linspace(info.l, info.r_bar, 9)[1:-1]
    g2 = g1[:-1]
    loose = Tolerances().replace(tol_root=1e-11)
    eighs = _spy(monkeypatch, np.linalg, "eigh")
    cdf_grid(rt, g1)
    warm = [(pdf_grid, g2, Tolerances()), (pdf_grid, g1, Tolerances()), (cdf_grid, g1, loose)]
    for fn, grid, tol in warm:
        before = len(eighs)
        got = _fields(fn(rt, grid, tol))
        assert len(eighs) == before + 1
        assert got == _cold(rt, fn, grid, tol)


@pytest.mark.parametrize("order", ORDERS[:2], ids=["cdf-pdf", "pdf-cdf"])
def test_grid_of_two_chunks_gives_cold_values(order):
    rt = random_case1(200, np.random.default_rng([2, 200]))
    info = support(rt)
    grid = info.l + (info.r_bar - info.l) * np.linspace(0.05, 0.95, 30)
    assert core._STACK_ELEMENTS // rt.n**2 == 26  # two chunks: 26 points and 4
    for fn in order:
        assert _fields(fn(rt, grid)) == _cold(rt, fn, grid)


def test_threads_sharing_a_ratio_see_whole_chunks():
    rt = random_case1(8, np.random.default_rng([2, 2]))
    info = support(rt)
    grids = [info.l + (info.r_bar - info.l) * np.linspace(0.1, 0.9, k) for k in (7, 11)]
    cold = [{fn: _cold(rt, fn, g) for fn in (cdf_grid, pdf_grid)} for g in grids]
    wrong = []

    def work(t):
        for i in range(25):
            k = (t + i) % 2
            for fn in (cdf_grid, pdf_grid):
                if _fields(fn(rt, grids[k])) != cold[k][fn]:
                    wrong.append((t, i, fn.__name__))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
