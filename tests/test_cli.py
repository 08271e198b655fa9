"""End-to-end command-line behavior: verbs, formats, exit codes."""

import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest

from qfratio import (
    beta_matrices,
    cdf_grid,
    edge_structure,
    exact_density_n2,
    imhof_pdf_of_R,
    limit_multiple,
    pdf_grid,
    ratio_n2,
    relative_error_curve,
    support,
)
from qfratio.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def heavy_tail_problem(tmp_path, capsys):
    path = tmp_path / "problem.json"
    code, _, _ = run_cli(
        capsys, "build", "--kind", "ratio_n2", "--mu", "0.2,2", "--out", str(path)
    )
    assert code == 0
    return str(path)


def test_build_round_trip(heavy_tail_problem):
    doc = json.loads(open(heavy_tail_problem).read())
    assert np.allclose(doc["A"], [[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(doc["B"], [[1.0, 0.0], [0.0, 0.0]])
    assert doc["mu"] == [0.2, 2.0]


def test_analyze_heavy_tail_instance(heavy_tail_problem, capsys):
    code, out, err = run_cli(capsys, "analyze", "--problem", heavy_tail_problem)
    assert code == 0
    doc = json.loads(out)
    assert doc["case_tag"] == "Case2c-infinite"
    assert doc["in_CR"] is True and doc["in_CL"] is True
    assert doc["edges"]["right"]["m"] == 1
    assert doc["edges"]["right"]["nu0"][0] == pytest.approx(2.0, abs=1e-6)


def test_cdf_json_records(heavy_tail_problem, capsys):
    code, out, _ = run_cli(
        capsys, "cdf", "--problem", heavy_tail_problem, "--points=-1,0,2", "--format", "json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["r"] for rec in records] == [-1.0, 0.0, 2.0]
    for rec in records:
        assert 0.0 <= rec["value"] <= 1.0
        assert rec["branch"] in ("regular", "boundary")


def test_cdf_csv_parses(heavy_tail_problem, capsys):
    code, out, _ = run_cli(
        capsys, "cdf", "--problem", heavy_tail_problem, "--grid=-2:2:5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,value,s_hat,w_hat,u_hat,branch"
    assert len(lines) == 6
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_pdf_seventeen_digit_serialization(heavy_tail_problem, capsys):
    code, out, _ = run_cli(
        capsys, "pdf", "--problem", heavy_tail_problem, "--points", "1.0", "--format", "csv"
    )
    assert code == 0
    value = out.strip().splitlines()[1].split(",")[1]
    # round-trips exactly through float parsing
    assert format(float(value), ".17g") == value


def test_tail_limit_beta(tmp_path, capsys):
    path = tmp_path / "beta.json"
    code, _, _ = run_cli(
        capsys, "build", "--kind", "beta", "--n", "2", "--m", "1",
        "--mu", "2", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "tail-limit", "--problem", str(path), "--side", "right")
    assert code == 0
    doc = json.loads(out)
    assert doc["right"]["RE_cdf"] == pytest.approx(0.8222, abs=5e-4)


def test_analyze_and_tail_limit_multiple_infinite_edge(tmp_path, capsys):
    # m = 2 vanishing eigenvalues at r = infinity: both verbs report the
    # library's edge structure and constants, and omega agrees with the
    # eigen-data of eps*A - B at eps = 1e-5
    from conftest import direct_edge_data, random_case2c_infinite, rng_for
    from qfratio import edge_structure, limit_multiple, support

    rt = random_case2c_infinite(6, rng_for(900))
    path = tmp_path / "case2c.json"
    path.write_text(json.dumps({"A": rt.A.tolist(), "B": rt.B.tolist(), "mu": rt.mu.tolist()}))
    edge = edge_structure(rt, support(rt), "right")
    lim = limit_multiple(rt.n, edge)

    code, out, _ = run_cli(capsys, "analyze", "--problem", str(path))
    assert code == 0
    right = json.loads(out)["edges"]["right"]
    assert right["m"] == 2 and right["r_edge"] == "inf"
    assert np.allclose(right["omega"], direct_edge_data(rt, 2)[0], rtol=0.0, atol=1e-4)
    assert np.allclose(right["omega"], edge.omega, rtol=1e-12, atol=0.0)
    assert np.allclose(right["H_edge"], edge.H_edge, rtol=1e-12, atol=0.0)

    code, out, _ = run_cli(capsys, "tail-limit", "--problem", str(path), "--side", "right")
    assert code == 0
    right = json.loads(out)["right"]
    assert np.allclose(right["omega"], edge.omega, rtol=1e-12, atol=0.0)
    assert right["RE_cdf"] == pytest.approx(lim.RE_cdf, rel=1e-12)
    assert right["RE_pdf"] == pytest.approx(lim.RE_pdf, rel=1e-12)


def test_oracle_reproducible(heavy_tail_problem, capsys):
    args = ("oracle", "--problem", heavy_tail_problem, "--points=-3,1", "--format", "csv",
            "--draws", "20000", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_oracle_draws_shared_across_grid(heavy_tail_problem, capsys):
    # one draw set serves every point: the records equal per-point mc_cdf bit for bit
    from qfratio import mc_cdf, ratio_n2

    code, out, _ = run_cli(capsys, "oracle", "--problem", heavy_tail_problem,
                           "--points=-3,0.5,1,4", "--draws", "5000", "--seed", "11")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    rt = ratio_n2(0.2, 2.0)
    for rec in records:
        est = mc_cdf(rt, rec["r"], n_draws=5000, seed=11)
        assert (rec["exact"], rec["se"]) == (est.value, est.std_error)


def test_oracle_point_outside_support_exit_1(tmp_path, capsys):
    path = tmp_path / "beta.json"
    code, _, _ = run_cli(capsys, "build", "--kind", "beta", "--n", "6", "--m", "2",
                         "--out", str(path))
    assert code == 0
    for extra in ((), ("--draws", "2000")):
        code, out, err = run_cli(capsys, "oracle", "--problem", str(path),
                                 "--points=0.5,-0.5", *extra)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "InvalidInputError"


@pytest.mark.parametrize("verb", ["oracle", "figure"])
def test_seed_outside_key_range_exit_1(heavy_tail_problem, tmp_path, capsys, verb):
    for seed in ("-1", str(2**128)):
        code, out, err = run_cli(capsys, verb, "--problem", heavy_tail_problem,
                                 "--out", str(tmp_path / "out"), "--points", "1",
                                 "--draws", "1000", "--seed", seed)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInputError" and "seed" in error["message"]


def test_json_shortest_repr_csv_seventeen_digits(heavy_tail_problem, capsys):
    code, out, _ = run_cli(capsys, "cdf", "--problem", heavy_tail_problem, "--points", "0.1")
    assert code == 0
    assert json.loads(out)["r"] == 0.1 and out.startswith('{"r": 0.1,')
    code, out, _ = run_cli(capsys, "cdf", "--problem", heavy_tail_problem, "--points", "0.1",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("0.10000000000000001,")


def test_figure_writes_density_and_tail_csvs(heavy_tail_problem, tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, out, _ = run_cli(
        capsys, "figure", "--out", str(out_dir), "--grid=-10:10:21"
    )
    assert code == 0
    names = ("density_comparison.csv", "cdf_tail_ratios.csv")
    assert json.loads(out)["written"] == [str(out_dir / name) for name in names]
    for name in names:
        lines = (out_dir / name).read_text().strip().splitlines()
        assert lines[0] == "r,exact,approx,ratio,se"
        assert len(lines) > 2


def test_empty_grid_is_usage_error(heavy_tail_problem, capsys):
    code, _, err = run_cli(capsys, "cdf", "--problem", heavy_tail_problem)
    assert code == 1
    doc = json.loads(err)
    assert doc["error"]["exit_code"] == 1


def test_malformed_problem_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "cdf", "--problem", str(bad), "--points", "1")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "InvalidInputError"


def test_unsupported_instance_exit_2(tmp_path, capsys):
    path = tmp_path / "f11.json"
    path.write_text(json.dumps({
        "A": [[1.0, 0.0], [0.0, 0.0]],
        "B": [[0.0, 0.0], [0.0, 1.0]],
        "mu": [0.0, 0.0],
    }))
    code, _, err = run_cli(capsys, "tail-limit", "--problem", str(path), "--side", "right")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UnsupportedInstanceError"


def test_sigma_whitening_accepted(tmp_path, capsys):
    path = tmp_path / "sig.json"
    path.write_text(json.dumps({
        "A": [[1.0, 0.0], [0.0, 0.0]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "mu": [1.0, 0.0],
        "sigma": [[4.0, 0.0], [0.0, 4.0]],
    }))
    code, out, _ = run_cli(capsys, "analyze", "--problem", str(path))
    assert code == 0
    assert json.loads(out)["case_tag"] == "Case1"


@pytest.mark.parametrize("sigma", [
    [[1.0, "x"], [0.0, 1.0]],  # non-numeric entry
    [[1.0, 0.0], [0.0]],  # ragged
    np.eye(3).tolist(),  # 3x3 for n = 2
])
def test_malformed_sigma_exit_1(tmp_path, capsys, sigma):
    path = tmp_path / "sig.json"
    path.write_text(json.dumps({
        "A": [[1.0, 0.0], [0.0, 0.0]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "mu": [1.0, 0.0],
        "sigma": sigma,
    }))
    code, out, err = run_cli(capsys, "analyze", "--problem", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "InvalidInputError"


def test_tol_override_round_trip(heavy_tail_problem, capsys):
    code, out, _ = run_cli(
        capsys, "cdf", "--problem", heavy_tail_problem, "--points", "1",
        "--tol", "tol_quad=1e-8",
    )
    assert code == 0
    for name in ("bogus", "tol_orth", "mean_branch_threshold"):
        code, _, err = run_cli(
            capsys, "cdf", "--problem", heavy_tail_problem, "--points", "1", "--tol", f"{name}=1"
        )
        assert code == 1
        assert "unknown tolerance" in json.loads(err)["error"]["message"]


def test_main_builds_its_parser_once(heavy_tail_problem, capsys, monkeypatch):
    from qfratio import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert run_cli(capsys, "cdf", "--problem", heavy_tail_problem, "--points=1")[0] == 0
        assert run_cli(capsys, "cdf", "--problem", heavy_tail_problem)[0] == 1
        assert run_cli(capsys, "cdf")[0] == 1  # argparse error: --problem is required
        code, out, _ = run_cli(capsys, "pdf", "--problem", heavy_tail_problem, "--points=1,2")
        assert code == 0 and len(out.splitlines()) == 2
        assert run_cli(capsys, "--help")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_durbin_watson_cli_grid(tmp_path, capsys):
    path = tmp_path / "dw.json"
    assert run_cli(capsys, "build", "--kind", "durbin_watson", "--n", "100",
                   "--out", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "cdf", "--problem", str(path), "--grid", "0.5:3.5:401")
    assert code == 0
    values = [json.loads(line)["value"] for line in out.splitlines()]
    assert len(values) == 401
    assert np.all(np.diff(values) >= 0.0) and 0.0 < values[200] < 1.0


@pytest.mark.parametrize("argv", [
    ("--kind", "ratio_n2", "--mu", "a,b"),
    ("--kind", "durbin_watson", "--n", "-3"),
])
def test_build_bad_input_is_typed_error(capsys, argv):
    code, out, err = run_cli(capsys, "build", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "InvalidInputError"


@pytest.mark.parametrize("argv, foreign", [
    (("--kind", "ratio_n2", "--mu", "0.2,2", "--design", "missing.csv", "--lag", "7", "--m", "9"),
     ("--lag", "--m", "--design")),
    (("--kind", "beta", "--n", "6", "--m", "2", "--lag", "9", "--design", "missing.csv"),
     ("--lag", "--design")),
    (("--kind", "durbin_watson", "--n", "10", "--m", "2"), ("--m",)),
    (("--kind", "ls_serial", "--n", "10", "--lag", "1", "--m", "2"), ("--m",)),
])
def test_build_rejects_options_its_kind_does_not_take(tmp_path, capsys, argv, foreign):
    path = tmp_path / "problem.json"
    code, out, err = run_cli(capsys, "build", *argv, "--out", str(path))
    error = json.loads(err)["error"]
    assert code == 1 and out == "" and not path.exists()
    assert error["type"] == "InvalidInputError"
    assert all(flag in error["message"] for flag in foreign)


def test_figure_has_no_format_option(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, out, _ = run_cli(capsys, "figure", "--format", "csv", "--out", str(out_dir))
    assert code == 1 and out == "" and not out_dir.exists()


def test_writer_reads_stdout_at_call_time(heavy_tail_problem):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["cdf", "--problem", heavy_tail_problem, "--points=1,2"]) == 0
    assert [json.loads(line)["r"] for line in buf.getvalue().splitlines()] == [1.0, 2.0]


# -- the output contract of every verb ---------------------------------------------------

POINT_KEYS = ["r", "value", "s_hat", "w_hat", "u_hat", "branch"]
RATIO_KEYS = ["r", "exact", "approx", "ratio", "se"]
CONTRACT = {  # build arguments, grid points inside the support
    "ratio_n2": (("--kind", "ratio_n2", "--mu", "0.2,2"), "-3,0.5,4"),
    "beta62": (("--kind", "beta", "--n", "6", "--m", "2"), "0.1,0.5,0.9"),
}
VERB_CASES = [("build", None), ("analyze", None), ("cdf", "json"), ("cdf", "csv"),
              ("pdf", "json"), ("pdf", "csv"), ("tail-limit", None), ("oracle", "json"),
              ("oracle", "csv"), ("figure", None)]


def _num(v):
    """A number as the CLI prints it: JSON null is nan, "inf"/"-inf" and CSV cells parse."""
    return math.nan if v is None else float(v)


def _csv(text):
    """Header and records of CSV output; every finite number has 17 significant digits."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    for cell in itertools.chain(*rows):
        if cell.lstrip("-")[:1].isdigit():
            assert format(float(cell), ".17g") == cell
    return header, [dict(zip(header, row)) for row in rows]


def _records(text, fmt):
    """Keys (the CSV header or every JSON line's key order) and records of grid output."""
    if fmt == "csv":
        return _csv(text)
    records = [json.loads(line) for line in text.splitlines()]
    keys = [list(rec) for rec in records]
    assert all(k == keys[0] for k in keys)
    return keys[0], records


def _assert_values(records, key, expected):
    got = [_num(rec[key]) for rec in records]
    assert got == pytest.approx(list(expected), rel=1e-12, abs=0.0, nan_ok=True)


@pytest.mark.parametrize("name", sorted(CONTRACT))
@pytest.mark.parametrize("verb, fmt", VERB_CASES)
def test_cli_contract(name, verb, fmt, tmp_path, capsys):
    # exit code, key order or CSV header, and values against direct library calls
    rt = ratio_n2(0.2, 2.0) if name == "ratio_n2" else beta_matrices(6, 2)
    build_args, points = CONTRACT[name]
    grid = np.array([float(p) for p in points.split(",")])
    path = str(tmp_path / "problem.json")
    assert run_cli(capsys, "build", *build_args, "--out", path)[0] == 0
    info = support(rt)
    fmt_args = ("--format", fmt) if fmt else ()

    if verb == "build":
        code, out, _ = run_cli(capsys, "build", *build_args)
        doc = json.loads(out)
        assert code == 0 and list(doc) == ["A", "B", "mu"]
        assert np.array_equal(doc["A"], rt.A) and np.array_equal(doc["B"], rt.B)
        assert np.array_equal(doc["mu"], rt.mu)
    elif verb == "analyze":
        code, out, _ = run_cli(capsys, "analyze", "--problem", path)
        doc = json.loads(out)
        assert code == 0
        assert list(doc) == ["n", "support", "case_tag", "in_CR", "in_CL", "edges"]
        assert (doc["n"], doc["case_tag"]) == (rt.n, info.case_tag)
        assert [_num(doc["support"][k]) for k in ("l", "r_bar")] == [info.l, info.r_bar]
        assert list(doc["edges"]) == ["right", "left"]
        for side, got in doc["edges"].items():
            edge = edge_structure(rt, info, side)
            assert list(got) == ["m", "r_edge", "nu0", "omega", "H_edge"]
            assert got["m"] == edge.m and _num(got["r_edge"]) == edge.r_edge
            assert got["omega"] == pytest.approx(list(edge.omega), rel=1e-12, abs=0.0)
    elif verb in ("cdf", "pdf"):
        code, out, _ = run_cli(capsys, verb, "--problem", path, f"--points={points}", *fmt_args)
        assert code == 0
        keys, records = _records(out, fmt)
        assert keys == POINT_KEYS
        direct = (cdf_grid if verb == "cdf" else pdf_grid)(rt, grid)
        _assert_values(records, "r", grid)
        for key in POINT_KEYS[1:-1]:
            _assert_values(records, key, [getattr(a, key) for a in direct])
        assert [rec["branch"] for rec in records] == [a.branch for a in direct]
    elif verb == "tail-limit":
        code, out, _ = run_cli(capsys, "tail-limit", "--problem", path)
        doc = json.loads(out)
        assert code == 0 and list(doc) == ["right", "left"]
        for side, got in doc.items():
            edge = edge_structure(rt, info, side)
            lim = limit_multiple(rt.n, edge)
            assert list(got) == ["side", "m", "nu0", "omega", "t0", "u0", "RE_cdf", "RE_pdf"]
            assert (got["side"], got["m"]) == (side, edge.m)
            for key in ("t0", "u0", "RE_cdf", "RE_pdf"):
                assert _num(got[key]) == pytest.approx(getattr(lim, key), rel=1e-12, abs=0.0)
    elif verb == "oracle":
        code, out, _ = run_cli(capsys, "oracle", "--problem", path, f"--points={points}",
                               *fmt_args)
        assert code == 0
        keys, records = _records(out, fmt)
        assert keys == RATIO_KEYS
        curve = relative_error_curve(rt, grid)
        _assert_values(records, "approx", [a.value for a in cdf_grid(rt, grid)])
        _assert_values(records, "exact", [rec["exact"] for rec in curve])
        _assert_values(records, "ratio", [rec["cdf_ratio"] for rec in curve])
        _assert_values(records, "se", [0.0] * grid.size)
    else:
        out_dir = tmp_path / "figs"
        # the default instance is ratio_n2(0.2, 2); the beta problem draws its tail by Monte Carlo
        extra = () if name == "ratio_n2" else ("--problem", path, "--draws", "2000")
        code, out, _ = run_cli(capsys, "figure", "--out", str(out_dir),
                               f"--points={points}", *extra)
        names = ["density_comparison.csv", "cdf_tail_ratios.csv"]
        assert code == 0 and len(out.splitlines()) == 1
        assert json.loads(out) == {"written": [str(out_dir / n) for n in names]}
        tables = [_csv((out_dir / n).read_text()) for n in names]
        assert [header for header, _ in tables] == [RATIO_KEYS, RATIO_KEYS]
        (_, dens), (_, tail) = tables
        _assert_values(dens, "r", grid)
        _assert_values(dens, "approx", [d.value for d in pdf_grid(rt, grid)])
        exact_pdf = ((lambda r: exact_density_n2(0.2, 2.0, r)) if name == "ratio_n2"
                     else (lambda r: imhof_pdf_of_R(rt, r)))
        _assert_values(dens, "exact", [exact_pdf(r) for r in grid])
        tail_r = np.array([_num(rec["r"]) for rec in tail])
        _assert_values(tail, "approx", [a.value for a in cdf_grid(rt, tail_r)])
