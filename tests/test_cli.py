"""End-to-end command-line behavior: verbs, formats, exit codes."""

import json

import numpy as np
import pytest

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
        assert rec["branch"] in ("regular", "mean", "boundary")


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
    for name in ("bogus", "tol_orth"):
        code, _, err = run_cli(
            capsys, "cdf", "--problem", heavy_tail_problem, "--points", "1", "--tol", f"{name}=1"
        )
        assert code == 1
        assert "unknown tolerance" in json.loads(err)["error"]["message"]
