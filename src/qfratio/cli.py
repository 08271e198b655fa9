"""Command-line surface: analyze, build, cdf, pdf, tail-limit, oracle, figure.

Problem files are JSON objects {"A": [[...]], "B": [[...]], "mu": [...]}
with an optional "sigma" covariance that is folded in by whitening.  JSON
output prints floats in Python's shortest round-trip form and CSV with 17
significant digits; both parse back to the same doubles.  The cdf and pdf
verbs evaluate their whole grid in one batched call and emit it in grid
order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import builders, oracle, saddlepoint, tails
from .core import DEFAULT_TOL, QuadFormRatio, Tolerances, new_ratio, whiten
from .support import edge_structure, support as support_of
from .errors import InvalidInputError, NumericalError, QfrError, UnsupportedInstanceError

_EXIT_CODES = {InvalidInputError: 1, UnsupportedInstanceError: 2, NumericalError: 3}


def _fmt(x) -> str:
    """17 significant digits, locale independent."""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.floating):
        return _jsonable(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _load_problem(path: str, tol: Tolerances) -> QuadFormRatio:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "A" not in raw or "B" not in raw:
        raise InvalidInputError('problem file must be an object with "A" and "B"')
    try:
        A = np.asarray(raw["A"], dtype=float)
        B = np.asarray(raw["B"], dtype=float)
        mu = np.asarray(raw.get("mu", np.zeros(len(A))), dtype=float)
        sigma = np.asarray(raw["sigma"], dtype=float) if "sigma" in raw else None
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"problem file entries are not numeric: {exc}") from exc
    if sigma is not None:
        return whiten(A, B, mu, sigma, tol=tol)
    return new_ratio(A, B, mu, tol=tol)


def _parse_tol(pairs) -> Tolerances:
    tol = DEFAULT_TOL
    for item in pairs or []:
        if "=" not in item:
            raise InvalidInputError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        if name not in {f.name for f in dataclasses.fields(Tolerances)}:
            raise InvalidInputError(f"unknown tolerance {name!r}")
        try:
            tol = tol.replace(**{name: float(value)})
        except ValueError as exc:
            raise InvalidInputError(f"bad tolerance value {value!r}") from exc
    return tol


def _parse_grid(args) -> np.ndarray:
    if args.points is not None:
        try:
            pts = [float(p) for p in args.points.split(",") if p.strip() != ""]
        except ValueError as exc:
            raise InvalidInputError(f"bad --points list: {exc}") from exc
        if not pts:
            raise InvalidInputError("--points list is empty")
        return np.asarray(pts)
    if args.grid is not None:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise InvalidInputError("--grid expects a:b:n")
        try:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InvalidInputError(f"bad --grid spec: {exc}") from exc
        if n < 1:
            raise InvalidInputError("grid count must be at least 1")
        return np.linspace(a, b, n)
    raise InvalidInputError("one of --grid or --points is required")


def _write(text: str, out) -> None:
    """Write text to the --out path, or to stdout without one."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_json(doc, out) -> None:
    _write(json.dumps(_jsonable(doc), indent=2) + "\n", out)


def _csv(records, fieldnames) -> str:
    lines = [",".join(fieldnames)]
    lines += [",".join(_fmt(rec[k]) for k in fieldnames) for rec in records]
    return "\n".join(lines) + "\n"


def _emit(records, fieldnames, args):
    """Write records as JSON lines or CSV, to --out or stdout."""
    if args.format == "csv":
        _write(_csv(records, fieldnames), args.out)
    else:
        _write("\n".join(json.dumps(_jsonable(rec)) for rec in records) + "\n", args.out)


def _cmd_analyze(args):
    tol = _parse_tol(args.tol)
    ratio = _load_problem(args.problem, tol)
    info = support_of(ratio, tol)
    out = {
        "n": ratio.n,
        "support": {"l": info.l, "r_bar": info.r_bar},
        "case_tag": info.case_tag,
        "in_CR": info.in_CR,
        "in_CL": info.in_CL,
        "edges": {},
    }
    for side, wanted in (("right", info.in_CR), ("left", info.in_CL)):
        if not wanted:
            continue
        edge = edge_structure(ratio, info, side, tol)
        out["edges"][side] = {
            "m": edge.m,
            "r_edge": edge.r_edge,
            "nu0": edge.nu0,
            "omega": edge.omega,
            "H_edge": edge.H_edge,
        }
    _write_json(out, args.out)
    return 0


def _cmd_build(args):
    tol = _parse_tol(args.tol)
    mu = None
    if args.mu is not None:
        mu = [float(v) for v in args.mu.split(",") if v.strip() != ""]
    if args.kind == "ratio_n2":
        if mu is None or len(mu) != 2:
            raise InvalidInputError("ratio_n2 needs --mu mu1,mu2")
        ratio = builders.ratio_n2(mu[0], mu[1], tol=tol)
    elif args.kind == "ls_serial":
        if args.n is None or args.lag is None:
            raise InvalidInputError("ls_serial needs --n and --lag")
        X = _load_design(args.design) if args.design else None
        ratio = builders.ls_serial_corr(args.n, args.lag, X=X, mu=mu, tol=tol)
    elif args.kind == "durbin_watson":
        if args.n is None:
            raise InvalidInputError("durbin_watson needs --n")
        X = _load_design(args.design) if args.design else np.ones((args.n, 1))
        ratio = builders.durbin_watson(args.n, X, mu=mu, tol=tol)
    elif args.kind == "beta":
        if args.n is None or args.m is None:
            raise InvalidInputError("beta needs --n and --m")
        ratio = builders.beta_matrices(args.n, args.m, mu=mu, tol=tol)
    else:
        raise InvalidInputError(f"unknown builder kind {args.kind!r}")
    _write_json({"A": ratio.A, "B": ratio.B, "mu": ratio.mu}, args.out)
    return 0


def _load_design(path: str) -> np.ndarray:
    try:
        X = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read design matrix: {exc}") from exc
    return X


_POINT_FIELDS = ("r", "value", "s_hat", "w_hat", "u_hat", "branch")


def _cmd_points(args):
    """The cdf and pdf verbs: one saddlepoint record per grid point."""
    tol = _parse_tol(args.tol)
    ratio = _load_problem(args.problem, tol)
    grid = _parse_grid(args)
    approx = getattr(saddlepoint, f"{args.verb}_grid")(ratio, grid, tol)
    records = [{"r": float(r), "value": a.value, "s_hat": a.s_hat, "w_hat": a.w_hat,
                "u_hat": a.u_hat, "branch": a.branch} for r, a in zip(grid, approx)]
    _emit(records, _POINT_FIELDS, args)
    return 0


def _cmd_tail_limit(args):
    tol = _parse_tol(args.tol)
    ratio = _load_problem(args.problem, tol)
    info = support_of(ratio, tol)
    sides = ["right", "left"] if args.side == "both" else [args.side]
    out = {}
    for side in sides:
        edge = edge_structure(ratio, info, side, tol)
        lim = tails.limit_multiple(ratio.n, edge, tol.tol_quad)
        out[side] = {
            "side": side,
            "m": edge.m,
            "nu0": edge.nu0,
            "omega": edge.omega,
            "t0": lim.t0,
            "u0": lim.u0,
            "RE_cdf": lim.RE_cdf,
            "RE_pdf": lim.RE_pdf,
        }
    _write_json(out, args.out)
    return 0


_ORACLE_FIELDS = ("r", "exact", "approx", "ratio", "se")


def _tail_ratio_records(ratio, grid, tol, draws, seed, exact_cdf=None):
    """Tail ratio records of ``oracle.relative_error_curve`` under the oracle fields.

    With ``draws`` the exact side is Monte Carlo: one draw set serves every
    grid point and fills the se column.
    """
    mc = {}
    if draws:
        mc = dict(zip(grid.tolist(), oracle.mc_cdf_grid(ratio, grid, draws, seed)))
        exact_cdf = lambda r: mc[r].value
    return [{"r": rec["r"], "exact": rec["exact"], "approx": rec["approx"],
             "ratio": rec["cdf_ratio"], "se": mc[rec["r"]].std_error if mc else 0.0}
            for rec in oracle.relative_error_curve(ratio, grid, exact_cdf, tol=tol)]


def _cmd_oracle(args):
    tol = _parse_tol(args.tol)
    ratio = _load_problem(args.problem, tol)
    grid = _parse_grid(args)
    _emit(_tail_ratio_records(ratio, grid, tol, args.draws, args.seed), _ORACLE_FIELDS, args)
    return 0


def _figure_grids(info):
    """Density grid and CDF tail grid adapted to the support."""
    lo = info.l if math.isfinite(info.l) else -10.0
    hi = info.r_bar if math.isfinite(info.r_bar) else 10.0
    pad = 1e-3 * (hi - lo)
    dens_grid = np.linspace(lo + pad, hi - pad, 801)
    if math.isfinite(info.r_bar):
        right_tail = info.r_bar - np.geomspace(pad, 1e-5 * (hi - lo), 40)
    else:
        right_tail = np.geomspace(10.0, 1e5, 40)
    if math.isfinite(info.l):
        left_tail = info.l + np.geomspace(pad, 1e-5 * (hi - lo), 40)
    else:
        left_tail = -np.geomspace(10.0, 1e5, 40)
    return dens_grid, np.sort(np.concatenate([left_tail, right_tail]))


def _cmd_figure(args):
    tol = _parse_tol(args.tol)
    if args.problem:
        ratio = _load_problem(args.problem, tol)
        exact_pdf = exact_cdf = None
    else:
        ratio = builders.ratio_n2(0.2, 2.0, tol=tol)
        exact_pdf = lambda r: oracle.exact_density_n2(0.2, 2.0, r)
        exact_cdf = lambda r: oracle.exact_cdf_n2(0.2, 2.0, r)
    info = support_of(ratio, tol)
    dens_grid, tail_grid = _figure_grids(info)
    if args.grid is not None or args.points is not None:
        dens_grid = _parse_grid(args)

    if exact_pdf is None:
        # central difference of the exact CDF stands in for the exact density
        h = 1e-4

        def exact_pdf(r):
            hi = oracle.imhof_cdf_of_R(ratio, r + h, tol)
            lo = oracle.imhof_cdf_of_R(ratio, r - h, tol)
            return (hi - lo) / (2.0 * h)

    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    dens_records = []
    for r, approx in zip(dens_grid, saddlepoint.pdf_grid(ratio, dens_grid, tol)):
        exact = exact_pdf(float(r))
        ratio_value = exact / approx.value if approx.value > 0 else math.nan
        dens_records.append({"r": float(r), "exact": exact, "approx": approx.value,
                             "ratio": ratio_value, "se": 0.0})
    tail_records = _tail_ratio_records(ratio, tail_grid, tol, args.draws, args.seed, exact_cdf)
    written = []
    for name, records in (("density_comparison.csv", dens_records),
                          ("cdf_tail_ratios.csv", tail_records)):
        _write(_csv(records, _ORACLE_FIELDS), out_dir / name)
        written.append(str(out_dir / name))
    sys.stdout.write(json.dumps({"written": written}) + "\n")
    return 0


def _add_common(p, problem_required=True):
    p.add_argument("--problem", required=problem_required, help="problem JSON path")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="tolerance override, repeatable")
    p.add_argument("--out", help="output path (default stdout)")


def _add_grid(p):
    p.add_argument("--grid", help="a:b:n linear grid")
    p.add_argument("--points", help="comma-separated explicit points")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfratio",
        description="Saddlepoint analysis of ratios of quadratic forms in normal variables",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="support, case tag, tail classes, edge structure")
    _add_common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("build", help="write a problem JSON for a named statistic")
    p.add_argument("--kind", required=True,
                   choices=("ratio_n2", "ls_serial", "durbin_watson", "beta"))
    p.add_argument("--n", type=int)
    p.add_argument("--lag", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--mu", help="comma-separated means")
    p.add_argument("--design", help="CSV design matrix path")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("cdf", help="saddlepoint CDF on a grid")
    _add_common(p)
    _add_grid(p)
    p.set_defaults(fn=_cmd_points)

    p = sub.add_parser("pdf", help="saddlepoint density on a grid")
    _add_common(p)
    _add_grid(p)
    p.set_defaults(fn=_cmd_points)

    p = sub.add_parser("tail-limit", help="limiting relative-error constants")
    _add_common(p)
    p.add_argument("--side", choices=("left", "right", "both"), default="both")
    p.set_defaults(fn=_cmd_tail_limit)

    p = sub.add_parser("oracle", help="exact/Monte-Carlo CDF vs the approximation")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=0,
                   help="Monte-Carlo draws (0 uses the exact inversion oracle)")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("figure", help="emit density and CDF-tail CSV data files")
    _add_common(p, problem_required=False)
    _add_grid(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=0)
    p.set_defaults(fn=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except QfrError as exc:
        code = _EXIT_CODES.get(type(exc), 3)
        sys.stderr.write(json.dumps({
            "error": {"type": type(exc).__name__, "message": str(exc),
                      "exit_code": code}
        }) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
