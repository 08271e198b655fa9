"""Command-line surface: analyze, build, cdf, pdf, tail-limit, oracle, figure.

One pipeline serves every verb: ``main`` parses the arguments, reads
``--tol`` and loads ``--problem`` once, the verb maps ``(args, ratio, tol)``
to a payload, and ``_emit`` writes it to ``--out`` or stdout.  A dict
payload becomes one indented JSON document; a list of records becomes JSON
lines, or with ``--format csv`` a CSV table headed by the record keys.  JSON
prints floats in Python's shortest round-trip form and CSV with 17
significant digits; both parse back to the same doubles.

Problem files are JSON objects {"A": [[...]], "B": [[...]], "mu": [...]}
with an optional "sigma" covariance that is folded in by whitening.  They
are strict JSON (RFC 8259) in UTF-8, decoded by orjson: a ``NaN`` or
``Infinity`` literal, a number that overflows a double, a byte-order mark or
bytes that are not UTF-8 make the file invalid input (exit code 1).  The cdf
and pdf verbs evaluate their whole grid in one batched call.  ``figure``
writes two CSV tables into the directory ``--out`` and lists their paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np
import orjson

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
    return obj


def _load_problem(path: str, tol: Tolerances) -> QuadFormRatio:
    try:
        raw = orjson.loads(Path(path).read_bytes())
    except OSError as exc:
        raise InvalidInputError(f"cannot read problem file: {exc}") from exc
    except orjson.JSONDecodeError as exc:
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


def _floats(text: str, flag: str) -> list:
    """The comma-separated numbers given to ``flag``; empty items are skipped."""
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad {flag} list: {exc}") from exc
    if not values:
        raise InvalidInputError(f"{flag} list is empty")
    return values


def _parse_grid(args) -> np.ndarray:
    if args.points is not None:
        return np.asarray(_floats(args.points, "--points"))
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


def _emit(payload, path, fmt: str) -> None:
    """Write a payload, formatted as the module docstring says, to path or sys.stdout."""
    if isinstance(payload, dict):
        text = json.dumps(_jsonable(payload), indent=2) + "\n"
    elif fmt == "csv":
        keys = list(payload[0])
        rows = [",".join(keys)] + [",".join(_fmt(rec[k]) for k in keys) for rec in payload]
        text = "\n".join(rows) + "\n"
    else:
        text = "\n".join(json.dumps(_jsonable(rec)) for rec in payload) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _fields(obj, *names) -> dict:
    """The named attributes of a result object, keyed by name in the order given."""
    return {name: getattr(obj, name) for name in names}


def _cmd_analyze(args, ratio, tol):
    info = support_of(ratio, tol)
    edges = {side: _fields(edge_structure(ratio, info, side, tol),
                           "m", "r_edge", "nu0", "omega", "H_edge")
             for side, wanted in (("right", info.in_CR), ("left", info.in_CL)) if wanted}
    return {"n": ratio.n, "support": {"l": info.l, "r_bar": info.r_bar},
            **_fields(info, "case_tag", "in_CR", "in_CL"), "edges": edges}


# the options each build --kind takes, besides the shared --tol and --out
_BUILD_OPTIONS = {"ratio_n2": ("mu",), "ls_serial": ("n", "lag", "design", "mu"),
                  "durbin_watson": ("n", "design", "mu"), "beta": ("n", "m", "mu")}


def _cmd_build(args, ratio, tol):
    foreign = [f"--{k}" for k in ("n", "lag", "m", "mu", "design")
               if getattr(args, k) is not None and k not in _BUILD_OPTIONS[args.kind]]
    if foreign:
        raise InvalidInputError(f"build --kind {args.kind} does not take {', '.join(foreign)}")
    mu = None if args.mu is None else _floats(args.mu, "--mu")
    if args.n is not None and args.n < 2:
        raise InvalidInputError(f"--n must be at least 2, got {args.n}")
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
    else:
        if args.n is None or args.m is None:
            raise InvalidInputError("beta needs --n and --m")
        ratio = builders.beta_matrices(args.n, args.m, mu=mu, tol=tol)
    return {"A": ratio.A, "B": ratio.B, "mu": ratio.mu}


def _load_design(path: str) -> np.ndarray:
    try:
        X = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read design matrix: {exc}") from exc
    return X


def _cmd_points(args, ratio, tol):
    """The cdf and pdf verbs: one saddlepoint record per grid point."""
    grid = _parse_grid(args)
    approx = getattr(saddlepoint, f"{args.verb}_grid")(ratio, grid, tol)
    return [{"r": float(r), **_fields(a, "value", "s_hat", "w_hat", "u_hat", "branch")}
            for r, a in zip(grid, approx)]


def _cmd_tail_limit(args, ratio, tol):
    info = support_of(ratio, tol)
    out = {}
    for side in ["right", "left"] if args.side == "both" else [args.side]:
        edge = edge_structure(ratio, info, side, tol)
        lim = tails.limit_multiple(ratio.n, edge, tol.tol_quad)
        out[side] = {"side": side, **_fields(edge, "m", "nu0", "omega"),
                     **_fields(lim, "t0", "u0", "RE_cdf", "RE_pdf")}
    return out


def _tail_ratio_records(ratio, grid, tol, draws, seed, exact_cdf=None):
    """Records r, exact, approx, ratio, se of ``oracle.relative_error_curve``.

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


def _cmd_oracle(args, ratio, tol):
    return _tail_ratio_records(ratio, _parse_grid(args), tol, args.draws, args.seed)


def _figure_grids(info):
    """Density grid and CDF tail grid adapted to the support."""
    lo = info.l if math.isfinite(info.l) else -10.0
    hi = info.r_bar if math.isfinite(info.r_bar) else 10.0
    pad = 1e-3 * (hi - lo)
    dens_grid = np.linspace(lo + pad, hi - pad, 801)
    # each tail steps inward from a finite edge, or outward from 10 toward 1e5
    tail_grids = [edge - sign * np.geomspace(pad, 1e-5 * (hi - lo), 40) if math.isfinite(edge)
                  else sign * np.geomspace(10.0, 1e5, 40)
                  for edge, sign in ((info.l, -1.0), (info.r_bar, 1.0))]
    return dens_grid, np.sort(np.concatenate(tail_grids))


def _cmd_figure(args, ratio, tol):
    """Write the two CSV tables into the directory --out; the payload lists them."""
    if ratio is None:
        ratio = builders.ratio_n2(0.2, 2.0, tol=tol)
        exact_pdf = lambda r: oracle.exact_density_n2(0.2, 2.0, r)
        exact_cdf = lambda r: oracle.exact_cdf_n2(0.2, 2.0, r)
    else:
        exact_cdf = None  # the Imhof inversion oracle
        exact_pdf = lambda r: oracle.imhof_pdf_of_R(ratio, r, tol)

    info = support_of(ratio, tol)
    dens_grid, tail_grid = _figure_grids(info)
    if args.grid is not None or args.points is not None:
        dens_grid = _parse_grid(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dens_records = []
    for r, approx in zip(dens_grid.tolist(), saddlepoint.pdf_grid(ratio, dens_grid, tol)):
        exact = exact_pdf(r)
        dens_records.append({"r": r, "exact": exact, "approx": approx.value,
                             "ratio": oracle._ratio(exact, approx.value), "se": 0.0})
    tail_records = _tail_ratio_records(ratio, tail_grid, tol, args.draws, args.seed, exact_cdf)
    tables = {"density_comparison.csv": dens_records, "cdf_tail_ratios.csv": tail_records}
    for name, records in tables.items():
        _emit(records, out_dir / name, "csv")
    return [{"written": [str(out_dir / name) for name in tables]}]


# Options that several verbs share, each declared once: flag -> add_argument keywords.
_SHARED = {
    "--problem": {"required": True, "help": "problem JSON path"},
    "--tol": {"action": "append", "metavar": "NAME=VALUE",
              "help": "tolerance override, repeatable"},
    "--out": {"help": "output path (default stdout)"},
    "--grid": {"help": "a:b:n linear grid"},
    "--points": {"help": "comma-separated explicit points"},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--seed": {"type": int, "default": 0},
    "--draws": {"type": int, "default": 0,
                "help": "Monte-Carlo draws (0 uses the exact inversion oracle)"},
}
_GRID_FLAGS = ("--problem", "--tol", "--out", "--grid", "--points", "--format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfratio",
        description="Saddlepoint analysis of ratios of quadratic forms in normal variables",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, fn, help, flags=(), **changed):
        """A verb's parser with the shared ``flags``; ``changed`` updates keywords by dest."""
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **{**_SHARED[flag], **changed.get(flag[2:], {})})
        # main reads these on every verb; a verb without the option gets the default
        p.set_defaults(fn=fn, problem=None, out=None, format="json")
        return p

    verb("analyze", _cmd_analyze, "support, case tag, tail classes, edge structure",
         ("--problem", "--tol", "--out"))
    p = verb("build", _cmd_build, "write a problem JSON for a named statistic")
    p.add_argument("--kind", required=True,
                   choices=("ratio_n2", "ls_serial", "durbin_watson", "beta"))
    p.add_argument("--n", type=int)
    p.add_argument("--lag", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--mu", help="comma-separated means")
    p.add_argument("--design", help="CSV design matrix path")
    for flag in ("--tol", "--out"):
        p.add_argument(flag, **_SHARED[flag])
    verb("cdf", _cmd_points, "saddlepoint CDF on a grid", _GRID_FLAGS)
    verb("pdf", _cmd_points, "saddlepoint density on a grid", _GRID_FLAGS)
    p = verb("tail-limit", _cmd_tail_limit, "limiting relative-error constants",
             ("--problem", "--tol", "--out"))
    p.add_argument("--side", choices=("left", "right", "both"), default="both")
    verb("oracle", _cmd_oracle, "exact/Monte-Carlo CDF vs the approximation",
         _GRID_FLAGS + ("--seed", "--draws"))
    verb("figure", _cmd_figure, "emit density and CDF-tail CSV data files",
         ("--problem", "--tol", "--out", "--grid", "--points", "--seed", "--draws"),
         problem={"required": False}, out={"dest": "out_dir", "metavar": "DIR", "default": ".",
                                           "help": "output directory (default .)"})
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on first use and reused for the life of the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        tol = _parse_tol(args.tol)
        ratio = _load_problem(args.problem, tol) if args.problem else None
        _emit(args.fn(args, ratio, tol), args.out, args.format)
        return 0
    except QfrError as exc:
        code = _EXIT_CODES.get(type(exc), 3)
        sys.stderr.write(json.dumps({
            "error": {"type": type(exc).__name__, "message": str(exc),
                      "exit_code": code}
        }) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
