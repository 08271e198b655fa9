#!/usr/bin/env python3
"""Benchmark entry point: one workload, run in-process by a worker process.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads: grid, pvalue, tails, oracle (see bench/README.md).  Run from the
root of a source checkout; the library is imported from ``src/``.  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; set-up is repeated in ``SETUP_SAMPLES`` processes and
``setup_s`` is their median.  With ``--trace 1`` the run reports per-layer
metrics from wrapped library functions and writes its spans to
``.bench_out/``.  No BLAS or OpenMP thread variable is set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0


def spawn(argv):
    """Run the worker; return (monotonic time of spawn, its JSON result)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("grid", "pvalue", "tails", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qfratio" / "__init__.py").is_file():
        sys.stderr.write(f"no qfratio sources under {ROOT / 'src'}: run from a source checkout\n")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            start, res = spawn(common + ["--setup-only"])
            setups.append(res["ready"] - start)
    start, res = spawn(common + ["--trace", str(args.trace)])
    setups.append(res["ready"] - start)

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    for problem in res["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, per_op_median_ms=res["per_op"], setup_samples_s=setups),
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
