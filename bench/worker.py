"""Run one workload in this process: set-up, timed closed loop, checks.

Started by ``run.py``; prints one JSON object as its last line.  With
``--setup-only`` it stops after set-up and reports only the moment set-up
ended.  Otherwise one client runs whole rounds of the workload's fixed
operation list, one operation at a time, until ``--seconds`` have passed
and at least ``MIN_OPS`` operations were timed.  Outputs are checked after
the timed phase: every timed round must equal one untraced reference round
run afterwards, and the reference round must pass the workload's checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100  # leaves ten samples beyond the 90th percentile


class OpError:
    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from qfratio.errors import QfrError
    from workloads import WORKLOADS

    def run(op):
        try:
            return op.fn()
        except QfrError as exc:
            return OpError(exc)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        for i in wl.warmup:
            run(wl.ops[i])
        if args.setup_only:
            print(json.dumps({"ready": time.monotonic()}))
            return 0

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        ready = time.monotonic()
        latencies, rounds, round_times = [], [], []
        t0 = time.perf_counter()
        try:
            while True:
                outputs = []
                r_wall, r_cpu = time.perf_counter(), time.process_time()
                for op in wl.ops:
                    if tracer:
                        tracer.op = len(latencies)
                    start = time.perf_counter()
                    outputs.append(run(op))
                    latencies.append(time.perf_counter() - start)
                round_times.append((time.perf_counter() - r_wall, time.process_time() - r_cpu))
                rounds.append(outputs)
                if time.perf_counter() - t0 >= args.seconds and len(latencies) >= MIN_OPS:
                    break
        finally:
            if tracer:
                tracer.remove()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        reference = [run(op) for op in wl.ops]
        problems = []
        for k, outputs in enumerate(rounds):
            for op, got, ref in zip(wl.ops, outputs, reference):
                if got != ref:
                    problems.append(f"round {k}, {op.label}: output differs from the "
                                    f"untraced reference round")
        errored = {i for i, out in enumerate(reference) if isinstance(out, OpError)}
        if errored:
            problems += [f"{wl.ops[i].label}: {reference[i].text}" for i in sorted(errored)]
            failed = set()
        else:
            failed, found = wl.check(reference)
            problems += found
    n_ops = len(latencies)
    # throughput and CPU per operation are medians over rounds (each round is
    # the same operation list), so a burst of load from elsewhere on the
    # machine during one round does not move them
    round_wall, round_cpu = np.median(np.array(round_times), axis=0)
    ops_per_s = len(wl.ops) / float(round_wall)

    if tracer:
        metrics = tracer.layer_metrics(n_ops)
        metrics["trace.ops_per_s"] = (ops_per_s, "op/s")
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        lat_ms = 1e3 * np.array(latencies)
        metrics = {
            "ops_per_s": (ops_per_s, "op/s"),
            "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "op_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
            "cpu_ms_per_op": (1e3 * float(round_cpu) / len(wl.ops), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "ready": ready,
        "attempted": n_ops,
        "failed": len(rounds) * len(failed | errored),
        "correct": not problems,
        "problems": problems,
        "per_op": {op.label: 1e3 * float(np.median(latencies[i::len(wl.ops)]))
                   for i, op in enumerate(wl.ops)},
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
