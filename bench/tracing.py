"""In-memory span tracer for the traced benchmark run.

The tracer replaces library functions with timing wrappers at every name
under which ``qfratio`` modules look them up (``qfratio.saddlepoint.spectrum_at``,
``qfratio.oracle.sp_cdf``, ``qfratio.cli.saddlepoint.cdf`` and so on), and
``scipy.integrate.quad`` with a wrapper that counts integrand evaluations.
Nothing under ``src/`` is modified: ``remove`` puts every original back.

A span is ``(id, name, start, end, parent, op, work)``.  Spans opened on a
thread-pool worker with no open span of their own take the client thread's
innermost open span as parent, so the CLI pool's work is attached to the
operation that started it.  Self time is a span's duration minus the union
of the intervals covered by its children (pool children overlap).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import scipy.integrate

# module -> public functions that get a span; their names are the layer names
TRACED = {
    "rootfind": ("newton_bracketed",),
    "core": ("spectrum_at", "new_ratio", "whiten"),
    "saddlepoint": ("cdf", "pdf", "solve_saddlepoint", "normalized_pdf"),
    "cli": ("main",),
    "builders": ("ratio_n2", "beta_matrices", "durbin_watson", "ls_serial_corr"),
    "support": ("support", "edge_structure"),
    "tails": ("limit_multiple",),
    "specfun": ("density_at_zero", "imhof_cdf"),
    "oracle": ("imhof_cdf_of_R", "mc_draws", "exact_cdf_n2"),
}

_MARK = "__bench_traced__"


class Tracer:
    def __init__(self):
        self.spans = []
        self.evals = defaultdict(int)  # span id -> f / integrand evaluations
        self.op = None
        self._ids = itertools.count(1)
        self._client = threading.get_ident()
        self._client_stack = []
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, work=0):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._client_stack[-1]
            except IndexError:
                parent = None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op, work))

    def count(self):
        """One evaluation, attributed to the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            self.evals[stack[-1]] += 1

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, name, fn):
        if name == "rootfind.newton_bracketed":
            def wrapper(f, *args, **kwargs):
                def counted(x):
                    self.count()
                    return f(x)
                return self.call(name, fn, (counted,) + args, kwargs)
        elif name == "oracle.mc_draws":
            def wrapper(ratio, n_draws, *args, **kwargs):
                return self.call(name, fn, (ratio, n_draws) + args, kwargs, work=n_draws)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _quad_wrapper(self, quad):
        def wrapper(func, *args, **kwargs):
            def counted(x, *fargs):
                self.count()
                return func(x, *fargs)
            return quad(counted, *args, **kwargs)
        functools.update_wrapper(wrapper, quad)
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "qfratio" or k.startswith("qfratio."))]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"qfratio.{mod_name}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrapper(f"{mod_name}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        quad = scipy.integrate.quad
        self._patches.append((scipy.integrate, "quad", quad))
        scipy.integrate.quad = self._quad_wrapper(quad)

    def remove(self):
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)
        left = [f"{k}.{attr}" for k, m in sys.modules.items()
                if m is not None and (k == "qfratio" or k.startswith("qfratio."))
                for attr, value in vars(m).items() if getattr(value, _MARK, False)]
        if getattr(scipy.integrate.quad, _MARK, False):
            left.append("scipy.integrate.quad")
        if left:
            raise RuntimeError(f"trace wrappers left installed: {left}")

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _, _ in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self, n_ops):
        """Per-layer metrics, each normalized per benchmark operation or per call."""
        selfs = self.self_times()
        calls = defaultdict(int)
        dur = defaultdict(float)
        own = defaultdict(float)
        evals = defaultdict(int)
        work = defaultdict(int)
        for sid, name, start, end, _, _, w in self.spans:
            calls[name] += 1
            dur[name] += end - start
            own[name] += selfs[sid]
            evals[name] += self.evals.get(sid, 0)
            work[name] += w

        def per_op(total):
            return total / n_ops

        def ms_per_op(*names):
            return 1e3 * sum(own[n] for n in names) / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        builders = [f"builders.{f}" for f in TRACED["builders"]]
        quads = ("specfun.density_at_zero", "specfun.imhof_cdf")
        return {
            "rootfind.newton_bracketed.calls": (per_op(calls["rootfind.newton_bracketed"]), "calls/op"),
            "rootfind.newton_bracketed.self_ms": (ms_per_op("rootfind.newton_bracketed"), "ms/op"),
            "rootfind.f_evals_per_call": (ratio(evals["rootfind.newton_bracketed"],
                                                calls["rootfind.newton_bracketed"]), "evals/call"),
            "core.spectrum_at.calls": (per_op(calls["core.spectrum_at"]), "calls/op"),
            "core.spectrum_at.self_ms": (ms_per_op("core.spectrum_at"), "ms/op"),
            "core.spectrum_at.ms_per_call": (ratio(1e3 * dur["core.spectrum_at"],
                                                   calls["core.spectrum_at"]), "ms/call"),
            "saddlepoint.cdf.calls": (per_op(calls["saddlepoint.cdf"]), "calls/op"),
            "saddlepoint.pdf.calls": (per_op(calls["saddlepoint.pdf"]), "calls/op"),
            "saddlepoint.solve_saddlepoint.self_ms": (ms_per_op("saddlepoint.solve_saddlepoint"), "ms/op"),
            "saddlepoint.self_ms": (ms_per_op("saddlepoint.cdf", "saddlepoint.pdf"), "ms/op"),
            "saddlepoint.normalized_pdf.self_ms": (ms_per_op("saddlepoint.normalized_pdf"), "ms/op"),
            "cli.main.calls": (per_op(calls["cli.main"]), "calls/op"),
            "cli.main.self_ms": (ms_per_op("cli.main"), "ms/op"),
            "builders.calls": (per_op(sum(calls[b] for b in builders)), "calls/op"),
            "builders.self_ms": (ms_per_op(*builders), "ms/op"),
            "core.new_ratio.self_ms": (ms_per_op("core.new_ratio"), "ms/op"),
            "core.whiten.self_ms": (ms_per_op("core.whiten"), "ms/op"),
            "support.support.calls": (per_op(calls["support.support"]), "calls/op"),
            "support.support.self_ms": (ms_per_op("support.support"), "ms/op"),
            "support.edge_structure.calls": (per_op(calls["support.edge_structure"]), "calls/op"),
            "support.edge_structure.self_ms": (ms_per_op("support.edge_structure"), "ms/op"),
            "tails.limit_multiple.calls": (per_op(calls["tails.limit_multiple"]), "calls/op"),
            "tails.limit_multiple.self_ms": (ms_per_op("tails.limit_multiple"), "ms/op"),
            "specfun.density_at_zero.calls": (per_op(calls["specfun.density_at_zero"]), "calls/op"),
            "specfun.density_at_zero.self_ms": (ms_per_op("specfun.density_at_zero"), "ms/op"),
            "specfun.integrand_evals_per_call": (ratio(sum(evals[q] for q in quads),
                                                       sum(calls[q] for q in quads)), "evals/call"),
            "specfun.imhof_cdf.calls": (per_op(calls["specfun.imhof_cdf"]), "calls/op"),
            "specfun.imhof_cdf.self_ms": (ms_per_op("specfun.imhof_cdf"), "ms/op"),
            "oracle.imhof_cdf_of_R.self_ms": (ms_per_op("oracle.imhof_cdf_of_R"), "ms/op"),
            "oracle.mc_draws.calls": (per_op(calls["oracle.mc_draws"]), "calls/op"),
            "oracle.mc_draws.self_ms": (ms_per_op("oracle.mc_draws"), "ms/op"),
            "oracle.mc_draws.draws_per_s": (ratio(work["oracle.mc_draws"],
                                                  own["oracle.mc_draws"]), "draws/s"),
            "oracle.exact_cdf_n2.self_ms": (ms_per_op("oracle.exact_cdf_n2"), "ms/op"),
        }

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                            "op", "work", "evals", "self"]}) + "\n")
            for span in self.spans:
                sid = span[0]
                fh.write(json.dumps(list(span) + [self.evals.get(sid, 0), selfs[sid]]) + "\n")
