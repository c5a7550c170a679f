"""Run-time spans around the public functions of every maxsmooth module.

`Tracer.install()` replaces each public function (and each public method of
a class defined in the package) with a wrapper, at every name a package
module binds it under, so `certify.value_grad`, `minimax.value_grad` and
`smoothings.value_grad` all reach the same wrapper.  Nothing under `src/`
is edited.  A wrapper records one span (parent span, op id, name, start,
end) in memory and adds work counters taken from the call's arguments or
result.  `layer_metrics()` derives the per-layer metrics from the spans.
"""

import collections
import functools
import gzip
import inspect
import time

import numpy as np

from maxsmooth import bounds, certify, cli, core, minimax, regret, smoothings

LAYERS = (cli, core, smoothings, bounds, certify, minimax, regret)

# short metric name -> certify function it reports on
CHECKS = {
    "smoothness": "check_smoothness",
    "grad_in_simplex": "check_grad_in_simplex",
    "q_grid": "q_certificate_grid",
    "expectation": "check_expectation_guarantee",
    "empirical_gap": "empirical_gap",
    "permutation": "check_permutation_invariance",
    "telescoping": "telescoping_certificate",
    "gradient_fd": "check_gradient_fd",
    "gradient_structure": "check_gradient_structure",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _simplex_rows(counts, args, kwargs, result):
    counts["core.project_simplex_rows.rows"] += np.shape(args[0])[0]


def _batch_cells(counts, args, kwargs, result):
    rows, d = np.shape(_arg(args, kwargs, 1, "X"))
    counts["smoothings.value_grad_many.rows"] += rows
    counts["smoothings.value_grad_many.cells"] += rows * d


def _dp_rows(counts, args, kwargs, result):
    counts["bounds.gamma.rows"] += int(args[0])


def _solver(name):
    def count(counts, args, kwargs, result):
        counts[name + ".iterations"] += result.iterations
        counts["minimax.iterations"] += result.iterations
        counts["minimax.oracle_calls"] += result.oracle_calls
    return count


def _game(counts, args, kwargs, result):
    d, T = int(_arg(args, kwargs, 0, "d")), int(_arg(args, kwargs, 1, "T"))
    counts["regret.cells"] += d * T
    # computed, not measured: bytes of the arrays the returned game holds
    counts["regret.bytes_computed"] += sum(
        v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))


def _report_samples(counts, args, kwargs, result):
    counts["certify.samples"] += result.samples


# Machine-independent work counters, taken from a call's arguments or result.
WORK = {
    "core.project_simplex_rows": _simplex_rows,
    "smoothings.value_grad_many": _batch_cells,
    "bounds.gamma": _dp_rows,
    "minimax.solve_smoothed": _solver("minimax.solve_smoothed"),
    "minimax.solve_subgradient": _solver("minimax.solve_subgradient"),
    "regret.run_coinflip_game": _game,
    **{"certify." + fn: _report_samples for fn in CHECKS.values()},
}


class Tracer:
    """In-memory span recorder; spans are (parent, op, name, start, end)."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = -1
        self._stack = []

    def wrap(self, name, fn):
        spans, counts, stack = self.spans, self.counts, self._stack
        calls, work = name + ".calls", WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (parent, self.op, name, start, end)
            counts[calls] += 1
            if work is not None:
                work(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the package at each name bound to it."""
        wrapped = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(value, meth, self.wrap(f"{layer}.{meth}", fn))
                elif callable(value) and getattr(value, "__module__", None) == module.__name__:
                    wrapped[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for module in LAYERS:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])

    def layer_metrics(self, first=0):
        """Per-layer metrics (name -> (value, unit)) from spans[first:] and
        the current counters."""
        busy = collections.Counter()
        self_time = collections.Counter()
        for parent, _, name, start, end in self.spans[first:]:
            dur = end - start
            busy[name] += dur
            self_time[name] += dur
            if parent >= 0:
                self_time[self.spans[parent][2]] -= dur
        c = self.counts

        def per(total, n, scale):
            return total / n * scale if n else 0.0

        m = {
            # time inside cli code under main, i.e. not in another layer's span
            "cli.main.self_s": (sum(v for k, v in self_time.items()
                                    if k.startswith("cli.")), "s"),
            "core.project_simplex_rows.calls": (c["core.project_simplex_rows.calls"], "count"),
            "core.project_simplex_rows.rows": (c["core.project_simplex_rows.rows"], "count"),
            "core.project_simplex_rows.busy_s": (busy["core.project_simplex_rows"], "s"),
            "smoothings.value_grad.calls": (c["smoothings.value_grad.calls"], "count"),
            "smoothings.value_grad.busy_s": (busy["smoothings.value_grad"], "s"),
            "smoothings.value_grad.us_per_call": (per(
                busy["smoothings.value_grad"], c["smoothings.value_grad.calls"], 1e6), "us"),
            "smoothings.value_grad_many.calls": (c["smoothings.value_grad_many.calls"], "count"),
            "smoothings.value_grad_many.rows": (c["smoothings.value_grad_many.rows"], "count"),
            "smoothings.value_grad_many.busy_s": (busy["smoothings.value_grad_many"], "s"),
            "smoothings.value_grad_many.ns_per_cell": (per(
                busy["smoothings.value_grad_many"],
                c["smoothings.value_grad_many.cells"], 1e9), "ns"),
            "bounds.gamma.calls": (c["bounds.gamma.calls"], "count"),
            "bounds.gamma.rows": (c["bounds.gamma.rows"], "count"),
            "bounds.gamma.busy_s": (busy["bounds.gamma"], "s"),
            "bounds.gamma.us_per_row": (per(busy["bounds.gamma"],
                                            c["bounds.gamma.rows"], 1e6), "us"),
            "certify.samples": (c["certify.samples"], "count"),
            "minimax.load_problem.busy_s": (busy["minimax.load_problem"], "s"),
            "minimax.eval_all.calls": (c["minimax.eval_all.calls"], "count"),
            "minimax.eval_all.busy_s": (busy["minimax.eval_all"], "s"),
            "minimax.iterations": (c["minimax.iterations"], "count"),
            "minimax.oracle_calls": (c["minimax.oracle_calls"], "count"),
            "regret.run_coinflip_game.calls": (c["regret.run_coinflip_game.calls"], "count"),
            "regret.run_coinflip_game.busy_s": (busy["regret.run_coinflip_game"], "s"),
            "regret.run_coinflip_game.self_s": (self_time["regret.run_coinflip_game"], "s"),
            "regret.cells": (c["regret.cells"], "count"),
            "regret.bytes_computed": (c["regret.bytes_computed"], "bytes"),
        }
        for short, fn in CHECKS.items():
            name = "certify." + fn
            m[f"certify.{short}.calls"] = (c[name + ".calls"], "count")
            m[f"certify.{short}.busy_s"] = (busy[name], "s")
            m[f"certify.{short}.self_s"] = (self_time[name], "s")
        for solver in ("solve_smoothed", "solve_subgradient"):
            name = "minimax." + solver
            m[name + ".self_s"] = (self_time[name], "s")
            m[name + ".us_per_iter"] = (per(busy[name], c[name + ".iterations"], 1e6), "us")
        return m

    def write(self, path):
        """Write every span once, as gzip CSV: id,parent,op,name,start_s,end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for sid, (parent, op, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{op},{name},{start:.9f},{end:.9f}\n")
