"""The four benchmark workloads: seeded op lists and their output checks.

An op is one closed-loop request: `call()` runs it and is the only timed
part; `check(value)` then returns (failures, counters, output bytes).  The
counters are machine-independent and must repeat exactly across passes;
the output bytes must too.  Sizes come from fixed or jittered log grids:
every seed covers the same size range with the same number of ops, so run
times are comparable across seeds while the inputs themselves differ.
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from maxsmooth import bounds, cli, minimax
from maxsmooth.smoothings import c_constant

INSTANCES = os.path.join(os.path.dirname(cli.__file__), "instances")

# The pruned gamma DP misses the true maximizer at this dimension (ROADMAP
# item 1): the Bellman residual is 2.9e-10.  The op stays in gamma-sweep and
# counts as failed; it does not make the run incorrect while that is the
# only failure it shows.
KNOWN_DEFECT_DIM = 497963
BELLMAN_TOL = 1e-12


@dataclass
class Op:
    label: str
    call: object
    check: object
    known_defect: str = None
    cli: bool = True


class GammaTableCapture:
    """Keeps the last DP table `bounds.gamma` built, for the Bellman check.

    Installed once at start-up in every mode, so the check needs no second
    O(d^2) computation and traced and untraced runs call the same code.
    """

    def __init__(self):
        self.table = None
        original = bounds.gamma_table

        def gamma_table(*args, **kwargs):
            self.table = original(*args, **kwargs)
            return self.table

        gamma_table.__module__ = original.__module__
        gamma_table.__doc__ = original.__doc__
        bounds.gamma_table = gamma_table

    def take(self):
        table, self.table = self.table, None
        return table


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def jittered_log_grid(rng, lo, hi, n, jitter):
    """n log-spaced points over [lo, hi], each moved by a factor exp(+-jitter)."""
    base = np.geomspace(lo, hi, n)
    return base * np.exp(rng.uniform(-jitter, jitter, n))


# gamma-sweep ---------------------------------------------------------------

def gamma_sweep(rng, work, capture):
    dims = [int(round(d)) for d in jittered_log_grid(rng, 1e3, 2e5, 20, 0.01)]
    dims.append(KNOWN_DEFECT_DIM)
    ops = []
    for d in dims:
        def check(value, d=d):
            rc, out, err = value
            table = capture.take()
            fails = [] if rc == 0 else [f"exit {rc}: {err.strip()}"]
            row = next(csv.DictReader(io.StringIO(out)))
            chain = [int(j) for j in row["partition"].split("-")]
            val = float(row["gamma"])
            lower, upper = bounds.asymptotic_sandwich(d)
            if chain[-1] != d or val != bounds.partition_sum(chain):
                fails.append("value differs from partition_sum of the chain")
            if not lower <= val <= upper:
                fails.append("value outside asymptotic_sandwich")
            g = table[0]
            i = np.arange(1, d)
            resid = float(np.max(g[1:d] + ((d - i) / d) ** 2) - g[d]) if d > 1 else 0.0
            if resid > BELLMAN_TOL:
                fails.append(f"bellman residual {resid:.3g} > {BELLMAN_TOL:g}")
            counters = {"gamma.ops": 1, "gamma.dims_sum": d,
                        "gamma.chain_links": len(chain) - 1}
            return fails, counters, out.encode()

        ops.append(Op(f"gamma d={d}", lambda d=d: run_cli(["gamma", "--dims", str(d)]),
                      check, "bellman" if d == KNOWN_DEFECT_DIM else None))
    return ops


# certify-suite --------------------------------------------------------------

VERIFY_KINDS = ("lse", "clse", "quad", "quadc")


# Fixed dimensions and kinds: the O(d^2) q_grid makes the cost of an op
# steep in d, so the seed draws the samples and weights, not the sizes.
CERTIFY_DIMS = (2, 3, 5, 8, 13, 21, 34, 55, 90)


def certify_suite(rng, work, capture):
    ops = []
    for k, d in enumerate(CERTIFY_DIMS):
        kind = VERIFY_KINDS[k % len(VERIFY_KINDS)]
        if kind == "quadc":
            # a certified weight c >= c_d, rounded up to 4 decimals
            kind = f"quadc:{math.ceil(c_constant(d) * rng.uniform(1.0, 1.5) * 1e4) / 1e4}"
        for cmd in ("verify", "gap"):
            ops.append(_cert_op(cmd, kind, d, int(rng.integers(1, 2**31)), 0))
    # c = 1 is below c_d for d >= 4: the suite must report a failure, exit 1
    ops.append(_cert_op("verify", "quadc:1", int(rng.integers(4, 9)),
                        int(rng.integers(1, 2**31)), 1))
    return ops


def _cert_op(cmd, kind, d, seed, expect):
    argv = [cmd, "--kind", kind, "--dim", str(d), "--seed", str(seed)]
    if cmd == "verify":
        argv += ["--format", "json"]

    def check(value):
        rc, out, err = value
        fails = [] if rc == expect else [f"exit {rc}, expected {expect}: {err.strip()}"]
        counters = {f"{cmd}.ops": 1}
        if cmd == "verify":
            reports = json.loads(out)
            counters["verify.reports"] = len(reports)
            counters["verify.samples"] = sum(r["samples"] for r in reports)
        return fails, counters, out.encode()

    return Op(" ".join(argv[:5]), lambda: run_cli(argv), check)


# minimax-solve --------------------------------------------------------------

LP_N, LP_M, LP_EPS, LP_RADIUS = 10, 20, 1e-3, 0.8
# The eps/2 bracket is attained in the limit of a dominant component, where
# clse and quad iterates sit on its edge to within rounding (1.7e-16 seen on
# affine20), so the check allows 16 ulps of the objective's scale.
BRACKET_ROUNDING = 16 * np.finfo(np.float64).eps
SUBGRADIENT_ITERS = 1_000_000


def planted_lp(rng, k):
    """Max of m affine functions with a planted, well-conditioned optimum.

    The n+1 active gradients are a randomly rotated regular simplex scaled
    to norm 5 (they sum to zero, so the planted point is optimal).  The
    other rows repeat active gradients with a lower offset, so they never
    attain the max.  The start lies at distance 0.8 in a direction fixed per
    instance index k in the simplex's own frame, so instance k takes the
    same number of iterations for every seed, while each seed gets its own
    rotation, optimum and offsets.  The optimum is certified independently
    with scipy's linprog.
    """
    from scipy.optimize import linprog

    n, m = LP_N, LP_M
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V = np.eye(n + 1) - 1.0 / (n + 1)
    W = V @ np.linalg.svd(V)[0][:, :n]
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    active = 5.0 * W @ Q.T
    A = np.vstack([active, active[rng.integers(0, n + 1, m - n - 1)]])
    y_star = 0.2 * rng.standard_normal(n)
    t_star = 0.1 * rng.standard_normal()
    b = t_star - A @ y_star
    b[n + 1:] -= rng.uniform(0.05, 0.5, m - n - 1)
    perm = rng.permutation(m)
    A, b = A[perm], b[perm]
    u = Q @ np.random.default_rng(k).standard_normal(n)
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=np.c_[A, -np.ones(m)], b_ub=-b,
                  bounds=[(None, None)] * (n + 1), method="highs")
    if res.status != 0 or abs(res.fun - t_star) > 1e-9:
        raise RuntimeError(f"linprog does not confirm the planted optimum of lp{k}")
    return {"name": f"lp{k}", "n": n, "L": 0.0, "M": 5.0, "optimal_value": t_star,
            "reference_point": y_star.tolist(),
            "y0": (y_star + LP_RADIUS * u / np.linalg.norm(u)).tolist(),
            "components": [{"type": "affine", "a": a.tolist(), "b": float(c)}
                           for a, c in zip(A, b)]}


def quadratic_instance(rng, name):
    n, m = 8, 6
    comps = []
    for _ in range(m):
        B = rng.standard_normal((n, n)) / math.sqrt(n)
        comps.append({"type": "quadratic", "H": (B @ B.T).tolist(),
                      "a": rng.standard_normal(n).tolist(),
                      "b": float(rng.standard_normal())})
    L = max(float(np.linalg.eigvalsh(np.array(c["H"]))[-1]) for c in comps)
    return {"name": name, "n": n, "L": L, "M": 5.0,
            "y0": rng.uniform(-0.5, 0.5, n).tolist(), "components": comps}


def _write(work, raw):
    path = os.path.join(work, raw["name"] + ".json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def minimax_solve(rng, work, capture):
    lps = [os.path.join(INSTANCES, "affine20.json")]
    lps += [_write(work, planted_lp(rng, k)) for k in range(6)]
    ops = [_solve_op(work, os.path.join(INSTANCES, "abs.json"), "clse", None)]
    for path in lps:
        for kind in ("clse", "lse", "quad"):
            ops.append(_solve_op(work, path, kind, None))
        ops.append(_subgradient_op(path))
    for k in range(2):
        path = _write(work, quadratic_instance(rng, f"quad{k}"))
        for kind in ("clse", "quad"):
            ops.append(_solve_op(work, path, kind, 400))
    return ops


def _solve_op(work, path, kind, max_iter):
    name = os.path.basename(path)[:-5]
    trace_path = os.path.join(work, f"{name}-{kind}.csv")
    argv = ["solve", "--problem", path, "--kind", kind, "--eps", str(LP_EPS),
            "--out", trace_path]
    if max_iter:
        argv += ["--max-iter", str(max_iter)]

    def check(value):
        rc, out, err = value
        fails = [] if rc == 0 else [f"exit {rc}: {err.strip()}"]
        summary = json.loads(out)
        if max_iter:
            if summary["stop_reason"] != "max_iter":
                fails.append(f"stop_reason {summary['stop_reason']}")
        else:
            if summary["stop_reason"] != "target_reached":
                fails.append(f"stop_reason {summary['stop_reason']}")
            if not summary["best_objective"] <= summary["optimal_value"] + LP_EPS:
                fails.append("best objective above optimum + eps")
        trace = _read(trace_path)
        rows = list(csv.DictReader(io.StringIO(trace.decode())))
        excess = max(abs(float(r["smoothed_objective"]) - float(r["objective"]))
                     - LP_EPS / 2 - BRACKET_ROUNDING * max(1.0, abs(float(r["objective"])))
                     for r in rows)
        if excess > 0:
            fails.append(f"|smoothed - objective| exceeds eps/2 by {excess:.3g}"
                         " beyond rounding")
        counters = {"solve.iterations": summary["iterations"],
                    "solve.oracle_calls": summary["oracle_calls"]}
        return fails, counters, out.encode() + trace

    return Op(f"solve {name} {kind}", lambda: run_cli(argv), check)


def _subgradient_op(path):
    name = os.path.basename(path)[:-5]

    def call():
        p = minimax.load_problem(path)
        return p, minimax.solve_subgradient(p, SUBGRADIENT_ITERS,
                                            target=p.optimal_value + LP_EPS)

    def check(value):
        p, trace = value
        fails = []
        if trace.stop_reason != "target_reached":
            fails.append(f"stop_reason {trace.stop_reason}")
        if not trace.best_objective <= p.optimal_value + LP_EPS:
            fails.append("best objective above optimum + eps")
        counters = {"subgradient.iterations": trace.iterations,
                    "subgradient.oracle_calls": trace.oracle_calls}
        out = f"{trace.iterations} {trace.best_objective!r}".encode()
        return fails, counters, out

    return Op(f"subgradient {name}", call, check, cli=False)


# regret-game ----------------------------------------------------------------

def regret_game(rng, work, capture):
    # The ROADMAP default (256 x 1e4 x 20) sets the peak RSS.  The other
    # games spread d over [128, 256] and T over [5e3, 1e4] in a fixed design
    # with 2 to 5 seeds, each size moved by up to 5 % by the seed.
    sizes = [(256, 10_000, 20, "entropy")]
    jitter = np.exp(rng.uniform(-0.05, 0.05, (10, 2)))
    for k in range(10):
        d = int(256 * (0.5 + 0.5 * k / 9) * jitter[k, 0])
        T = int(10_000 * (0.5 + 0.5 * ((7 * k) % 10) / 9) * jitter[k, 1])
        sizes.append((d, T, 2 + k % 4, ("entropy", "quad")[k % 2]))
    ops = []
    for k, (d, T, seeds, reg) in enumerate(sizes):
        argv = ["regret", "--dim", str(d), "--horizon", str(T), "--seeds", str(seeds),
                "--reg", reg, "--seed", str(int(rng.integers(1, 2**31)))]
        trace_path = None
        if k == 1:
            trace_path = os.path.join(work, "regret-trace.csv")
            argv += ["--trace", trace_path]
        ops.append(_regret_op(argv, d * T * seeds, trace_path))
    return ops


def _regret_op(argv, cells, trace_path):
    def check(value):
        rc, out, err = value
        fails = [] if rc == 0 else [f"exit {rc}: {err.strip()}"]
        data = out.encode() + (_read(trace_path) if trace_path else b"")
        return fails, {"regret.ops": 1, "regret.cells": cells}, data

    return Op(" ".join(argv[:9]), lambda: run_cli(argv), check)


WORKLOADS = {
    "gamma-sweep": gamma_sweep,
    "certify-suite": certify_suite,
    "minimax-solve": minimax_solve,
    "regret-game": regret_game,
}
