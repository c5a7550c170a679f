"""maxsmooth benchmark: four closed-loop CLI workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload gamma-sweep --seed 1 --seconds 24 --trace 0

A workload is a seeded list of ops run back to back in-process through
`maxsmooth.cli.main` (plus `minimax.solve_subgradient` for the baseline).
One pass runs the whole list once, with the package's lru caches cleared
first, as in a fresh CLI process.  `--trace 0` repeats passes while the
next one is expected to end within `--seconds` (at least one pass) and
reports the end-to-end metrics.  `--trace 1` runs one untraced pass and
two traced passes and reports the per-layer metrics.  Every op's output
is checked; outputs and machine-independent counters must repeat exactly
across passes.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; run records and spans are written
under `.bench_runs/`.  `--workload all` runs every workload, each in a
fresh interpreter.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_runs")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import maxsmooth.cli as c; "
                 "c.build_parser(); print(time.perf_counter() - t)")
TRACED_PASSES = 2

if not os.path.isfile(os.path.join(SRC, "maxsmooth", "cli.py")):
    sys.exit("error: no maxsmooth sources under src/; run from a repository checkout")

# Pin BLAS to one thread and leave MAXSMOOTH_THREADS unset (the sequential
# user default) before numpy is imported; the caller's values are recorded.
CALLER_ENV = {v: os.environ.get(v) for v in BLAS_THREAD_VARS + ("MAXSMOOTH_THREADS",)}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("MAXSMOOTH_THREADS", None)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def measure_setup():
    """Median over fresh interpreters of importing the CLI and building its parser."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for k in range(SETUP_RUNS + 1):  # the first run writes the bytecode cache
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        if k:
            times.append(float(out.stdout))
    return statistics.median(times), times


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_pass(ops, caches, tracer=None):
    """Run every op once; only op.call() is timed."""
    for cache in caches:
        cache.cache_clear()
    latencies, failures, digests = [], [], []
    counters = {}
    for k, op in enumerate(ops):
        start = time.perf_counter()
        if tracer is None:
            value = op.call()
        else:
            tracer.op = k
            value = tracer.wrap("bench.op", op.call)()
        latencies.append(time.perf_counter() - start)
        fails, op_counters, out = op.check(value)
        if op.cli:
            op_counters["cli.out_bytes"] = len(out)
        for name, v in op_counters.items():
            counters[name] = counters.get(name, 0) + v
        failures.append(fails)
        digests.append(hashlib.sha256(out).hexdigest())
    return {"latencies": latencies, "failures": failures, "digests": digests,
            "counters": counters, "wall_s": sum(latencies)}


def compare_passes(passes):
    """Outputs that differ from the first pass fail their op; differing
    counters make the whole run incorrect.  Returns the counter errors."""
    first = passes[0]
    errors = []
    for p in passes[1:]:
        for k, digest in enumerate(p["digests"]):
            if digest != first["digests"][k]:
                p["failures"][k].append("output differs from the first pass")
        if p["counters"] != first["counters"]:
            errors.append(f"counters differ between passes: {first['counters']} "
                          f"vs {p['counters']}")
    return errors


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples above it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n)))


def end_to_end(passes, setup_s):
    lat = [t for p in passes for t in p["latencies"]]
    pct = tail_percentile(len(lat))
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (float(np.percentile(lat, pct)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, {"op_tail_percentile": pct, "op_samples": len(lat)}


def per_layer(untraced, traced, layer_metrics):
    """Median over the traced passes; cli.out_bytes comes from the outputs."""
    metrics = {}
    for name, (_, unit) in layer_metrics[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in layer_metrics), unit)
    metrics["cli.out_bytes"] = (traced[0]["counters"].get("cli.out_bytes", 0), "bytes")
    overhead = statistics.median(p["wall_s"] for p in traced) - untraced["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def check_names(metrics, trace):
    """The reported metrics must be exactly the ones BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want != have:
        sys.exit(f"error: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(have))}, "
                 f"extra {sorted(set(have) - set(want))}, "
                 f"units {sorted(k for k in want if k in have and want[k] != have[k])}")


def run_workload(args):
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    setup_s, setup_samples = (None, []) if args.trace else measure_setup()

    rng = np.random.default_rng(args.seed)
    capture = workloads.GammaTableCapture()
    ops = workloads.WORKLOADS[args.workload](rng, work, capture)
    ops = [ops[i] for i in rng.permutation(len(ops))]
    caches = [v for m in tracing.LAYERS for v in vars(m).values()
              if hasattr(v, "cache_clear")]

    tracer = None
    if args.trace:
        passes = [run_pass(ops, caches)]
        tracer = tracing.Tracer()
        tracer.install()
        layer_metrics, layer_counts = [], []
        for _ in range(TRACED_PASSES):
            first_span = len(tracer.spans)
            tracer.counts.clear()
            passes.append(run_pass(ops, caches, tracer))
            layer_metrics.append(tracer.layer_metrics(first_span))
            layer_counts.append(dict(tracer.counts))
    else:
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(ops, caches))
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break

    errors = compare_passes(passes)
    if args.trace:
        if any(c != layer_counts[0] for c in layer_counts[1:]):
            errors.append(f"traced counters differ between passes: {layer_counts}")
        metrics = per_layer(passes[0], passes[1:], layer_metrics)
        extra = {"traced_counters": layer_counts[0]}
    else:
        metrics, extra = end_to_end(passes, setup_s)
    check_names(metrics, args.trace)

    attempted = len(ops) * len(passes)
    failed_ops = [(k, fails) for p in passes for k, fails in enumerate(p["failures"]) if fails]

    def known(k, fails):
        return bool(ops[k].known_defect) and all(
            f.startswith(ops[k].known_defect) for f in fails)

    correct = not errors and all(known(k, fails) for k, fails in failed_ops)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "errors": errors,
        "setup_samples_s": setup_samples,
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "git_commit": git_commit(),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "MAXSMOOTH_THREADS": os.environ.get("MAXSMOOTH_THREADS"),
            "caller_env": CALLER_ENV,
        },
        "passes": [{"wall_s": p["wall_s"], "counters": p["counters"]} for p in passes],
        "ops": [{"label": op.label, "latencies_s": [p["latencies"][k] for p in passes],
                 "failures": [p["failures"][k] for p in passes]}
                for k, op in enumerate(ops)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.csv.gz")
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    os.rmdir(work)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(ops)} ops")
    for k, fails in failed_ops:
        print(f"FAIL {ops[k].label}: {'; '.join(fails)}"
              + (" (known defect)" if known(k, fails) else ""))
    for e in errors:
        print(f"ERROR {e}")
    print(f"error_rate {len(failed_ops) / attempted:.6g} ({len(failed_ops)}/{attempted} ops)")
    for name, v in sorted(passes[-1]["counters"].items()):
        print(f"counter {name} {v}")
    if not args.trace:
        print(f"op_tail_s is p{extra['op_tail_percentile']} over {extra['op_samples']} ops")
    for name, (v, unit) in metrics.items():
        print(f"metric {name} {v:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed_ops),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def run_all(args):
    """Each workload in its own interpreter; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        sys.stdout.write(out.stdout)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
