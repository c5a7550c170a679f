"""Command-line surface: gamma tables, certificate suites, gap reports,
the smoothed minimax solver, and the experts-game harness.

Exit codes: 0 on success / all certificates passing, 1 on a certificate or
convergence failure, 2 on usage or schema errors, on files that cannot
be read or written and on requests too large for memory.  All floating
output is printed with 17 significant digits so files round-trip exactly;
identical configurations (including seeds) produce byte-identical output.
"""

import argparse
import csv
import io
import json
import math
import sys

from . import bounds, certify, minimax, regret
from .smoothings import SmoothingKind

DEFAULT_SEED = 20250808


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit_table(rows, columns, fmt, out):
    """Write dict rows as CSV or JSON with fixed column order."""
    if fmt == "json":
        text = json.dumps(
            [{k: row[k] for k in columns} for row in rows], indent=2,
            default=lambda v: float(v)) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(row[k]) for k in columns])
        text = buf.getvalue()
    _write(text, out)


def _write(text, out):
    """Write text to the file out, or to stdout when out is unset."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_dims(args) -> list:
    if args.dims:
        try:
            dims = [int(t) for t in args.dims.split(",") if t.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad --dims list {args.dims!r}")
    else:
        dims = [args.dim]
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("dimensions must be >= 1")
    return dims


def cmd_gamma(args) -> int:
    dims = _parse_dims(args)
    # the table for the largest d holds every smaller d's table as a prefix
    table = bounds.gamma_table(max(dims))
    rows = []
    for d in dims:
        cert = bounds.chain_certificate(table, d)
        lower, upper = bounds.asymptotic_sandwich(d)
        rows.append({
            "d": d,
            "gamma": cert.value,
            "partition": "-".join(str(j) for j in cert.indices),
            "sandwich_lower": lower,
            "sandwich_upper": upper,
            "two_term_lower": bounds.two_term_lower(d),
            "half_log_d": 0.5 * math.log(d),
        })
    _emit_table(rows, ["d", "gamma", "partition", "sandwich_lower",
                       "sandwich_upper", "two_term_lower", "half_log_d"],
                args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    kind = SmoothingKind.parse(args.kind, args.dim)
    reports = certify.run_certificate_suite(
        kind, seed=args.seed, count=args.count, tol=args.tol)
    if args.format == "json":
        text = certify.reports_to_json(reports) + "\n"
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status} {r.name} worst={_fmt(r.worst_violation)}"
                         f" tol={_fmt(r.tolerance)} samples={r.samples}")
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_gap(args) -> int:
    kind = SmoothingKind.parse(args.kind, args.dim)
    cfg = certify.SamplerConfig(seed=args.seed, count=args.count)
    report = certify.empirical_gap(kind, args.alpha_max, cfg, tol=args.tol)
    rows = [{
        "kind": kind.label(),
        "d": args.dim,
        "gap_bound": report.details["gap_bound"],
        "empirical_estimate": report.details["estimate"],
    }]
    _emit_table(rows, ["kind", "d", "gap_bound", "empirical_estimate"],
                args.format, args.out)
    return 0 if report.passed else 1


def cmd_solve(args) -> int:
    problem = minimax.load_problem(args.problem)
    kind = SmoothingKind.parse(args.kind, problem.d)
    trace = minimax.solve_smoothed(problem, args.eps, kind,
                                   budget_factor=args.budget_factor,
                                   max_iter=args.max_iter, out=args.out)
    summary = {
        "problem": problem.name,
        "kind": kind.label(),
        "eps": args.eps,
        "iterations": trace.iterations,
        "oracle_calls": trace.oracle_calls,
        "best_objective": trace.best_objective,
        "optimal_value": problem.optimal_value,
        "budget": trace.metadata.get("budget"),
        "stop_reason": trace.stop_reason,
    }
    print(json.dumps(summary, indent=2, default=_fmt))
    if trace.stop_reason == "diverged":
        return 1
    if problem.optimal_value is not None:
        return 0 if trace.stop_reason == "target_reached" else 1
    return 0


def cmd_regret(args) -> int:
    if args.reg == "entropy":
        kind = SmoothingKind.lse(args.dim)
    else:
        kind = SmoothingKind.quadratic(args.dim)
    if args.seeds < 1:
        raise ValueError("seeds must be >= 1")

    rows = []
    for seed in range(args.seed, args.seed + args.seeds):
        trace = regret.run_coinflip_game(args.dim, args.horizon, seed,
                                         kind=kind, eta=args.eta)
        if args.trace and seed == args.seed:
            trace.to_csv(args.trace)
        rows.append({"seed": seed, "regret": trace.final_regret,
                     "bound": trace.bound})
    _emit_table(rows, ["seed", "regret", "bound"], args.format, args.out)
    return 0 if all(r["regret"] <= r["bound"] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxsmooth",
        description="Smoothings of the coordinate-wise max: bounds, "
                    "certificates, solvers, and experts games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kind=False, seed=True):
        p.add_argument("--dim", type=int, default=2, help="dimension d")
        if kind:
            p.add_argument("--kind", default="lse",
                           help="lse | clse | quad | quadc:<c>")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (stdout if unset)")

    p = sub.add_parser("gamma", help="partition lower bound table")
    p.add_argument("--dims", default=None, help="comma list of dimensions")
    common(p, seed=False)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("verify", help="run the certificate suite")
    common(p, kind=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--count", type=int, default=10_000, help="samples per check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gap", help="theoretical vs empirical deviation")
    common(p, kind=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--alpha-max", type=float, default=1e4)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("solve", help="smoothed accelerated minimax solve")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--kind", default="clse")
    p.add_argument("--budget-factor", type=int, default=4)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--out", default=None, help="trace CSV path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("regret", help="fair-coin experts game")
    common(p)
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--seeds", type=int, default=20, help="number of seeds")
    p.add_argument("--reg", choices=("entropy", "quad"), default="entropy")
    p.add_argument("--eta", type=float, default=None, help="override tuned rate")
    p.add_argument("--trace", default=None, help="per-round CSV for first seed")
    p.set_defaults(func=cmd_regret)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentTypeError, ValueError, OSError,
            MemoryError) as exc:
        # a failed allocation may carry no message of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
