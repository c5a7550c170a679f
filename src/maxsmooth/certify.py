"""Numerical certificates for smoothing properties.

Each check measures the worst violation of one inequality over probe
points or over a sample drawn deterministically from a seeded config, and
reports it together with the witness attaining it.  Negative slack means
the inequality holds with room to spare; a report's `passed` is derived,
not stored: the worst violation stays at or below its recorded tolerance.

The probe plan is fixed: the Q grid probes the rays alpha * x_j at
alpha = 0.1, 1, 10, 100, the block-structure check at 0.5, 1, 10, 100,
finite differences step by 1e-5 * (1 + ||x||_inf), and the smoothness and
finite-difference reports hold to 1e-8 and 1e-6.  Only the sample (seed,
count) and the tolerance of every report but these two are chosen by the
caller.

The sampled checks are private bodies that `run_certificate_suite` runs on
one sample, drawn and evaluated once.  `empirical_gap` alone is also
public, for the `gap` command, and then draws its own sample and keeps
only its values.  Only the sample and its gradients are held whole, with
a quarter-sample of independent smoothness partners: the other partners,
the permutations and every other count x d temporary are formed in row
blocks of `_BLOCK_CELLS` cells, so peak memory is about 2.4 count x d
floats plus O(_BLOCK_CELLS).  Probe points, finite-difference stencils
and structure scales are evaluated in batches, and the ray half of a
sample comes from one row-wise shuffle per block that draws the generator
stream of one permutation per row.  Generator draws split into blocks
are those of one draw, so reports are bitwise those of whole-array
checks, and of single-point evaluation, because `_point` returns bitwise
what `_rows` returns and rows are evaluated independently.
"""

from dataclasses import dataclass, field, replace
import json
import math

import numpy as np

from .core import as_point, structured_point
from .smoothings import (
    _BLOCK_CELLS,
    SmoothingKind,
    deviation_interval,
    gap_bound,
    value_grad,
    value_grad_many,
)

DISTRIBUTIONS = ("gaussian", "mixed")


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: seed, sample count, distribution."""

    seed: int
    count: int = 1000
    distribution: str = "gaussian"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")


@dataclass
class CertReport:
    """Outcome of one numerical certificate."""

    name: str
    samples: int
    worst_violation: float
    witness: object
    tolerance: float
    seed: int = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_violation <= self.tolerance

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, np.ndarray):
                return [float(t) for t in v]
            if isinstance(v, (tuple, list)):
                return [clean(t) for t in v]
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            return v

        return {
            "name": self.name,
            "samples": self.samples,
            "worst_violation": clean(self.worst_violation),
            "witness": clean(self.witness),
            "passed": bool(self.passed),
            "seed": self.seed,
            "tolerance": self.tolerance,
            "details": {k: clean(v) for k, v in self.details.items()},
        }


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def _blocks(n, d):
    """Slices of consecutive rows, _BLOCK_CELLS cells (one row at least)
    each: the blocks of `value_grad_many`."""
    step = max(1, _BLOCK_CELLS // d)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _sample_points(cfg: SamplerConfig, d: int, rng) -> np.ndarray:
    n = cfg.count
    X = np.empty((n, d))
    gauss = n - n // 2 if cfg.distribution == "mixed" else n
    rng.standard_normal(out=X[:gauss])
    if gauss < n:
        _sample_rays(X[gauss:], rng)
    return X


def _sample_rays(X, rng):
    """Fill the rows of X with rays alpha * x_j, coordinates permuted."""
    n, d = X.shape
    js = rng.integers(1, d + 1, size=n)
    lead = 10.0 ** rng.uniform(-2.0, 2.0, size=n) / js
    for block in _blocks(n, d):
        # one shuffle of the block's rows draws, in row order, what one
        # rng.permutation(d) per row draws; row r puts alpha / j on the
        # first j columns of its permutation and zero on the rest, so every
        # cell is set
        perms = np.tile(np.arange(d), (block.stop - block.start, 1))
        rng.permuted(perms, axis=1, out=perms)
        np.put_along_axis(
            X[block], perms,
            np.where(np.arange(d) < js[block, None], lead[block, None], 0.0),
            axis=1)


def _evaluated_sample(kind: SmoothingKind, cfg: SamplerConfig):
    """(X, values, gradients, state): the sample drawn from
    default_rng(cfg.seed), its evaluation and the generator state right
    after the draw.

    Rows are evaluated independently, so they are bitwise the rows of any
    batch the sample is part of.
    """
    rng = np.random.default_rng(cfg.seed)
    X = _sample_points(cfg, kind.d, rng)
    vals, G = value_grad_many(kind, X)
    return X, vals, G, rng.bit_generator.state


def _check_tolerance(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if value < 0.0:
        raise ValueError(f"{name} must be nonnegative")


def _worst_row(name, kind, cfg, viol, X, tol, **details):
    """Report of the first maximum of a per-row violation, witnessed by a
    copy of its row of the sample X."""
    k = int(np.argmax(viol))
    worst = float(viol[k])
    return CertReport(
        name=f"{name}[{kind.label()}]",
        samples=cfg.count,
        worst_violation=worst,
        witness=X[k].copy(),
        tolerance=tol,
        seed=cfg.seed,
        details=details,
    )


def _smoothness(kind, cfg, tol, sample):
    """Sampled gradient-Lipschitz check: ||grad(x)-grad(y)||_1 <= ||x-y||_inf.

    The partner of row i is the nearby x + rho_i u_i, or an independent
    point when i % 4 == 0: close pairs are the discriminating ones, far
    pairs guard the large-separation regime.  rho, then u and then the
    independent points are drawn from the generator state after the
    sample, so u is drawn for every row.  Nearby partners are drawn and
    evaluated in row blocks, and only the first maximum's is kept.
    The violation is normalized by max(1, ||x-y||_inf); coincident pairs
    are skipped as trivially satisfied.
    """
    X, _, GX, state = sample
    n, d = X.shape
    rng = np.random.default_rng(cfg.seed)
    rng.bit_generator.state = state
    rho = 10.0 ** rng.uniform(-3.0, 0.5, size=n)
    dual, primal = np.empty(n), np.empty(n)

    def pair(rows, Xr, Y):
        # both differences overwrite the fresh gradients of Y
        _, D = value_grad_many(kind, Y)
        dual[rows] = np.abs(np.subtract(GX[rows], D, out=D), out=D).sum(axis=1)
        primal[rows] = np.abs(np.subtract(Xr, Y, out=D), out=D).max(axis=1)

    best = None  # (violation, partner) of the first maximum over nearby rows
    for block in _blocks(n, d):
        U = rng.standard_normal((block.stop - block.start, d))
        rows = np.arange(block.start, block.stop)
        near = rows % 4 != 0
        rows = rows[near]
        Xr = X[rows]
        Y = Xr + rho[rows, None] * U[near]
        pair(rows, Xr, Y)
        if rows.size:  # a one-row block may hold an independent row only
            p = primal[rows]
            viol = np.where(p > 0.0, (dual[rows] - p) / np.maximum(1.0, p),
                            -np.inf)
            j = int(np.argmax(viol))
            # np.argmax across blocks: a later block wins when strictly
            # greater, or NaN over a number
            if best is None or np.argmax([best[0], viol[j]]):
                best = (viol[j], Y[j].copy())
    P = _sample_points(replace(cfg, count=len(range(0, n, 4))), d, rng)
    for block in _blocks(len(P), d):
        rows = 4 * np.arange(block.start, block.stop)
        pair(rows, X[rows], P[block])
    keep = primal > 0.0
    raw = dual[keep] - primal[keep]
    normalized = raw / np.maximum(1.0, primal[keep])
    k = int(np.argmax(normalized))
    worst = float(normalized[k])
    i = np.flatnonzero(keep)[k]
    # the first maximum over all rows is, if nearby, that over nearby rows
    y = best[1] if i % 4 else P[i // 4].copy()
    return CertReport(
        name=f"smoothness[{kind.label()}]",
        samples=int(keep.sum()),
        worst_violation=worst,
        witness=(X[i].copy(), y),
        tolerance=tol,
        seed=cfg.seed,
        details={"raw_violation": float(raw[k]), "skipped": int((~keep).sum())},
    )


def check_gradient_fd(kind: SmoothingKind, x) -> CertReport:
    """Validate the analytic gradient coordinate-wise by finite differences.

    The step is 1e-5 * (1 + ||x||_inf) and the tolerance 1e-6.  Central
    differences by default.  For the piecewise-quadratic kinds the
    projection's active set is compared at x +/- step per coordinate; at a
    seam the check switches to a second-order one-sided stencil taken from
    whichever side keeps the active set of x (exact on quadratic pieces).
    The 2d points x +/- step are evaluated in one batch; the one-sided
    points of the few seam coordinates one at a time, only where needed.
    """
    x = np.asarray(x, dtype=np.float64)
    ev = value_grad(kind, x)
    step = 1e-5 * (1.0 + float(np.abs(x).max()))
    d = kind.d
    E = np.diag(np.full(d, step))  # row i is step times the i-th unit vector
    near = np.concatenate([x + E, x - E])
    as_point(near.ravel())  # a non-finite point raises as value_grad would
    vals, G = value_grad_many(kind, near)
    f_plus, f_minus = vals[:d], vals[d:]
    fd = (f_plus - f_minus) / (2.0 * step)
    kink_coords, skipped = [], []
    if kind.is_quadratic:
        base = ev.gradient > 0.0

        def one_sided(p):
            """f(p) if p keeps the active set of x, else None."""
            at = value_grad(kind, p)
            return at.value if ((at.gradient > 0.0) == base).all() else None

        same = ((G > 0.0) == base).all(axis=1)
        plus_ok, minus_ok = same[:d], same[d:]
        kink_coords = np.flatnonzero(~(plus_ok & minus_ok)).tolist()
        for i in kink_coords:
            far = one_sided(x + 2 * E[i]) if plus_ok[i] else None
            if far is not None:
                fd[i] = (-3.0 * ev.value + 4.0 * f_plus[i] - far) / (2.0 * step)
                continue
            far = one_sided(x - 2 * E[i]) if minus_ok[i] else None
            if far is not None:
                fd[i] = (3.0 * ev.value - 4.0 * f_minus[i] + far) / (2.0 * step)
            else:
                skipped.append(i)
                fd[i] = ev.gradient[i]
    err = np.abs(fd - ev.gradient)
    k = int(np.argmax(err))
    worst = float(err[k])
    return CertReport(
        name=f"gradient_fd[{kind.label()}]",
        samples=d - len(skipped),
        worst_violation=worst,
        witness=x,
        tolerance=1e-6,
        details={"kink_coordinates": kink_coords, "skipped_coordinates": skipped,
                 "step": step, "worst_coordinate": k},
    )


def _grad_in_simplex(kind, cfg, tol, sample):
    """All sampled gradients are nonnegative and sum to one within tol."""
    X, _, G, _ = sample
    viol = np.maximum(-G.min(axis=1), np.abs(G.sum(axis=1) - 1.0))
    return _worst_row("grad_in_simplex", kind, cfg, viol, X, tol)


def q_certificate_grid(kind: SmoothingKind, tol: float = 1e-9) -> CertReport:
    """Worst -Q over all index pairs and the scales a = 0.1, 1, 10, 100.

    Q(i, j) = f(a x_i) - f(a x_j) - <grad f(a x_j), a x_i - a x_j>
              - 0.5 ||grad f(a x_i) - grad f(a x_j)||_1^2
    is the smooth-convexity residual between two scaled probe points,
    nonnegative for any convex function that is 1-smooth in the infinity
    norm.  Per scale the d probe points are evaluated in one batch, and
    each residual is formed with the operations of a single-point pair
    evaluation in the same order (a batched 1 x d by d x 1 product rounds
    like its 1-D dot, where a matrix-vector product need not), so the worst
    value and the witness, the first maximum in (alpha, i, j) order, are
    bitwise those of the pairwise loop.
    """
    d = kind.d
    alphas = (0.1, 1.0, 10.0, 100.0)
    worst, witness, n = -math.inf, None, 0
    for alpha in alphas if d > 1 else ():
        # row j - 1 is the probe point alpha * x_j, as structured_point
        X = np.where(np.tri(d, dtype=bool),
                     alpha / np.arange(1, d + 1)[:, None], 0.0)
        V, G = value_grad_many(kind, X)
        neg = np.empty((d, d))  # neg[i - 1, j - 1] = -Q(i, j)
        for j in range(d):
            inner = np.matmul((X - X[j])[:, None, :], G[j][:, None])[:, 0, 0]
            dual = np.abs(G - G[j]).sum(axis=1)
            neg[:, j] = -(V - V[j] - inner - 0.5 * dual * dual)
        np.fill_diagonal(neg, -math.inf)
        k = int(np.argmax(neg))
        n += d * (d - 1)
        if neg.flat[k] > worst:
            worst, witness = neg.flat[k], (k // d + 1, k % d + 1, alpha)
    if n == 0:  # d = 1 has a single probe point
        worst, witness = 0.0, (1, 1, alphas[0])
    return CertReport(
        name=f"q_grid[{kind.label()}]",
        samples=max(n, 1),
        worst_violation=float(worst),
        witness=witness,
        tolerance=tol,
    )


def _expectation(kind, delta, cfg, tol, sample):
    """<grad f(x), x> >= sigma_max(x) - 2*delta on every sample.

    Convexity and the gap imply it: <grad f(x), x> >= f(x) - f(0) >=
    sigma_max(x) - 2*delta.  So a failure here without an empirical_gap
    failure means f is not convex."""
    X, _, G, _ = sample
    viol = X.max(axis=1) - 2.0 * delta
    for block in _blocks(*X.shape):
        viol[block] -= (G[block] * X[block]).sum(axis=1)
    return _worst_row("expectation_guarantee", kind, cfg, viol, X, tol,
                      delta=delta)


def empirical_gap(kind: SmoothingKind, alpha_max: float,
                  cfg: SamplerConfig, tol: float = 1e-9) -> CertReport:
    """f - sigma_max inside deviation_interval over probe rays and samples.

    Scans the origin, every scaled probe ray up to alpha_max, and the
    configured random points.  The violation is how far f - sigma_max
    leaves the kind's exact interval [lo, hi], so an overestimating kind
    (lo = 0) that dips below the max fails as one that rises too far
    above it does.  The estimate, a lower estimate of sup |f - sigma_max|,
    is reported beside gap_bound, the exact max |f - sigma_max|.
    """
    if not 0.0 < alpha_max < math.inf:
        raise ValueError("alpha_max must be positive and finite")
    _check_tolerance("tol", tol)
    X = _sample_points(cfg, kind.d, np.random.default_rng(cfg.seed))
    vals = np.empty(len(X))  # the scan reads no gradients
    for block in _blocks(*X.shape):
        vals[block] = value_grad_many(kind, X[block])[0]
    return _empirical_gap(kind, alpha_max, cfg, tol, (X, vals))


def _empirical_gap(kind, alpha_max, cfg, tol, sample):
    """The empirical_gap report on an evaluated sample.

    The origin, the 80 scales of each probe ray and the sample are scanned
    in that order, one ray per batch, so memory is O(80 d), not O(80 d^2).
    """
    d = kind.d
    alphas = np.geomspace(1e-3, alpha_max, 80)
    lo, hi = deviation_interval(kind)

    def rays():
        yield np.zeros((1, d))
        for j in range(1, d + 1):
            P = np.zeros((80, d))
            P[:, :j] = (alphas / j)[:, None]
            yield P

    def worst(P, values):
        dev = values - P.max(axis=1)
        viol = np.maximum(lo - dev, dev - hi)
        k = int(np.argmax(viol))
        return viol[k], P[k].copy(), np.abs(dev).max()

    best = [worst(P, value_grad_many(kind, P)[0]) for P in rays()]
    X, vals = sample[:2]
    best.append(worst(X, vals))
    viols, witnesses, devs = zip(*best)
    # the first maximum of the whole scan, as one argmax over it would pick
    k = int(np.argmax(viols))
    estimate, bound = float(np.max(devs)), gap_bound(kind)
    return CertReport(
        name=f"empirical_gap[{kind.label()}]",
        samples=1 + 80 * d + len(X),
        worst_violation=float(viols[k]),
        witness=witnesses[k],
        tolerance=tol,
        seed=cfg.seed,
        details={"estimate": estimate, "gap_bound": bound},
    )


def check_gradient_structure(kind: SmoothingKind, j: int,
                             tol: float = 1e-9) -> CertReport:
    """Two-block gradient structure along the probe ray alpha * x_j.

    The gradient must have its first j coordinates equal and its last d-j
    coordinates equal, and the leading block weight must rise toward 1/j
    as alpha grows through 0.5, 1, 10 and 100.  The scales are evaluated
    in one batch.
    """
    d = kind.d
    alphas = (0.5, 1.0, 10.0, 100.0)
    points = [structured_point(j, d, a) for a in alphas]
    G = value_grad_many(kind, np.array(points).reshape(-1, d))[1]
    worst, witness = -math.inf, None
    lam_prev = None
    lams = []
    for x, g in zip(points, G):
        block_dev = float(np.abs(g[:j] - g[:j].mean()).max())
        if j < d:
            block_dev = max(block_dev, float(np.abs(g[j:] - g[j:].mean()).max()))
        lam = float(g[:j].mean())
        lams.append(lam)
        viol = max(block_dev, lam - 1.0 / j)
        if lam_prev is not None:
            viol = max(viol, lam_prev - lam)  # monotone nondecreasing
        lam_prev = lam
        if viol > worst:
            worst, witness = viol, x
    return CertReport(
        name=f"gradient_structure[{kind.label()},j={j}]",
        samples=len(alphas),
        worst_violation=float(worst),
        witness=witness,
        tolerance=tol,
        details={"block_weights": lams, "alphas": list(alphas)},
    )


def _permutation(kind, cfg, tol, sample):
    """f(Px) = f(x) and grad f(Px) = P grad f(x), one random P per sample,
    drawn from the generator state after the sample, a row block at a
    time."""
    X, vals, G, state = sample
    rng = np.random.default_rng(cfg.seed)
    rng.bit_generator.state = state
    viol = np.empty(len(X))
    for block in _blocks(*X.shape):
        perms = np.argsort(rng.random((block.stop - block.start, kind.d)),
                           axis=1)
        vals_p, Gp = value_grad_many(
            kind, np.take_along_axis(X[block], perms, axis=1))
        Gp = np.abs(Gp - np.take_along_axis(G[block], perms, axis=1))
        viol[block] = np.maximum(np.abs(vals_p - vals[block]), Gp.max(axis=1))
    return _worst_row("permutation_invariance", kind, cfg, viol, X, tol)


def telescoping_sum(kind: SmoothingKind, indices, alpha: float) -> float:
    """Sum of (1/4) ||grad f(a x_{j_l}) - grad f(a x_{j_{l-1}})||_1^2.

    Along an optimal partition chain and for large alpha this approaches
    the maximal partition sum from below the empirical gap.
    """
    idx = list(indices)
    grads = [value_grad(kind, structured_point(j, kind.d, alpha)).gradient
             for j in idx]
    return float(sum(0.25 * np.abs(b - a).sum() ** 2
                     for a, b in zip(grads, grads[1:])))


def run_certificate_suite(kind: SmoothingKind, seed: int = 20250808,
                          count: int = 10_000, tol: float = 1e-9) -> list:
    """The full deterministic certificate battery for one smoothing kind.

    The sampled checks share one draw and one evaluation of it.  tol
    applies to every report but two: smoothness uses 1e-8 and the
    finite-difference gradients 1e-6.  tol must be finite, since an
    infinite one would pass every check, and nonnegative, since a negative
    one would fail every check.
    """
    _check_tolerance("tol", tol)
    d = kind.d
    cfg = SamplerConfig(seed=seed, count=count, distribution="mixed")
    sample = _evaluated_sample(kind, cfg)
    reports = [
        _smoothness(kind, cfg, 1e-8, sample),
        _grad_in_simplex(kind, cfg, tol, sample),
        q_certificate_grid(kind, tol=tol),
        _expectation(kind, gap_bound(kind), cfg, tol, sample),
        _empirical_gap(kind, 1e4, cfg, tol, sample),
        _permutation(kind, cfg, tol, sample),
    ]
    rng = np.random.default_rng(seed + 2)
    for x in rng.standard_normal((3, d)):
        reports.append(check_gradient_fd(kind, x))
    for j in range(1, d + 1):
        reports.append(check_gradient_structure(kind, j, tol=tol))
    return reports
