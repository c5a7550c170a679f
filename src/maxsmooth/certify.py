"""Numerical certificates for smoothing properties.

Each check samples points or pairs deterministically from a seeded config,
measures the worst violation of one inequality, and reports it together
with the witness attaining it.  Negative slack means the inequality holds
with room to spare; a report passes iff the worst violation stays at or
below its recorded tolerance.

Every check that samples from a config starts from the same fresh-seed draw,
so a suite run draws that sample once, evaluates it once and scans the
probe rays for the empirical gap once: private one-entry caches keyed on
(kind, config) hand the same read-only arrays to each check, and the suite
clears them when it returns.  The q-grid evaluates its d probe points per
scale in one batch, the finite-difference check its 2d stencil points and
the gradient-structure check its scales likewise; the ray half of a sample
comes from one row-wise shuffle that draws the generator stream of one
permutation per row.  Reports are bitwise those of the standalone checks
and of single-point evaluation, because `_point` returns bitwise what
`_rows` returns and rows are evaluated independently.
"""

from dataclasses import dataclass, field
import functools
import json
import math

import numpy as np

from .bounds import gamma
from .core import as_point, structured_point
from .smoothings import (
    SmoothingKind,
    gap_bound,
    max_deviation,
    value_grad,
    value_grad_many,
)

DISTRIBUTIONS = ("gaussian", "structured-rays", "mixed")


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: seed, sample count, scale, distribution."""

    seed: int
    count: int = 1000
    scale: float = 1.0
    distribution: str = "gaussian"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")


@dataclass
class CertReport:
    """Outcome of one numerical certificate."""

    name: str
    samples: int
    worst_violation: float
    witness: object
    passed: bool
    tolerance: float
    seed: int = None
    details: dict = field(default_factory=dict)

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


def reports_to_json(reports, indent=2) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=indent)


def _sample_points(cfg: SamplerConfig, d: int, rng) -> np.ndarray:
    n = cfg.count
    if cfg.distribution == "gaussian":
        return cfg.scale * rng.standard_normal((n, d))
    if cfg.distribution == "structured-rays":
        return _sample_rays(cfg, d, n, rng)
    half = n // 2
    gauss = cfg.scale * rng.standard_normal((n - half, d))
    rays = _sample_rays(cfg, d, half, rng) if half else np.zeros((0, d))
    return np.vstack([gauss, rays])


def _sample_rays(cfg, d, n, rng):
    js = rng.integers(1, d + 1, size=n)
    alphas = cfg.scale * 10.0 ** rng.uniform(-2.0, 2.0, size=n)
    # one shuffle of every row draws, in row order, what one
    # rng.permutation(d) per row draws; row r puts alpha / j on the first j
    # columns of its permutation and zero on the rest, so every cell is set
    perms = rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
    lead = np.where(np.arange(d) < js[:, None], (alphas / js)[:, None], 0.0)
    X = np.empty((n, d))
    np.put_along_axis(X, perms, lead, axis=1)
    return X


@functools.lru_cache(maxsize=1)
def _fresh_sample(cfg: SamplerConfig, d: int):
    """The sample drawn from default_rng(cfg.seed), read-only, and the
    generator state right after the draw."""
    rng = np.random.default_rng(cfg.seed)
    X = _sample_points(cfg, d, rng)
    X.flags.writeable = False
    return X, rng.bit_generator.state


def _sample_and_rng(cfg: SamplerConfig, d: int):
    """The fresh-seed sample and a generator continuing after its draw."""
    X, state = _fresh_sample(cfg, d)
    rng = np.random.default_rng(cfg.seed)
    rng.bit_generator.state = state
    return X, rng


@functools.lru_cache(maxsize=1)
def _evaluated_sample(kind: SmoothingKind, cfg: SamplerConfig):
    """The fresh-seed sample with its values and gradients, all read-only.

    Rows are evaluated independently, so they are bitwise the rows of any
    batch the sample is part of.
    """
    X = _fresh_sample(cfg, kind.d)[0]
    vals, G = value_grad_many(kind, X)
    vals.flags.writeable = G.flags.writeable = False
    return X, vals, G


def _sample_pairs(cfg: SamplerConfig, d: int):
    """Pairs (x, y): mostly nearby perturbations, every fourth independent.

    Close pairs are the discriminating ones for gradient-Lipschitz checks;
    far pairs guard the large-separation regime.
    """
    X, rng = _sample_and_rng(cfg, d)
    rho = cfg.scale * 10.0 ** rng.uniform(-3.0, 0.5, size=cfg.count)
    U = rng.standard_normal((cfg.count, d))
    independent = np.arange(cfg.count) % 4 == 0
    Y = X + rho[:, None] * U
    if independent.any():
        Y[independent] = _sample_points(
            SamplerConfig(seed=cfg.seed, count=int(independent.sum()),
                          scale=cfg.scale, distribution=cfg.distribution),
            d, rng)
    return X, Y


def check_smoothness(kind: SmoothingKind, cfg: SamplerConfig,
                     tol: float = 1e-8) -> CertReport:
    """Sampled gradient-Lipschitz check: ||grad(x)-grad(y)||_1 <= ||x-y||_inf.

    The violation is normalized by max(1, ||x-y||_inf); coincident pairs
    are skipped as trivially satisfied.
    """
    X, Y = _sample_pairs(cfg, kind.d)
    GX = _evaluated_sample(kind, cfg)[2]
    # both differences overwrite the fresh gradients of Y, so no count x d
    # temporaries stand beside the sample and its gradients
    _, D = value_grad_many(kind, Y)
    dual = np.abs(np.subtract(GX, D, out=D), out=D).sum(axis=1)
    primal = np.abs(np.subtract(X, Y, out=D), out=D).max(axis=1)
    keep = primal > 0.0
    raw = dual[keep] - primal[keep]
    normalized = raw / np.maximum(1.0, primal[keep])
    k = int(np.argmax(normalized))
    worst = float(normalized[k])
    # copies of the one witness row, not of the kept count x d arrays
    i = np.flatnonzero(keep)[k]
    witness = (X[i].copy(), Y[i].copy())
    return CertReport(
        name=f"smoothness[{kind.label()}]",
        samples=int(keep.sum()),
        worst_violation=worst,
        witness=witness,
        passed=worst <= tol,
        tolerance=tol,
        seed=cfg.seed,
        details={"raw_violation": float(raw[k]), "skipped": int((~keep).sum())},
    )


def check_gradient_fd(kind: SmoothingKind, x, h: float = 1e-5,
                      tol: float = 1e-6) -> CertReport:
    """Validate the analytic gradient coordinate-wise by finite differences.

    Central differences by default.  For the piecewise-quadratic kinds the
    projection's active set is compared at x +/- step per coordinate; at a
    seam the check switches to a second-order one-sided stencil taken from
    whichever side keeps the active set of x (exact on quadratic pieces).
    The 2d points x +/- step are evaluated in one batch; the one-sided
    points of the few seam coordinates one at a time, only where needed.
    """
    if h < 1e-10:
        raise ValueError("finite-difference step below 1e-10 is all roundoff")
    x = np.asarray(x, dtype=np.float64)
    ev = value_grad(kind, x)
    step = h * (1.0 + float(np.abs(x).max()))
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
        passed=worst <= tol,
        tolerance=tol,
        details={"kink_coordinates": kink_coords, "skipped_coordinates": skipped,
                 "step": step, "worst_coordinate": k},
    )


def check_grad_in_simplex(kind: SmoothingKind, cfg: SamplerConfig,
                          tol: float = 1e-9) -> CertReport:
    """All sampled gradients are nonnegative and sum to one within tol."""
    X, _, G = _evaluated_sample(kind, cfg)
    viol = np.maximum(-G.min(axis=1), np.abs(G.sum(axis=1) - 1.0))
    k = int(np.argmax(viol))
    worst = float(viol[k])
    return CertReport(
        name=f"grad_in_simplex[{kind.label()}]",
        samples=cfg.count,
        worst_violation=worst,
        witness=X[k].copy(),
        passed=worst <= tol,
        tolerance=tol,
        seed=cfg.seed,
    )


def q_certificate_grid(kind: SmoothingKind, alphas=(0.1, 1.0, 10.0, 100.0),
                       tol: float = 1e-9) -> CertReport:
    """Worst -Q over all index pairs and the given scales.

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
    worst, witness, n = -math.inf, None, 0
    for alpha in alphas if d > 1 else ():
        if alpha <= 0:
            raise ValueError("alpha must be positive")
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
        passed=worst <= tol,
        tolerance=tol,
    )


def check_expectation_guarantee(kind: SmoothingKind, delta: float,
                                cfg: SamplerConfig,
                                tol: float = 1e-9) -> CertReport:
    """<grad f(x), x> >= sigma_max(x) - 2*delta on every sample."""
    X, _, G = _evaluated_sample(kind, cfg)
    viol = X.max(axis=1) - 2.0 * delta - (G * X).sum(axis=1)
    k = int(np.argmax(viol))
    worst = float(viol[k])
    return CertReport(
        name=f"expectation_guarantee[{kind.label()}]",
        samples=cfg.count,
        worst_violation=worst,
        witness=X[k].copy(),
        passed=worst <= tol,
        tolerance=tol,
        seed=cfg.seed,
        details={"delta": delta},
    )


def empirical_gap(kind: SmoothingKind, alpha_max: float,
                  cfg: SamplerConfig, tol: float = 1e-9) -> CertReport:
    """Lower estimate of sup |f - sigma_max| over probe rays and samples.

    Scans the origin, every scaled probe ray up to alpha_max, and the
    configured random points.  The estimate is compared against the exact
    deviation formula for the kind; for quad at d >= 4 that formula exceeds
    gap_bound because the shift no longer centers the dual range.
    """
    if not 0.0 < alpha_max < math.inf:
        raise ValueError("alpha_max must be positive and finite")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    estimate, witness, samples = _gap_scan(kind, alpha_max, cfg)
    bound = max_deviation(kind)
    return CertReport(
        name=f"empirical_gap[{kind.label()}]",
        samples=samples,
        worst_violation=estimate - bound,
        witness=witness.copy(),
        passed=estimate - bound <= tol,
        tolerance=tol,
        seed=cfg.seed,
        details={"estimate": estimate, "deviation_bound": bound,
                 "gap_bound": gap_bound(kind)},
    )


@functools.lru_cache(maxsize=1)
def _gap_scan(kind: SmoothingKind, alpha_max: float, cfg: SamplerConfig):
    """(estimate, read-only witness, samples) of the empirical_gap scan.

    The origin, the 80 scales of each probe ray and the sample are scanned
    in that order, one ray per batch, so memory is O(80 d), not O(80 d^2).
    """
    d = kind.d
    alphas = np.geomspace(1e-3, alpha_max, 80)

    def rays():
        yield np.zeros((1, d))
        for j in range(1, d + 1):
            P = np.zeros((80, d))
            P[:, :j] = (alphas / j)[:, None]
            yield P

    def worst(P, values):
        dev = np.abs(values - P.max(axis=1))
        k = int(np.argmax(dev))
        return dev[k], P[k].copy()

    best = [worst(P, value_grad_many(kind, P)[0]) for P in rays()]
    X, vals, _ = _evaluated_sample(kind, cfg)
    best.append(worst(X, vals))
    # the first maximum of the whole scan, as one argmax over it would pick
    estimate, witness = best[int(np.argmax([dev for dev, _ in best]))]
    witness.flags.writeable = False
    return float(estimate), witness, 1 + 80 * d + len(X)


def check_gradient_structure(kind: SmoothingKind, j: int, alphas,
                             tol: float = 1e-9) -> CertReport:
    """Two-block gradient structure along the probe ray alpha * x_j.

    The gradient must have its first j coordinates equal and its last d-j
    coordinates equal, and the leading block weight must rise toward 1/j
    as alpha grows.  The scales are evaluated in one batch.
    """
    d = kind.d
    if not 1 <= j <= d:
        raise ValueError(f"j must lie in 1..{d}")
    alphas = sorted(alphas)
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
        passed=worst <= tol,
        tolerance=tol,
        details={"block_weights": lams, "alphas": list(alphas)},
    )


def check_permutation_invariance(kind: SmoothingKind, cfg: SamplerConfig,
                                 tol: float = 1e-9) -> CertReport:
    """f(Px) = f(x) and grad f(Px) = P grad f(x), one random P per sample."""
    X, rng = _sample_and_rng(cfg, kind.d)
    perms = np.argsort(rng.random((cfg.count, kind.d)), axis=1)
    Xp = np.take_along_axis(X, perms, axis=1)
    _, vals, G = _evaluated_sample(kind, cfg)
    vals_p, Gp = value_grad_many(kind, Xp)
    viol = np.maximum(np.abs(vals_p - vals),
                      np.abs(Gp - np.take_along_axis(G, perms, axis=1)).max(axis=1))
    k = int(np.argmax(viol))
    worst = float(viol[k])
    return CertReport(
        name=f"permutation_invariance[{kind.label()}]",
        samples=cfg.count,
        worst_violation=worst,
        witness=X[k].copy(),
        passed=worst <= tol,
        tolerance=tol,
        seed=cfg.seed,
    )


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


def telescoping_certificate(kind: SmoothingKind, cfg: SamplerConfig,
                            alpha: float = 1e4) -> CertReport:
    """Partition-sum witness: the chain sum must not exceed the measured gap.

    Any 1-smooth convex approximation obeys sum <= sup-deviation in the
    large-alpha limit; at finite alpha the comparison carries a 10/alpha
    budget (the block weights converge at rate 1/alpha).  The sum must
    also come out near the maximal partition value itself.
    """
    cert = gamma(kind.d)
    total = telescoping_sum(kind, cert.indices, alpha)
    gap_est = empirical_gap(kind, alpha, cfg).details["estimate"]
    budget = 10.0 / alpha
    worst = max(total - gap_est, cert.value - total)
    return CertReport(
        name=f"telescoping[{kind.label()}]",
        samples=len(cert.indices),
        worst_violation=float(worst),
        witness=cert.indices,
        passed=worst <= budget,
        tolerance=budget,
        seed=cfg.seed,
        details={"alpha": alpha, "finite_alpha_budget": budget,
                 "chain_sum": total, "partition_value": cert.value,
                 "gap_estimate": gap_est},
    )


def run_certificate_suite(kind: SmoothingKind, seed: int = 20250808,
                          count: int = 10_000, tol_smooth: float = 1e-8,
                          tol: float = 1e-9, tol_fd: float = 1e-6) -> list:
    """The full deterministic certificate battery for one smoothing kind.

    The sampled checks share one draw, one evaluation of it and one gap
    scan; the shared arrays are released when the suite returns.  The
    tolerances must be finite: an infinite one would pass every check.
    """
    for name, value in (("tol", tol), ("tol_smooth", tol_smooth),
                        ("tol_fd", tol_fd)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    d = kind.d
    cfg = SamplerConfig(seed=seed, count=count, scale=1.0, distribution="mixed")
    try:
        reports = [
            check_smoothness(kind, cfg, tol=tol_smooth),
            check_grad_in_simplex(kind, cfg, tol=tol),
            q_certificate_grid(kind, tol=tol),
            check_expectation_guarantee(kind, gap_bound(kind), cfg, tol=tol),
            empirical_gap(kind, 1e4, cfg, tol=tol),
            check_permutation_invariance(kind, cfg, tol=tol),
            telescoping_certificate(kind, cfg),
        ]
    finally:
        for cached in (_fresh_sample, _evaluated_sample, _gap_scan):
            cached.cache_clear()
    rng = np.random.default_rng(seed + 2)
    for x in rng.standard_normal((3, d)):
        reports.append(check_gradient_fd(kind, x, tol=tol_fd))
    for j in range(1, d + 1):
        reports.append(check_gradient_structure(
            kind, j, alphas=(0.5, 1.0, 10.0, 100.0), tol=tol))
    return reports
