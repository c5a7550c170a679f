"""Minimizing a pointwise maximum of smooth convex components.

The max is replaced by a scaled smoothing of the coordinate-wise max and
the resulting smooth composite is minimized with a constant-step
accelerated gradient method; a projection-free subgradient descent on the
raw max objective serves as the baseline.  Problem instances load from a
small JSON schema.  A solve returns a summary; the smoothed solver writes
its per-iteration rows to a CSV as they are produced, so its memory does
not grow with the iteration count.
"""

from contextlib import nullcontext
from dataclasses import dataclass, field
import csv
import json
import math

import numpy as np

from .smoothings import (
    SmoothingKind,
    _point,
    c_constant,
    gap_bound,
    value_grad,
)


class ProblemSchemaError(ValueError):
    """Raised when a problem file does not match the expected schema."""


@dataclass(frozen=True)
class AffineComponent:
    a: np.ndarray
    b: float

    def value_grad(self, y):
        return float(self.a @ y + self.b), self.a


@dataclass(frozen=True)
class QuadraticComponent:
    """Convex quadratic 0.5 y'Hy + a'y + b with H symmetric PSD."""

    H: np.ndarray
    a: np.ndarray
    b: float

    def value_grad(self, y):
        Hy = self.H @ y
        return float(0.5 * y @ Hy + self.a @ y + self.b), Hy + self.a


@dataclass
class MaxOfSmoothProblem:
    """Components g_i with shared smoothness L and Lipschitz M bounds."""

    components: list
    n: int
    L: float
    M: float
    optimal_value: float = None
    reference_point: np.ndarray = None
    y0: np.ndarray = None
    name: str = ""

    def __post_init__(self):
        if not self.components:
            raise ProblemSchemaError("problem needs at least one component")
        if self.M <= 0 or self.L < 0:
            raise ProblemSchemaError("need M > 0 and L >= 0")
        # fast path when every component is affine: one stacked matvec
        if all(isinstance(c, AffineComponent) for c in self.components):
            self._A = np.vstack([c.a for c in self.components])
            self._b = np.array([c.b for c in self.components])
        else:
            self._A = None

    @property
    def d(self) -> int:
        return len(self.components)

    def eval_values(self, y) -> np.ndarray:
        if self._A is not None:
            return self._A @ y + self._b
        return np.array([c.value_grad(y)[0] for c in self.components])

    def eval_all(self, y):
        """Values (d,) and Jacobian (d, n) of all components at y."""
        if self._A is not None:
            return self._A @ y + self._b, self._A
        pairs = [c.value_grad(y) for c in self.components]
        return (np.array([v for v, _ in pairs]),
                np.vstack([g for _, g in pairs]))

    def objective(self, y) -> float:
        return float(self.eval_values(y).max())


@dataclass
class SolverTrace:
    """Summary of one solve: iteration count, best objective seen, its
    point, oracle accounting and stop reason.  It holds no per-iteration
    history."""

    iterations: int = 0
    best_objective: float = math.inf
    final_point: np.ndarray = None
    oracle_calls: int = 0
    stop_reason: str = ""
    metadata: dict = field(default_factory=dict)


def composite_value_grad(p: MaxOfSmoothProblem, y, eps: float,
                         kind: SmoothingKind):
    """Centered smoothed composite value and gradient at y.

    The composite is (1/s) (f(s g(y)) - shift) with s = 2 delta / eps and
    delta the kind's gap bound.  The shift range/2 - offset is zero for the
    centered kinds and range/2 for the others, so the composite brackets
    max_i g_i symmetrically within eps/2.  The gradient is the
    Jacobian-weighted simplex gradient of f.
    """
    _check_eps(eps)
    if kind.d != p.d:
        raise ValueError(f"kind dimension {kind.d} != component count {p.d}")
    s = _composite_scale(kind, eps)
    vals, jac = p.eval_all(y)
    ev = value_grad(kind, s * vals)
    value = (ev.value - (0.5 * kind.range - kind.offset)) / s
    return value, jac.T @ ev.gradient


def _check_eps(eps):
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")


def _composite_scale(kind: SmoothingKind, eps: float) -> float:
    """Argument scale 2*delta/eps; a zero-gap smoothing (d=1) is exact and
    needs no scaling."""
    s = 2.0 * gap_bound(kind) / eps
    return s if s > 0.0 else 1.0


def smoothed_budget(p: MaxOfSmoothProblem, eps: float, kind: SmoothingKind,
                    distance: float) -> int:
    """A-priori iteration budget sqrt(L_F R^2 / (eps/2)) for the composite."""
    L_F = p.L + 2.0 * gap_bound(kind) * p.M ** 2 / eps
    budget = math.sqrt(L_F * distance ** 2 / (eps / 2.0))
    if not budget < math.inf:
        raise ValueError("eps is too small: the iteration budget overflows")
    return max(1, int(math.ceil(budget)))


def solve_smoothed(p: MaxOfSmoothProblem, eps: float, kind: SmoothingKind,
                   budget_factor: int = 4, max_iter: int = None,
                   out=None) -> SolverTrace:
    """Accelerated gradient descent on the smoothed composite.

    Starts from the problem's y0, or from the origin when it has none.
    Constant step 1/L_F with the standard momentum sequence
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2.  Stops as soon as the best true
    objective seen is within eps of the problem's known optimum
    ("target_reached"), or after budget_factor times the a-priori budget
    (measured from the reference point) when the problem records one
    ("budget_exhausted"), or after a smaller max_iter ("max_iter").  A
    non-finite iterate, objective or smoothed value stops it as
    "diverged".  A quadratic kind with c below c_constant(d) is not
    1-smooth, so the step and the budget would have no guarantee: it
    raises ValueError.  With out, once every argument has passed its
    check, the trace CSV at that path gets its header and then one row per
    iteration as the row is produced.
    """
    _check_eps(eps)
    if budget_factor < 1:
        raise ValueError("budget_factor must be >= 1")
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if kind.is_quadratic and kind.d >= 2 \
            and kind.regularizer_weight < c_constant(kind.d):
        raise ValueError(f"{kind.label()} is not 1-smooth: c must be at "
                         f"least c_d = {c_constant(kind.d)}")
    y0 = np.zeros(p.n) if p.y0 is None else np.asarray(p.y0, dtype=np.float64)
    delta = gap_bound(kind)
    L_F = p.L + 2.0 * delta * p.M ** 2 / eps
    if L_F <= 0.0:  # single exact component with L = 0: any step is valid
        L_F = 1.0
    s = _composite_scale(kind, eps)
    shift = 0.5 * kind.range - kind.offset  # centers the deviation interval

    budget = None
    if p.reference_point is not None:
        R = float(np.linalg.norm(y0 - p.reference_point))
        budget = smoothed_budget(p, eps, kind, R)
        cap, cap_reason = budget_factor * budget, "budget_exhausted"
        if max_iter is not None and max_iter < cap:
            cap, cap_reason = max_iter, "max_iter"
    elif max_iter is not None:
        R = None
        cap, cap_reason = max_iter, "max_iter"
    else:
        raise ValueError("need a problem reference_point or max_iter")

    trace = SolverTrace(metadata={
        "method": "smoothed_accelerated", "kind": kind.label(), "eps": eps,
        "L_F": L_F, "delta": delta, "budget": budget,
        "budget_factor": budget_factor,
        "distance_to_reference": R,
    })
    target = None if p.optimal_value is None else p.optimal_value + eps

    x_prev = y0.copy()
    v = y0.copy()
    t_k = 1.0
    best = math.inf
    best_point = y0.copy()
    calls = 0
    fh = open(out, "w", newline="") if out else None
    # a diverging solve overflows before it is stopped; its stop reason,
    # not a numpy warning per iteration, reports that
    with fh or nullcontext(), np.errstate(over="ignore", invalid="ignore"):
        write = csv.writer(fh).writerow if fh else None
        if write:
            write(["iteration", "objective", "smoothed_objective",
                   "grad_norm", "best_objective", "calls"])
        for k in range(1, cap + 1):
            vals, jac = p.eval_all(v)
            calls += 1
            _, lam = _point(kind, s * vals)
            grad = jac.T @ lam
            obj_v = float(vals.max())
            if obj_v < best:
                best, best_point = obj_v, v.copy()

            x_new = v - grad / L_F
            vals_x = p.eval_values(x_new)
            calls += 1
            obj_x = float(vals_x.max())
            if obj_x < best:
                best, best_point = obj_x, x_new.copy()
            sv_x, _ = _point(kind, s * vals_x)
            smooth_x = (float(sv_x) - shift) / s

            if write:
                # the Euclidean norm as np.linalg.norm computes it for a
                # 1-D real vector, without its dispatch
                write([k, f"{obj_x:.17g}", f"{smooth_x:.17g}",
                       f"{math.sqrt(grad.dot(grad)):.17g}", f"{best:.17g}",
                       calls])
            if not (math.isfinite(obj_x) and math.isfinite(smooth_x)
                    and np.isfinite(x_new).all()):
                trace.stop_reason = "diverged"
                break
            if target is not None and best <= target:
                trace.stop_reason = "target_reached"
                break

            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
            v = x_new + ((t_k - 1.0) / t_new) * (x_new - x_prev)
            x_prev = x_new
            t_k = t_new
        else:
            trace.stop_reason = cap_reason

    trace.iterations, trace.best_objective = k, best
    trace.final_point = best_point
    trace.oracle_calls = calls
    return trace


def solve_subgradient(p: MaxOfSmoothProblem, iters: int,
                      target: float = None) -> SolverTrace:
    """Subgradient descent on the raw max objective with step 0.1/sqrt(t).

    Starts from the problem's y0, or from the origin when it has none.
    The subgradient is the gradient of the achieving component, smallest
    index on ties.  Stops early once the best objective reaches target.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    y = np.zeros(p.n) if p.y0 is None else np.array(p.y0, dtype=np.float64)
    trace = SolverTrace(metadata={"method": "subgradient", "iters": iters})
    best = math.inf
    best_point = y.copy()
    for t in range(1, iters + 1):
        vals, jac = p.eval_all(y)
        i_star = int(vals.argmax())  # argmax returns the smallest index
        obj = float(vals[i_star])
        g = jac[i_star]
        if obj < best:
            best, best_point = obj, y.copy()
        if target is not None and best <= target:
            trace.stop_reason = "target_reached"
            break
        y = y - (0.1 / math.sqrt(t)) * g
    else:
        trace.stop_reason = "max_iter"
    # one oracle call per iteration
    trace.iterations = trace.oracle_calls = t
    trace.best_objective = best
    trace.final_point = best_point
    return trace


def load_problem(source) -> MaxOfSmoothProblem:
    """Build a problem from a JSON file path, file object, or dict.

    Schema: {"n": int, "components": [{"type": "affine", "a": [...], "b": f}
    | {"type": "quadratic", "H": [[...]], "a": [...], "b": f}], "L": f,
    "M": f} with optional "optimal_value", "reference_point", "y0", "name".
    n must be a positive integer (not a bool), every number must be
    finite, and a quadratic H symmetric positive semidefinite with largest
    eigenvalue at most L, each up to 1e-12 times max(1, largest |entry|).
    An affine a must have Euclidean norm at most M, up to 1e-12 times
    max(1, M); for a quadratic component M is only a local bound and is
    not checked.
    """
    if isinstance(source, dict):
        raw = source
    elif hasattr(source, "read"):
        raw = json.load(source)
    else:
        with open(source) as fh:
            raw = json.load(fh)

    def finite(key, value):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{key} must be finite")
        return value

    def opt_vec(key):
        if raw.get(key) is None:
            return None
        v = finite(key, np.asarray(raw[key], dtype=np.float64))
        if v.shape != (n,):
            raise ValueError(f"{key!r} must have length {n}")
        return v

    try:
        n = raw["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer")
        L = finite("L", float(raw["L"]))
        M = finite("M", float(raw["M"]))
        comps = []
        for k, entry in enumerate(raw["components"]):
            a = finite(f"components[{k}].a",
                       np.asarray(entry["a"], dtype=np.float64))
            if a.shape != (n,):
                raise KeyError(f"component 'a' must have length {n}")
            b = finite(f"components[{k}].b", float(entry["b"]))
            if entry["type"] == "affine":
                norm = float(np.linalg.norm(a))
                if norm - M > 1e-12 * max(1.0, M):
                    raise ValueError(
                        f"components[{k}].a has norm {norm:.17g} "
                        f"above M = {M:.17g}")
                comps.append(AffineComponent(a=a, b=b))
            elif entry["type"] == "quadratic":
                H = finite(f"components[{k}].H",
                           np.asarray(entry["H"], dtype=np.float64))
                if H.shape != (n, n):
                    raise KeyError(f"component 'H' must be {n}x{n}")
                # relative to the entries, so rounding in a computed
                # B @ B.T passes while a genuine defect does not
                tol = 1e-12 * max(1.0, float(np.abs(H).max()))
                if np.abs(H - H.T).max() > tol:
                    raise ValueError(f"components[{k}].H must be symmetric")
                eigs = np.linalg.eigvalsh(H)
                if eigs[0] < -tol:
                    raise ValueError(
                        f"components[{k}].H must be positive semidefinite")
                if eigs[-1] - L > tol:
                    raise ValueError(
                        f"components[{k}].H has largest eigenvalue "
                        f"{eigs[-1]:.17g} above L = {L:.17g}")
                comps.append(QuadraticComponent(H=H, a=a, b=b))
            else:
                raise KeyError(f"unknown component type {entry['type']!r}")
        optimal_value = (None if raw.get("optimal_value") is None
                         else finite("optimal_value", float(raw["optimal_value"])))
        reference_point = opt_vec("reference_point")
        y0 = opt_vec("y0")
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemSchemaError(f"bad problem schema: {exc}") from exc

    return MaxOfSmoothProblem(
        components=comps, n=n, L=L, M=M, optimal_value=optimal_value,
        reference_point=reference_point, y0=y0,
        name=str(raw.get("name", "")),
    )
