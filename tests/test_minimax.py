"""Minimax solver tests: schema loading, composite correctness against
finite differences and the epsilon/2 sandwich, accelerated convergence
within its envelope, and the subgradient baseline."""

import json
import math
from importlib import resources

import numpy as np
import pytest
from scipy.optimize import linprog

from maxsmooth.minimax import (
    AffineComponent,
    MaxOfSmoothProblem,
    ProblemSchemaError,
    QuadraticComponent,
    composite_value_grad,
    load_problem,
    smoothed_budget,
    solve_smoothed,
    solve_subgradient,
)
from maxsmooth.smoothings import (
    SmoothingKind,
    center_offset,
    gap_bound,
    value_grad_many,
)


# L = 0 understates the curvature H = 1e6 I: load_problem rejects the file,
# and built directly the problem makes the constant step overshoot, so the
# iterates grow until the scaled values overflow
STIFF = {"n": 2, "L": 0.0, "M": 1.0, "y0": [1.0, -1.0], "components": [
    {"type": "quadratic", "H": [[1e6, 0.0], [0.0, 1e6]], "a": a, "b": 0.0}
    for a in ([1.0, 0.0], [0.0, 1.0])]}


def stiff_problem():
    """STIFF built directly, bypassing the file checks."""
    comps = [QuadraticComponent(H=np.array(c["H"]), a=np.array(c["a"]),
                                b=c["b"]) for c in STIFF["components"]]
    return MaxOfSmoothProblem(components=comps, n=2, L=STIFF["L"],
                              M=STIFF["M"], y0=np.array(STIFF["y0"]))


# |f| near 1e8: rounding alone moves a 1e-6 central difference by ~1e-3
BIG_AFFINE = {"n": 2, "L": 0.0, "M": 2e8, "components": [
    {"type": "affine", "a": [s * 1e8, 1.0], "b": 0.0} for s in (1.0, -1.0)]}
BIG_QUADRATIC = {"n": 2, "L": 1e8, "M": 1e8, "components": [
    {"type": "quadratic", "H": [[1e8, 0.0], [0.0, 1e8]], "a": a, "b": 0.0}
    for a in ([1.0, 0.0], [0.0, 1.0])]}


def quadratic_problem():
    """Max of six random convex quadratics in R^8; no optimum recorded."""
    rng = np.random.default_rng(3)
    n = 8
    comps = []
    for _ in range(6):
        B = rng.standard_normal((n, n)) / math.sqrt(n)
        comps.append(QuadraticComponent(H=B @ B.T, a=rng.standard_normal(n),
                                        b=float(rng.standard_normal())))
    L = max(float(np.linalg.eigvalsh(c.H)[-1]) for c in comps)
    return MaxOfSmoothProblem(components=comps, n=n, L=L, M=5.0,
                              y0=rng.uniform(-0.5, 0.5, n))


def batch_path_smoothed_rows(p, eps, kind, max_iter):
    """Trace rows of the accelerated loop written on the batch path:
    value_grad_many on one-row batches and np.linalg.norm."""
    delta = gap_bound(kind)
    L_F = p.L + 2.0 * delta * p.M ** 2 / eps
    s = 2.0 * delta / eps
    offset = center_offset(kind)
    target = None if p.optimal_value is None else p.optimal_value + eps
    y0 = p.y0 if p.y0 is not None else np.zeros(p.n)
    x_prev, v, t_k = y0.copy(), y0.copy(), 1.0
    best, calls, rows = math.inf, 0, []
    for k in range(1, max_iter + 1):
        vals, jac = p.eval_all(v)
        calls += 1
        _, G = value_grad_many(kind, (s * vals)[None, :])
        grad = jac.T @ G[0]
        best = min(best, float(vals.max()))
        x_new = v - grad / L_F
        vals_x = p.eval_values(x_new)
        calls += 1
        obj_x = float(vals_x.max())
        best = min(best, obj_x)
        sv_x, _ = value_grad_many(kind, (s * vals_x)[None, :])
        rows.append((k, obj_x, (float(sv_x[0]) - offset) / s,
                     float(np.linalg.norm(grad)), best, calls))
        if target is not None and best <= target:
            break
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        v = x_new + ((t_k - 1.0) / t_new) * (x_new - x_prev)
        x_prev, t_k = x_new, t_new
    return rows


def batch_path_subgradient_rows(p, iters, step_scale=0.1):
    """Trace rows of the subgradient loop with np.argmax and
    np.linalg.norm on every iteration."""
    y = (p.y0 if p.y0 is not None else np.zeros(p.n)).copy()
    best, rows = math.inf, []
    for t in range(1, iters + 1):
        vals, jac = p.eval_all(y)
        i = int(np.argmax(vals))
        best = min(best, float(vals[i]))
        rows.append((t, float(vals[i]), math.nan,
                     float(np.linalg.norm(jac[i])), best, t))
        y = y - (step_scale / math.sqrt(t)) * jac[i]
    return rows


def bundled(name):
    with resources.files("maxsmooth.instances").joinpath(name).open() as fh:
        return load_problem(fh)


def lp_reference(problem):
    """Exact optimum of a max-of-affines instance via linear programming."""
    A = np.vstack([c.a for c in problem.components])
    b = np.array([c.b for c in problem.components])
    d, n = A.shape
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.hstack([A, -np.ones((d, 1))]), b_ub=-b,
                  bounds=[(None, None)] * (n + 1), method="highs")
    assert res.status == 0
    return res.x[:n], float(res.x[-1])


@pytest.fixture(scope="module")
def affine20():
    return bundled("affine20.json")


@pytest.fixture(scope="module")
def absprob():
    return bundled("abs.json")


class TestProblemLoading:
    def test_bundled_instances_load(self, affine20, absprob):
        assert affine20.d == 20 and affine20.n == 10
        assert absprob.d == 2 and absprob.n == 1
        assert affine20.optimal_value is not None
        assert affine20.reference_point is not None

    def test_bundled_reference_matches_lp(self, affine20):
        _, fstar = lp_reference(affine20)
        assert fstar == pytest.approx(affine20.optimal_value, abs=1e-9)
        ref_vals = affine20.eval_values(affine20.reference_point)
        assert ref_vals.max() == pytest.approx(fstar, abs=1e-8)

    def test_quadratic_component(self):
        H = np.array([[2.0, 0.0], [0.0, 1.0]])
        comp = QuadraticComponent(H=H, a=np.zeros(2), b=1.0)
        v, g = comp.value_grad(np.array([1.0, 2.0]))
        assert v == pytest.approx(0.5 * (2 + 4) + 1)
        np.testing.assert_allclose(g, [2.0, 2.0])

    def test_schema_errors(self):
        with pytest.raises(ProblemSchemaError):
            load_problem({"n": 2, "L": 0, "M": 1, "components": []})
        with pytest.raises(ProblemSchemaError):
            load_problem({"n": 2, "L": 0, "M": 1, "components": [
                {"type": "affine", "a": [1.0], "b": 0.0}]})  # wrong length
        with pytest.raises(ProblemSchemaError):
            load_problem({"n": 1, "L": 0, "M": 1, "components": [
                {"type": "cubic", "a": [1.0], "b": 0.0}]})
        with pytest.raises(ProblemSchemaError):
            load_problem({"n": 1, "components": [
                {"type": "affine", "a": [1.0], "b": 0.0}]})  # missing L, M

    @pytest.mark.parametrize("field", [
        "L", "M", "a", "b", "H", "optimal_value", "reference_point", "y0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_numbers_rejected(self, field, bad):
        raw = {"n": 2, "L": 2.0, "M": 5.0, "optimal_value": 0.0,
               "reference_point": [0.0, 0.0], "y0": [1.0, 1.0],
               "components": [{"type": "quadratic", "H": [[2.0, 0.0], [0.0, 1.0]],
                               "a": [1.0, 0.0], "b": 0.0}]}
        load_problem(raw)  # the clean instance loads
        target = raw["components"][0] if field in ("a", "b", "H") else raw
        if field == "H":
            target["H"][1][0] = bad
        elif isinstance(target[field], list):
            target[field][1] = bad
        else:
            target[field] = bad
        with pytest.raises(ProblemSchemaError, match=f"{field} must be finite"):
            load_problem(raw)

    @pytest.mark.parametrize("H,defect", [
        ([[1.0, 0.0], [0.0, -1.0]], "positive semidefinite"),
        ([[1.0, 1e-6], [0.0, 1.0]], "symmetric"),
        ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
        ([[-1e-9, 0.0], [0.0, 0.0]], "positive semidefinite")])
    def test_quadratic_must_be_symmetric_psd(self, H, defect):
        raw = {"n": 2, "L": 1.0, "M": 1.0, "components": [
            {"type": "quadratic", "H": H, "a": [0.0, 0.0], "b": 0.0}]}
        with pytest.raises(ProblemSchemaError,
                           match=f"components\\[0\\].H must be {defect}"):
            load_problem(raw)

    def test_rounded_gram_matrices_load(self):
        # B @ B.T as generated instances write it; the rank-3 one has
        # eigenvalues that round to about -1e-15 instead of zero
        rng = np.random.default_rng(5)
        comps = []
        for cols in (8, 3):
            B = rng.standard_normal((8, cols))
            comps.append({"type": "quadratic", "H": (B @ B.T).tolist(),
                          "a": [0.0] * 8, "b": 0.0})
        assert np.linalg.eigvalsh(comps[1]["H"])[0] < 0.0
        problem = load_problem({"n": 8, "L": 30.0, "M": 1.0,
                                "components": comps})
        assert problem.d == 2

    def test_declared_L_below_curvature_rejected(self):
        with pytest.raises(ProblemSchemaError,
                           match=r"components\[0\].H has largest eigenvalue "
                                 r"1000000 above L = 0"):
            load_problem(STIFF)
        # within the PSD check's tolerance 1e-12 * 1e6 of lambda_max, or
        # above it, L is accepted; beyond the tolerance below, rejected
        for L, ok in ((1e6, True), (1e6 - 5e-7, True), (2e6, True),
                      (1e6 - 1e-5, False)):
            raw = dict(STIFF, L=L)
            if ok:
                assert load_problem(raw).L == L
            else:
                with pytest.raises(ProblemSchemaError, match="above L"):
                    load_problem(raw)

    @pytest.mark.parametrize("raw", [BIG_AFFINE, BIG_QUADRATIC])
    def test_large_coefficients_load(self, raw):
        assert load_problem(raw).d == 2


class TestComposite:
    def test_single_component_reduces_to_it(self):
        a = np.array([2.0, -1.0])
        p = MaxOfSmoothProblem(components=[AffineComponent(a=a, b=0.5)],
                               n=2, L=0.0, M=float(np.linalg.norm(a)))
        kind = SmoothingKind.lse(1)
        y = np.array([0.3, 0.7])
        v, g = composite_value_grad(p, y, eps=1e-2, kind=kind)
        assert v == pytest.approx(float(a @ y + 0.5), abs=1e-12)
        np.testing.assert_allclose(g, a, atol=1e-12)

    def test_affine_gradient_is_simplex_combination(self, affine20):
        # recompute the simplex weights from scratch with math.exp softmax
        kind = SmoothingKind.centered_lse(20)
        eps = 1e-3
        s = 2 * (math.log(20) / 2) / eps
        rng = np.random.default_rng(0)
        A = np.vstack([c.a for c in affine20.components])
        b = np.array([c.b for c in affine20.components])
        for _ in range(5):
            y = rng.standard_normal(10)
            _, g = composite_value_grad(affine20, y, eps, kind)
            z = s * (A @ y + b)
            e = np.array([math.exp(t) for t in z - z.max()])
            lam = e / e.sum()
            assert lam.min() >= 0 and lam.sum() == pytest.approx(1.0)
            np.testing.assert_allclose(A.T @ lam, g, atol=1e-10)

    @pytest.mark.parametrize("kindname", ["lse", "clse", "quad"])
    def test_gradient_matches_finite_differences(self, affine20, kindname):
        kind = {"lse": SmoothingKind.lse, "clse": SmoothingKind.centered_lse,
                "quad": SmoothingKind.quadratic}[kindname](20)
        rng = np.random.default_rng(1)
        eps = 1e-2
        h = 1e-6
        for _ in range(3):
            y = rng.standard_normal(10) * 0.5
            _, g = composite_value_grad(affine20, y, eps, kind)
            fd = np.zeros(10)
            for i in range(10):
                e = np.zeros(10)
                e[i] = h
                vp, _ = composite_value_grad(affine20, y + e, eps, kind)
                vm, _ = composite_value_grad(affine20, y - e, eps, kind)
                fd[i] = (vp - vm) / (2 * h)
            np.testing.assert_allclose(fd, g, atol=1e-5)

    @pytest.mark.parametrize("kindname", ["lse", "clse"])
    def test_sandwich_within_half_eps(self, affine20, kindname):
        kind = {"lse": SmoothingKind.lse,
                "clse": SmoothingKind.centered_lse}[kindname](20)
        rng = np.random.default_rng(2)
        eps = 1e-2
        for _ in range(200):
            y = rng.standard_normal(10) * rng.choice([0.3, 1.0, 3.0])
            v, _ = composite_value_grad(affine20, y, eps, kind)
            assert abs(v - affine20.objective(y)) <= eps / 2 + 1e-9

    def test_rejects_bad_eps_and_dimension(self, affine20):
        with pytest.raises(ValueError):
            composite_value_grad(affine20, np.zeros(10), 0.0,
                                 SmoothingKind.lse(20))
        with pytest.raises(ValueError):
            composite_value_grad(affine20, np.zeros(10), 1e-3,
                                 SmoothingKind.lse(3))
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                composite_value_grad(affine20, np.zeros(10), eps,
                                     SmoothingKind.lse(20))


class TestSolveSmoothed:
    def test_abs_value_instance(self, absprob):
        trace = solve_smoothed(absprob, 1e-3, SmoothingKind.centered_lse(2))
        assert trace.stop_reason == "target_reached"
        assert trace.best_objective <= 1e-3
        assert abs(trace.final_point[0]) <= 1e-3

    def test_best_sequence_nonincreasing(self, absprob):
        trace = solve_smoothed(absprob, 1e-3, SmoothingKind.centered_lse(2))
        best = [r[4] for r in trace.rows]
        assert np.all(np.diff(best) <= 0.0 + 1e-15)

    def test_budget_ratio_between_lse_and_centered(self, affine20):
        eps = 1e-3
        b_lse = smoothed_budget(affine20, eps, SmoothingKind.lse(20), 1.0)
        b_clse = smoothed_budget(affine20, eps,
                                 SmoothingKind.centered_lse(20), 1.0)
        assert b_lse / b_clse == pytest.approx(math.sqrt(2), rel=1e-3)
        assert b_clse < b_lse

    def test_accelerated_envelope_on_composite(self, absprob):
        # F(x_k) - F* <= 2 L_F R^2 / (k+1)^2 for the smoothed objective
        kind = SmoothingKind.centered_lse(2)
        eps = 1e-3
        trace = solve_smoothed(absprob, eps, kind, budget_factor=1,
                               max_iter=400)
        L_F = trace.metadata["L_F"]
        fstar, _ = composite_value_grad(absprob, np.zeros(1), eps, kind)
        R = 1.0  # bundled start is y0 = 1, minimizer at 0
        for k, obj, smooth, gnorm, best, calls in trace.rows:
            assert smooth - fstar <= 2 * L_F * R * R / (k + 1) ** 2 + 1e-9

    def test_oracle_calls_counted(self, absprob):
        trace = solve_smoothed(absprob, 1e-3, SmoothingKind.centered_lse(2))
        assert trace.oracle_calls == 2 * trace.iterations

    def test_requires_reference_or_cap(self):
        p = MaxOfSmoothProblem(
            components=[AffineComponent(a=np.array([1.0]), b=0.0)],
            n=1, L=0.0, M=1.0)
        with pytest.raises(ValueError):
            solve_smoothed(p, 1e-3, SmoothingKind.lse(1))
        trace = solve_smoothed(p, 1e-3, SmoothingKind.lse(1), max_iter=5)
        assert trace.iterations == 5 and trace.stop_reason == "max_iter"

    def test_rejects_bad_eps(self, absprob):
        with pytest.raises(ValueError):
            solve_smoothed(absprob, -1.0, SmoothingKind.lse(2))

    @pytest.mark.parametrize("problem", ["affine20", "quadratic"])
    @pytest.mark.parametrize("kindname", ["clse", "lse", "quad", "quadc:8"])
    def test_trace_matches_batch_path(self, affine20, problem, kindname):
        p = affine20 if problem == "affine20" else quadratic_problem()
        kind = SmoothingKind.parse(kindname, p.d)
        trace = solve_smoothed(p, 1e-3, kind, max_iter=200)
        expected = batch_path_smoothed_rows(p, 1e-3, kind, 200)
        assert trace.iterations == len(expected)
        np.testing.assert_array_equal(np.array(trace.rows),
                                      np.array(expected))

    def test_overflow_stops_as_diverged(self):
        trace = solve_smoothed(stiff_problem(), 1e-3,
                               SmoothingKind.centered_lse(2), max_iter=5000)
        assert trace.stop_reason == "diverged"
        assert trace.iterations < 5000


class TestSolveSubgradient:
    def test_one_over_sqrt_decay_on_abs(self, absprob):
        trace = solve_subgradient(absprob, 10_000)
        best = [r[4] for r in trace.rows]
        assert best[9999] <= best[99] / 5.0
        assert np.all(np.diff(best) <= 1e-15)

    def test_single_component_is_plain_gradient_descent(self):
        a = np.array([1.0, 2.0])
        p = MaxOfSmoothProblem(components=[AffineComponent(a=a, b=0.0)],
                               n=2, L=0.0, M=float(np.linalg.norm(a)))
        trace = solve_subgradient(p, 50, y0=np.zeros(2), step_scale=0.1)
        y = np.zeros(2)
        for t in range(1, 51):
            y = y - (0.1 / math.sqrt(t)) * a
        # final point is recorded as best-so-far; replay the raw recursion
        assert trace.rows[-1][0] == 50
        np.testing.assert_allclose(trace.final_point,
                                   y + (0.1 / math.sqrt(50)) * a, atol=1e-12)

    def test_smallest_index_tie_break(self):
        comps = [AffineComponent(a=np.array([1.0]), b=0.0),
                 AffineComponent(a=np.array([-1.0]), b=0.0)]
        p = MaxOfSmoothProblem(components=comps, n=1, L=0.0, M=1.0)
        trace = solve_subgradient(p, 1, y0=np.zeros(1))
        # at y = 0 both components are 0; index 0 wins, so the step is -a_0
        assert trace.rows[0][1] == 0.0

    def test_head_to_head_on_bundled_instance(self, affine20):
        eps = 1e-3
        smoothed = solve_smoothed(affine20, eps, SmoothingKind.centered_lse(20))
        assert smoothed.stop_reason == "target_reached"
        sub = solve_subgradient(affine20, 400_000,
                                target=affine20.optimal_value + eps)
        assert sub.stop_reason == "target_reached"
        assert smoothed.oracle_calls < sub.oracle_calls

    @pytest.mark.parametrize("problem", ["affine20", "quadratic"])
    def test_trace_matches_batch_path(self, affine20, problem):
        p = affine20 if problem == "affine20" else quadratic_problem()
        trace = solve_subgradient(p, 300)
        np.testing.assert_array_equal(np.array(trace.rows),
                                      np.array(batch_path_subgradient_rows(p, 300)))

    def test_rejects_bad_iters(self, absprob):
        with pytest.raises(ValueError):
            solve_subgradient(absprob, 0)


class TestTraceCsv:
    def test_round_trip(self, absprob, tmp_path):
        trace = solve_smoothed(absprob, 1e-3, SmoothingKind.centered_lse(2))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("iteration,objective,smoothed_objective,"
                            "grad_norm,best_objective,calls")
        assert len(lines) == trace.iterations + 1
        first = lines[1].split(",")
        assert float(first[1]) == trace.rows[0][1]  # 17 digits round-trip
