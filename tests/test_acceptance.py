"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line on success (visible with pytest -s);
a failing assertion marks the criterion failed.
"""

import math
import time
from importlib import resources

import numpy as np
import pytest
from scipy.optimize import linprog

from maxsmooth.bounds import asymptotic_sandwich, beta_root, gamma
from maxsmooth.certify import (
    SamplerConfig,
    empirical_gap,
    run_certificate_suite,
    telescoping_sum,
)
from maxsmooth.minimax import load_problem, solve_smoothed, solve_subgradient
from maxsmooth.regret import regret_bound, run_coinflip_game
from maxsmooth.smoothings import SmoothingKind, gap_bound, value_grad_many
from test_bounds import gamma_bruteforce

SEED = 20250808


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_gamma_exactness():
    t0 = time.perf_counter()
    for d in range(2, 21):
        assert abs(gamma(d).value - gamma_bruteforce(d)) <= 1e-12
    assert gamma(2).value == 0.25
    assert gamma(3).value == 4 / 9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"gamma == brute force for d=2..20 within 1e-12; "
              f"gamma(2)=1/4 and gamma(3)=4/9 exact; {elapsed:.2f}s")


def test_criterion_2_asymptotic_constant():
    beta_root.cache_clear()
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        beta_root.cache_clear()
        constants = beta_root()
        best = min(best, time.perf_counter() - t0)
    assert abs(constants.beta - 0.28467) <= 5e-6
    assert abs(constants.slope - 0.40726) <= 5e-6
    assert best < 1e-3, f"took {best * 1e3:.3f}ms"
    report(2, f"beta={constants.beta:.7f}, slope={constants.slope:.7f}, "
              f"{best * 1e6:.0f}us")


def test_criterion_3_sandwich_containment():
    times = {}
    for d in (2, 10, 10**2, 10**3, 10**4, 10**5, 10**6):
        t0 = time.perf_counter()
        value = gamma(d).value
        times[d] = time.perf_counter() - t0
        lower, upper = asymptotic_sandwich(d)
        assert lower - 1e-9 <= value <= upper + 1e-9, (d, lower, value, upper)
    assert times[10**6] < 600.0, f"d=1e6 took {times[10**6]:.0f}s"
    report(3, "sandwich holds for d in {2,10,1e2,...,1e6}; "
              f"d=1e6 in {times[10**6]:.0f}s")


def test_criterion_4_gap_ordering_small_dims():
    g2 = gap_bound(SmoothingKind.quadratic(2))
    g3 = gap_bound(SmoothingKind.quadratic(3))
    assert g2 == 0.25
    assert abs(g3 - 4 / 9) <= 1e-15
    assert g2 < 0.5 * math.log(2)
    assert g3 < 0.5 * math.log(3)
    for d, expected in ((2, g2), (3, g3)):
        est = empirical_gap(SmoothingKind.quadratic(d), 1e4,
                            SamplerConfig(seed=SEED, count=2000)
                            ).details["estimate"]
        assert est == pytest.approx(expected, abs=1e-9)
    report(4, "1/4 < 0.5 ln 2 and 4/9 < 0.5 ln 3; empirical gaps match "
              "within 1e-9")


def test_criterion_5_certificate_suite():
    required = ("smoothness", "grad_in_simplex", "gradient_fd", "q_grid",
                "expectation_guarantee", "gradient_structure",
                "permutation_invariance")
    t0 = time.perf_counter()
    total = 0
    for d in range(2, 11):
        for make in (SmoothingKind.lse, SmoothingKind.centered_lse,
                     SmoothingKind.quadratic):
            kind = make(d)
            reports = run_certificate_suite(kind, seed=SEED, count=10_000)
            names = {r.name.split("[")[0] for r in reports}
            assert set(required) <= names
            failures = [r.name for r in reports if not r.passed]
            assert not failures, (kind.label(), failures)
            total += len(reports)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    # determinism: identical seed reproduces identical violations
    kind = SmoothingKind.quadratic(5)
    first = run_certificate_suite(kind, seed=SEED, count=10_000)
    second = run_certificate_suite(kind, seed=SEED, count=10_000)
    assert [r.worst_violation for r in first] == \
        [r.worst_violation for r in second]
    report(5, f"{total} certificates pass for lse/clse/quad at d=2..10, "
              f"seed-deterministic, {elapsed:.1f}s")


def test_criterion_6_telescoping_witness():
    alpha = 1e4
    slack = 10.0 / alpha
    for d in (4, 8, 16):
        kind = SmoothingKind.lse(d)
        cert = gamma(d)
        total = telescoping_sum(kind, cert.indices, alpha)
        gap_est = empirical_gap(kind, alpha,
                                SamplerConfig(seed=SEED, count=1000)
                                ).details["estimate"]
        assert cert.value - slack <= total <= gap_est + slack, \
            (d, total, cert.value, gap_est)
    report(6, "telescoping sums along optimal chains sit in "
              "[gamma(d) - 1e-3, empirical gap + 1e-3] for d in {4, 8, 16}")


def test_criterion_7_minimax_head_to_head():
    with resources.files("maxsmooth.instances").joinpath(
            "affine20.json").open() as fh:
        problem = load_problem(fh)
    # recompute the reference optimum with an exact LP oracle
    A = np.vstack([c.a for c in problem.components])
    b = np.array([c.b for c in problem.components])
    cost = np.zeros(problem.n + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.hstack([A, -np.ones((problem.d, 1))]),
                  b_ub=-b, bounds=[(None, None)] * (problem.n + 1),
                  method="highs")
    assert res.status == 0
    assert res.x[-1] == pytest.approx(problem.optimal_value, abs=1e-9)

    eps = 1e-3
    t0 = time.perf_counter()
    smoothed = solve_smoothed(problem, eps, SmoothingKind.centered_lse(20))
    assert smoothed.stop_reason == "target_reached"
    assert smoothed.best_objective <= problem.optimal_value + eps
    assert smoothed.iterations <= 4 * smoothed.metadata["budget"]

    sub = solve_subgradient(problem, 400_000,
                            target=problem.optimal_value + eps)
    elapsed = time.perf_counter() - t0
    assert sub.stop_reason == "target_reached"
    assert smoothed.oracle_calls < sub.oracle_calls
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(7, f"smoothed reaches 1e-3 in {smoothed.iterations} iterations "
              f"({smoothed.oracle_calls} calls) vs subgradient "
              f"{sub.oracle_calls} calls; {elapsed:.1f}s")


def test_criterion_8_regret_bound_and_duality():
    t0 = time.perf_counter()
    for d, T in ((2, 10**4), (16, 10**4), (256, 10**4)):
        for kind in (SmoothingKind.lse(d), SmoothingKind.quadratic(d)):
            bound = regret_bound(kind, T)
            for seed in range(20):
                trace = run_coinflip_game(d, T, seed=seed, kind=kind)
                assert trace.final_regret <= bound, (d, kind.variant, seed)
        # duality: the exponential weights equal the lse gradient at
        # -eta * losses, and the game plays them on its replayed losses
        trace = run_coinflip_game(d, 1000, seed=0, kind=SmoothingKind.lse(d))
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, size=(1000, d))
        losses = (preds != rng.integers(0, 2, size=(1000, 1))).astype(float)
        prefix = np.vstack([np.zeros(d), np.cumsum(losses, axis=0)[:-1]])
        _, grads = value_grad_many(SmoothingKind.lse(d), -trace.eta * prefix)
        e = np.exp(-trace.eta * (prefix - prefix.min(axis=1, keepdims=True)))
        assert np.abs(grads - e / e.sum(axis=1, keepdims=True)).max() <= 1e-12
        played = np.cumsum((grads * losses).sum(axis=1))
        assert np.abs(played - trace.learner_cum).max() <= 1e-9
        assert (trace.best_cum == np.cumsum(losses, axis=0).min(axis=1)).all()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(8, f"regret <= sqrt(2 Range T) on 20 seeds at (d,T) in "
              f"{{(2,1e4),(16,1e4),(256,1e4)}} for both regularizers; "
              f"duality within 1e-12; {elapsed:.1f}s")


def test_criterion_9_out_of_scope_note():
    # The statistical floor constant (1/8 + o(1)) and the exact optimal gap
    # for d >= 4 are asymptotic or open; nothing asserts them directly and
    # they are covered only by the property suites above.
    report(9, "asymptotic floor constant and d>=4 optimal gaps are "
              "documented as out of scope; property suites cover the rest")
