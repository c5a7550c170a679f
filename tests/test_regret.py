"""Regularized-leader tests: closed-form weights, the tuned bound, the
coin-flip game recomputed from its own trace, and the duality with the
log-sum-exp gradient."""

import math

import numpy as np
import pytest

from maxsmooth.core import project_simplex, project_simplex_rows
from maxsmooth.regret import (
    ftrl_weights,
    regret_bound,
    run_coinflip_game,
    tuned_eta,
)
from maxsmooth.smoothings import SmoothingKind, c_constant, value_grad


def is_simplex_point(w, tol):
    """True if w is nonnegative and sums to 1, both within tol."""
    return bool(np.all(w >= -tol) and abs(float(w.sum()) - 1.0) <= tol)


class TestKindRange:
    def test_entropy_range(self):
        assert SmoothingKind.lse(4).range == pytest.approx(math.log(4))

    def test_scaled_quadratic_range(self):
        kind = SmoothingKind.quadratic(2)  # c = threshold = 2
        assert kind.regularizer_weight == 2.0
        assert kind.range == pytest.approx(0.5)
        custom = SmoothingKind.quadratic_custom(4, 8.0)
        assert custom.range == pytest.approx(4.0 * (1 - 0.25))

    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothingKind("greedy", 3)
        with pytest.raises(ValueError):
            tuned_eta(SmoothingKind.lse(1), 10)
        with pytest.raises(ValueError):
            SmoothingKind.quadratic_custom(3, -1.0)
        with pytest.raises(ValueError):
            SmoothingKind("lse", 3, c=1.0)


class TestFtrlWeights:
    def test_zero_losses_give_uniform(self):
        for kind in (SmoothingKind.lse(5), SmoothingKind.quadratic(5)):
            w = ftrl_weights(kind, np.zeros(5), eta=0.7)
            np.testing.assert_allclose(w, 0.2, atol=1e-12)

    def test_entropy_closed_form(self):
        w = ftrl_weights(SmoothingKind.lse(2), np.array([0.0, 10.0]), eta=1.0)
        z = math.exp(-10.0)
        np.testing.assert_allclose(w, [1 / (1 + z), z / (1 + z)], atol=1e-12)
        assert w[1] == pytest.approx(4.54e-5, rel=1e-2)

    def test_quadratic_is_projection(self):
        kind = SmoothingKind.quadratic(3)
        L = np.array([1.0, 3.0, 0.5])
        eta = 0.2
        np.testing.assert_array_equal(
            ftrl_weights(kind, L, eta),
            project_simplex(-eta * L / kind.regularizer_weight))
        # a whole game at once: the leader projects -eta L / c as it is,
        # not the max-anchored rows that the smoothing kernel projects
        d = 37
        trace = run_coinflip_game(d, 200, seed=4,
                                  kind=SmoothingKind.quadratic(d))
        L = np.vstack([np.zeros(d), np.cumsum(trace.losses, axis=0)[:-1]])
        np.testing.assert_array_equal(
            trace.weights,
            project_simplex_rows(-trace.eta * L / c_constant(d)))

    def test_weights_in_simplex(self):
        rng = np.random.default_rng(0)
        for kind in (SmoothingKind.lse(6), SmoothingKind.quadratic(6)):
            for _ in range(100):
                w = ftrl_weights(kind, rng.uniform(0, 50, size=6),
                                 eta=rng.uniform(0.01, 2.0))
                assert is_simplex_point(w, tol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        for kind in (SmoothingKind.lse(5), SmoothingKind.quadratic(5)):
            for _ in range(50):
                L = rng.uniform(0, 20, size=5)
                perm = rng.permutation(5)
                np.testing.assert_allclose(
                    ftrl_weights(kind, L[perm], eta=0.3),
                    ftrl_weights(kind, L, eta=0.3)[perm], atol=1e-14)

    def test_entropy_weights_are_lse_gradient(self):
        # the leader's weights and the smoothing gradient share one code path
        kind = SmoothingKind.lse(4)
        L = np.array([3.0, 1.0, 4.0, 1.5])
        eta = 0.37
        w = ftrl_weights(kind, L, eta)
        g = value_grad(kind, -eta * L).gradient
        np.testing.assert_array_equal(w, g)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            ftrl_weights(SmoothingKind.lse(2), np.zeros(2), eta=0.0)


class TestBound:
    def test_entropy_formula(self):
        assert regret_bound(SmoothingKind.lse(2), 10_000) == pytest.approx(
            math.sqrt(2 * math.log(2) * 10_000))

    def test_quadratic_formula(self):
        kind = SmoothingKind.quadratic(2)
        assert regret_bound(kind, 10_000) == pytest.approx(math.sqrt(10_000))

    def test_single_round(self):
        kind = SmoothingKind.lse(3)
        assert regret_bound(kind, 1) == pytest.approx(math.sqrt(2 * kind.range))

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            regret_bound(SmoothingKind.lse(2), 0)
        with pytest.raises(ValueError):
            tuned_eta(SmoothingKind.lse(2), 0)


class TestCoinflipGame:
    def test_single_round_regret_at_most_one(self):
        trace = run_coinflip_game(2, 1, seed=0)
        assert trace.final_regret <= 1.0

    def test_deterministic_given_seed(self):
        a = run_coinflip_game(4, 200, seed=7)
        b = run_coinflip_game(4, 200, seed=7)
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.final_regret == b.final_regret

    def test_played_weights_in_simplex(self):
        for kind in (SmoothingKind.lse(3), SmoothingKind.quadratic(3)):
            trace = run_coinflip_game(3, 500, seed=3, kind=kind)
            sums = trace.weights.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert trace.weights.min() >= -1e-12

    def test_trace_recomputes_from_losses(self):
        """Independent replay: rebuild every quantity from the stored losses."""
        kind = SmoothingKind.lse(4)
        trace = run_coinflip_game(4, 300, seed=11, kind=kind)
        cum = np.zeros(4)
        learner = 0.0
        for t in range(300):
            w = ftrl_weights(kind, cum, trace.eta)
            np.testing.assert_allclose(w, trace.weights[t], atol=1e-14)
            learner += float(w @ trace.losses[t])
            cum += trace.losses[t]
            assert learner == pytest.approx(trace.learner_cum[t], abs=1e-9)
            assert cum.min() == pytest.approx(trace.best_cum[t], abs=0)
        assert trace.final_regret == pytest.approx(learner - cum.min(),
                                                   abs=1e-9)

    def test_losses_are_mistake_indicators(self):
        trace = run_coinflip_game(5, 100, seed=2)
        assert set(np.unique(trace.losses)) <= {0.0, 1.0}

    def test_regret_below_bound_small_sample(self):
        for kind in (SmoothingKind.lse(2), SmoothingKind.quadratic(2),
                    SmoothingKind.lse(16)):
            for seed in range(5):
                trace = run_coinflip_game(kind.d, 2000, seed=seed, kind=kind)
                assert trace.final_regret <= trace.bound

    def test_duality_with_lse_gradient(self):
        trace = run_coinflip_game(8, 200, seed=5)
        cum = np.vstack([np.zeros(8), np.cumsum(trace.losses, axis=0)[:-1]])
        kind = SmoothingKind.lse(8)
        for t in (0, 10, 199):
            g = value_grad(kind, -trace.eta * cum[t]).gradient
            assert np.abs(g - trace.weights[t]).max() <= 1e-12

    def test_mean_regret_trends_toward_floor_at_large_d(self):
        # the best of many random experts beats the learner by roughly
        # sqrt(T ln d / 2); 0.4 of that is a conservative empirical floor
        d, T = 256, 10_000
        regrets = [run_coinflip_game(d, T, seed=s).final_regret
                   for s in range(10)]
        assert np.mean(regrets) > 0.4 * math.sqrt(T * math.log(d) / 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_coinflip_game(1, 10, seed=0)
        with pytest.raises(ValueError):
            run_coinflip_game(2, 0, seed=0)
        with pytest.raises(ValueError):
            run_coinflip_game(2, 10, seed=0, eta=-1.0)
        with pytest.raises(ValueError, match="eta \\* horizon must be finite"):
            run_coinflip_game(2, 10, seed=0, eta=1e308)

    def test_rejects_kind_of_another_dimension(self):
        with pytest.raises(ValueError):
            run_coinflip_game(3, 10, seed=0, kind=SmoothingKind.lse(4))
        with pytest.raises(ValueError):
            ftrl_weights(SmoothingKind.quadratic(4), np.zeros(3), eta=1.0)

    def test_csv_columns(self, tmp_path):
        trace = run_coinflip_game(2, 50, seed=1)
        path = tmp_path / "regret.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "round,learner_loss,best_expert_loss,regret"
        assert len(lines) == 51
