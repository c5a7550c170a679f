"""Regularized-leader tests: closed-form weights, the tuned bound, the
coin-flip game against a round-by-round replay, and the duality with the
log-sum-exp gradient."""

import math
import tracemalloc

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


def replay_game(trace, kind):
    """The game of trace walked round by round: (losses, weights,
    learner_cum, best_cum) from one (T, d) draw of the predictions, then
    the outcomes, and ftrl_weights at each round's cumulative losses."""
    d, T = trace.d, trace.T
    rng = np.random.default_rng(trace.seed)
    preds = rng.integers(0, 2, size=(T, d))
    outcomes = rng.integers(0, 2, size=(T, 1))
    losses = (preds != outcomes).astype(np.float64)
    weights, played, best = np.empty((T, d)), np.empty(T), np.empty(T)
    cum = np.zeros(d)
    for t in range(T):
        weights[t] = ftrl_weights(kind, cum, trace.eta)
        played[t] = (weights[t] * losses[t]).sum()
        cum += losses[t]
        best[t] = cum.min()
    return losses, weights, np.cumsum(played), best


def assert_game_replays(trace, kind):
    """The game equals its replay bitwise; returns the replay."""
    replay = replay_game(trace, kind)
    assert trace.learner_cum.tobytes() == replay[2].tobytes()
    assert trace.best_cum.tobytes() == replay[3].tobytes()
    return replay


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
        z = -0.2 * L
        np.testing.assert_array_equal(
            ftrl_weights(kind, L, 0.2),
            project_simplex((z - z.max()) / kind.regularizer_weight))
        # a whole game at once: the leader projects the max-anchored rows
        # of -eta L / c, as the smoothing kernel does
        d = 37
        kind = SmoothingKind.quadratic(d)
        trace = run_coinflip_game(d, 200, seed=4, kind=kind)
        losses, weights, _, _ = assert_game_replays(trace, kind)
        L = np.vstack([np.zeros(d), np.cumsum(losses, axis=0)[:-1]])
        Z = -trace.eta * L
        np.testing.assert_array_equal(
            weights,
            project_simplex_rows((Z - Z.max(axis=1, keepdims=True))
                                 / c_constant(d)))

    @pytest.mark.parametrize("d,T,eta", [(2, 5, 1e17), (3, 10, 1e17),
                                         (3, 10, 1.7e307)])
    def test_quadratic_leader_at_huge_eta(self, d, T, eta):
        # -eta L / c is far beyond 1 / ulp, where an unanchored projection
        # loses the simplex; anchored, the leader follows the best expert
        kind = SmoothingKind.quadratic(d)
        trace = run_coinflip_game(d, T, seed=0, kind=kind, eta=eta)
        for w in assert_game_replays(trace, kind)[1]:
            assert is_simplex_point(w, tol=1e-12)
        assert abs(trace.final_regret) <= T

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

    @pytest.mark.parametrize("name", ["lse", "clse", "quad", "quadc:9"])
    def test_weights_are_smoothing_gradient(self, name):
        # the leader's weights and the smoothing gradient share one code path
        kind = SmoothingKind.parse(name, 4)
        L = np.array([3.0, 1.0, 4.0, 1.5])
        eta = 0.37
        w = ftrl_weights(kind, L, eta)
        g = value_grad(kind, -eta * L).gradient
        np.testing.assert_array_equal(w, g)

    @pytest.mark.parametrize("L,eta", [([0.0, math.nan, 1.0], 1.0),
                                       ([0.0, 1e10, 1.0], 1e300)],
                             ids=["nan", "overflow"])
    def test_rejects_non_finite_leader_argument(self, L, eta):
        for kind in (SmoothingKind.lse(3), SmoothingKind.quadratic(3)):
            with pytest.raises(ValueError, match="must be finite"):
                ftrl_weights(kind, np.array(L), eta)

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
        assert a.learner_cum.tobytes() == b.learner_cum.tobytes()
        assert a.best_cum.tobytes() == b.best_cum.tobytes()

    def test_played_weights_in_simplex(self):
        for kind in (SmoothingKind.lse(3), SmoothingKind.quadratic(3)):
            trace = run_coinflip_game(3, 500, seed=3, kind=kind)
            weights = assert_game_replays(trace, kind)[1]
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
            assert weights.min() >= -1e-12

    def test_trace_recomputes_from_losses(self):
        """Independent replay: accumulate the learner's and the experts'
        losses one round at a time, with a scalar running sum."""
        kind = SmoothingKind.lse(4)
        trace = run_coinflip_game(4, 300, seed=11, kind=kind)
        losses, weights, _, _ = replay_game(trace, kind)
        cum = np.zeros(4)
        learner = 0.0
        for t in range(300):
            learner += float(weights[t] @ losses[t])
            cum += losses[t]
            assert learner == pytest.approx(trace.learner_cum[t], abs=1e-9)
            assert cum.min() == trace.best_cum[t]
        assert trace.final_regret == pytest.approx(learner - cum.min(),
                                                   abs=1e-9)

    def test_block_draws_are_one_draw(self):
        # 255-row blocks of 257 experts and one-row blocks of 70001 experts
        # each take an odd number of 32-bit words from the generator; the
        # replay draws the predictions as one (T, d) block
        for d, T in ((257, 600), (70_001, 3)):
            trace = run_coinflip_game(d, T, seed=4)
            assert_game_replays(trace, SmoothingKind.lse(d))

    @pytest.mark.parametrize("d", [2, 5, 37, 257])
    @pytest.mark.parametrize("name", ["lse", "clse", "quad"])
    def test_game_matches_round_by_round_replay(self, name, d):
        kind = SmoothingKind.parse(name, d)
        assert_game_replays(run_coinflip_game(d, 600, seed=9, kind=kind),
                            kind)

    def test_losses_are_mistake_indicators(self):
        # the best expert's cumulative loss moves by 0 or 1 a round, and
        # the learner's by a weighted mean of 0/1 losses
        trace = run_coinflip_game(5, 100, seed=2)
        assert set(np.diff(trace.best_cum, prepend=0.0)) <= {0.0, 1.0}
        played = np.diff(trace.learner_cum, prepend=0.0)
        assert played.min() >= 0.0 and played.max() <= 1.0 + 1e-12

    def test_regret_below_bound_small_sample(self):
        for kind in (SmoothingKind.lse(2), SmoothingKind.quadratic(2),
                    SmoothingKind.lse(16)):
            for seed in range(5):
                trace = run_coinflip_game(kind.d, 2000, seed=seed, kind=kind)
                assert trace.final_regret <= trace.bound

    def test_duality_with_lse_gradient(self):
        # the entropy leader's weights are the exponential weights, the
        # softmax of -eta L, which is the lse gradient at -eta L
        kind = SmoothingKind.lse(8)
        trace = run_coinflip_game(8, 200, seed=5)
        losses = assert_game_replays(trace, kind)[0]
        cum = np.vstack([np.zeros(8), np.cumsum(losses, axis=0)[:-1]])
        for t in (0, 10, 199):
            e = np.exp(-trace.eta * (cum[t] - cum[t].min()))
            g = value_grad(kind, -trace.eta * cum[t]).gradient
            assert np.abs(g - e / e.sum()).max() <= 1e-12

    def test_mean_regret_trends_toward_floor_at_large_d(self):
        # the best of many random experts beats the learner by roughly
        # sqrt(T ln d / 2); 0.4 of that is a conservative empirical floor
        d, T = 256, 10_000
        regrets = [run_coinflip_game(d, T, seed=s).final_regret
                   for s in range(10)]
        assert np.mean(regrets) > 0.4 * math.sqrt(T * math.log(d) / 2)

    def test_quadratic_game_memory_is_a_few_arrays(self):
        # the game runs in value_grad_many's row blocks, so the peak is the
        # one-byte predictions plus O(T) and bounded block temporaries:
        # less than half of one (T, d) float array
        d, T = 256, 10_000
        kind = SmoothingKind.quadratic(d)
        run_coinflip_game(d, 10, seed=0, kind=kind)  # warm caches
        tracemalloc.start()
        try:
            run_coinflip_game(d, T, seed=1, kind=kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 8 * d * T

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
