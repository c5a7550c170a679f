"""Follow-the-regularized-leader over the simplex and a fair-coin experts
game.  The regularizer is the h of a smoothing kind: the leader's weights
are the kind's gradient at -eta L, evaluated by `value_grad` at one point
and by `value_grad_many` over a whole game, and the matching worst-case
regret bound is sqrt(2 range(h) T)."""

from dataclasses import dataclass, field
import csv
import math

import numpy as np

from .smoothings import _BLOCK_CELLS, SmoothingKind, value_grad, value_grad_many


def ftrl_weights(kind: SmoothingKind, cumulative_losses,
                 eta: float) -> np.ndarray:
    """Regularized leader: argmin <w, L> + h(w)/eta over the simplex.

    That is `value_grad(kind, -eta L).gradient`: the softmax of -eta L for
    the entropy (lse, clse), the simplex projection of -eta L / c for the
    quadratic (quad, quadc).  A non-finite or overflowing -eta L raises
    ValueError.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    with np.errstate(over="ignore"):  # an overflow is rejected as non-finite
        x = -eta * np.asarray(cumulative_losses, dtype=np.float64)
    return value_grad(kind, x).gradient


def tuned_eta(kind: SmoothingKind, T: int) -> float:
    """The bound-optimizing learning rate sqrt(2 Range / T)."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if kind.d < 2:
        raise ValueError("the regularized leader needs d >= 2")
    return math.sqrt(2.0 * kind.range / T)


def regret_bound(kind: SmoothingKind, T: int) -> float:
    """Worst-case regret sqrt(2 Range(h) T) of the tuned leader."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    return math.sqrt(2.0 * kind.range * T)


@dataclass
class RegretTrace:
    """Summary of one experts game: its parameters and the per-round
    cumulative losses of the learner and of the best expert so far.  It
    holds no (T, d) array."""

    d: int
    T: int
    seed: int
    eta: float
    bound: float
    learner_cum: np.ndarray = field(repr=False)  # (T,)
    best_cum: np.ndarray = field(repr=False)     # (T,) prefix best expert

    @property
    def regret(self) -> np.ndarray:
        return self.learner_cum - self.best_cum

    @property
    def final_regret(self) -> float:
        return float(self.regret[-1])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["round", "learner_loss", "best_expert_loss", "regret"])
            for t in range(self.T):
                w.writerow([t + 1, f"{self.learner_cum[t]:.17g}",
                            f"{self.best_cum[t]:.17g}",
                            f"{self.regret[t]:.17g}"])


def run_coinflip_game(d: int, T: int, seed: int, kind: SmoothingKind = None,
                      eta: float = None) -> RegretTrace:
    """Experts game on i.i.d. fair coin flips.

    Each round every expert predicts an independent fair bit and the
    outcome is another fair bit; an expert's loss is 1 on a mistake.  The
    learner plays the regularized leader of the cumulative losses and
    suffers the weighted loss.  Deterministic given the seed: the (T, d)
    prediction block is drawn first, then the T outcomes.  The default
    kind is lse(d), the exponential-weights learner.  The game's memory is
    the one-byte predictions plus O(T) and bounded block temporaries; the
    losses and weights of a round live only in its block.
    """
    if d < 2 or T < 1:
        raise ValueError("need d >= 2 and T >= 1")
    kind = SmoothingKind.lse(d) if kind is None else kind
    if kind.d != d:
        raise ValueError(f"kind dimension {kind.d} != number of experts {d}")
    if eta is None:
        eta = tuned_eta(kind, T)
    elif not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    # cumulative losses are at most T, so -eta * L cannot overflow
    if not math.isfinite(eta * T):
        raise ValueError("eta * horizon must be finite")
    # The loss stream ignores the learner, so the game runs in the row
    # blocks of value_grad_many, each block's temporaries in cache.
    step = max(1, _BLOCK_CELLS // d)
    rng = np.random.default_rng(seed)
    # A fair bit takes one 32-bit word of the generator, so the blocks draw
    # the stream of one (T, d) draw; each prediction is kept in one byte.
    preds = np.empty((T, d), dtype=np.int8)
    for start in range(0, T, step):
        rows = preds[start:start + step]
        rows[...] = rng.integers(0, 2, size=rows.shape, dtype=np.int32)
    outcomes = rng.integers(0, 2, size=(T, 1))
    played, best_cum = np.empty(T), np.empty(T)
    # the cumulative losses are integers below 2^53, exact in any summation
    # order, so the blocks equal one cumsum over the whole game
    cum = np.zeros(d)  # losses of the rounds before the block
    for start in range(0, T, step):
        block = slice(start, start + step)
        lost = (preds[block] != outcomes[block]).astype(np.float64)
        after = np.cumsum(lost, axis=0)
        after += cum
        w = value_grad_many(kind, -eta * (after - lost))[1]
        played[block] = (w * lost).sum(axis=1)
        best_cum[block] = after.min(axis=1)
        cum = after[-1]
    learner_cum = np.cumsum(played)
    return RegretTrace(d=d, T=T, seed=seed, eta=eta,
                       bound=regret_bound(kind, T), learner_cum=learner_cum,
                       best_cum=best_cum)
