"""Follow-the-regularized-leader over the simplex and a fair-coin experts
game.  The regularizer is the h of a smoothing kind: the leader's weights
are the kind's gradient map at -eta L, and the matching worst-case regret
bound is sqrt(2 range(h) T)."""

from dataclasses import dataclass, field
import csv
import math

import numpy as np

from .smoothings import SmoothingKind


def ftrl_weights(kind: SmoothingKind, cumulative_losses,
                 eta: float) -> np.ndarray:
    """Regularized leader: argmin <w, L> + h(w)/eta over the simplex.

    Entropy (lse, clse) gives the softmax of -eta L, the log-sum-exp
    gradient; the quadratic (quad, quadc) gives the simplex projection of
    -eta L / c.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    L = np.asarray(cumulative_losses, dtype=np.float64)
    if L.shape != (kind.d,):
        raise ValueError(f"losses have shape {L.shape}, kind has d={kind.d}")
    return kind.grad_rows(-eta * L[None, :])[0]


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
    """Full record of one experts game."""

    d: int
    T: int
    seed: int
    eta: float
    bound: float
    losses: np.ndarray = field(repr=False)       # (T, d) 0/1 mistakes
    weights: np.ndarray = field(repr=False)      # (T, d) plays
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
    kind is lse(d), the exponential-weights learner.
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
    # cumulative losses are at most T, so -eta * prefix cannot overflow
    if not math.isfinite(eta * T):
        raise ValueError("eta * horizon must be finite")
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 2, size=(T, d))
    outcomes = rng.integers(0, 2, size=(T, 1))
    losses = (preds != outcomes).astype(np.float64)
    # the loss stream ignores the learner, so the whole game vectorizes
    prefix = np.vstack([np.zeros((1, d)), np.cumsum(losses, axis=0)])
    weights = kind.grad_rows(-eta * prefix[:-1])
    learner_cum = np.cumsum((weights * losses).sum(axis=1))
    best_cum = prefix[1:].min(axis=1)
    return RegretTrace(d=d, T=T, seed=seed, eta=eta,
                       bound=regret_bound(kind, T), losses=losses,
                       weights=weights, learner_cum=learner_cum,
                       best_cum=best_cum)
