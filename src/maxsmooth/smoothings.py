"""Smooth uniform approximations of the coordinate-wise max.

Every kind is a dual smoothing f(x) = max_{lam in simplex} <lam, x> - h(lam)
- offset, with h the negative entropy (lse, clse) or the quadratic
(c/2)(||lam||^2 - 1) (quad, quadc).  One rule sets the offset: the
centered kinds (clse, quad) subtract half the range of h, the others
nothing.  So f - max lies in [-range/2, range/2] or in [0, range], and the
gap bound is half the range or the whole of it.
Gradients always land in the probability simplex.  The regularized leader
in `regret` plays the gradient, through `value_grad` and `value_grad_many`.

Two private kernels carry the formulas: `_rows` over the rows of an (n, d)
array and `_point` at one point, with the same two branches in the same
order, so their results agree bitwise.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .core import _project_simplex_point, as_point, project_simplex_rows

LSE = "lse"
CENTERED_LSE = "clse"
QUADRATIC = "quad"
QUADRATIC_CUSTOM = "quadc"

_VARIANTS = (LSE, CENTERED_LSE, QUADRATIC, QUADRATIC_CUSTOM)

# cells of one block of value_grad_many; each block's temporaries are a few
# times this many float64s
_BLOCK_CELLS = 1 << 16

# lower clamp of x - max(x) in the quad kinds: on a finite row whose spread
# overflows to -inf, the value would take a zero weight times -inf, a NaN
_FLOAT_MAX = np.finfo(np.float64).max


def c_constant(d: int) -> float:
    """Largest ||w||_1^2 / ||w||_2^2 over zero-sum w in R^d.

    Equals d for even d and d - 1/d for odd d; the smallest weight making
    (c/2)||.||_2^2 1-strongly convex in the one-norm on the simplex.
    """
    if d < 2:
        raise ValueError("c_constant requires d >= 2")
    return float(d) if d % 2 == 0 else d - 1.0 / d


@dataclass(frozen=True)
class Evaluation:
    """Function value and its simplex-valued gradient at one point."""

    value: float
    gradient: np.ndarray


@dataclass(frozen=True)
class SmoothingKind:
    """A smoothing family member: variant tag, dimension, custom weight."""

    variant: str
    d: int
    c: float = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown smoothing variant {self.variant!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.variant == QUADRATIC_CUSTOM:
            if self.c is None or not 0 < self.c < math.inf:
                raise ValueError(
                    "custom quadratic smoothing needs a finite c > 0")
        elif self.c is not None:
            raise ValueError("c is only a parameter of the custom quadratic")

    @classmethod
    def lse(cls, d):
        return cls(LSE, d)

    @classmethod
    def centered_lse(cls, d):
        return cls(CENTERED_LSE, d)

    @classmethod
    def quadratic(cls, d):
        return cls(QUADRATIC, d)

    @classmethod
    def quadratic_custom(cls, d, c):
        return cls(QUADRATIC_CUSTOM, d, float(c))

    @classmethod
    def parse(cls, text: str, d: int) -> "SmoothingKind":
        """Parse lse | clse | quad | quadc:<c>; ValueError otherwise."""
        if text in (LSE, CENTERED_LSE, QUADRATIC):
            return cls(text, d)
        if text.startswith(QUADRATIC_CUSTOM + ":"):
            try:
                c = float(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad quadratic weight in {text!r}") from None
            return cls.quadratic_custom(d, c)
        raise ValueError(
            f"kind must be lse, clse, quad, or quadc:<c>, got {text!r}")

    @property
    def is_quadratic(self) -> bool:
        return self.variant in (QUADRATIC, QUADRATIC_CUSTOM)

    @property
    def centered(self) -> bool:
        """Whether the offset is chosen to center the deviation range."""
        return self.variant in (CENTERED_LSE, QUADRATIC)

    @cached_property
    def regularizer_weight(self) -> float:
        """Quadratic weight c; the degenerate d=1 simplex accepts any c."""
        if self.variant == QUADRATIC_CUSTOM:
            return self.c
        if self.variant == QUADRATIC:
            return 1.0 if self.d == 1 else c_constant(self.d)
        raise ValueError(f"{self.variant} has no quadratic weight")

    @cached_property
    def range(self) -> float:
        """max h - min h over the simplex: ln d, or (c/2)(1 - 1/d).

        For quad, c = c_d makes it the rational (d - 1)/2 for even d and
        (d - 1)^2 (d + 1) / (2 d^2) for odd d, rounded once: its half is
        then the partition bound gamma(d) bitwise at d = 2 and 3.
        """
        d = self.d
        if self.variant == QUADRATIC:
            if d % 2 == 0:
                return (d - 1) / 2
            return (d - 1) ** 2 * (d + 1) / (2 * d * d)
        if self.is_quadratic:
            return 0.5 * self.c * (1.0 - 1.0 / d)
        return math.log(d)

    @cached_property
    def offset(self) -> float:
        """Constant subtracted from the dual supremum: half the range for
        the centered kinds (clse, quad), zero otherwise."""
        return 0.5 * self.range if self.centered else 0.0

    def label(self) -> str:
        if self.variant == QUADRATIC_CUSTOM:
            return f"quadc[c={self.c:g}](d={self.d})"
        return f"{self.variant}(d={self.d})"


def value_grad(kind: SmoothingKind, x) -> Evaluation:
    """Evaluate any smoothing kind at a single validated point."""
    v = as_point(x)
    if v.size != kind.d:
        raise ValueError(f"point has d={v.size}, kind expects d={kind.d}")
    with np.errstate(over="ignore"):  # see value_grad_many
        value, grad = _point(kind, v)
    return Evaluation(value=float(value), gradient=grad)


def value_grad_many(kind: SmoothingKind, X):
    """Batched evaluation over the rows of an (n, d) array.

    Returns (values, gradients) of shapes (n,) and (n, d).  Entries are not
    checked for finiteness: a non-finite row yields non-finite results.
    Rows are evaluated in blocks of _BLOCK_CELLS cells (one row at least),
    so the temporaries stay bounded; rows are independent, so the results
    are bitwise those of one batch.

    Overflow is silent: Z / c for a tiny quadc weight and U * k inside the
    simplex projection of huge rows overflow to -inf or inf, which are the
    exact limits, and the projection's comparisons stay right with them.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != kind.d:
        raise ValueError(f"expected (n, {kind.d}) array, got {X.shape}")
    n, step = len(X), max(1, _BLOCK_CELLS // kind.d)
    with np.errstate(over="ignore"):
        if n <= step:
            return _rows(kind, X)
        vals, grads = np.empty(n), np.empty(X.shape)
        for start in range(0, n, step):
            block = slice(start, start + step)
            vals[block], grads[block] = _rows(kind, X[block])
    return vals, grads


def _rows(kind, X):
    """(values, gradients) over the rows of an unvalidated (n, d) array.

    The argmax over the simplex of <lam, x> - h(lam): the softmax for the
    entropy, the simplex projection of the max-anchored rows over c for the
    quadratic.  `_point` is the same formulas on one row.
    """
    m = X.max(axis=1)
    if kind.is_quadratic:
        # max-anchoring: the projection and the translation rule are exact
        # under constant shifts, and at a large scale the unanchored rows
        # lose the simplex to rounding
        Z = np.maximum(X - m[:, None], -_FLOAT_MAX)
        c = kind.regularizer_weight
        lam = project_simplex_rows(Z / c)
        vals = m + (lam * Z).sum(axis=1) \
            - 0.5 * c * ((lam * lam).sum(axis=1) - 1.0)
    else:
        e = np.exp(X - m[:, None])
        s = e.sum(axis=1)
        vals, lam = m + np.log(s), e / s[:, None]
    offset = kind.offset
    if offset:
        vals = vals - offset
    return vals, lam


def _point(kind, x):
    """(value, gradient) at an unvalidated 1-D point.

    The formulas of `_rows` on one row with 1-D operations, so the results
    are bitwise those of `_rows(kind, x[None, :])` without its per-call
    batch overhead; the smoothed solver loop calls it directly.
    """
    m = x.max()
    if kind.is_quadratic:
        z = np.maximum(x - m, -_FLOAT_MAX)
        c = kind.regularizer_weight
        lam = _project_simplex_point(z / c)
        value = m + (lam * z).sum() - 0.5 * c * ((lam * lam).sum() - 1.0)
    else:
        e = np.exp(x - m)
        s = e.sum()
        value, lam = m + np.log(s), e / s
    offset = kind.offset
    if offset:
        value = value - offset
    return value, lam


def gap_bound(kind: SmoothingKind) -> float:
    """Theoretical uniform deviation bound from the max function.

    The half-range for the centered kinds, ln(d)/2 for clse and
    (c_d/4)(1 - 1/d) for quad, whose offset centers the dual range; the
    full range for the overestimators, ln(d) for lse and (c/2)(1 - 1/d)
    for quadc.  It equals max |f - sigma_max| over R^d.
    """
    return kind.range * 0.5 if kind.centered else kind.range


def deviation_interval(kind: SmoothingKind):
    """Exact range [lo, hi] of f - sigma_max over all of R^d."""
    # 0.0 - offset rather than -offset: a zero offset gives lo = +0.0
    return 0.0 - kind.offset, kind.range - kind.offset
