"""Lower-bound machinery for smoothing gaps: the maximal partition sum
gamma(d) computed by dynamic programming with certificate recovery, the
transcendental constant behind the asymptotic slope, and the logarithmic
sandwich bounds."""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np


@dataclass(frozen=True)
class PartitionCertificate:
    """An increasing index chain 1 = j_0 < ... < j_k = d and its sum value."""

    indices: tuple
    value: float


@dataclass(frozen=True)
class AsymptoticConstants:
    """Root beta of 2*b*ln(b) - b + 1 in (0,1) and the slope 2*beta*(1-beta)."""

    beta: float
    slope: float


def partition_sum(indices) -> float:
    """Sum of ((j_l - j_{l-1}) / j_l)^2 along an increasing chain.

    Each link is squared as t * t and added in chain order, as gamma_table
    does, so an optimal chain sums to its gamma value bitwise (Python's
    t ** 2 may round differently from t * t).
    """
    idx = list(indices)
    if idx[0] != 1 or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing and start at 1")
    total = 0.0
    for a, b in zip(idx, idx[1:]):
        t = (b - a) / b
        total += t * t
    return total


# Rows m <= _DIRECT scan every candidate i <= ceil(m/2); above it the
# divide and conquer narrows each row's candidates to a range.  At most
# _FRONTIER rows and _SLICE candidates go into one numpy batch, so the
# temporaries stay bounded whatever d is.
_DIRECT = 256
_SLICE = 100_000
_FRONTIER = 1 << 10


def gamma_table(d: int):
    """DP table for the partition recurrence up to d.

    Returns (values, predecessors), float64 and int64 arrays indexed 0..d:
    values[m] = max over 1 <= i < m of values[i] + ((m - i) / m)^2 is the
    maximal partition sum from 1 to m, and predecessors[m] is the smallest
    i that maximizes the float64 sum.  That tie rule holds in floating
    point only: at m = 175 the exact maximizers are 49 and 50 and the
    rounded sums make 50 the larger one (m = 1326: 390 and 391), so an
    exact tie may be broken toward the larger index; either choice
    continues an optimal chain.  The table for d is the first d + 1
    entries of the table for any larger d.  O(d log d) work in numpy
    batches, O(d) memory: the two returned arrays and temporaries bounded
    by constants.

    Only i <= ceil(m/2) can be needed.  Take a chain to m whose last point
    before m lies above ceil(m/2), and split it at its last point
    p <= ceil(m/2); its next point x1 then lies above m/2.  Every later
    link has ratio above 1/2 and their total log-ratio ln(m/x1) is below
    ln 2.  h(s) = (1 - e^-s)^2 is convex on [0, ln 2] with h(0) = 0, so those
    links sum to at most the single link x1 -> m, and the chain is worth
    at most g[p] + psi(x1/m) with psi(c) = (1 - a/c)^2 + (1 - c)^2, a = p/m.
    psi'(c) = 2P(c)/c^3 with P(c) = c^4 - c^3 + ac - a^2; P' is increasing
    on [1/2, 1], P(1/2) = -(a - 1/4)^2 <= 0 and P(1) = a(1 - a) > 0, so psi
    falls, then rises there, and its maximum over [ceil(m/2)/m, 1] is at an
    endpoint: the chain p -> q = ceil(m/2) -> m, which q reaches because
    g[q] >= g[p] + ((q - p)/q)^2, or the direct link p -> m.  Either one
    ends with a link from a point <= ceil(m/2).

    On that range the choice of i is monotone: for i < j <= ceil(m/2),
    i + j <= m and d/dm [w(j, m) - w(i, m)] = 2(j - i)(m - i - j)/m^3 >= 0
    for w(i, m) = (1 - i/m)^2, so once j overtakes i it stays ahead, and
    the smallest maximizer never decreases with m.  The rows are filled in
    blocks [a, 2a - 2], whose candidates i <= a - 1 are all final when the
    block starts.  Inside a block the divide and conquer of monotone
    matrix search (Aggarwal, Klawe, Moran, Shor and Wilber, 1987) solves
    the rows level by level, each over the candidates between the
    maximizers of its two nearest solved neighbours (predecessors[a - 1]
    on the left of the block), capped at ceil(m/2).  Each candidate's sum
    is computed as t = (m - i) / m; g[i] + t * t, and the smallest i
    attaining a row's float maximum is kept.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    g = np.zeros(d + 1)
    pred = np.zeros(d + 1, dtype=np.int64)
    a = 2
    while a <= d:
        b = min(2 * a - 2, d)
        if b <= _DIRECT:
            m = np.arange(a, b + 1)
            g[a:b + 1], pred[a:b + 1] = _row_maxima(g, m, np.ones_like(m),
                                                    (m + 1) >> 1)
        else:
            _fill_block(g, pred, a, b)
        a = b + 1
    return g, pred


def _fill_block(g, pred, a, b):
    """Rows a..b (b <= 2a - 2) by divide and conquer over the argmax.

    Row a - 1 + x is solved at the level of the largest power of two h
    that divides x, from the largest h down to 1.  Its neighbours
    a - 1 + x -+ h are then row a - 1, rows past b, or rows of an earlier
    level, and their predecessors bound its candidates.  The rows of a
    level are independent and are taken _FRONTIER at a time.
    """
    n = b - a + 1
    h = 1 << n.bit_length()
    while h > 1:
        h >>= 1
        count = (n // h + 1) // 2  # odd multiples of h up to n
        for j in range(0, count, _FRONTIER):
            m = a - 1 + h * (2 * np.arange(j, min(j + _FRONTIER, count)) + 1)
            cap = (m + 1) >> 1
            right = m + h
            hi = np.where(right <= b,
                          np.minimum(pred[np.minimum(right, b)], cap), cap)
            g[m], pred[m] = _row_maxima(g, m, pred[m - h], hi)


def _row_maxima(g, m, lo, hi):
    """Maximum of g[i] + ((m - i)/m)^2 over lo <= i <= hi for each row m,
    and the smallest i attaining it.

    The rows' candidate ranges are laid end to end and evaluated _SLICE at
    a time.  A row cut by a slice boundary keeps its earlier maximum unless
    a later slice's is strictly larger, which keeps the smallest index.
    """
    count = hi - lo + 1
    end = np.cumsum(count)
    total = int(end[-1])
    if total <= _SLICE:
        return _batch_maxima(g, m, lo, count)
    best = np.full(len(m), -np.inf)
    arg = np.zeros(len(m), dtype=np.int64)
    for s in range(0, total, _SLICE):
        e = min(s + _SLICE, total)
        rows = slice(int(np.searchsorted(end, s, "right")),
                     int(np.searchsorted(end, e - 1, "right")) + 1)
        start = end[rows] - count[rows]
        first = np.maximum(start, s)
        top, at = _batch_maxima(g, m[rows], lo[rows] + (first - start),
                                np.minimum(end[rows], e) - first)
        win = top > best[rows]
        np.copyto(best[rows], top, where=win)
        np.copyto(arg[rows], at, where=win)
    return best, arg


def _batch_maxima(g, m, first, count):
    """_row_maxima over first <= i < first + count, in one numpy batch."""
    seg = np.cumsum(count) - count
    i = np.repeat(first - seg, count)
    i += np.arange(len(i))
    mm = np.repeat(m, count)
    t = (mm - i) / mm
    t *= t
    v = g[i]
    v += t  # g[i] + t * t, in place to hold fewer candidate-sized arrays
    del t
    top = np.maximum.reduceat(v, seg)
    # i < m, so m marks the candidates that miss their row's maximum
    np.copyto(i, mm, where=v != np.repeat(top, count))
    return top, np.minimum.reduceat(i, seg)


def chain_certificate(table, d: int) -> PartitionCertificate:
    """The optimal chain to d and its value, read from a gamma_table of at
    least d + 1 entries by following the predecessors back to 1."""
    g, pred = table
    chain = [d]
    while chain[-1] != 1:
        chain.append(int(pred[chain[-1]]))
    return PartitionCertificate(indices=tuple(reversed(chain)), value=float(g[d]))


def gamma(d: int) -> PartitionCertificate:
    """Maximal partition sum from 1 to d with an optimal chain.

    O(d log d) work in numpy batches, O(d) memory with bounded
    temporaries (see gamma_table).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return chain_certificate(gamma_table(d), d)


@lru_cache(maxsize=None)
def beta_root() -> AsymptoticConstants:
    """Bisect 2*b*ln(b) - b + 1 on (0, 1) down to bracket width 1e-10."""

    def residual(b):
        return 2.0 * b * math.log(b) - b + 1.0

    lo, hi = 1e-15, 1.0 - 1e-15  # residual is +1 near 0 and negative near 1
    while hi - lo >= 1e-10:
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    return AsymptoticConstants(beta=beta, slope=2.0 * beta * (1.0 - beta))


def asymptotic_sandwich(d: int):
    """Bounds slope*ln(d) - 2(d-1)/d <= gamma(d) <= slope*ln(d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    slope = beta_root().slope
    upper = slope * math.log(d)
    return upper - 2.0 * (d - 1) / d, upper


def two_term_lower(d: int) -> float:
    """The length-two chain value ((d-1)/d)^2, a lower bound on gamma(d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return ((d - 1) / d) ** 2
