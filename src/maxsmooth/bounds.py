"""Lower-bound machinery for smoothing gaps: the maximal partition sum
gamma(d) computed by dynamic programming with certificate recovery, the
transcendental constant behind the asymptotic slope, and the logarithmic
sandwich bounds."""

from array import array
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
    """Sum of ((j_l - j_{l-1}) / j_l)^2 along an increasing chain."""
    idx = list(indices)
    if idx[0] != 1 or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing and start at 1")
    return float(sum(((b - a) / b) ** 2 for a, b in zip(idx, idx[1:])))


def gamma_table(d: int):
    """DP table for the partition recurrence up to d.

    Returns (values, predecessors), float64 and int64 arrays indexed 0..d:
    values[m] = max over 1 <= i < m of values[i] + ((m - i) / m)^2 is the
    maximal partition sum from 1 to m, and predecessors[m] is the smallest
    i that maximizes the float64 sum.  That tie rule holds in floating
    point only: at m = 175 the exact maximizers are 49 and 50 and the
    rounded sums make 50 the larger one (m = 1326: 390 and 391), so an
    exact tie may be broken toward the larger index; either choice
    continues an optimal chain.  O(d log d) time and O(d) memory.

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
    for w(i, m) = (1 - i/m)^2, so once j overtakes i it stays ahead.
    Candidate j enters at m = 2j - 1 and a queue keeps, for each live
    candidate, the first m at which it is the argmax, found by a doubling
    then binary search when it enters.  A later candidate takes over only
    when its float sum is strictly larger, which keeps the smallest-index
    tie rule among equal float sums.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    g = array("d", [0.0]) * (d + 1)
    pred = array("q", [0]) * (d + 1)
    # live candidates q[head:tail:2], each followed by the m from which it
    # is the argmax
    q = array("q", [0]) * (d + 3)
    q[0], head, tail = 1, 0, 2
    for m in range(2, d + 1):
        if m & 1:
            j = (m + 1) >> 1
            gj = g[j]
            while head < tail:
                i = q[tail - 2]
                gi = g[i]
                lo = max(q[tail - 1], m)
                t, u = (lo - j) / lo, (lo - i) / lo
                if gj + t * t > gi + u * u:
                    tail -= 2  # j beats i over all of i's range
                    continue
                # first x in (lo, d] at which j beats i: double the step
                # until j is ahead at hi, then bisect (j is behind at lo)
                step, hi = 1, lo + 1
                while hi < d:
                    t, u = (hi - j) / hi, (hi - i) / hi
                    if gj + t * t > gi + u * u:
                        break
                    lo, step = hi, 2 * step
                    hi = lo + step
                else:
                    hi = d
                    t, u = (d - j) / d, (d - i) / d
                    if not gj + t * t > gi + u * u:
                        break  # j never leads up to d
                while hi - lo > 1:
                    x = (lo + hi) >> 1
                    t, u = (x - j) / x, (x - i) / x
                    if gj + t * t > gi + u * u:
                        hi = x
                    else:
                        lo = x
                q[tail], q[tail + 1] = j, hi
                tail += 2
                break
            else:
                q[tail], q[tail + 1] = j, m
                tail += 2
        while tail - head > 2 and q[head + 3] <= m:
            head += 2
        i = q[head]
        t = (m - i) / m
        g[m] = g[i] + t * t
        pred[m] = i
    return np.frombuffer(g, dtype=np.float64), np.frombuffer(pred, dtype=np.int64)


def gamma(d: int) -> PartitionCertificate:
    """Maximal partition sum from 1 to d with an optimal chain.

    O(d log d) time, O(d) memory.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    g, pred = gamma_table(d)
    chain = [d]
    while chain[-1] != 1:
        chain.append(int(pred[chain[-1]]))
    return PartitionCertificate(indices=tuple(reversed(chain)), value=float(g[d]))


@lru_cache(maxsize=None)
def beta_root(tol: float = 1e-10) -> AsymptoticConstants:
    """Bisect 2*b*ln(b) - b + 1 on (0, 1) down to bracket width tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")

    def residual(b):
        return 2.0 * b * math.log(b) - b + 1.0

    lo, hi = 1e-15, 1.0 - 1e-15  # residual is +1 near 0 and negative near 1
    while hi - lo >= tol:
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
    slope = beta_root(1e-10).slope
    upper = slope * math.log(d)
    return upper - 2.0 * (d - 1) / d, upper


def two_term_lower(d: int) -> float:
    """The length-two chain value ((d-1)/d)^2, a lower bound on gamma(d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return ((d - 1) / d) ** 2


@lru_cache(maxsize=None)
def gamma_value(d: int) -> float:
    """Cached gamma(d) value for use as the quadratic smoothing shift."""
    return gamma(d).value
