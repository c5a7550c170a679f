"""Vector primitives: the coordinate-wise max, Euclidean projection onto
the probability simplex, and the sparse uniform probe points used
throughout the lower-bound machinery."""

import math

import numpy as np


def as_point(x) -> np.ndarray:
    """Validate and return a finite 1-D float64 vector of dimension >= 1."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("point must be a 1-D vector with d >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("point entries must be finite")
    return v


def sigma_max(x) -> float:
    """Coordinate-wise maximum max_i x_i."""
    return float(np.max(as_point(x)))


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold method, O(d log d), exact up to floating point;
    idempotent on simplex members.
    """
    return _project_simplex_point(as_point(v))


def _project_simplex_point(v) -> np.ndarray:
    """Simplex projection of an unvalidated 1-D float64 vector.

    The same operations as one row of `project_simplex_rows`, so the
    result is bitwise that row, without the batch indexing.
    """
    d = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    # largest k with u_(k) > (sum of top k - 1)/k; always true at k=1
    ok = u * np.arange(1, d + 1) > css - 1.0
    rho = d - 1 - int(ok[::-1].argmax())
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def project_simplex_rows(V) -> np.ndarray:
    """Row-wise simplex projection of an (n, d) array."""
    V = np.asarray(V, dtype=np.float64)
    n, d = V.shape
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1)
    k = np.arange(1, d + 1)
    # largest k with u_(k) > (sum of top k - 1)/k; always true at k=1
    ok = U * k > css - 1.0
    rho = d - 1 - np.argmax(ok[:, ::-1], axis=1)
    tau = (css[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(V - tau[:, None], 0.0)


def structured_point(j: int, d: int, alpha: float = 1.0) -> np.ndarray:
    """Scaled probe point: first j coordinates alpha/j, remaining d-j zero."""
    if not 1 <= j <= d:
        raise ValueError(f"j must satisfy 1 <= j <= d, got j={j}, d={d}")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    x = np.zeros(d)
    x[:j] = alpha / j
    return x
