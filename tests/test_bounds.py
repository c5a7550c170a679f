"""Partition lower-bound tests: DP vs exhaustive oracle, exact rational
DP cross-check, the transcendental constant, and the logarithmic sandwich."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from maxsmooth.bounds import (
    AsymptoticConstants,
    asymptotic_sandwich,
    beta_root,
    gamma,
    gamma_table,
    partition_sum,
    two_term_lower,
)


def gamma_bruteforce(d, exact=False):
    """Exhaustive maximum over all 2^(d-2) admissible index chains.

    Independent of the DP.  With exact=True (d <= 12) the sum is carried
    in rational arithmetic and returned as a Fraction.
    """
    limit = 12 if exact else 22
    if not 2 <= d <= limit:
        raise ValueError(f"brute force supports 2 <= d <= {limit}"
                         f"{' in exact mode' if exact else ''}, got {d}")
    zero = Fraction(0) if exact else 0.0

    def term(a, b):
        return Fraction(b - a, b) ** 2 if exact else ((b - a) / b) ** 2

    best = [zero]

    def extend(prev, acc):
        closing = acc + term(prev, d)
        if closing > best[0]:
            best[0] = closing
        for nxt in range(prev + 1, d):
            extend(nxt, acc + term(prev, nxt))

    extend(1, zero)
    return best[0]


def gamma_table_exact(d):
    """Exact values of the partition recurrence up to d, O(d^2) Fractions.

    Maximizes over every 1 <= i < m, so it does not rely on the DP's
    restriction to i <= ceil(m/2).
    """
    g = [Fraction(0)] * (d + 1)
    for m in range(2, d + 1):
        g[m] = max(g[i] + Fraction(m - i, m) ** 2 for i in range(1, m))
    return g


def enumerate_chains_directly(d):
    """Second independent enumerator (itertools subsets of interior points)."""
    best = -1.0
    for r in range(0, d - 1):
        for mids in itertools.combinations(range(2, d), r):
            seq = (1,) + mids + (d,)
            best = max(best, sum(((b - a) / b) ** 2
                                 for a, b in zip(seq, seq[1:])))
    return best


def gamma_table_rescan(d):
    """Reference O(d^2) DP: every m rescans all 1 <= i < m."""
    g = np.zeros(d + 1)
    pred = np.zeros(d + 1, dtype=np.int64)
    idx = np.arange(0, d + 1, dtype=np.float64)
    for m in range(2, d + 1):
        t = (m - idx[1:m]) / m
        vals = g[1:m] + t * t
        k = int(np.argmax(vals))
        g[m] = vals[k]
        pred[m] = 1 + k
    return g, pred


def rescan_row(g, m):
    """Maximum and smallest argmax of g[i] + ((m - i)/m)^2 over 1 <= i < m."""
    t = (m - np.arange(1, m, dtype=np.float64)) / m
    vals = g[1:m] + t * t
    k = int(np.argmax(vals))
    return vals[k], 1 + k


@pytest.fixture(scope="module")
def table_1e6():
    return gamma_table(10**6)


class TestGamma:
    def test_base_case(self):
        cert = gamma(1)
        assert cert.value == 0.0 and cert.indices == (1,)

    def test_small_closed_forms(self):
        assert gamma(2).value == 0.25
        assert gamma(3).value == (2 / 3) ** 2  # exactly float(4/9)
        assert gamma(3).value == 4 / 9
        assert gamma(4).value == 0.5625
        assert gamma(4).indices == (1, 4)

    @pytest.mark.parametrize("d", range(2, 15))
    def test_matches_bruteforce(self, d):
        assert abs(gamma(d).value - gamma_bruteforce(d)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 13))
    def test_bruteforce_against_second_enumerator(self, d):
        assert gamma_bruteforce(d) == pytest.approx(
            enumerate_chains_directly(d), abs=1e-13)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_exact_rational_bruteforce(self, d):
        exact = gamma_bruteforce(d, exact=True)
        assert isinstance(exact, Fraction)
        assert abs(float(exact) - gamma(d).value) <= 1e-12

    def test_three_beats_the_refinement(self):
        # chain (1,3) dominates (1,2,3): 4/9 > 1/4 + 1/9
        assert gamma_bruteforce(3) == pytest.approx(4 / 9, abs=1e-15)
        assert 4 / 9 > 0.25 + (1 / 3) ** 2

    def test_certificate_recomputes_to_value(self):
        for d in (2, 7, 50, 300):
            cert = gamma(d)
            assert abs(partition_sum(cert.indices) - cert.value) <= 1e-12

    def test_every_chain_is_exactly_optimal(self):
        # exact ties such as m = 175 (49 and 50) may be broken either way,
        # so the test asks for an exact maximizer, not the smallest one
        d = 400
        exact = gamma_table_exact(d)
        g, pred = gamma_table(d)
        for m in range(2, d + 1):
            p = int(pred[m])
            assert exact[p] + Fraction(m - p, m) ** 2 == exact[m], m
            assert abs(Fraction(float(g[m])) - exact[m]) <= 1e-15, m

    def test_tie_break_prefers_smallest_predecessor(self):
        # values are argmax-first over ascending i, so indices are canonical
        g, pred = gamma_table(50)
        for m in range(2, 51):
            t = (m - np.arange(1, m, dtype=float)) / m
            vals = g[1:m] + t * t
            assert pred[m] == 1 + int(np.argmax(vals))

    def test_monotone_nondecreasing(self):
        g, _ = gamma_table(10_000)
        assert np.all(np.diff(g[1:]) >= 0.0)

    def test_within_centered_lse_upper_bound(self):
        for d in range(2, 51):
            val = gamma(d).value
            assert two_term_lower(d) <= val + 1e-15
            assert val <= 0.5 * math.log(d) + 1e-15

    @pytest.mark.parametrize("d", [*range(1, 41), 777, 3000, 20_000])
    def test_matches_full_rescan_bitwise(self, d):
        g, pred = gamma_table(d)
        ref_g, ref_pred = gamma_table_rescan(d)
        assert g.dtype == np.float64 and pred.dtype == np.int64
        assert np.array_equal(g, ref_g)
        assert np.array_equal(pred, ref_pred)

    @pytest.mark.parametrize("m", [497963, 562704])
    def test_large_rows_match_rescan(self, table_1e6, m):
        # rows where a windowed inner search misses the maximizer
        g, pred = table_1e6
        best, arg = rescan_row(g, m)
        assert g[m] == best
        assert pred[m] == arg

    def test_bellman_residual_at_1e6(self, table_1e6):
        g, _ = table_1e6
        rng = np.random.default_rng(20251210)
        rows = [*rng.integers(2, 10**6 + 1, size=200), 568216, 10**6]
        worst = max(rescan_row(g, int(m))[0] - g[m] for m in rows)
        assert worst <= 1e-12

    def test_late_links_never_beat_an_early_predecessor(self):
        # For every p <= q0 = ceil(m/2), a two-link chain p -> x -> m with
        # x > q0 is no better than the best p -> q -> m with p <= q <= q0
        # (q = p is the direct link).  This is the endpoint step of the
        # argument restricting predecessors to i <= ceil(m/2).
        for m in range(2, 300):
            q0 = (m + 1) // 2
            p = np.arange(1, q0 + 1, dtype=np.float64)[:, None]
            x = np.arange(q0 + 1, m + 1, dtype=np.float64)[None, :]
            q = np.arange(1, q0 + 1, dtype=np.float64)[None, :]
            late = ((x - p) / x) ** 2 + ((m - x) / m) ** 2
            early = np.where(q >= p, ((q - p) / q) ** 2 + ((m - q) / m) ** 2,
                             -np.inf)
            assert np.all(late.max(axis=1) <= early.max(axis=1)), m

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            gamma(0)

    def test_bruteforce_range_checks(self):
        with pytest.raises(ValueError):
            gamma_bruteforce(1)
        with pytest.raises(ValueError):
            gamma_bruteforce(23)
        with pytest.raises(ValueError):
            gamma_bruteforce(13, exact=True)

    def test_partition_sum_validates_chain(self):
        with pytest.raises(ValueError):
            partition_sum((2, 4))
        with pytest.raises(ValueError):
            partition_sum((1, 3, 3))


class TestBetaRoot:
    def test_defining_equation_residual(self):
        c = beta_root(1e-10)
        assert abs(2 * c.beta * math.log(c.beta) - c.beta + 1) <= 1e-9

    def test_numeric_values(self):
        c = beta_root(1e-10)
        assert c.beta == pytest.approx(0.28467, abs=5e-6)
        assert c.slope == pytest.approx(0.40726, abs=5e-6)
        assert 0 < c.beta < 1

    def test_slope_definition(self):
        c = beta_root(1e-12)
        assert c.slope == 2 * c.beta * (1 - c.beta)
        assert isinstance(c, AsymptoticConstants)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            beta_root(0.0)


class TestSandwich:
    def test_degenerate_dimension(self):
        lower, upper = asymptotic_sandwich(1)
        assert lower == 0.0 and upper == 0.0

    @pytest.mark.parametrize("d", [2, 10, 100, 1000])
    def test_containment(self, d):
        lower, upper = asymptotic_sandwich(d)
        val = gamma(d).value
        assert lower - 1e-9 <= val <= upper + 1e-9

    def test_upper_bound_formula(self):
        slope = beta_root(1e-10).slope
        lower, upper = asymptotic_sandwich(100)
        assert upper == pytest.approx(slope * math.log(100), abs=1e-15)
        assert upper - lower == pytest.approx(2 * 99 / 100, abs=1e-15)


class TestTwoTermLower:
    def test_values(self):
        assert two_term_lower(2) == 0.25
        assert two_term_lower(1) == 0.0
        assert two_term_lower(4) == 0.5625

    def test_coincides_with_gamma_at_four(self):
        assert two_term_lower(4) == gamma_bruteforce(4)
