"""Smoothing construction tests: closed forms, high-precision and
grid-search oracles, exact gap formulas, and the sampled contracts."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxsmooth import bounds, smoothings
from maxsmooth.bounds import gamma
from maxsmooth.core import sigma_max, structured_point
from maxsmooth.smoothings import (
    _BLOCK_CELLS,
    SmoothingKind,
    _rows,
    c_constant,
    deviation_interval,
    gap_bound,
    value_grad,
    value_grad_many,
)


def is_simplex_point(w, tol):
    """True if w is nonnegative and sums to 1, both within tol."""
    return bool(np.all(w >= -tol) and abs(float(w.sum()) - 1.0) <= tol)


def quad_range_exact(d):
    """(c_d/2)(1 - 1/d) in rationals, rounded once to a float."""
    c = Fraction(d) if d % 2 == 0 else Fraction(d * d - 1, d)
    return float(c / 2 * (1 - Fraction(1, d)))


def lse_decimal(xs, prec=60):
    """Extended-precision log-sum-exp oracle."""
    getcontext().prec = prec
    total = sum(Decimal(repr(float(x))).exp() for x in xs)
    return float(total.ln())


def quad_sup_by_grid(x, c, shift, step):
    """Dense grid search for the dual supremum over the simplex (d = 2, 3)."""
    x = np.asarray(x, dtype=np.float64)
    d = len(x)
    if d == 2:
        t = np.arange(0.0, 1.0 + step / 2, step)
        lam = np.stack([t, 1.0 - t], axis=1)
    elif d == 3:
        n = int(round(1.0 / step))
        pts = [(i / n, j / n, (n - i - j) / n)
               for i in range(n + 1) for j in range(n + 1 - i)]
        lam = np.array(pts)
    else:
        raise ValueError("grid oracle only supports d in {2, 3}")
    vals = lam @ x - 0.5 * c * ((lam ** 2).sum(axis=1) - 1.0) - shift
    return float(vals.max())


KINDS_D4 = [SmoothingKind.lse(4), SmoothingKind.centered_lse(4),
            SmoothingKind.quadratic(4)]


class TestLogSumExp:
    def test_symmetric_point(self):
        for d in (2, 5):
            ev = value_grad(SmoothingKind.lse(d), np.zeros(d))
            assert ev.value == pytest.approx(math.log(d), abs=1e-15)
            np.testing.assert_allclose(ev.gradient, np.full(d, 1.0 / d),
                                       atol=1e-15)

    def test_closed_form_two_dim(self):
        ev = value_grad(SmoothingKind.lse(2), [1.0, 0.0])
        e = math.e
        assert ev.value == pytest.approx(math.log(1 + e), abs=1e-15)
        np.testing.assert_allclose(ev.gradient, [e / (1 + e), 1 / (1 + e)],
                                   atol=1e-15)

    def test_huge_input_matches_extended_precision(self):
        ev = value_grad(SmoothingKind.lse(2), [1000.0, 0.0])
        assert math.isfinite(ev.value)
        assert ev.value == pytest.approx(lse_decimal([1000.0, 0.0]), abs=1e-12)
        assert ev.value == 1000.0  # the tail underflows to zero exactly

    @pytest.mark.parametrize("x", [[30.0, 0.0], [3.0, -7.0, 1.5],
                                   [-700.0, -701.0], [50.0, 49.0, 48.0]])
    def test_matches_extended_precision(self, x):
        assert value_grad(SmoothingKind.lse(len(x)), x).value == pytest.approx(
            lse_decimal(x), rel=1e-14, abs=1e-14)

    def test_centered_subtracts_half_log(self):
        x = [0.3, -1.2, 4.0]
        raw = value_grad(SmoothingKind.lse(3), x)
        cen = value_grad(SmoothingKind.centered_lse(3), x)
        assert cen.value == pytest.approx(raw.value - 0.5 * math.log(3),
                                          abs=1e-15)
        np.testing.assert_array_equal(cen.gradient, raw.gradient)

    def test_overestimation_within_log_d(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = rng.standard_normal(6) * 5
            dev = value_grad(SmoothingKind.lse(6), x).value - sigma_max(x)
            assert -1e-12 <= dev <= math.log(6) + 1e-12


class TestCConstant:
    def test_even(self):
        assert c_constant(2) == 2.0
        assert c_constant(6) == 6.0

    def test_odd(self):
        assert c_constant(3) == pytest.approx(8.0 / 3.0, abs=1e-15)
        assert c_constant(5) == pytest.approx(24.0 / 5.0, abs=1e-15)

    @pytest.mark.parametrize("d", range(2, 12))
    def test_matches_bruteforce_over_split_sizes(self, d):
        # candidate zero-sum vectors: k entries d-k, the rest -k
        best = max(4.0 * k * (d - k) / d for k in range(1, d))
        assert c_constant(d) == pytest.approx(best, abs=1e-12)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            c_constant(1)


class TestQuadraticSmoothing:
    def test_value_at_origin_d2(self):
        ev = value_grad(SmoothingKind.quadratic(2), np.zeros(2))
        np.testing.assert_allclose(ev.gradient, [0.5, 0.5], atol=1e-15)
        assert ev.value == pytest.approx(0.25, abs=1e-15)

    def test_vertex_saturation_d2(self):
        ev = value_grad(SmoothingKind.quadratic(2), [10.0, 0.0])
        np.testing.assert_allclose(ev.gradient, [1.0, 0.0], atol=1e-15)
        assert ev.value == pytest.approx(9.75, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_symmetric_input_gives_uniform_gradient(self, d):
        for t in (-3.0, 0.0, 2.5):
            ev = value_grad(SmoothingKind.quadratic(d), np.full(d, t))
            np.testing.assert_allclose(ev.gradient, np.full(d, 1.0 / d),
                                       atol=1e-12)

    @pytest.mark.parametrize("d,step", [(2, 5e-4), (3, 1e-3)])
    def test_matches_grid_search_supremum(self, d, step):
        kind = SmoothingKind.quadratic(d)
        c, shift = kind.regularizer_weight, kind.offset
        rng = np.random.default_rng(17)
        probes = [np.zeros(d), structured_point(1, d, 5.0),
                  structured_point(d, d, 2.0)]
        probes += [rng.standard_normal(d) * s for s in (0.5, 1.0, 3.0)
                   for _ in range(3)]
        for x in probes:
            ev = value_grad(kind, x)
            assert ev.value == pytest.approx(
                quad_sup_by_grid(x, c, shift, step), abs=1e-6)

    def test_custom_weight_has_no_shift(self):
        kind = SmoothingKind.quadratic_custom(3, 1.0)
        assert kind.offset == 0.0
        ev = value_grad(kind, np.zeros(3))
        # supremum of -(c/2)(||lam||^2 - 1) at uniform: (c/2)(1 - 1/3)
        assert ev.value == pytest.approx(0.5 * (1 - 1 / 3), abs=1e-15)

    @pytest.mark.parametrize("kind", [
        SmoothingKind.quadratic(2), SmoothingKind.quadratic(3),
        SmoothingKind.quadratic_custom(3, 1e-3),
        SmoothingKind.quadratic_custom(3, 1e3)], ids=lambda k: k.label())
    def test_overflowing_spread_keeps_a_finite_value(self, kind):
        # x - max(x) overflows to -inf on a finite row; the value is the
        # max, as for lse, with no NaN and no numpy warning
        x = np.zeros(kind.d)
        x[:2] = 1e308, -1e308
        ev = value_grad(kind, x)
        vals, grads = value_grad_many(kind, x[None, :])
        assert ev.value == vals[0] == 1e308
        np.testing.assert_array_equal(ev.gradient, np.eye(kind.d)[0])
        np.testing.assert_array_equal(grads[0], ev.gradient)

    def test_degenerate_single_dim_is_identity(self):
        kind = SmoothingKind.quadratic(1)
        for t in (-5.0, 0.0, 2.0):
            ev = value_grad(kind, [t])
            assert ev.value == pytest.approx(t, abs=1e-15)
            assert ev.gradient[0] == 1.0


class TestGapFormulas:
    def test_centered_lse(self):
        assert gap_bound(SmoothingKind.centered_lse(4)) == pytest.approx(
            math.log(4) / 2, abs=1e-15)

    def test_quadratic_small_dims(self):
        assert gap_bound(SmoothingKind.quadratic(2)) == 0.25
        assert gap_bound(SmoothingKind.quadratic(3)) == pytest.approx(
            4.0 / 9.0, abs=1e-15)

    def test_quadratic_offset_is_the_partition_bound_below_four(self):
        # half the exact rational range, rounded once, is gamma(d) bitwise
        assert SmoothingKind.quadratic(2).offset == 0.25 == gamma(2).value
        assert SmoothingKind.quadratic(3).offset == 4 / 9 == gamma(3).value

    def test_centered_intervals_are_symmetric(self):
        for d in range(1, 51):
            for kind in (SmoothingKind.centered_lse(d),
                         SmoothingKind.quadratic(d)):
                g = gap_bound(kind)
                assert deviation_interval(kind) == (-g, g)

    def test_offset_needs_no_partition_table(self, monkeypatch):
        # the offset is a closed form: a million-dimensional quad runs no DP
        def no_dp(d):
            raise AssertionError(f"gamma_table({d}) was run")

        monkeypatch.setattr(bounds, "gamma_table", no_dp)
        kind = SmoothingKind.quadratic(10**6)
        assert kind.offset == 0.5 * kind.range == (10**6 - 1) / 4
        assert "bounds" not in vars(smoothings)

    def test_lse(self):
        assert gap_bound(SmoothingKind.lse(3)) == pytest.approx(math.log(3),
                                                                abs=1e-15)

    def test_helpers_are_the_closed_forms(self):
        # exact ==, not approx; == cannot tell -0.0 from 0.0, which is fine
        for d in range(1, 13):
            log_d = math.log(d)
            quad_range = quad_range_exact(d)
            cases = [
                (SmoothingKind.lse(d), log_d, 0.0, log_d),
                (SmoothingKind.centered_lse(d), log_d, 0.5 * log_d,
                 0.5 * log_d),
                (SmoothingKind.quadratic(d), quad_range, 0.5 * quad_range,
                 0.5 * quad_range),
            ]
            for c in (0.5, 2.0, 7.3, 1e3):
                full = 0.5 * c * (1.0 - 1.0 / d)
                cases.append((SmoothingKind.quadratic_custom(d, c), full,
                              0.0, full))
            for kind, full, offset, gap in cases:
                lo, hi = -offset, full - offset
                assert kind.range == full
                assert kind.offset == offset
                assert gap_bound(kind) == gap
                assert deviation_interval(kind) == (lo, hi)

    def test_deviation_interval_consistency(self):
        for kind in (SmoothingKind.lse(5), SmoothingKind.centered_lse(5),
                     SmoothingKind.quadratic(5),
                     SmoothingKind.quadratic_custom(5, 9.0)):
            lo, hi = deviation_interval(kind)
            assert lo <= 0.0 <= hi
            assert max(abs(lo), abs(hi)) == gap_bound(kind)

    def test_gap_attained_at_origin_and_vertex_ray(self):
        for d in (2, 3):
            kind = SmoothingKind.quadratic(d)
            g = gap_bound(kind)
            at0 = abs(value_grad(kind, np.zeros(d)).value)
            alpha = 1e4
            ray = structured_point(1, d, alpha)
            atv = abs(value_grad(kind, ray).value - alpha)
            assert at0 == pytest.approx(g, abs=1e-9)
            assert atv == pytest.approx(g, abs=1e-9)


class TestSampledContracts:
    @pytest.mark.parametrize("kind", KINDS_D4, ids=lambda k: k.label())
    def test_gradients_live_in_simplex(self, kind):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((500, kind.d)) * 4
        _, G = value_grad_many(kind, X)
        for g in G:
            assert is_simplex_point(g, tol=1e-12)

    @pytest.mark.parametrize("kind", KINDS_D4, ids=lambda k: k.label())
    def test_sampled_one_smoothness(self, kind):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((2000, kind.d))
        Y = X + rng.standard_normal((2000, kind.d)) * \
            10.0 ** rng.uniform(-3, 0, size=(2000, 1))
        _, GX = value_grad_many(kind, X)
        _, GY = value_grad_many(kind, Y)
        lhs = np.abs(GX - GY).sum(axis=1)
        rhs = np.abs(X - Y).max(axis=1)
        assert np.all(lhs <= rhs * (1 + 1e-8) + 1e-15)

    @pytest.mark.parametrize("kind", KINDS_D4, ids=lambda k: k.label())
    def test_permutation_equivariance(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.standard_normal(kind.d) * 3
            perm = rng.permutation(kind.d)
            ex, ep = value_grad(kind, x), value_grad(kind, x[perm])
            assert ep.value == pytest.approx(ex.value, abs=1e-12)
            np.testing.assert_allclose(ep.gradient, ex.gradient[perm],
                                       atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS_D4, ids=lambda k: k.label())
    def test_translation_rule(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal(kind.d)
            t = rng.uniform(-10, 10)
            assert value_grad(kind, x + t).value == pytest.approx(
                value_grad(kind, x).value + t, abs=1e-10)

    @pytest.mark.parametrize("kind", KINDS_D4 + [
        SmoothingKind.quadratic(6), SmoothingKind.quadratic_custom(4, 10.0)],
        ids=lambda k: k.label())
    def test_deviation_stays_inside_exact_interval(self, kind):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((1000, kind.d)) * \
            10.0 ** rng.uniform(-1, 2, size=(1000, 1))
        vals, _ = value_grad_many(kind, X)
        dev = vals - X.max(axis=1)
        lo, hi = deviation_interval(kind)
        assert np.all(dev >= lo - 1e-10) and np.all(dev <= hi + 1e-10)

    @pytest.mark.parametrize("kind", [
        SmoothingKind.lse(3), SmoothingKind.centered_lse(3),
        SmoothingKind.quadratic(3), SmoothingKind.quadratic_custom(3, 4.0)],
        ids=lambda k: k.label())
    def test_single_point_rejects_wrong_dimension(self, kind):
        with pytest.raises(ValueError):
            value_grad(kind, [1.0, 2.0])

    def test_batched_matches_single(self):
        # value_grad runs its own 1-D kernel with the batch formulas, so
        # every row agrees bitwise, signed zeros included
        rng = np.random.default_rng(9)
        for d in (1, 2, 3, 20, 37):
            X = np.vstack([
                rng.standard_normal((20, d)),
                1e8 * rng.standard_normal((4, d)),
                1e8 * rng.integers(-2, 3, (3, d)),  # ties at large scale
                rng.integers(-2, 3, (6, d)).astype(np.float64),  # ties
                np.full((1, d), 3.0),  # all equal
                np.zeros((1, d)),
                np.full((1, d), -0.0),
                rng.choice([0.0, -0.0], (3, d)),
                rng.choice([0.0, -0.0, 1.0], (3, d)),
            ])
            for kind in (SmoothingKind.lse(d), SmoothingKind.centered_lse(d),
                         SmoothingKind.quadratic(d),
                         SmoothingKind.quadratic_custom(d, 2.5)):
                vals, grads = value_grad_many(kind, X)
                for i, row in enumerate(X):
                    ev = value_grad(kind, row)
                    assert vals[i] == ev.value
                    assert np.signbit(vals[i]) == np.signbit(ev.value)
                    np.testing.assert_array_equal(grads[i], ev.gradient)
                    np.testing.assert_array_equal(np.signbit(grads[i]),
                                                  np.signbit(ev.gradient))

    @pytest.mark.parametrize("d", [7, 300])
    def test_blocked_batch_is_one_batch(self, d):
        step = _BLOCK_CELLS // d
        rng = np.random.default_rng(d)
        for kind in (SmoothingKind.lse(d), SmoothingKind.centered_lse(d),
                     SmoothingKind.quadratic(d),
                     SmoothingKind.quadratic_custom(d, 2.5)):
            for n in (step - 1, step, step + 1, 3 * step + 5):
                X = rng.standard_normal((n, d))
                vals, grads = value_grad_many(kind, X)
                ref_vals, ref_grads = _rows(kind, X)
                assert vals.tobytes() == ref_vals.tobytes()
                assert grads.tobytes() == ref_grads.tobytes()

    @given(hnp.arrays(np.float64, st.integers(1, 6).map(lambda d: (d,)),
                      elements=st.floats(-50, 50)),
           st.floats(-20, 20))
    @settings(max_examples=60, deadline=None)
    def test_translation_rule_property(self, x, t):
        kind = SmoothingKind.lse(len(x))
        assert value_grad(kind, x + t).value == pytest.approx(
            value_grad(kind, x).value + t, abs=1e-9)


class TestKindValidation:
    def test_custom_needs_positive_c(self):
        with pytest.raises(ValueError):
            SmoothingKind.quadratic_custom(3, 0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_custom_needs_finite_c(self, c):
        with pytest.raises(ValueError):
            SmoothingKind.quadratic_custom(3, c)
        with pytest.raises(ValueError):
            SmoothingKind.parse(f"quadc:{c}", 3)

    def test_parse_raises_value_error(self):
        with pytest.raises(ValueError, match="bad quadratic weight"):
            SmoothingKind.parse("quadc:two", 3)
        with pytest.raises(ValueError, match="kind must be lse, clse"):
            SmoothingKind.parse("softmax", 3)
        assert SmoothingKind.parse("quad", 5) == SmoothingKind.quadratic(5)

    def test_c_forbidden_elsewhere(self):
        with pytest.raises(ValueError):
            SmoothingKind("lse", 3, c=1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            SmoothingKind("mellow", 3)
