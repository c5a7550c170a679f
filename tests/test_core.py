"""Vector primitive tests with a KKT enumeration oracle for the projection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxsmooth.core import (
    as_point,
    project_simplex,
    project_simplex_rows,
    sigma_max,
    structured_point,
)


def projection_by_active_sets(v):
    """Independent oracle: enumerate supports, solve, keep the KKT point.

    For support S the candidate is v_S - tau with tau = (sum(v_S) - 1)/|S|;
    feasibility needs the candidate nonnegative on S and v_i <= tau off S.
    """
    v = np.asarray(v, dtype=np.float64)
    d = len(v)
    for r in range(d, 0, -1):
        for S in itertools.combinations(range(d), r):
            tau = (sum(v[i] for i in S) - 1.0) / len(S)
            lam = np.zeros(d)
            for i in S:
                lam[i] = v[i] - tau
            if any(lam[i] < -1e-12 for i in S):
                continue
            if any(v[i] - tau > 1e-12 for i in range(d) if i not in S):
                continue
            return lam
    raise AssertionError("no KKT point found")


def is_simplex_point(w, tol):
    """True if w is nonnegative and sums to 1, both within tol."""
    return bool(np.all(w >= -tol) and abs(float(w.sum()) - 1.0) <= tol)


finite_vectors = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=8),
    elements=st.floats(-1e6, 1e6),
)


class TestSigmaMaxAndNorms:
    def test_all_zero(self):
        assert sigma_max([0.0, 0.0, 0.0]) == 0.0

    def test_uniform_scaled(self):
        assert sigma_max([1.0, 1.0, 1.0]) == 1.0

    def test_coordinate_scan(self):
        assert sigma_max([-2.0, 5.0, 3.0]) == 5.0

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            sigma_max([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            as_point([1.0, np.nan])
        with pytest.raises(ValueError):
            as_point([np.inf, 0.0])

    @given(finite_vectors, st.data())
    @settings(max_examples=50, deadline=None)
    def test_max_is_one_lipschitz_in_inf_norm(self, x, data):
        y = data.draw(hnp.arrays(np.float64, x.shape,
                                 elements=st.floats(-1e6, 1e6)))
        assert abs(sigma_max(x) - sigma_max(y)) <= np.abs(x - y).max() + 1e-9

    @given(finite_vectors, st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_max_positive_homogeneity(self, x, alpha):
        assert sigma_max(alpha * x) == pytest.approx(alpha * sigma_max(x),
                                                     rel=1e-12, abs=1e-9)


class TestProjectSimplex:
    def test_uniform_is_fixed_point(self):
        v = np.full(5, 0.2)
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-15)

    def test_dominant_coordinate(self):
        np.testing.assert_allclose(project_simplex([10.0, 0.0, 0.0]),
                                   [1.0, 0.0, 0.0], atol=1e-15)

    def test_frozen_kkt_example(self):
        # oracle value: support {0,1}, tau = -1/4
        expected = projection_by_active_sets([0.5, 0.0])
        np.testing.assert_allclose(expected, [0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose(project_simplex([0.5, 0.0]), expected,
                                   atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_matches_active_set_oracle(self, d):
        rng = np.random.default_rng(1234 + d)
        for _ in range(50):
            v = rng.standard_normal(d) * rng.choice([0.1, 1.0, 10.0])
            np.testing.assert_allclose(project_simplex(v),
                                       projection_by_active_sets(v),
                                       atol=1e-11)

    def test_output_in_simplex_and_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = project_simplex(rng.standard_normal(6) * 3.0)
            assert is_simplex_point(w, tol=1e-12)
            np.testing.assert_allclose(project_simplex(w), w, atol=1e-12)

    def test_optimality_against_random_simplex_points(self):
        rng = np.random.default_rng(99)
        v = rng.standard_normal(4)
        w = project_simplex(v)
        base = np.sum((w - v) ** 2)
        candidates = rng.dirichlet(np.ones(4), size=1000)
        dists = np.sum((candidates - v) ** 2, axis=1)
        assert np.all(dists >= base - 1e-12)

    def test_rows_agree_with_single(self):
        # the 1-D projection repeats the row operations: bitwise agreement
        rng = np.random.default_rng(5)
        V = np.vstack([
            rng.standard_normal((40, 5)),
            rng.integers(-1, 2, (10, 5)).astype(np.float64),  # ties
            np.zeros((1, 5)),
            np.full((1, 5), -0.0),
            rng.choice([0.0, -0.0], (4, 5)),
        ])
        rows = project_simplex_rows(V)
        for i, v in enumerate(V):
            np.testing.assert_array_equal(rows[i], project_simplex(v))


class TestStructuredPoint:
    def test_vertex(self):
        np.testing.assert_array_equal(structured_point(1, 3), [1.0, 0.0, 0.0])

    def test_uniform(self):
        np.testing.assert_array_equal(structured_point(3, 3, alpha=3.0),
                                      [1.0, 1.0, 1.0])

    def test_half_support(self):
        np.testing.assert_array_equal(structured_point(2, 4),
                                      [0.5, 0.5, 0.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            structured_point(0, 3)
        with pytest.raises(ValueError):
            structured_point(4, 3)
        with pytest.raises(ValueError):
            structured_point(1, 3, alpha=0.0)

    @pytest.mark.parametrize("i,j", [(2, 1), (3, 1), (3, 2), (8, 3), (10, 9)])
    def test_one_norm_between_probe_points(self, i, j):
        d = 10
        gap = np.abs(structured_point(i, d) - structured_point(j, d)).sum()
        assert gap == pytest.approx(2.0 * (1.0 - j / i), abs=1e-14)
