"""Certificate machinery tests: determinism, expected passes on certified
kinds, the engineered failure below the threshold constant, kink-aware
finite differences, and the telescoping witness outside the suite."""

from dataclasses import replace
import json
import math
import tracemalloc

import numpy as np
import pytest

from maxsmooth import certify
from maxsmooth.bounds import gamma
from maxsmooth.certify import (
    CertReport,
    SamplerConfig,
    check_gradient_fd,
    check_gradient_structure,
    empirical_gap,
    q_certificate_grid,
    reports_to_json,
    run_certificate_suite,
    telescoping_sum,
)
from maxsmooth.core import structured_point
from maxsmooth.smoothings import (
    SmoothingKind,
    deviation_interval,
    gap_bound,
    value_grad,
    value_grad_many,
)


CFG = SamplerConfig(seed=42, count=2000, distribution="mixed")


def q_certificate(kind, i, j, alpha):
    """Smooth-convexity residual Q between the probe points alpha x_i and
    alpha x_j from two single-point evaluations; structured_point rejects
    an index outside 1..d and a nonpositive alpha."""
    xi = structured_point(i, kind.d, alpha)
    xj = structured_point(j, kind.d, alpha)
    ei = value_grad(kind, xi)
    ej = value_grad(kind, xj)
    inner = float(ej.gradient @ (xi - xj))
    dual = float(np.abs(ei.gradient - ej.gradient).sum())
    return ei.value - ej.value - inner - 0.5 * dual * dual


def q_grid_loop(kind, alphas=(0.1, 1.0, 10.0, 100.0)):
    """Reference q-grid: q_certificate on every ordered pair, the first
    strict maximum of -Q in (alpha, i, j) order as the witness."""
    d = kind.d
    worst, witness, n = -math.inf, None, 0
    for alpha in alphas:
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                if i == j:
                    continue
                v = -q_certificate(kind, i, j, alpha)
                n += 1
                if v > worst:
                    worst, witness = v, (i, j, alpha)
    if n == 0:
        worst, witness = 0.0, (1, 1, alphas[0])
    return worst, witness, max(n, 1)


def gap_scan_one_batch(kind, alpha_max, X):
    """Reference empirical_gap scan: every probe ray and the sample X in
    one batch.  Returns the worst departure of f - max from
    deviation_interval, its first maximum as the witness, sup |f - max|
    and the point count."""
    d = kind.d
    alphas = np.geomspace(1e-3, alpha_max, 80)
    rays = np.zeros((1 + 80 * d, d))
    for j in range(1, d + 1):
        rays[1 + 80 * (j - 1):1 + 80 * j, :j] = (alphas / j)[:, None]
    P = np.vstack([rays, X])
    dev = value_grad_many(kind, P)[0] - P.max(axis=1)
    lo, hi = deviation_interval(kind)
    viol = np.maximum(lo - dev, dev - hi)
    k = int(np.argmax(viol))
    return float(viol[k]), P[k], float(np.abs(dev).max()), len(P)


def sample_rays_loop(d, n, rng):
    """Reference ray draw: one rng.permutation(d) per row, in row order."""
    js = rng.integers(1, d + 1, size=n)
    alphas = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
    X = np.zeros((n, d))
    for row, (j, a) in enumerate(zip(js, alphas)):
        X[row, rng.permutation(d)[:j]] = a / j
    return X


def sample_points_oracle(cfg, d, rng):
    """Reference _sample_points: the Gaussian rows and the per-row rays
    drawn whole and stacked."""
    n = cfg.count
    if cfg.distribution == "gaussian":
        return rng.standard_normal((n, d))
    half = n // 2
    gauss = rng.standard_normal((n - half, d))
    rays = sample_rays_loop(d, half, rng) if half else np.zeros((0, d))
    return np.vstack([gauss, rays])


def smoothness_oracle(kind, cfg, tol, sample):
    """Reference _smoothness: every partner drawn whole, the independent
    rows overwritten, and all partners evaluated in one batch."""
    X, _, GX, state = sample
    rng = np.random.default_rng(cfg.seed)
    rng.bit_generator.state = state
    d = X.shape[1]
    rho = 10.0 ** rng.uniform(-3.0, 0.5, size=cfg.count)
    U = rng.standard_normal((cfg.count, d))
    independent = np.arange(cfg.count) % 4 == 0
    Y = X + rho[:, None] * U
    if independent.any():
        Y[independent] = sample_points_oracle(
            replace(cfg, count=int(independent.sum())), d, rng)
    dual = np.abs(GX - value_grad_many(kind, Y)[1]).sum(axis=1)
    primal = np.abs(X - Y).max(axis=1)
    keep = primal > 0.0
    raw = dual[keep] - primal[keep]
    normalized = raw / np.maximum(1.0, primal[keep])
    k = int(np.argmax(normalized))
    i = np.flatnonzero(keep)[k]
    return CertReport(
        name=f"smoothness[{kind.label()}]", samples=int(keep.sum()),
        worst_violation=float(normalized[k]), witness=(X[i], Y[i]),
        tolerance=tol, seed=cfg.seed,
        details={"raw_violation": float(raw[k]),
                 "skipped": int((~keep).sum())})


def expectation_oracle(kind, delta, cfg, tol, sample):
    """Reference _expectation over the whole sample at once."""
    X, _, G, _ = sample
    viol = X.max(axis=1) - 2.0 * delta - (G * X).sum(axis=1)
    return certify._worst_row("expectation_guarantee", kind, cfg, viol, X,
                              tol, delta=delta)


def permutation_oracle(kind, cfg, tol, sample):
    """Reference _permutation: every permutation drawn and every permuted
    point evaluated in one batch."""
    X, vals, G, state = sample
    rng = np.random.default_rng(cfg.seed)
    rng.bit_generator.state = state
    perms = np.argsort(rng.random((cfg.count, kind.d)), axis=1)
    vals_p, Gp = value_grad_many(kind, np.take_along_axis(X, perms, axis=1))
    viol = np.maximum(np.abs(vals_p - vals),
                      np.abs(Gp - np.take_along_axis(G, perms, axis=1))
                      .max(axis=1))
    return certify._worst_row("permutation_invariance", kind, cfg, viol, X,
                              tol)


def gradient_fd_loop(kind, x):
    """Reference check_gradient_fd: every stencil point evaluated on its
    own, the active sets from single-point gradients."""
    x = np.asarray(x, dtype=np.float64)
    ev = value_grad(kind, x)
    step = 1e-5 * (1.0 + float(np.abs(x).max()))
    d = kind.d

    def f(p):
        return value_grad(kind, p).value

    def support(p):
        if not kind.is_quadratic:
            return None
        return tuple(np.nonzero(value_grad(kind, p).gradient > 0.0)[0])

    base_support = support(x)
    kink_coords, skipped = [], []
    fd = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        if not kind.is_quadratic or (support(x + e) == base_support
                                     and support(x - e) == base_support):
            fd[i] = (f(x + e) - f(x - e)) / (2.0 * step)
            continue
        kink_coords.append(i)
        if support(x + e) == base_support and support(x + 2 * e) == base_support:
            fd[i] = (-3.0 * f(x) + 4.0 * f(x + e) - f(x + 2 * e)) / (2.0 * step)
        elif support(x - e) == base_support and support(x - 2 * e) == base_support:
            fd[i] = (3.0 * f(x) - 4.0 * f(x - e) + f(x - 2 * e)) / (2.0 * step)
        else:
            skipped.append(i)
            fd[i] = ev.gradient[i]
    err = np.abs(fd - ev.gradient)
    k = int(np.argmax(err))
    worst = float(err[k])
    return CertReport(
        name=f"gradient_fd[{kind.label()}]", samples=d - len(skipped),
        worst_violation=worst, witness=x, tolerance=1e-6,
        details={"kink_coordinates": kink_coords, "skipped_coordinates": skipped,
                 "step": step, "worst_coordinate": k})


def gradient_structure_loop(kind, j, tol=1e-9):
    """Reference check_gradient_structure: one value_grad per scale."""
    d = kind.d
    alphas = [0.5, 1.0, 10.0, 100.0]
    worst, witness, lam_prev, lams = -math.inf, None, None, []
    for a in alphas:
        x = structured_point(j, d, a)
        g = value_grad(kind, x).gradient
        block_dev = float(np.abs(g[:j] - g[:j].mean()).max())
        if j < d:
            block_dev = max(block_dev, float(np.abs(g[j:] - g[j:].mean()).max()))
        lam = float(g[:j].mean())
        lams.append(lam)
        viol = max(block_dev, lam - 1.0 / j)
        if lam_prev is not None:
            viol = max(viol, lam_prev - lam)
        lam_prev = lam
        if viol > worst:
            worst, witness = viol, x
    return CertReport(
        name=f"gradient_structure[{kind.label()},j={j}]", samples=len(alphas),
        worst_violation=float(worst), witness=witness, tolerance=tol,
        details={"block_weights": lams, "alphas": alphas})


def all_kinds(d):
    return [SmoothingKind.lse(d), SmoothingKind.centered_lse(d),
            SmoothingKind.quadratic(d), SmoothingKind.quadratic_custom(d, 7.5)]


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, count=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, distribution="cauchy")


class TestRaySampler:
    @pytest.mark.parametrize("d", [1, 2, 90, 300])
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_draw_and_stream_equal_per_row_loop(self, d, n):
        for seed in (0, 17, 20250808):
            rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
            X = np.full((n, d), np.nan)
            certify._sample_rays(X, rng)
            ref = sample_rays_loop(d, n, ref_rng)
            assert X.shape == ref.shape and X.tobytes() == ref.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSmoothnessCertificate:
    @pytest.mark.parametrize("kind", [
        SmoothingKind.lse(2), SmoothingKind.centered_lse(5),
        SmoothingKind.quadratic(3), SmoothingKind.quadratic(8)],
        ids=lambda k: k.label())
    def test_certified_kinds_pass(self, kind):
        report = certify._smoothness(kind, CFG, 1e-8,
                                     certify._evaluated_sample(kind, CFG))
        assert report.passed, report.worst_violation

    def test_below_threshold_weight_fails_with_witness(self):
        kind = SmoothingKind.quadratic_custom(4, c=2.0)  # threshold is 4
        cfg = SamplerConfig(seed=0, count=10_000)
        report = certify._smoothness(kind, cfg, 1e-8,
                                     certify._evaluated_sample(kind, cfg))
        assert not report.passed
        assert report.worst_violation > 0
        x, y = report.witness
        gx = value_grad(kind, x).gradient
        gy = value_grad(kind, y).gradient
        lhs = np.abs(gx - gy).sum()
        rhs = np.abs(np.asarray(x) - np.asarray(y)).max()
        assert lhs > rhs  # the witness really violates the inequality

    def test_deterministic_given_seed(self):
        kind = SmoothingKind.lse(3)
        a, b = (certify._smoothness(kind, CFG, 1e-8,
                                    certify._evaluated_sample(kind, CFG))
                for _ in range(2))
        assert a.worst_violation == b.worst_violation
        np.testing.assert_array_equal(a.witness[0], b.witness[0])


class TestGradientFiniteDifference:
    def test_lse_at_symmetric_point(self):
        report = check_gradient_fd(SmoothingKind.lse(4), np.zeros(4))
        assert report.passed
        assert not report.details["kink_coordinates"]

    def test_quadratic_smooth_region(self):
        report = check_gradient_fd(SmoothingKind.quadratic(3),
                                   np.array([0.05, -0.3, 0.2]))
        assert report.passed

    def test_quadratic_active_set_boundary(self):
        # support of the projection changes exactly at x = (1, -1) for c = 2
        kind = SmoothingKind.quadratic(2)
        report = check_gradient_fd(kind, np.array([1.0, -1.0]))
        assert report.passed
        assert 1 in report.details["kink_coordinates"]

    def test_random_probes_all_kinds(self):
        rng = np.random.default_rng(12)
        for kind in (SmoothingKind.lse(5), SmoothingKind.centered_lse(4),
                     SmoothingKind.quadratic(6)):
            for _ in range(5):
                x = rng.standard_normal(kind.d) * 2
                assert check_gradient_fd(kind, x).passed


class TestBatchedChecksEqualLoops:
    @staticmethod
    def fd_points(kind):
        d, rng = kind.d, np.random.default_rng(kind.d)
        points = [np.zeros(d), rng.standard_normal(d), 3 * rng.standard_normal(d)]
        if kind.is_quadratic and d > 1:
            # coordinates 1.. sit exactly on the edge of the active set {0}:
            # x - e_0 pulls them all in (forward stencil for 0), x + e_i pulls
            # i in (backward stencil for i)
            seam = np.full(d, -kind.regularizer_weight)
            seam[0] = 0.0
            points.append(seam)
        return points

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 55])
    def test_gradient_fd(self, d):
        seams = 0
        for kind in all_kinds(d):
            for x in self.fd_points(kind):
                report = check_gradient_fd(kind, x)
                assert report.to_dict() == gradient_fd_loop(kind, x).to_dict()
                seams += bool(report.details["kink_coordinates"])
        assert seams == (2 if d > 1 else 0)

    @pytest.mark.parametrize("kind", all_kinds(2), ids=lambda k: k.label())
    def test_gradient_fd_at_the_edge_of_the_floats(self, kind):
        # x +/- 2 step overflows at +/-big while x +/- step does not; the
        # loop evaluates x + 2 step only on the side of a quad seam that
        # keeps the active set, as at the near tie [big, big - 1e303], there
        # raising, and so must the batch; at the ties both sides change it,
        # so nothing raises; the largest float overflows at x + step already
        big = 1.79767e308
        points = ([big, 0.0], [big, big], [-big, -big], [big, big - 1e303],
                  [1.7976931348623157e308, 0.0])
        raised = []
        for x in points:
            with np.errstate(over="ignore"):
                try:
                    expected = gradient_fd_loop(kind, x).to_dict()
                except ValueError as exc:
                    raised.append(x)
                    with pytest.raises(ValueError, match=str(exc)):
                        check_gradient_fd(kind, x)
                else:
                    assert check_gradient_fd(kind, x).to_dict() == expected
        assert raised == ([points[3], points[4]] if kind.is_quadratic
                          else [points[4]])

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 55])
    def test_gradient_structure(self, d):
        for kind in all_kinds(d):
            for j in range(1, d + 1):
                report = check_gradient_structure(kind, j)
                ref = gradient_structure_loop(kind, j)
                assert report.to_dict() == ref.to_dict()


class TestGradInSimplex:
    @pytest.mark.parametrize("kind", [
        SmoothingKind.lse(5), SmoothingKind.quadratic(3)],
        ids=lambda k: k.label())
    def test_passes(self, kind):
        report = certify._grad_in_simplex(kind, CFG, 1e-9,
                                          certify._evaluated_sample(kind, CFG))
        assert report.passed

    def test_uniform_weights_at_origin(self):
        for kind in (SmoothingKind.lse(4), SmoothingKind.quadratic(4)):
            g = value_grad(kind, np.zeros(4)).gradient
            np.testing.assert_allclose(g, 0.25, atol=1e-15)


class TestQCertificate:
    def test_identical_points_give_zero(self):
        assert q_certificate(SmoothingKind.lse(3), 2, 2, 1.0) == 0.0

    def test_lse_term_by_term(self):
        # recompute every term of Q from softmax closed forms
        kind = SmoothingKind.lse(2)
        alpha, i, j = 1.0, 2, 1
        q = q_certificate(kind, i, j, alpha)
        xi, xj = structured_point(i, 2, alpha), structured_point(j, 2, alpha)

        def lse(v):
            return math.log(math.exp(v[0]) + math.exp(v[1]))

        def soft(v):
            e = [math.exp(t) for t in v]
            s = sum(e)
            return np.array([t / s for t in e])

        manual = (lse(xi) - lse(xj) - float(soft(xj) @ (xi - xj))
                  - 0.5 * np.abs(soft(xi) - soft(xj)).sum() ** 2)
        assert q == pytest.approx(manual, abs=1e-12)
        assert q >= -1e-9

    def test_quadratic_grid_nonnegative(self):
        report = q_certificate_grid(SmoothingKind.quadratic(3), tol=1e-9)
        assert report.passed

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("name", ["lse", "clse", "quad", "quadc:9.5"])
    def test_grid_equals_pairwise_loop(self, name, d):
        kind = SmoothingKind.parse(name, d)
        report = q_certificate_grid(kind)
        worst, witness, samples = q_grid_loop(kind)
        assert report.worst_violation == worst
        assert report.witness == witness
        assert report.samples == samples

    def test_index_validation(self):
        with pytest.raises(ValueError):
            q_certificate(SmoothingKind.lse(3), 0, 1, 1.0)
        with pytest.raises(ValueError):
            q_certificate(SmoothingKind.lse(3), 1, 4, 1.0)
        with pytest.raises(ValueError):
            q_certificate(SmoothingKind.lse(3), 1, 2, -1.0)


class TestExpectationGuarantee:
    def test_origin_is_trivial(self):
        g = value_grad(SmoothingKind.lse(4), np.zeros(4)).gradient
        assert float(g @ np.zeros(4)) >= 0.0 - 2 * 0.0

    def test_lse_with_log_d(self):
        kind = SmoothingKind.lse(4)
        cfg = SamplerConfig(seed=2, count=10_000)
        report = certify._expectation(kind, math.log(4), cfg, 1e-9,
                                      certify._evaluated_sample(kind, cfg))
        assert report.passed

    def test_quadratic_with_gap_bound(self):
        kind = SmoothingKind.quadratic(3)
        cfg = SamplerConfig(seed=2, count=10_000)
        report = certify._expectation(kind, gap_bound(kind), cfg, 1e-9,
                                      certify._evaluated_sample(kind, cfg))
        assert report.passed


class TestEmpiricalGap:
    def test_lse_gap_attained_at_origin(self):
        report = empirical_gap(SmoothingKind.lse(5), 1e4,
                               SamplerConfig(seed=1, count=500))
        assert report.details["estimate"] == pytest.approx(math.log(5),
                                                           abs=1e-12)
        assert report.passed

    def test_quadratic_two_dim(self):
        report = empirical_gap(SmoothingKind.quadratic(2), 1e4,
                               SamplerConfig(seed=1, count=500))
        assert report.details["estimate"] == pytest.approx(0.25, abs=1e-9)
        assert report.passed

    @pytest.mark.parametrize("kind", [
        SmoothingKind.lse(3), SmoothingKind.centered_lse(6),
        SmoothingKind.quadratic(2), SmoothingKind.quadratic(6),
        SmoothingKind.quadratic_custom(4, 8.0)], ids=lambda k: k.label())
    def test_estimate_below_deviation_bound(self, kind):
        report = empirical_gap(kind, 1e4, SamplerConfig(seed=1, count=500))
        assert report.passed
        assert report.details["gap_bound"] == gap_bound(kind)
        assert report.details["estimate"] <= gap_bound(kind) + 1e-9

    @pytest.mark.parametrize("d", range(4, 13))
    def test_quadratic_gap_attained_beyond_three(self, d):
        # the origin attains the half-range once the offset centers quad
        kind = SmoothingKind.quadratic(d)
        report = empirical_gap(kind, 1e4, SamplerConfig(seed=1, count=200))
        assert report.passed
        assert abs(report.details["estimate"] - gap_bound(kind)) \
            <= report.tolerance

    @pytest.mark.parametrize("text", ["lse", "clse", "quad", "quadc:0.5"])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 20])
    @pytest.mark.parametrize("alpha_max", [1e4, 1e-2])
    def test_scan_equals_one_batch(self, text, d, alpha_max):
        kind = SmoothingKind.parse(text, d)
        cfg = SamplerConfig(seed=d, count=300, distribution="mixed")
        sample = certify._evaluated_sample(kind, cfg)
        report = certify._empirical_gap(kind, alpha_max, cfg, 1e-9, sample)
        ref_worst, ref_witness, ref_estimate, ref_samples = \
            gap_scan_one_batch(kind, alpha_max, sample[0])
        assert report.worst_violation == ref_worst
        assert report.details["estimate"] == ref_estimate
        assert report.samples == ref_samples
        np.testing.assert_array_equal(report.witness, ref_witness)


class TestGradientStructure:
    def test_full_support_is_uniform_for_all_alpha(self):
        for kind in (SmoothingKind.lse(4), SmoothingKind.quadratic(4)):
            report = check_gradient_structure(kind, 4)
            assert report.passed
            for lam in report.details["block_weights"]:
                assert lam == pytest.approx(0.25, abs=1e-12)

    def test_lse_block_weight_monotone_to_limit(self):
        report = check_gradient_structure(SmoothingKind.lse(4), 2)
        assert report.passed
        lams = report.details["block_weights"]
        assert lams == sorted(lams)
        assert lams[-1] == pytest.approx(0.5, abs=1e-9)

    def test_quadratic_vertex_saturation(self):
        kind = SmoothingKind.quadratic(3)
        g = value_grad(kind, structured_point(1, 3, 1000.0)).gradient
        np.testing.assert_allclose(g, [1.0, 0.0, 0.0], atol=1e-15)
        assert check_gradient_structure(kind, 1).passed


class TestPermutationInvariance:
    def test_lse(self):
        kind, cfg = SmoothingKind.lse(6), SamplerConfig(seed=9, count=100)
        report = certify._permutation(kind, cfg, 1e-9,
                                      certify._evaluated_sample(kind, cfg))
        assert report.passed

    def test_quadratic_swap(self):
        kind = SmoothingKind.quadratic(2)
        x = np.array([1.3, -0.4])
        ex, es = value_grad(kind, x), value_grad(kind, x[::-1].copy())
        assert es.value == pytest.approx(ex.value, abs=1e-14)
        np.testing.assert_allclose(es.gradient, ex.gradient[::-1], atol=1e-14)


class TestTelescoping:
    @pytest.mark.parametrize("kind", [
        SmoothingKind.lse(6), SmoothingKind.quadratic(6)],
        ids=lambda k: k.label())
    def test_optimal_chain_approaches_partition_value(self, kind):
        alpha = 1e4
        cert = gamma(kind.d)
        total = telescoping_sum(kind, cert.indices, alpha)
        slack = 10.0 / alpha
        assert total >= cert.value - slack
        gap_est = empirical_gap(kind, 1e4,
                                SamplerConfig(seed=4, count=200))
        assert total <= gap_est.details["estimate"] + slack


class TestSuiteAndReports:
    def test_full_suite_passes_for_lse(self):
        reports = run_certificate_suite(SmoothingKind.lse(4), seed=7,
                                        count=1000)
        assert reports and all(r.passed for r in reports)

    def test_report_families_in_order(self):
        reports = run_certificate_suite(SmoothingKind.lse(3), seed=7,
                                        count=100)
        assert [r.name.split("[")[0] for r in reports] == [
            "smoothness", "grad_in_simplex", "q_grid",
            "expectation_guarantee", "empirical_gap",
            "permutation_invariance"] + ["gradient_fd"] * 3 \
            + ["gradient_structure"] * 3

    def test_degenerate_dimension_passes(self):
        reports = run_certificate_suite(SmoothingKind.lse(1), seed=7,
                                        count=100)
        assert all(r.passed for r in reports)

    def test_below_threshold_suite_fails_smoothness(self):
        reports = run_certificate_suite(SmoothingKind.quadratic_custom(4, 1.0),
                                        seed=7, count=4000)
        failed = [r for r in reports if not r.passed]
        assert any(r.name.startswith("smoothness") for r in failed)

    def test_report_json_schema(self):
        reports = run_certificate_suite(SmoothingKind.lse(2), seed=7, count=200)
        parsed = json.loads(reports_to_json(reports))
        for entry in parsed:
            assert set(entry) == {"name", "samples", "worst_violation",
                                  "witness", "passed", "seed", "tolerance",
                                  "details"}

    @pytest.mark.parametrize("kind", [
        SmoothingKind.lse(4), SmoothingKind.centered_lse(3),
        SmoothingKind.quadratic(5), SmoothingKind.quadratic_custom(4, 1.0)],
        ids=lambda k: k.label())
    def test_suite_reports_equal_standalone_checks(self, kind):
        # empirical_gap is the one sampled check with a public standalone
        # form; the suite's gap report must equal it
        reports = run_certificate_suite(kind, seed=7, count=1000)
        cfg = SamplerConfig(seed=7, count=1000, distribution="mixed")
        assert reports[4].to_dict() == empirical_gap(kind, 1e4, cfg).to_dict()

    def test_mutating_a_witness_leaves_the_next_check_alone(self):
        kind = SmoothingKind.quadratic(4)
        report = empirical_gap(kind, 1e4, CFG)
        expected = report.to_dict()
        report.witness[:] = 1e6
        assert empirical_gap(kind, 1e4, CFG).to_dict() == expected

    @pytest.mark.parametrize("name,d,count,seed,independent_witness", [
        ("lse", 700, 1001, 20250808, True),
        ("quad", 300, 2503, 20250808, True),
        ("clse", 90, 1, 1, None),
        ("clse", 90, 2, 1, None),
        ("clse", 90, 3, 1, None),
        ("quadc:1", 5, 30000, 3, False),
        ("quadc:1", 5, 30000, 5, False),
    ])
    def test_row_blocks_equal_whole_array_oracle(
            self, monkeypatch, name, d, count, seed, independent_witness):
        # the shapes span several row blocks and end in a partial one; the
        # q-grid reads no sample and takes seconds at d = 700, so both
        # suites share one stand-in for it
        kind = SmoothingKind.parse(name, d)
        grid = q_certificate_grid(SmoothingKind.lse(2))
        monkeypatch.setattr(certify, "q_certificate_grid",
                            lambda kind, tol: grid)
        reports = run_certificate_suite(kind, seed=seed, count=count)
        for body, oracle in (("_sample_points", sample_points_oracle),
                             ("_smoothness", smoothness_oracle),
                             ("_expectation", expectation_oracle),
                             ("_permutation", permutation_oracle)):
            monkeypatch.setattr(certify, body, oracle)
        expected = run_certificate_suite(kind, seed=seed, count=count)
        assert reports_to_json(reports) == reports_to_json(expected)
        assert reports[0].passed == (name != "quadc:1")
        if independent_witness is not None:
            # the smoothness witness is the sample row i: an independent
            # partner when i % 4 == 0, a nearby one kept from its block otherwise
            X = certify._evaluated_sample(kind, SamplerConfig(
                seed=seed, count=count, distribution="mixed"))[0]
            row = np.flatnonzero((X == reports[0].witness[0]).all(axis=1))
            assert (row[0] % 4 == 0) == independent_witness

    def test_suite_peak_memory_is_bounded(self):
        # the sample and its gradients are two count x d arrays; every
        # other temporary is a row block or a quarter of the sample
        kind, count = SmoothingKind.lse(300), 10_000
        tracemalloc.start()
        try:
            run_certificate_suite(kind, count=count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * count * kind.d

    def test_standalone_gap_holds_no_gradients(self):
        # the scan reads the sample's values only, so beside the sample
        # itself only row blocks are allocated
        kind, count = SmoothingKind.lse(100), 20_000
        tracemalloc.start()
        try:
            empirical_gap(kind, 1e4, SamplerConfig(seed=6, count=count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * count * kind.d

    def test_standalone_check_retains_no_sample(self):
        # the 20000 x 100 sample and its gradients are 32 MB; once the
        # check returns, only its report may stay allocated
        kind = SmoothingKind.lse(100)
        cfg = SamplerConfig(seed=6, count=20_000, distribution="mixed")
        tracemalloc.start()
        try:
            report = empirical_gap(kind, 1e4, cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert retained < 2 * 2**20

    @pytest.mark.parametrize("name", ["tol"])
    @pytest.mark.parametrize("value,message", [
        (math.nan, "must be finite"), (math.inf, "must be finite"),
        (-1e-300, "must be nonnegative"), (-1.0, "must be nonnegative")])
    def test_suite_rejects_bad_tolerance(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            run_certificate_suite(SmoothingKind.lse(2), count=10, tol=value)
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            empirical_gap(SmoothingKind.lse(2), 1e4,
                          SamplerConfig(seed=1, count=10), tol=value)

    def test_passed_is_derived_from_worst_violation(self):
        report = CertReport(name="x", samples=1, worst_violation=1.0,
                            witness=None, tolerance=0.0)
        assert report.passed is False
        report.worst_violation = -1.0
        assert report.passed is True
        with pytest.raises(AttributeError):
            report.passed = False

    def test_every_suite_report_is_internally_consistent(self):
        for kind in (SmoothingKind.lse(3),
                     SmoothingKind.quadratic_custom(4, 1.0)):
            for r in run_certificate_suite(kind, seed=11, count=2000):
                assert r.passed == (r.worst_violation <= r.tolerance)
