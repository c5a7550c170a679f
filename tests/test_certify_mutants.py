"""Mutant table of the certificate suite: which report families catch each
seeded defect of the smoothing kernels.

Each mutant patches `smoothings._rows` and `_point` alike, so every entry
point of the suite sees the same defective kind, and `_point` stays one row
of `_rows`.  The suite runs with its default seed and 10,000 samples, and
the test asserts the exact set of failing families per (mutant, kind, d):
the table is the record of what each report is there to catch.  Neither
`expectation_guarantee` nor `permutation_invariance` catches any of these
mutants.
"""

import math

import pytest

from maxsmooth import smoothings
from maxsmooth.certify import run_certificate_suite
from maxsmooth.smoothings import SmoothingKind

CASES = (("lse", 3), ("lse", 13), ("lse", 40), ("clse", 3), ("clse", 13),
         ("quad", 3), ("quad", 13))

GAP, SIMPLEX, STRUCTURE = "empirical_gap", "grad_in_simplex", "gradient_structure"
FD, Q, SMOOTH = "gradient_fd", "q_grid", "smoothness"


def _scaled(s):
    """f(s x) / s, whose gradient is grad f(s x): s-smooth, not 1-smooth."""
    def mutant(kernel, kind, x):
        value, grad = kernel(kind, s * x)
        return value / s, grad
    return mutant


def _shifted(kernel, kind, x):
    """f - 1e-3 ln d: below the max where an overestimator must not be."""
    value, grad = kernel(kind, x)
    return value - 1e-3 * math.log(kind.d), grad


# name: (mutant of a kernel, failing families per case in CASES order)
MUTANTS = {
    "none": (lambda kernel, kind, x: kernel(kind, x), [set()] * 7),
    "value+1e-6": (
        lambda kernel, kind, x: (kernel(kind, x)[0] + 1e-6, kernel(kind, x)[1]),
        [{GAP}] * 7),
    "grad*(1+1e-6)": (
        lambda kernel, kind, x: (kernel(kind, x)[0],
                                 kernel(kind, x)[1] * (1 + 1e-6)),
        [{SIMPLEX, STRUCTURE}] * 5 + [{SIMPLEX, STRUCTURE, Q}] * 2),
    "grad@1.001x": (
        lambda kernel, kind, x: (kernel(kind, x)[0], kernel(kind, 1.001 * x)[1]),
        [{FD}, {FD, Q}, {FD, Q}, {FD}, {FD, Q}, {FD, Q}, {FD, Q}]),
    "f(1.01x)/1.01": (
        _scaled(1.01),
        [{SMOOTH}, {Q}, {Q}, {SMOOTH}, {Q}, {Q, SMOOTH}, {Q}]),
    # an open hole: no report catches a 1.0001-smooth lse or clse
    "f(1.0001x)/1.0001": (_scaled(1.0001), [set()] * 5 + [{Q}] * 2),
    "value-1e-3*ln(d)": (_shifted, [{GAP}] * 7),
}


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[f"{t}-{d}" for t, d in CASES])
@pytest.mark.parametrize("name", MUTANTS)
def test_failing_families(monkeypatch, name, case):
    mutant, caught = MUTANTS[name]
    rows, point = smoothings._rows, smoothings._point
    monkeypatch.setattr(smoothings, "_rows",
                        lambda kind, X: mutant(rows, kind, X))
    monkeypatch.setattr(smoothings, "_point",
                        lambda kind, x: mutant(point, kind, x))
    text, d = CASES[case]
    reports = run_certificate_suite(SmoothingKind.parse(text, d))
    failing = {r.name.split("[")[0] for r in reports if not r.passed}
    assert failing == caught[case]
