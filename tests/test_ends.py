import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscat.curve import CurveParams, canonical_paths
from dscat.ends import (
    classify_end,
    end_loop_check,
    indicial_exponent,
    lift_independence_check,
    osserman_equality_check,
    predicted_end_eigenvalues,
)
from dscat.errors import DomainError, ResonantExponent
from dscat.linalg2c import ConjugacyKind
from dscat.monodromy import direct_loop_holonomy


def test_indicial_exponent_values():
    m = indicial_exponent(2.0, -7.6119)
    assert m.imag == 0.0
    assert m.real == pytest.approx(5.60782, abs=1e-4)

    m = indicial_exponent(2.0, 1.26988)
    assert m.real == 0.0
    assert m.imag == pytest.approx(2.01978, abs=1e-4)

    m = indicial_exponent(2.0, 0.1875)
    assert m == 0.5


def test_resonant_exponents_rejected():
    with pytest.raises(ResonantExponent):
        indicial_exponent(2.0, -0.75)  # m = 2
    with pytest.raises(ResonantExponent):
        indicial_exponent(2.0, 0.25)  # m = 0
    with pytest.raises(ResonantExponent):
        indicial_exponent(3.0, -1.0)  # 1 + 8 = 9, m = 3


@pytest.mark.parametrize(
    "a, c",
    [
        (2.0, -1e308),  # the radicand 1 - 4c(a - 1) overflows to inf
        (2.0, 1e308),  # to -inf
        (1e308, 1.0),  # to -inf, through a - 1
        # m = 2e150: a double that large has no fractional digits, so it
        # would read as an integer whatever the exact m
        (2.0, -1e300),
        # m = 2^33, from where neighbouring doubles lie 2^-19 > TOL_RES apart
        (2.0, -(2.0 ** 64)),
    ],
)
def test_exponent_beyond_the_floats_is_a_domain_error(a, c):
    with pytest.raises(DomainError, match=re.escape(f"at a = {a}, c = {c}")):
        indicial_exponent(a, c)


def test_exponent_below_two_to_the_33_is_still_tested_for_resonance():
    # m = 2^32, whose neighbouring doubles lie 2^-20 < TOL_RES apart
    with pytest.raises(ResonantExponent):
        indicial_exponent(2.0, -(2.0 ** 62))


@given(
    a=st.floats(min_value=1.1, max_value=5.0),
    c=st.floats(min_value=-9.0, max_value=4.0),
)
def test_exponent_square_identity(a, c):
    if c == 0.0:
        return
    try:
        m = indicial_exponent(a, c)
    except ResonantExponent:
        return
    assert abs(m * m + 4.0 * c * (a - 1.0) - 1.0) < 1e-12


def test_classification_by_exponent():
    assert classify_end(2.0, -7.6119).end_type is ConjugacyKind.ELLIPTIC
    assert classify_end(2.0, 1.26988).end_type is ConjugacyKind.HYPERBOLIC
    assert classify_end(2.0, 0.1).end_type is ConjugacyKind.ELLIPTIC


def test_sign_dichotomy_at_a2():
    for c in (-8.5, -5.0, -2.0, -0.3, -0.05):
        try:
            assert classify_end(2.0, c).end_type is ConjugacyKind.ELLIPTIC
        except ResonantExponent:
            pass
    for c in (0.3, 0.8, 1.5, 2.5, 3.9):
        try:
            assert classify_end(2.0, c).end_type is ConjugacyKind.HYPERBOLIC
        except ResonantExponent:
            pass


def test_predicted_eigenvalue_product():
    for a, c in ((2.0, -1.0), (2.0, 1.26988), (1.5, -3.0)):
        lam1, lam2 = predicted_end_eigenvalues(indicial_exponent(a, c))
        assert abs(lam1 * lam2 - 1.0) < 1e-12


def test_predicted_eigenvalues_overflow_is_a_domain_error():
    # pi |m| > 709.8 overflows exp; c = 1e6 at a = 2 gives m = 2000i
    m = indicial_exponent(2.0, 1e6)
    with pytest.raises(DomainError, match=r"overflow at m = 1999\.99.*j"):
        predicted_end_eigenvalues(m)
    with pytest.raises(DomainError):
        classify_end(2.0, 1e6)
    assert all(map(math.isfinite, (abs(x) for x in predicted_end_eigenvalues(225j))))


def test_end_loop_elliptic():
    analysis = end_loop_check(2.0, -1.0, +1)
    assert analysis.end_type is ConjugacyKind.ELLIPTIC
    assert analysis.eigenvalue_mismatch < 1e-6
    m = analysis.m
    trace = sum(analysis.measured_eigenvalues)
    assert abs(trace.imag) < 1e-7
    assert abs(trace - (-2.0 * math.cos(math.pi * m.real))) < 1e-6
    prod = analysis.measured_eigenvalues[0] * analysis.measured_eigenvalues[1]
    assert abs(prod - 1.0) < 1e-9


def test_end_loop_hyperbolic():
    analysis = end_loop_check(2.0, 1.26988, +1)
    assert analysis.end_type is ConjugacyKind.HYPERBOLIC
    assert analysis.eigenvalue_mismatch < 1e-6
    mu = analysis.m.imag
    trace = sum(analysis.measured_eigenvalues)
    assert abs(trace.imag) < 1e-7 * abs(trace)
    assert trace.real == pytest.approx(-2.0 * math.cosh(math.pi * mu), rel=1e-6)


def test_both_ends_share_eigenvalues():
    plus = end_loop_check(2.0, -1.0, +1)
    minus = end_loop_check(2.0, -1.0, -1)
    for lp, lm in zip(plus.measured_eigenvalues, minus.measured_eigenvalues):
        assert abs(lp - lm) < 1e-6


def test_lift_independence():
    params = CurveParams(2.0, -1.0)
    paths = canonical_paths(params.a)
    Phi2 = direct_loop_holonomy(paths.gamma2, params)
    identity = np.eye(2, dtype=complex)
    assert lift_independence_check(params, paths.gamma2, identity, Phi2) < 1e-12

    B = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
    assert lift_independence_check(params, paths.gamma2, B, Phi2) < 1e-7

    rng = np.random.default_rng(11)
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    M = M / np.sqrt(np.linalg.det(M))
    Phi1 = direct_loop_holonomy(paths.gamma1, params)
    assert lift_independence_check(params, paths.gamma1, M, Phi1) < 1e-7


def test_lift_independence_requires_unimodular():
    params = CurveParams(2.0, -1.0)
    paths = canonical_paths(params.a)
    Phi2 = direct_loop_holonomy(paths.gamma2, params)
    with pytest.raises(DomainError):
        lift_independence_check(params, paths.gamma2, 2.0 * np.eye(2, dtype=complex), Phi2)


def test_osserman_equality():
    assert osserman_equality_check(1, 2, 2) is True
    assert osserman_equality_check(0, 2, 1) is True
    assert osserman_equality_check(1, 2, 1) is False
    with pytest.raises(DomainError):
        osserman_equality_check(-1, 2, 1)
