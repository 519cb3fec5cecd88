"""Property tests of the short-propagator triple against mpmath.

The reference integrates the three moments of (a0 + a1 x)^(-5/2) over
[-1, 1] with mpmath's quadrature at 50 digits.  It scales a0 out first
(mpmath's quadrature stops on an absolute error), and integrates the odd
moment as int_0^1 x (g(x) - g(-x)) dx with the difference written as
(b - a) P / (a b)^5, b - a = -2 e x / (a + b), so that no moment loses
digits to cancellation as a1 -> 0.
"""

import math

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from atomlight.errors import OutsideDomain
from atomlight.propagator import (short_propagator_closed,
                                  short_propagator_quadrature)

EPS = 2.0**-52
TINY = 2.0**-1074  # below the normal range an entry has fewer bits


def mpmath_triple(a0, a1, k_L):
    with mpmath.workdps(50):
        a0, e = mpmath.mpf(a0), mpmath.mpf(a1) / mpmath.mpf(a0)

        def g(x):
            return (1 + e * x)**mpmath.mpf(-2.5)

        def odd_over_e(x):
            a, b = mpmath.sqrt(1 + e * x), mpmath.sqrt(1 - e * x)
            poly = a**4 + a**3 * b + a**2 * b**2 + a * b**3 + b**4
            return x * (-2 * x) / (a + b) * poly / (a * b)**5

        pref = mpmath.mpf(k_L)**3 / (8 * mpmath.pi) * a0**mpmath.mpf(-2.5)
        return (pref * mpmath.quad(lambda x: 2 * (1 - x * x) * g(x), [-1, 1]),
                pref * mpmath.quad(lambda x: (1 + x * x) * g(x), [-1, 1]),
                2 * pref * e * mpmath.quad(odd_over_e, [0, 1]))


def assert_within(coeffs, expect, ulps):
    got = (coeffs.rho_par, coeffs.rho_perp, coeffs.rho_gamma)
    for name, g, x in zip(("rho_par", "rho_perp", "rho_gamma"), got, expect):
        assert abs(g - x) <= ulps * EPS * abs(x) + ulps * TINY, \
            (name, g, float(x))


fractions = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-300.0, -1.0).map(lambda p: 10.0**p),
    st.floats(-12.0, -1.0).map(lambda p: 1.0 - 10.0**p))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(log_a0=st.floats(-8.0, 8.0), fraction=fractions,
       k_L=st.sampled_from([1.0, 1.7]))
@example(log_a0=0.0, fraction=0.0, k_L=1.0)
@example(log_a0=0.0, fraction=1e-300, k_L=1.0)
@example(log_a0=math.log10(2.5), fraction=1e-110, k_L=1.7)
@example(log_a0=0.0, fraction=1.0 - 1e-12, k_L=1.0)
@example(log_a0=300.0, fraction=0.3, k_L=1.0)
def test_closed_form_within_8_ulps_of_mpmath(log_a0, fraction, k_L):
    a0 = 10.0**log_a0
    a1 = a0 * fraction
    assume(a1 < a0)  # the product can round up to a0
    assert_within(short_propagator_closed(a0, a1, k_L),
                  mpmath_triple(a0, a1, k_L), 8)


# 1.0 stands for the last float below a0.
edge_fractions = st.one_of(fractions, st.just(1.0),
                           st.floats(-16.0, -1.0).map(lambda p: 1.0 - 10.0**p))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(log_a0=st.floats(-8.0, 8.0), fraction=edge_fractions,
       n_points=st.sampled_from([64, 128, 257]),
       k_L=st.sampled_from([1.0, 1.7]))
@example(log_a0=0.0, fraction=0.0, n_points=128, k_L=1.0)
@example(log_a0=math.log10(2.5), fraction=1e-110, n_points=128, k_L=1.7)
@example(log_a0=0.0, fraction=1e-310, n_points=128, k_L=1.0)  # st/a1 = inf
@example(log_a0=0.0, fraction=1.0, n_points=64, k_L=1.0)
@example(log_a0=0.0, fraction=1.0, n_points=128, k_L=1.0)
@example(log_a0=0.0, fraction=1.0, n_points=257, k_L=1.0)
@example(log_a0=100.0, fraction=1.0, n_points=128, k_L=1.0)
@example(log_a0=-100.0, fraction=1.0, n_points=128, k_L=1.7)
@example(log_a0=-100.0, fraction=0.3, n_points=257, k_L=1.0)
def test_quadrature_within_1e12_of_largest_entry(log_a0, fraction, n_points,
                                                 k_L):
    a0 = 10.0**log_a0
    a1 = min(a0 * fraction, math.nextafter(a0, 0.0))
    q = short_propagator_quadrature(a0, a1, k_L, n_points)
    expect = mpmath_triple(a0, a1, k_L)
    scale = max(abs(x) for x in expect)
    for name, g, x in zip(("rho_par", "rho_perp", "rho_gamma"),
                          (q.rho_par, q.rho_perp, q.rho_gamma), expect):
        assert abs(g - x) <= 1e-12 * scale, (name, g, float(x))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a0=st.floats(1e-100, 1e100), k_L=st.sampled_from([1.0, 1.7]))
def test_isotropic_point_is_an_ordinary_input(a0, k_L):
    c = short_propagator_closed(a0, 0.0, k_L)
    assert c.rho_perp == c.rho_par
    assert c.rho_gamma == 0.0 and math.copysign(1.0, c.rho_gamma) == 1.0
    with mpmath.workdps(50):
        iso = (mpmath.mpf(k_L)**3 / (3 * mpmath.pi)
               * mpmath.mpf(a0)**mpmath.mpf(-2.5))
    assert abs(c.rho_par - iso) <= 8 * EPS * iso


@pytest.mark.parametrize("k_L", [1.0, 1.7])
@pytest.mark.parametrize("a0", [1.0, 2.5, 1e-3, 7e4, 1e100, 1e-100])
def test_isotropic_point_within_2_ulps(a0, k_L):
    with mpmath.workdps(50):
        iso = (mpmath.mpf(k_L)**3 / (3 * mpmath.pi)
               * mpmath.mpf(a0)**mpmath.mpf(-2.5))
    assert abs(short_propagator_closed(a0, 0.0, k_L).rho_par - iso) \
        <= 2 * EPS * iso


@pytest.mark.parametrize("a1", [0.0, 3e299, 1e300 * (1.0 - 1e-9)])
def test_huge_a0_underflows_to_positive_zero(a1):
    c = short_propagator_closed(1e300, a1, 1.0)
    for v in (c.rho_par, c.rho_perp, c.rho_gamma):
        assert v == 0.0 and math.copysign(1.0, v) == 1.0


# Below a0 of about 1e-124 the closed form's denominator is subnormal and
# the triple overflows at k_L = 1; the inputs of the explicit cases once
# gave ZeroDivisionError, inf/NaN entries, or an inaccurate finite triple.
UNREPRESENTABLE = [(1e-200, 0.0, 1.0), (1e-200, 5e-201, 1.0),
                   (1e-125, 0.0, 1.0)]


@pytest.mark.parametrize("a0, a1, k_L", UNREPRESENTABLE)
@pytest.mark.parametrize("coeffs", [short_propagator_closed,
                                    short_propagator_quadrature])
def test_unrepresentable_triple_outside_domain(coeffs, a0, a1, k_L):
    with pytest.raises(OutsideDomain):
        coeffs(a0, a1, k_L)


def test_subnormal_denominator_is_the_closed_forms_limit_alone():
    # At k_L = 1e-3 the triple is about 4e302, a normal float: only the
    # closed form's denominator is subnormal, and the scaled oracle returns
    # the triple.
    a0, a1, k_L = 1e-125, 3e-126, 1e-3
    with pytest.raises(OutsideDomain):
        short_propagator_closed(a0, a1, k_L)
    q = short_propagator_quadrature(a0, a1, k_L)
    for name, g, x in zip(q._fields, q, mpmath_triple(a0, a1, k_L)):
        assert abs(g - x) <= 1e-13 * abs(x), (name, g, float(x))


small_a0 = dict(log_a0=st.floats(-300.0, -8.0), fraction=fractions,
                k_L=st.sampled_from([1e-3, 1.0, 1.7]))


def small_a0_case(log_a0, fraction):
    a0 = 10.0**log_a0
    a1 = a0 * fraction
    assume(a1 < a0)
    return a0, a1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**small_a0)
@example(log_a0=-200.0, fraction=0.0, k_L=1.0)
@example(log_a0=-125.0, fraction=0.0, k_L=1.0)
@example(log_a0=-125.0, fraction=0.3, k_L=1e-3)
@example(log_a0=-123.0, fraction=0.0, k_L=1.0)
@example(log_a0=-120.0, fraction=1.0 - 1e-12, k_L=1.7)
def test_small_a0_closed_form_within_8_ulps_or_outside_domain(log_a0,
                                                              fraction, k_L):
    a0, a1 = small_a0_case(log_a0, fraction)
    try:
        c = short_propagator_closed(a0, a1, k_L)
    except OutsideDomain:
        return
    assert_within(c, mpmath_triple(a0, a1, k_L), 8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**small_a0)
@example(log_a0=-200.0, fraction=0.0, k_L=1.0)
@example(log_a0=-125.0, fraction=0.0, k_L=1.0)
@example(log_a0=-125.0, fraction=0.3, k_L=1e-3)
@example(log_a0=-123.0, fraction=0.0, k_L=1.0)
@example(log_a0=-120.0, fraction=1.0 - 1e-12, k_L=1.7)
def test_small_a0_quadrature_within_1e12_or_outside_domain(log_a0, fraction,
                                                           k_L):
    a0, a1 = small_a0_case(log_a0, fraction)
    try:
        q = short_propagator_quadrature(a0, a1, k_L)
    except OutsideDomain:
        return
    expect = mpmath_triple(a0, a1, k_L)
    scale = max(abs(x) for x in expect)
    for name, g, x in zip(("rho_par", "rho_perp", "rho_gamma"), q, expect):
        assert abs(g - x) <= 1e-12 * scale, (name, g, float(x))


DBL_MIN, DBL_MAX = 2.0**-1022, 1.7976931348623157e308


@settings(max_examples=80, deadline=None, derandomize=True)
@given(log_a0=st.floats(-100.0, 300.0), fraction=st.floats(0.0, 0.99),
       log_k=st.floats(-3.0, 100.0))
@example(log_a0=124.0, fraction=0.3, log_k=0.0)
@example(log_a0=130.0, fraction=0.3, log_k=100.0)
@example(log_a0=200.0, fraction=0.3, log_k=100.0)
@example(log_a0=300.0, fraction=0.99, log_k=100.0)
@example(log_a0=-100.0, fraction=0.0, log_k=100.0)
@example(log_a0=0.5, fraction=5e-324, log_k=6.0)  # a1/st is subnormal
@example(log_a0=120.08, fraction=0.99, log_k=-3.0)  # c is subnormal
def test_closed_form_normal_entries_within_8_ulps_over_scales(log_a0,
                                                             fraction, log_k):
    # mpmath_triple integrates at a0 = 1 and scales by k^3 a0^(-5/2).
    a0, k_L = 10.0**log_a0, 10.0**log_k
    a1 = a0 * fraction
    expect = mpmath_triple(a0, a1, k_L)
    try:
        c = short_propagator_closed(a0, a1, k_L)
    except OutsideDomain:
        assert max(abs(x) for x in expect) > DBL_MAX
        return
    for name, g, x in zip(("rho_par", "rho_perp", "rho_gamma"), c, expect):
        if DBL_MIN <= abs(x) <= DBL_MAX:
            assert abs(g - x) <= 8 * EPS * abs(x), (name, g, float(x))


def test_large_a0_subnormal_triple_has_the_oracles_signs():
    # The denominator overflows at a0 = 1e124, but the triple is a
    # (subnormal) nonzero float.
    c = short_propagator_closed(1e124, 3e123, 1.0)
    q = short_propagator_quadrature(1e124, 3e123, 1.0)
    expect = mpmath_triple(1e124, 3e123, 1.0)
    for g, o, x in zip(c, q, expect):
        assert g != 0.0 and math.copysign(1.0, g) == math.copysign(1.0, o)
        assert abs(g - x) <= 2e-12 * abs(x)
