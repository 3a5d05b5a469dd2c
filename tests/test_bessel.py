import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from foldedxxz import bessel
from foldedxxz.bessel import (
    MAX_ORDER_CUTOFF,
    ToleranceUnreachable,
    bessel_weights,
    default_order_cutoff,
    position_cdf,
    position_cdf_asym,
)


def series_jn(n, x, terms=60):
    """Power-series oracle, independent of the recurrence path."""
    acc = []
    for k in range(terms):
        acc.append((-1) ** k * (x / 2.0) ** (n + 2 * k) / (math.factorial(k) * math.factorial(n + k)))
    return math.fsum(acc)


def test_t_zero_is_kronecker():
    w = bessel_weights(0.0)
    assert w.j(0) == 1.0
    assert all(w.j(n) == 0.0 for n in range(1, w.order_cutoff + 1))


def test_j0_of_two_against_series():
    # x = 2 corresponds to t = 0.5 at unit coupling
    w = bessel_weights(0.5)
    expected = series_jn(0, 2.0)
    assert expected == pytest.approx(0.2238907791412356, abs=1e-14)
    assert w.j(0) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_small_orders_against_series(t):
    # series oracle is only float64-accurate for small arguments; scipy covers the rest
    w = bessel_weights(t)
    x = 4.0 * t
    for n in range(0, 9):
        assert w.j(n) == pytest.approx(series_jn(n, x), abs=1e-13)


@pytest.mark.parametrize("t", [0.3, 1.0, 10.0, 100.0])
def test_against_scipy(t):
    w = bessel_weights(t)
    x = 4.0 * t
    ns = np.arange(-w.order_cutoff, w.order_cutoff + 1)
    ref = scipy.special.jv(ns, x)
    np.testing.assert_allclose(w.values, ref, atol=2e-13)


@pytest.mark.parametrize("jt", [1.0, 10.0, 100.0])
def test_normalization(jt):
    w = bessel_weights(jt)
    assert abs(np.dot(w.values, w.values) - 1.0) < 1e-12
    assert w.tail_bound <= 1e-12


def test_reflection_symmetry_bit_exact():
    w = bessel_weights(7.3)
    for n in range(1, w.order_cutoff + 1):
        assert w.j(-n) == (-1.0) ** n * w.j(n)


def test_phases():
    w = bessel_weights(1.0)
    assert w.phase(0) == 1
    assert w.phase(1) == -1j
    assert w.phase(2) == -1
    assert w.phase(3) == 1j
    assert w.phase(-1) == 1j
    assert w.amplitude(2) == pytest.approx(-w.j(2))


def test_cdf_at_t_zero():
    w = bessel_weights(0.0)
    assert position_cdf(1.0, w) == 1.0
    assert position_cdf(0.0, w) == 0.0
    assert position_cdf(0.5, w) == 1.0


def test_cdf_mirror_identity():
    # f(0, t) = (1 - J_0^2) / 2 by the square symmetry
    w = bessel_weights(3.7)
    assert position_cdf(0.0, w) == pytest.approx((1.0 - w.j(0) ** 2) / 2.0, abs=1e-13)


def test_cdf_monotone_and_bounded():
    w = bessel_weights(2.0)
    xs = np.linspace(-30, 30, 301)
    vals = [position_cdf(x, w) for x in xs]
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
    assert all(b - a >= -1e-15 for a, b in zip(vals, vals[1:]))


def test_asym_closed_values():
    assert position_cdf_asym(0.0, 5.0) == pytest.approx(0.5)
    assert position_cdf_asym(4.0 * 5.0, 5.0) == 1.0
    assert position_cdf_asym(-4.0 * 5.0, 5.0) == 0.0
    # x = 2Jt -> 1/2 + arcsin(1/2)/pi = 2/3
    assert position_cdf_asym(10.0, 5.0) == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("jt", [25.0, 50.0, 100.0])
def test_exact_approaches_asym_inside_cone(jt):
    w = bessel_weights(jt)
    errs = []
    for ray in np.linspace(-0.9, 0.9, 19):
        x = ray * 4.0 * jt
        errs.append(abs(position_cdf(x, w) - position_cdf_asym(x, jt)))
    assert max(errs) < 0.01 * (50.0 / jt) ** 0.5 + 0.006


def test_error_decreases_with_time():
    errors = []
    for jt in (25.0, 50.0, 100.0):
        w = bessel_weights(jt)
        x = 0.3 * 4.0 * jt
        errors.append(abs(position_cdf(x, w) - position_cdf_asym(x, jt)))
    assert errors[0] > errors[1] > errors[2]


def test_bad_tolerances():
    with pytest.raises(ValueError):
        bessel_weights(1.0, tol=1e-3)
    with pytest.raises(ValueError):
        bessel_weights(1.0, tol=0.0)
    with pytest.raises(ValueError):
        bessel_weights(-1.0)
    with pytest.raises(ToleranceUnreachable):
        bessel_weights(40.0, tol=1e-18)


def test_cutoff_formula():
    assert default_order_cutoff(0.0) == 20
    assert default_order_cutoff(400.0) >= 400 + 10 * 400 ** (1 / 3) + 19


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=30.0))
def test_normalization_property(t):
    w = bessel_weights(round(t, 6))
    assert abs(np.dot(w.values, w.values) - 1.0) < 1e-12


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_time_rejected(t):
    with pytest.raises(ValueError, match="finite"):
        bessel_weights(t)


def _no_table(x, n_max):
    raise AssertionError(f"a table of {n_max} orders was computed")


@pytest.mark.parametrize("t", [2.6e5, 1e9])
def test_cutoff_beyond_the_budget_is_refused_before_allocating(t, monkeypatch):
    assert default_order_cutoff(4.0 * t) > MAX_ORDER_CUTOFF
    monkeypatch.setattr(bessel, "_miller_table", _no_table)
    with pytest.raises(ValueError, match="budget"):
        bessel_weights(t)


def test_grown_cutoff_beyond_the_budget_is_refused(monkeypatch):
    # a cutoff of 5 orders at Jt = 2 misses most of the weight, so the
    # cutoff grows to 37, beyond a budget of 30, before a second table
    tables = []
    real = bessel._miller_table
    monkeypatch.setattr(bessel, "default_order_cutoff", lambda x: 5)
    monkeypatch.setattr(bessel, "MAX_ORDER_CUTOFF", 30)
    monkeypatch.setattr(bessel, "_miller_table", lambda x, n: tables.append(n) or real(x, n))
    with pytest.raises(ValueError, match="cutoff 37"):
        bessel_weights(2.0137)
    assert tables == [5]
