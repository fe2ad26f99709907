"""Envelope oracles: closed forms, quadrature/Picard cross-checks, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymcone import bounds


def test_zero_rate_envelope_constant():
    spec = bounds.BoundSpec("linear", 2.0, 0.0, 1.0, 1e-3, k=lambda t: 0.0)
    t, b = bounds.gronwall_envelope(spec)
    assert np.max(np.abs(b - 2.0)) == 0.0


def test_unit_rate_envelope_hits_e():
    spec = bounds.BoundSpec("linear", 1.0, 0.0, 1.0, 1e-3, k=lambda t: 1.0)
    _, b = bounds.gronwall_envelope(spec)
    assert abs(b[-1] - np.e) < 1e-12


def test_integrable_singularity_matches_quadrature_oracle():
    # k = 1/sqrt(t): int_0^1 k = 2, so b(1) = c * e^2
    spec = bounds.BoundSpec("linear", 1.0, 0.0, 1.0, 1e-2,
                            k=lambda t: 1.0 / np.sqrt(t) if t > 0 else 0.0)
    _, b = bounds.gronwall_envelope(spec)
    assert abs(b[-1] - np.exp(2.0)) < 1e-8


def test_quadratic_zero_start_stays_zero():
    spec = bounds.BoundSpec("quadratic", 0.0, 0.0, 1.0, 1e-3)
    env = bounds.pachpatte_envelope(spec)
    assert np.max(np.abs(env.b)) == 0.0
    assert env.t_blowup is None


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_riccati_blowup_time_closed_form(c):
    # without the double integral, b = c / (1 - c t): blow-up at 1/c
    spec = bounds.BoundSpec("quadratic", c, 0.0, 2.5 / c, 1e-4,
                            double_coef=0.0)
    env = bounds.pachpatte_envelope(spec)
    assert env.t_blowup is not None
    assert abs(env.t_blowup - 1.0 / c) < 1e-4
    assert np.all(np.isinf(env.b[env.t > env.t_blowup]))


def test_riccati_profile_closed_form():
    spec = bounds.BoundSpec("quadratic", 1.0, 0.0, 0.5, 1e-4, double_coef=0.0)
    env = bounds.pachpatte_envelope(spec)
    exact = 1.0 / (1.0 - env.t)
    assert np.max(np.abs(env.b - exact)) < 1e-10


def test_full_quadratic_matches_picard_oracle():
    spec = bounds.BoundSpec("quadratic", 0.1, 0.0, 1.0, 1e-3)
    env = bounds.pachpatte_envelope(spec)
    oracle = bounds.picard_envelope(spec)
    assert np.max(np.abs(env.b - oracle.b)) < 1e-6


@pytest.mark.parametrize("grid", ["uniform", "random"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 1000, 1001])
def test_cumulative_simpson_is_scipys(n, grid):
    # the Picard oracle's numpy quadrature does scipy's operations in
    # scipy's order (the trapezoid at n = 2), so it agrees bitwise
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(n)
    if grid == "uniform":
        x = np.linspace(0.0, 1.0, n)
    else:
        x = np.sort(rng.uniform(-1.0, 2.0, n))
    y = rng.standard_normal(n)
    want = cumulative_simpson(y, x=x, initial=0.0)
    assert np.array_equal(bounds._cumulative_simpson(y, x), want)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.3),
       st.floats(min_value=0.001, max_value=0.2))
def test_envelope_monotone_in_initial_value(c, dc):
    lo = bounds.pachpatte_envelope(
        bounds.BoundSpec("quadratic", c, 0.0, 1.0, 1e-2))
    hi = bounds.pachpatte_envelope(
        bounds.BoundSpec("quadratic", c + dc, 0.0, 1.0, 1e-2))
    assert np.all(hi.b >= lo.b - 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_linear_envelope_monotone_in_rate(k1, k2):
    lo, hi = sorted((k1, k2))
    s1 = bounds.BoundSpec("linear", 1.0, 0.0, 1.0, 1e-2, k=lambda t: lo)
    s2 = bounds.BoundSpec("linear", 1.0, 0.0, 1.0, 1e-2, k=lambda t: hi)
    _, b1 = bounds.gronwall_envelope(s1)
    _, b2 = bounds.gronwall_envelope(s2)
    assert np.all(b2 >= b1 - 1e-12)


def test_series_certification():
    spec = bounds.BoundSpec("quadratic", 0.2, 0.0, 1.0, 1e-3)
    env = bounds.pachpatte_envelope(spec)
    assert bounds.check_series(env.t, np.zeros_like(env.t), env).within
    assert bounds.check_series(env.t, env.b, env).within
    v = bounds.check_series(env.t, 2.0 * env.b, env)
    assert not v.within
    assert abs(v.margin - 2.0) < 1e-9


def test_series_under_envelope_by_construction():
    # any series solving the inequality with slack is certified
    spec = bounds.BoundSpec("quadratic", 0.3, 0.0, 1.0, 1e-3)
    env = bounds.pachpatte_envelope(spec)
    series = 0.9 * env.b
    assert bounds.check_series(env.t, series, env).within


def test_check_series_rejects_out_of_range():
    spec = bounds.BoundSpec("quadratic", 0.1, 0.0, 1.0, 1e-2)
    env = bounds.pachpatte_envelope(spec)
    with pytest.raises(ValueError):
        bounds.check_series(np.array([0.5, 1.5]), np.array([0.0, 0.0]), env)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        bounds.BoundSpec("linear", -1.0, 0.0, 1.0, 1e-3, k=lambda t: 1.0)
    with pytest.raises(ValueError):
        bounds.BoundSpec("linear", 1.0, 0.0, 1.0, 1e-3)       # missing rate
    with pytest.raises(ValueError):
        bounds.BoundSpec("cubic", 1.0)
    with pytest.raises(ValueError):
        bounds.BoundSpec("quadratic", 1.0, 1.0, 0.5, 1e-3)    # t1 < t0


def test_nonintegrable_rate_reported():
    spec = bounds.BoundSpec("linear", 1.0, 0.0, 1.0, 1e-2,
                            k=lambda t: 1.0 / t if t > 0 else np.inf)
    with pytest.raises(ValueError):
        bounds.gronwall_envelope(spec)
