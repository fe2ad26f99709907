"""Envelope oracles: closed forms, the Picard cross-check, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymcone import bounds


def test_quadratic_zero_start_stays_zero():
    spec = bounds.BoundSpec(0.0, 0.0, 1.0, 1e-3)
    env = bounds.pachpatte_envelope(spec)
    assert np.max(np.abs(env.b)) == 0.0
    assert env.t_blowup is None


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_riccati_blowup_time_closed_form(c):
    # without the double integral, b = c / (1 - c t): blow-up at 1/c
    spec = bounds.BoundSpec(c, 0.0, 2.5 / c, 1e-4, double_coef=0.0)
    env = bounds.pachpatte_envelope(spec)
    assert env.t_blowup is not None
    assert abs(env.t_blowup - 1.0 / c) < 1e-4
    assert np.all(np.isinf(env.b[env.t > env.t_blowup]))


def test_riccati_profile_closed_form():
    spec = bounds.BoundSpec(1.0, 0.0, 0.5, 1e-4, double_coef=0.0)
    env = bounds.pachpatte_envelope(spec)
    exact = 1.0 / (1.0 - env.t)
    assert np.max(np.abs(env.b - exact)) < 1e-10


def test_full_quadratic_matches_picard_oracle():
    spec = bounds.BoundSpec(0.1, 0.0, 1.0, 1e-3)
    env = bounds.pachpatte_envelope(spec)
    oracle = bounds.picard_envelope(spec)
    assert np.max(np.abs(env.b - oracle.b)) < 1e-6


def test_picard_blowup_raises_bounds_error():
    # b = c + int b^2 + int int b^2 blows up before t = 1 for c = 5
    with np.errstate(all="ignore"), pytest.raises(bounds.BoundsError,
                                                  match="diverges"):
        bounds.picard_envelope(bounds.BoundSpec(5.0, 0.0, 1.0, 1e-3))


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
    lo = bounds.pachpatte_envelope(bounds.BoundSpec(c, 0.0, 1.0, 1e-2))
    hi = bounds.pachpatte_envelope(bounds.BoundSpec(c + dc, 0.0, 1.0, 1e-2))
    assert np.all(hi.b >= lo.b - 1e-12)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        bounds.BoundSpec(-1.0, 0.0, 1.0, 1e-3)                # c < 0
    with pytest.raises(ValueError):
        bounds.BoundSpec(1.0, 1.0, 0.5, 1e-3)                 # t1 < t0
    with pytest.raises(ValueError):
        bounds.BoundSpec(1.0, 0.0, 1.0, 0.0)                  # dt <= 0
    with pytest.raises(ValueError):
        bounds.BoundSpec(1.0, 0.0, 1.0, 1e-3, double_coef=-1.0)
