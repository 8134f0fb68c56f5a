import numpy as np
import pytest
from hypothesis import given, strategies as st

from opfeyn import (InfiniteDrift, NonPositiveVariance, NonzeroOrigin,
                    OutOfDomain, ScalePair, drifted_pair, preset_scale)
from opfeyn.scale import simpson_weights


def test_simpson_weights_sum_to_width():
    w = simpson_weights(8, 2.0)
    assert w.size == 9
    assert abs(w.sum() - 2.0) < 1e-14


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3),
       st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_simpson_exact_on_cubics(c0, c1, c2, c3):
    # composite Simpson integrates cubics exactly up to roundoff
    w = simpson_weights(16, 1.0)
    t = np.linspace(0.0, 1.0, 17)
    f = c0 + c1 * t + c2 * t**2 + c3 * t**3
    exact = c0 + c1 / 2 + c2 / 3 + c3 / 4
    assert abs(np.dot(w, f) - exact) <= 1e-12 * (1 + abs(exact))


def test_wiener_pair_validates(wiener):
    rep = wiener.validation_report()
    assert all(c.passed for c in rep)
    assert {c.name for c in rep} == {
        "origin_a", "origin_b", "variance_increasing",
        "drift_energy_finite", "drift_variation_finite"}


def test_drifted_pair_validates(drifted):
    assert all(c.passed for c in drifted.validation_report())
    assert abs(drifted.var_a - 0.3) < 1e-12


def test_nonzero_origin_rejected():
    with pytest.raises(NonzeroOrigin, match="origin_a"):
        ScalePair(T=1.0, a=lambda t: np.asarray(t) + 1.0,
                  a_prime=lambda t: np.ones_like(np.asarray(t)),
                  b=lambda t: np.asarray(t, dtype=float),
                  b_prime=lambda t: np.ones_like(np.asarray(t)))


def test_decreasing_variance_rejected():
    with pytest.raises(NonPositiveVariance, match="variance_increasing"):
        ScalePair(T=1.0, a=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                  a_prime=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                  b=lambda t: -np.asarray(t, dtype=float),
                  b_prime=lambda t: -np.ones_like(np.asarray(t, dtype=float)))


def _sqrt_drift_prime(t):
    # a = 2 sqrt(t): a' = 1/sqrt(t) is infinite at t = 0
    t = np.asarray(t, dtype=float)
    return np.where(t > 0.0, 1.0 / np.sqrt(np.where(t > 0.0, t, 1.0)), np.inf)


def test_infinite_drift_rejected():
    # the variance passes, but the drift energy and total variation on
    # the grid are infinite; the first of the two is reported
    with pytest.raises(InfiniteDrift, match="drift_energy_finite"):
        ScalePair(T=1.0, a=lambda t: 2.0 * np.sqrt(np.asarray(t, dtype=float)),
                  a_prime=_sqrt_drift_prime,
                  b=lambda t: np.asarray(t, dtype=float),
                  b_prime=lambda t: np.ones_like(np.asarray(t, dtype=float)))


def _t(t):
    return np.asarray(t, dtype=float)


@pytest.mark.parametrize("kw, error, check", [
    (dict(a=lambda t: 0.0 * _t(t), a_prime=lambda t: 0.0 * _t(t),
          b=lambda t: _t(t) - 0.7 * _t(t) ** 2,
          b_prime=lambda t: 1.0 - 1.4 * _t(t)),
     NonPositiveVariance, "variance_increasing"),
    (dict(a=lambda t: 1.0 + _t(t), a_prime=lambda t: 1.0 + 0.0 * _t(t),
          b=_t, b_prime=lambda t: 1.0 + 0.0 * _t(t)),
     NonzeroOrigin, "origin_a"),
    (dict(a=lambda t: 2.0 * np.sqrt(_t(t)), a_prime=_sqrt_drift_prime,
          b=_t, b_prime=lambda t: 1.0 + 0.0 * _t(t)),
     InfiniteDrift, "drift_energy_finite"),
], ids=["variance-turns-down", "drift-off-origin", "sqrt-drift"])
def test_construction_raises_the_first_failed_check(kw, error, check):
    # one rule for every route: a pair that fails a check is never built,
    # so no kernel, bound sweep or sampler sees it
    with pytest.raises(error, match=check):
        ScalePair(T=1.0, **kw)


def test_drifted_preset_builds_wherever_the_variance_increases():
    # b' = 1 + 2 beta t > 0 on [0, T] exactly when beta > -1/(2T)
    sp = preset_scale("drifted", alpha=0.3, beta=-0.4)
    checks = {c.name: c for c in sp.validation_report()}
    assert all(c.passed for c in checks.values())
    assert checks["variance_increasing"].value > 0.0
    with pytest.raises(NonPositiveVariance, match="variance_increasing"):
        preset_scale("drifted", alpha=0.3, beta=-0.5)
    assert preset_scale("drifted", alpha=0.3, beta=-0.24, T=2.0).T == 2.0
    with pytest.raises(NonPositiveVariance):
        preset_scale("drifted", alpha=0.3, beta=-0.25, T=2.0)


def test_bad_horizon_and_grid():
    kw = dict(a=lambda t: 0 * t, a_prime=lambda t: 0 * t,
              b=lambda t: t, b_prime=lambda t: 1 + 0 * t)
    with pytest.raises(OutOfDomain):
        ScalePair(T=0.0, **kw)
    with pytest.raises(ValueError):
        ScalePair(T=1.0, grid_n=7, **kw)


def test_quad_dt_oracle(wiener):
    # int_0^1 t^2 dt = 1/3
    val = np.dot(wiener.weights, wiener.t_nodes ** 2)
    assert abs(val - 1.0 / 3.0) < 1e-12


def test_quad_db_oracle(drifted):
    # b' = 1 + t, so int_0^1 t db = int t (1 + t) dt = 1/2 + 1/3 = 5/6
    val = np.dot(drifted.weights, drifted.t_nodes * drifted.bprime_nodes)
    assert abs(val - 5.0 / 6.0) < 1e-12


def test_quad_da_abs_oracle(drifted):
    # |a'| = 0.3, so int_0^1 t |da| = 0.3 / 2
    val = np.dot(drifted.weights, drifted.t_nodes * np.abs(drifted.aprime_nodes))
    assert abs(val - 0.15) < 1e-12


def test_total_variation_linear_drift(drifted):
    assert abs(drifted.var_a - 0.3) < 1e-12


def test_total_variation_oscillating_drift():
    # a = sin(2 pi t) swings through two monotone arcs of height 2 each
    sp = ScalePair(T=1.0,
                   a=lambda t: np.sin(2 * np.pi * np.asarray(t, dtype=float)),
                   a_prime=lambda t: 2 * np.pi * np.cos(2 * np.pi * np.asarray(t, dtype=float)),
                   b=lambda t: np.asarray(t, dtype=float),
                   b_prime=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                   grid_n=2048)
    assert abs(sp.var_a - 4.0) < 1e-6


def test_preset_scale_errors():
    with pytest.raises(ValueError):
        preset_scale("unknown")
    with pytest.raises(ValueError):
        preset_scale("wiener", alpha=1.0)
    with pytest.raises(ValueError):
        preset_scale("drifted", alpha=1.0)
    with pytest.raises(NonPositiveVariance):
        preset_scale("drifted", alpha=0.0, beta=-1.0)


@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=3.0))
def test_drifted_preset_norms(alpha, beta):
    # ||b||^2 = b(T) and TV(a) = alpha T for a linear drift
    sp = drifted_pair(alpha, beta)
    assert abs(np.dot(sp.weights, sp.bprime_nodes) - (1.0 + beta)) < 1e-10
    assert abs(sp.var_a - alpha) < 1e-10
