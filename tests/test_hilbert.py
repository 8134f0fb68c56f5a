import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opfeyn import (MismatchedScalePair, ZeroDirection, a_element, a_unit_element,
                    b_element, combine, drifted_pair, from_density, inner,
                    monomial_element, pair_with_a, preset_direction, s_star,
                    zero_element)
from opfeyn.kernels import DirectionStats, KernelContext

LN2 = math.log(2.0)


def test_b_element_norm(wiener, drifted):
    # ||b||^2 = int db = b(T)
    assert abs(b_element(wiener).norm_sq - 1.0) < 1e-12
    assert abs(b_element(drifted).norm_sq - 1.5) < 1e-12


def test_b_element_primitive_is_b(drifted):
    w = b_element(drifted)
    t = np.linspace(0.0, 1.0, 7)
    assert np.allclose(w.value(t), t + 0.5 * t * t, atol=1e-12)


def test_a_element_oracles(drifted):
    # Da = a'/b' = 0.3/(1+t); ||a||^2 = int (0.3)^2/(1+t) dt = 0.09 ln 2
    a = a_element(drifted)
    assert abs(a.norm_sq - 0.09 * LN2) < 1e-10
    assert abs(pair_with_a(a) - 0.09 * LN2) < 1e-10
    u = a_unit_element(drifted)
    assert abs(u.norm - 1.0) < 1e-12
    assert abs(pair_with_a(u) - 0.3 * math.sqrt(LN2)) < 1e-10


def test_a_element_zero_without_drift(wiener):
    assert a_element(wiener).norm_sq == 0.0
    with pytest.raises(ZeroDirection):
        a_unit_element(wiener)


def test_pair_b_with_a(drifted):
    # (b, a) = int 1 * a' dt = 0.3
    assert abs(pair_with_a(b_element(drifted)) - 0.3) < 1e-12


def test_inner_monomial_oracle(wiener):
    # (b, t-density) = int t dt = 1/2; ||t-density||^2 = 1/3
    w = monomial_element(wiener, 1)
    assert abs(inner(b_element(wiener), w) - 0.5) < 1e-12
    assert abs(w.norm_sq - 1.0 / 3.0) < 1e-12


def test_gram_schmidt_oracle(wiener):
    # h = b (unit norm on the driftless pair), w has density t:
    # projection 1/2, orthogonal component sqrt(1/3 - 1/4)
    ctx = KernelContext.from_direction(b_element(wiener))
    stats = DirectionStats.from_elements(ctx, monomial_element(wiener, 1))
    assert abs(stats.c_hw - 0.5) < 1e-12
    assert abs(stats.norm_sq - stats.c_hw ** 2 / ctx.norm_h_sq - 1.0 / 12.0) < 1e-10


def test_gram_schmidt_parallel_branch(wiener):
    ctx = KernelContext.from_direction(b_element(wiener))
    stats = DirectionStats.from_elements(ctx, b_element(wiener).scaled(2.0))
    assert stats.a_resid == 0.0
    assert abs(stats.norm_sq - stats.c_hw ** 2 / ctx.norm_h_sq) < 1e-12
    assert abs(stats.c_hw - 2.0) < 1e-12


def test_s_star_oracle(wiener):
    # adjoint shift of b on the driftless pair: density 1-t, primitive t - t^2/2
    w = s_star(b_element(wiener))
    t = np.linspace(0.0, 1.0, 9)
    assert np.allclose(w.density(t), 1.0 - t, atol=1e-12)
    assert np.allclose(w.value(t), t - 0.5 * t * t, atol=1e-6)
    assert abs(w.norm_sq - 1.0 / 3.0) < 1e-10


def test_d_op_d_inv_roundtrip(drifted):
    w = from_density(drifted, lambda t: np.cos(t))
    t = np.linspace(0.0, 1.0, 11)
    assert np.allclose(w.density(t), np.cos(t), atol=1e-12)
    # value is the db-primitive of the density
    assert abs(w.value(np.array([0.0]))[0]) < 1e-12


def test_combine_is_linear(wiener):
    w1 = monomial_element(wiener, 1)
    w2 = monomial_element(wiener, 2)
    s = combine(w1, w2, 2.0, -1.0)
    t = np.linspace(0.0, 1.0, 5)
    assert np.allclose(s.density(t), 2.0 * t - t * t, atol=1e-12)
    assert abs(inner(s, w1) - (2.0 * w1.norm_sq - inner(w2, w1))) < 1e-12


def test_unit_and_zero(wiener):
    w = monomial_element(wiener, 2).unit()
    assert abs(w.norm - 1.0) < 1e-12
    with pytest.raises(ZeroDirection):
        zero_element(wiener).unit()


def test_mismatched_pairs_rejected(wiener, drifted):
    with pytest.raises(MismatchedScalePair):
        inner(b_element(wiener), b_element(drifted))
    with pytest.raises(MismatchedScalePair):
        combine(b_element(wiener), b_element(drifted))


def test_preset_direction_errors(wiener):
    with pytest.raises(ValueError):
        preset_direction(wiener, "monomial")
    with pytest.raises(ValueError):
        preset_direction(wiener, "no_such")


def test_from_density_grid_input(wiener):
    # a direction's one representation is its density closure
    with pytest.raises(ValueError, match="callable"):
        from_density(wiener, np.sin(wiener.t_nodes))


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=3, max_size=3),
       st.lists(st.floats(min_value=-2, max_value=2), min_size=3, max_size=3))
def test_cauchy_schwarz(c1, c2):
    sp = drifted_pair(0.3, 0.5)
    z1 = from_density(sp, lambda t: c1[0] + c1[1] * t + c1[2] * t * t)
    z2 = from_density(sp, lambda t: c2[0] + c2[1] * t + c2[2] * t * t)
    assert abs(inner(z1, z2)) <= z1.norm * z2.norm + 1e-10


@settings(max_examples=40)
@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_pair_with_a_is_linear(u, v):
    sp = drifted_pair(0.3, 0.5)
    w1 = b_element(sp)
    w2 = monomial_element(sp, 1)
    lhs = pair_with_a(combine(w1, w2, u, v))
    rhs = u * pair_with_a(w1) + v * pair_with_a(w2)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))
