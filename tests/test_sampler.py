import math

import numpy as np
import pytest

from opfeyn import (EtaGaussian, InvalidGrid, NotOrthonormal, RngStream,
                    a_unit_element, b_element, combine, cylinder_expectation,
                    gallery, monomial_element, pair_with_a, sample_increments,
                    unit_functional)
from opfeyn.sampler import left_densities, projection_law


def test_stream_determinism():
    g1 = RngStream(seed=42, stream_id=3).generator()
    g2 = RngStream(seed=42, stream_id=3).generator()
    assert np.array_equal(g1.standard_normal(100), g2.standard_normal(100))


def test_stream_separation():
    a = RngStream(seed=42, stream_id=0).generator().standard_normal(100)
    b = RngStream(seed=42, stream_id=1).generator().standard_normal(100)
    c = RngStream(seed=43, stream_id=0).generator().standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batch_keying_is_stable():
    s = RngStream(seed=7, stream_id=2)
    x0 = s.generator(batch=0).standard_normal(10)
    x5 = s.generator(batch=5).standard_normal(10)
    assert np.array_equal(x5, RngStream(7, 2).generator(batch=5).standard_normal(10))
    assert not np.array_equal(x0, x5)


def test_sample_increment_moments(drifted, gen):
    # increments are N(da, db) over each step; check first two moments
    n = 40000
    t, dx = sample_increments(drifted, 16, n, gen)
    da = np.diff(drifted.a(t))
    db = np.diff(drifted.b(t))
    se_mean = np.sqrt(db / n)
    assert np.all(np.abs(dx.mean(axis=0) - da) < 4.0 * se_mean)
    se_var = db * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(dx.var(axis=0, ddof=1) - db) < 4.0 * se_var)


def test_invalid_grid(wiener, gen):
    with pytest.raises(InvalidGrid):
        sample_increments(wiener, 0, 5, gen)


def test_pwz_gaussian_law(drifted):
    # (w, x)~ is N((w,a), ||w||^2); test both moments at 4 sigma
    w = b_element(drifted)
    n = 40000
    t, dx = sample_increments(drifted, 256, n, RngStream(seed=5).generator())
    proj = (dx @ left_densities([w], t))[:, 0]
    mean, var = pair_with_a(w), w.norm_sq
    assert abs(proj.mean() - mean) < 4.0 * math.sqrt(var / n)
    assert abs(proj.var(ddof=1) - var) < 4.0 * var * math.sqrt(2.0 / (n - 1))


def test_pwz_single_path_matches_batch(drifted):
    # the batched pairings are the left-point sums of each path's increments
    ws = [monomial_element(drifted, 1), b_element(drifted)]
    t, dx = sample_increments(drifted, 128, 3, RngStream(seed=9).generator())
    batch = dx @ left_densities(ws, t)
    for i, row in enumerate(dx):
        for j, w in enumerate(ws):
            z = w.density(t[:-1])
            single = sum(z[k] * row[k] for k in range(row.size))
            assert abs(single - batch[i, j]) < 1e-12


def test_cylinder_second_moment(wiener, drifted):
    # E[(e,x)~^2] = 1 + (e,a)^2 for a unit direction
    e = b_element(wiener)
    val = cylinder_expectation(lambda u: u * u, [e])
    assert abs(val - 1.0) < 1e-10

    e2 = a_unit_element(drifted)
    m = pair_with_a(e2)
    val2 = cylinder_expectation(lambda u: u * u, [e2])
    assert abs(val2 - (1.0 + m * m)) < 1e-10


def test_cylinder_product_of_orthonormal(wiener):
    # independent coordinates: E[u1 u2] = m1 m2 = 0 on the driftless pair
    e1 = b_element(wiener)
    e2 = combine_orthonormal(wiener)
    val = cylinder_expectation(lambda u1, u2: u1 * u2, [e1, e2])
    assert abs(val) < 1e-10


def combine_orthonormal(sp):
    # on the driftless unit pair, t - 1/2 is orthogonal to b and has
    # squared norm 1/12
    return combine(monomial_element(sp, 1), b_element(sp), 1.0,
                   -0.5).scaled(math.sqrt(12.0))


def test_cylinder_rejects_non_orthonormal(wiener):
    w = monomial_element(wiener, 1)
    with pytest.raises(NotOrthonormal):
        cylinder_expectation(lambda u: u, [w])
    with pytest.raises(NotOrthonormal):
        cylinder_expectation(lambda u, v: u * v,
                             [b_element(wiener), b_element(wiener)])


def test_cylinder_dimension_cap(wiener):
    e = b_element(wiener)
    with pytest.raises(ValueError):
        cylinder_expectation(lambda *u: 1.0, [e, e, e, e])


@pytest.mark.parametrize("name", ["unit", "F1_w0_is_h", "F4"])
def test_projection_law_is_the_exact_left_point_law(drifted, name):
    # unit: zero atom, so G has a zero row; F1 with w0 = h: two parallel
    # columns, so G is singular; F4: a regular two-direction Gram matrix
    h = b_element(drifted)
    F = {"unit": lambda: unit_functional(drifted),
         "F1_w0_is_h": lambda: gallery("F1", drifted, w0=h,
                                       eta=EtaGaussian(mean=0.5, var=1.0)),
         "F4": lambda: gallery("F4", drifted)}[name]()
    grid_n = 256
    t = np.linspace(0.0, drifted.T, grid_n + 1)
    z = left_densities(F.directions() + [h], t)
    da = np.diff(drifted.a(t))
    db = np.diff(drifted.b(t))
    zs = np.sqrt(db)[:, None] * z
    G = zs.T @ zs
    mu, factor = projection_law(drifted, z)
    assert np.max(np.abs(factor.T @ factor - G)) <= 1e-12
    assert np.array_equal(mu, da @ z)
