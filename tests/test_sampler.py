import math

import numpy as np
import pytest

from opfeyn import (EtaGaussian, InvalidGrid, RngStream, b_element, gallery,
                    monomial_element, pair_with_a, sample_increments,
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


def test_increments_are_the_affine_map_of_the_normals_bit_for_bit(drifted):
    # the increments are built in place in the normals' array; the values
    # must equal the allocating da + sqrt(db) g exactly
    t, dx = sample_increments(drifted, 64, 50, RngStream(seed=3).generator())
    g = RngStream(seed=3).generator().standard_normal((50, 64))
    da, db = np.diff(drifted.a(t)), np.diff(drifted.b(t))
    assert np.array_equal(dx, da + np.sqrt(db) * g)


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
