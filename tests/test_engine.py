import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from opfeyn import (ArgOutOfRange, AtomicMeasure, BadConfig,
                    Envelope, EtaAtoms, EtaDensity, EtaGaussian, FresnelFunctional,
                    KernelOverflow, LambdaParam, LineMeasure,
                    MismatchedScalePair, NonPositiveLambda, NotAdmissible, NotInFq0, PsiFn,
                    PsiNotIntegrable, QuadratureError, RngStream,
                    SequenceLeavesRegion, UnsupportedVariant,
                    a_unit_element, b_element, bump_psi,
                    bound_chain_sweep, convergence_study,
                    divergence_witness_partial, divergence_witness_psi,
                    drifted_pair, gallery,
                    gaussian_identity_check, gaussian_psi, i_lambda_mc,
                    j_q, k_lambda, kq0_integral, nu_delta_norm,
                    op_norm_bound, pair_with_a,
                    s_star, sample_interior_lambda, shifted_gaussian_psi,
                    unit_functional, unit_spot_check)
from opfeyn import engine, quadrature
from opfeyn.engine import (_cubic_gram, _kernel_family, _measure_family,
                           _merge_moments)
from opfeyn.fresnel import LinePieces, SpectralMeasure
from opfeyn.kernels import DirectionStats, KernelContext, gamma_margin
from opfeyn.quadrature import CHUNK_BYTES, GK_KRONROD, GK_NODES, LogBound

SPOT = 1.0 / (2.0 * math.sqrt(math.pi))


def test_unit_spot_value(wiener):
    value, reference = unit_spot_check(wiener, 1.0)
    assert abs(value - SPOT) < 1e-10
    assert abs(value - reference) < 1e-10 * abs(reference)
    v2, r2 = unit_spot_check(wiener, 2.0)
    assert abs(v2 - r2) < 1e-10 * abs(r2)


def test_kernel_route_matches_direct_convolution(wiener):
    # driftless pair, F = 1, gaussian state function: the operator reduces
    # to sqrt(lam/2pi) int psi(v) exp(-lam (v-xi)^2 / 2) dv
    F = unit_functional(wiener)
    h = b_element(wiener)
    psi = gaussian_psi()
    xi_grid = np.array([-1.0, 0.0, 0.7])
    lam = 1.5
    res = k_lambda(F, h, psi, lam, xi_grid)
    pref = math.sqrt(lam / (2 * math.pi))
    for j, xi in enumerate(xi_grid):
        ref, _ = integrate.quad(
            lambda v: math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
            * math.exp(-0.5 * lam * (v - xi) ** 2), -12, 12,
            epsabs=1e-14, epsrel=1e-14)
        assert abs(res.values[j] - pref * ref) < 1e-10
    assert res.route == "kernel"
    assert res.stderr is None


def test_mc_route_agrees_with_kernel(drifted):
    F = gallery("F4", drifted)
    h = b_element(drifted)
    psi = gaussian_psi()
    xi_grid = np.array([-1.0, 0.5])
    lam = 1.0
    kern = k_lambda(F, h, psi, lam, xi_grid)
    mc = i_lambda_mc(F, h, psi, lam, xi_grid, 20000, RngStream(seed=11),
                     path_grid=512)
    z = np.abs(kern.values - mc.values) / mc.stderr
    assert np.all(z < 4.0)
    assert mc.route == "mc"


def test_mc_is_deterministic(wiener):
    F = unit_functional(wiener)
    h = b_element(wiener)
    psi = gaussian_psi()
    xi = np.array([0.0])
    a = i_lambda_mc(F, h, psi, 1.0, xi, 5000, RngStream(seed=21), path_grid=64)
    b = i_lambda_mc(F, h, psi, 1.0, xi, 5000, RngStream(seed=21), path_grid=64)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)


def test_mc_draws_are_keyed_by_seed_stream_and_batch_size(drifted, monkeypatch):
    F = gallery("F4", drifted)
    h = b_element(drifted)
    psi = gaussian_psi()
    xi = np.array([-0.5, 0.5])

    def run(batch_size, stream_id=3):
        monkeypatch.setattr(engine, "MC_BATCH", batch_size)
        return i_lambda_mc(F, h, psi, 1.0, xi, 2500,
                           RngStream(seed=21, stream_id=stream_id),
                           path_grid=64)

    a, b = run(1000), run(1000)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)
    # batches are keyed by index, so another batch size draws other normals
    assert not np.array_equal(a.values, run(700).values)
    assert not np.array_equal(a.values, run(1000, stream_id=4).values)


def test_mc_route_draws_no_paths(drifted, monkeypatch):
    import opfeyn.engine
    import opfeyn.sampler

    def refuse(*args, **kwargs):
        raise AssertionError("the MC route sampled path increments")

    monkeypatch.setattr(opfeyn.sampler, "sample_increments", refuse)
    monkeypatch.setattr(opfeyn.engine, "sample_increments", refuse)
    res = i_lambda_mc(gallery("F3", drifted), b_element(drifted),
                      gaussian_psi(), 1.0, np.array([0.0]), 500,
                      RngStream(seed=2), path_grid=64)
    assert np.all(np.isfinite(res.values)) and res.stderr[0] > 0.0


def test_moment_merge_is_stable_far_from_zero():
    # a mean of 1e8 against a unit spread: the one-pass sum of squares
    # minus n |mean|^2 loses every digit, the two-pass merge keeps them
    gen = np.random.default_rng(5)
    y = (1e8 + 1e8j) + gen.standard_normal(10000) + 1j * gen.standard_normal(10000)
    n, mean, m2 = 0, np.zeros(1, dtype=complex), np.zeros(1)
    for part in np.split(y, [1, 2500, 2501, 7000]):
        mb = part.mean()
        d = part - mb
        n, mean, m2 = _merge_moments(n, mean, m2, part.size, np.array([mb]),
                                     np.array([np.sum(d.real ** 2 + d.imag ** 2)]))
    assert n == y.size
    assert abs(mean[0] - y.mean()) <= 1e-15 * abs(y.mean())
    assert abs(m2[0] / n - np.var(y)) <= 1e-9 * np.var(y)
    one_pass = (np.sum(y.real ** 2 + y.imag ** 2) - n * abs(y.mean()) ** 2) / n
    assert abs(one_pass - np.var(y)) > 1e-3 * np.var(y)


def test_mc_rejects_bad_lambda(wiener):
    F = unit_functional(wiener)
    h = b_element(wiener)
    psi = gaussian_psi()
    with pytest.raises(NonPositiveLambda):
        i_lambda_mc(F, h, psi, 0.0, np.array([0.0]), 100, RngStream(seed=1))
    with pytest.raises(NonPositiveLambda):
        i_lambda_mc(F, h, psi, -2.0, np.array([0.0]), 100, RngStream(seed=1))


def test_kernel_rejects_out_of_region(wiener):
    # small |lam| near the negative imaginary axis exits the region
    lam = 1e-4 - 1e-2j
    assert not LambdaParam.from_value(lam).in_gamma(0.5)
    with pytest.raises(NotAdmissible):
        k_lambda(unit_functional(wiener), b_element(wiener), gaussian_psi(),
                 lam, np.array([0.0]), q0=0.5)


def test_boundary_needs_q_beyond_threshold(wiener):
    with pytest.raises(NotAdmissible):
        j_q(unit_functional(wiener), b_element(wiener), gaussian_psi(),
            0.4, np.array([0.0]), q0=0.5)


def test_boundary_with_drift_needs_weight(drifted):
    F = unit_functional(drifted)
    h = b_element(drifted)
    psi = gaussian_psi()
    with pytest.raises(PsiNotIntegrable):
        j_q(F, h, psi, 1.0, np.array([0.0]), q0=0.5, delta=None)
    res = j_q(F, h, psi, 1.0, np.array([0.0]), q0=0.5, delta=0.5)
    assert res.route == "boundary"
    assert np.isfinite(res.values[0].real)


def test_boundary_rejects_non_weighted_psi(drifted):
    # exponential envelope is never integrable against the gaussian weight
    psi = PsiFn(fn=lambda v: np.exp(-np.abs(v)),
                envelope=Envelope("exponential", scale=1.0, rate=1.0))
    with pytest.raises(PsiNotIntegrable):
        j_q(unit_functional(drifted), b_element(drifted), psi, 1.0,
            np.array([0.0]), q0=0.5, delta=0.5)


def test_boundary_refuses_a_kernel_tail_the_envelope_does_not_control(drifted):
    # delta = 0 admits any envelope, but with drift |H| grows like
    # exp(Re sqrt(lam) (h,a) v / ||h||^2) = exp(0.14 v) at -i, which an
    # exponential envelope of rate 0.01 does not control
    psi = PsiFn(fn=lambda v: np.exp(-0.01 * np.abs(v)),
                envelope=Envelope("exponential", scale=1.0, rate=0.01))
    with pytest.raises(PsiNotIntegrable, match="kernel tail"):
        j_q(unit_functional(drifted), b_element(drifted), psi, 1.0,
            np.array([0.0]), q0=0.5, delta=0.0)


def test_boundary_spot_against_oscillatory_quad(wiener):
    # driftless boundary kernel at q = 1: sqrt(-i/2pi) int psi e^{i(v-xi)^2/2}
    F = unit_functional(wiener)
    res = j_q(F, b_element(wiener), gaussian_psi(), 1.0, np.array([0.3]),
              q0=0.5)
    lam = -1.0j
    pref = np.sqrt(lam / (2 * math.pi + 0j))
    re, _ = integrate.quad(
        lambda v: (math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
                   * math.cos(0.5 * (v - 0.3) ** 2)), -40, 40,
        epsabs=1e-13, limit=400)
    im, _ = integrate.quad(
        lambda v: (math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
                   * math.sin(0.5 * (v - 0.3) ** 2)), -40, 40,
        epsabs=1e-13, limit=400)
    ref = pref * (re + 1j * im)
    assert abs(res.values[0] - ref) < 1e-9


def test_nu_delta_norm_oracle(drifted):
    # psi = exp(-v^2/2), growth = delta * TV(a) = 1/4:
    # int exp(-v^2/4) dv = 2 sqrt(pi)
    psi = PsiFn(fn=lambda v: np.exp(-0.5 * v * v),
                envelope=Envelope("gaussian", scale=1.0, rate=0.5))
    delta = 0.25 / drifted.var_a
    res = nu_delta_norm(psi, delta, drifted)
    assert abs(res - 2.0 * math.sqrt(math.pi)) < 1e-9


def test_nu_delta_norm_divergence(drifted):
    res = nu_delta_norm(gaussian_psi(), 2.0, drifted)  # growth 0.6 >= 0.5
    assert res == math.inf


def test_nu_delta_norm_just_below_the_envelope_rate(drifted):
    # growth g = delta Var(a) a little below the envelope rate: the cut
    # ends lie where |psi| underflows and exp(g v^2) overflows.  Closed
    # form of |amp| int exp(-(v - m)^2 / (2 s^2) + g v^2) dv, a = 1/(2 s^2)
    def closed(amp, m, s, delta):
        a, g = 1.0 / (2.0 * s * s), delta * drifted.var_a
        return (abs(amp) * math.sqrt(math.pi / (a - g))
                * math.exp((a * m) ** 2 / (a - g) - a * m * m))

    res = nu_delta_norm(gaussian_psi(), 1.6, drifted)   # g = 0.48, rate 0.5
    assert math.isfinite(res)
    assert abs(closed(1.0 / math.sqrt(2.0 * math.pi), 0.0, 1.0, 1.6) - 5.0) < 1e-12
    assert abs(res - 5.0) < 1e-9 * 5.0
    psi = shifted_gaussian_psi(1 - 0.5j, 0.7, 0.9)      # g = 0.3, rate 0.309
    ref = closed(1 - 0.5j, 0.7, 0.9, 1.0)
    assert abs(ref - 4.68) < 5e-3
    assert abs(nu_delta_norm(psi, 1.0, drifted) - ref) < 1e-9 * ref


def test_op_norm_bound_values(wiener):
    F = unit_functional(wiener)
    h = b_element(wiener)
    # driftless: S = 1, kq0 = 1, M(1) = (2 pi)^{-1/2} on both routes
    interior = op_norm_bound(F, h, 1.0)
    boundary = op_norm_bound(F, h, -1.0j)
    ref = 1.0 / math.sqrt(2.0 * math.pi)
    assert abs(interior - ref) < 1e-12
    assert abs(boundary - ref) < 1e-12


def test_op_norm_bound_with_drift(drifted):
    # S = exp{(sec(arg lam) + 1) (h,a)^2 / (4 ||h||^2)} times |M| = (|lam| /
    # (2 pi ||h||^2))^{1/2}; the unit functional has kq0 = 1
    F = unit_functional(drifted)
    h = b_element(drifted)
    lam = 1.0 + 1.0j
    n2, p = h.norm_sq, pair_with_a(h)
    sec = abs(lam) / lam.real
    ref = (math.exp((sec + 1.0) * p * p / (4.0 * n2))
           * math.sqrt(abs(lam) / (2.0 * math.pi * n2)))
    assert abs(op_norm_bound(F, h, lam) - ref) < 1e-14 * ref


def test_kernel_entry_points_reject_nonpositive_q0(drifted):
    # the exponential-moment integral needs q0 > 0 and says so with the
    # typed ArgOutOfRange, on the boundary too, where no region check does
    F = gallery("F4", drifted)
    h = b_element(drifted)
    with pytest.raises(ArgOutOfRange):
        j_q(F, h, gaussian_psi(), 1.0, np.array([0.0]), q0=0.0, delta=0.5)
    with pytest.raises(ArgOutOfRange):
        op_norm_bound(F, h, -1j, q0=-1.0)


def test_log_bound_of_an_exponential_envelope():
    # log 2 - |v| plus the extra exponent -v^2/2 + 4 v: the left side
    # (-1/2, 5, log 2) has its vertex at v = 5, clamped to 0; the right side
    # (-1/2, 3, log 2) peaks inside v >= 0, at v = 3
    psi = PsiFn(fn=lambda v: 2.0 * np.exp(-np.abs(v)),
                envelope=Envelope("exponential", scale=2.0, rate=1.0))
    extra = (-0.5, 4.0, 0.0)
    bound = psi.envelope.log_bound.plus(extra)
    assert bound.left != bound.right

    def g(v):
        return -0.5 * v * v + 4.0 * v + math.log(2.0) - np.abs(v)

    grid_peak = np.max(g(np.linspace(-20.0, 20.0, 400001)))
    assert abs(bound.peak() - grid_peak) < 1e-12
    drop = 8.0
    lo, hi = bound.cut(drop)
    assert lo < 0.0 < 3.0 < hi
    assert abs(g(lo) - (grid_peak - drop)) < 1e-12
    assert abs(g(hi) - (grid_peak - drop)) < 1e-12
    outside = (integrate.quad(lambda v: math.exp(g(v)), -np.inf, lo)[0]
               + integrate.quad(lambda v: math.exp(g(v)), hi, np.inf)[0])
    assert outside <= bound.tails(lo, hi) < 10.0 * outside

    # a compact support is the interval, with nothing left outside it
    compact = bump_psi(2.0).envelope.log_bound.plus(extra)
    assert compact.cut(drop) == (-2.0, 2.0)
    assert compact.tails(-2.0, 2.0, amp=5.0) == 0.0
    # an extra exponent that grows faster than the envelope decays
    assert not psi.envelope.log_bound.plus((0.5, 0.0, 0.0)).integrable


def test_boundary_grid_agrees_with_one_point_calls(drifted):
    # a 21-point grid is integrated in groups on shared intervals; each
    # value stays within both sides' certified errors of its own call
    F = gallery("F4", drifted)
    h = b_element(drifted)
    psi = shifted_gaussian_psi(1.0, 0.0, 0.3)
    xi = np.linspace(-10.0, 10.0, 21)
    grid = j_q(F, h, psi, 1.5, xi, q0=0.5, delta=0.5)
    for j in range(xi.size):
        one = j_q(F, h, psi, 1.5, xi[j:j + 1], q0=0.5, delta=0.5)
        gap = abs(grid.values[j] - one.values[0])
        assert gap <= grid.meta["quad_err"][j] + one.meta["quad_err"][0]


def test_boundary_error_estimate_covers_the_gap(drifted, monkeypatch):
    # the reported error must cover the distance to a far tighter run; the
    # Simpson panels' Richardson estimate reported 3.45e-12 at xi = -2
    # against a gap of 5.70e-12
    F, h = gallery("F4", drifted), b_element(drifted)
    psi = shifted_gaussian_psi(1.0, 0.0, 0.3)
    for x in (-2.0, 2.0):
        res = j_q(F, h, psi, 1.5, [x], delta=0.5)
        with monkeypatch.context() as m:
            m.setattr(engine, "KERNEL_REL_TOL", 1e-14)
            tight = j_q(F, h, psi, 1.5, [x], delta=0.5)
        assert tight.meta["rel_tol"] == 1e-14
        assert res.meta["quad_err"][0] >= abs(res.values[0] - tight.values[0])


def test_boundary_far_point_matches_scipy(drifted, monkeypatch):
    # far from the drift the H factor oscillates fast over the narrow psi;
    # the Simpson panels raised QuadratureError here
    seen = []
    integrate_family = engine.adaptive_simpson

    def recording(f, lo, hi, **kw):
        res = integrate_family(f, lo, hi, **kw)
        seen.append((f, lo, hi, kw["breakpoints"], res))
        return res

    monkeypatch.setattr(engine, "adaptive_simpson", recording)
    res = j_q(gallery("F4", drifted), b_element(drifted),
              shifted_gaussian_psi(1.0, 0.0, 0.1), 1.5, [-60.0], delta=0.5)
    assert abs(abs(res.values[0]) - 3.358e-5) < 1e-8
    # the integrand's L1 norm is 7.8e3 against a value of 8.4e-5, so both
    # engines stop at the rounding floor: scipy warns of roundoff, and the
    # two agree within the sum of their error estimates (2.5e-11 apart)
    f, lo, hi, breaks, quad = seen[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ref, ref_err = integrate.quad(
            lambda v: f(np.array([v]))[0, 0], lo, hi, complex_func=True,
            points=breaks, limit=2000, epsabs=0.0, epsrel=1e-12)
    assert abs(quad.values[0] - ref) <= quad.err[0] + abs(ref_err)


def _dense_k15(f, lo, hi, panels):
    """K15 sum of f's first row on ``panels`` equal panels of [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * GK_NODES
    return complex(np.sum(f(nodes.ravel())[0].reshape(nodes.shape) @ GK_KRONROD * half))


@pytest.mark.parametrize("q", [1.5, 3.0])
def test_boundary_error_bar_covers_a_dense_reference_at_far_points(
        drifted, monkeypatch, q):
    # at |xi| = 60 the phase of H at a point's centre is thousands of
    # radians; rounded into every node's exponent, it moved the value past
    # its error bar (1.44 times it at q = 3, xi = -60)
    seen = []
    integrate_family = engine.adaptive_simpson

    def recording(f, lo, hi, **kw):
        res = integrate_family(f, lo, hi, **kw)
        seen.append((f, lo, hi, res))
        return res

    monkeypatch.setattr(engine, "adaptive_simpson", recording)
    F, h = gallery("F4", drifted), b_element(drifted)
    psi = shifted_gaussian_psi(1.0, 0.0, 0.1)
    for xi in (-60.0, -30.0, -10.0, 10.0, 30.0, 60.0):
        res = j_q(F, h, psi, q, [xi], delta=0.5)
        f, lo, hi, quad = seen[-1]
        # the reference carries the factor (normaliser and unit phase)
        # that took the quadrature's value to the result
        ref = res.values[0] / quad.values[0] * _dense_k15(f, lo, hi, 20000)
        assert abs(res.values[0] - ref) <= res.meta["quad_err"][0], xi


def test_a_panel_is_bisected_exactly_when_its_estimate_passes_its_share_and_floor(
        drifted, monkeypatch):
    # on the far boundary integrand, whose cancelled panels sit near the
    # rounding floor, a panel is carried into the next round exactly when
    # some member's estimate exceeds both its share of half the budget and
    # 50 ulps of its K15 integral of |f|, the floor its error reports
    calls = []
    integrate_family, panel_sums = engine.adaptive_simpson, quadrature._panel_sums

    def integrating(f, lo, hi, **kw):
        calls.append((hi - lo, kw["rel_tol"], kw["abs_tol"], []))
        return integrate_family(f, lo, hi, **kw)

    def summing(f, a, b, step):
        sums = panel_sums(f, a, b, step)
        calls[-1][3].append((a.copy(), b.copy(), *sums[:3]))
        return sums

    monkeypatch.setattr(engine, "adaptive_simpson", integrating)
    monkeypatch.setattr(quadrature, "_panel_sums", summing)
    j_q(gallery("F4", drifted), b_element(drifted), shifted_gaussian_psi(1.0, 0.0, 0.1),
        3.0, [-60.0], delta=0.5)
    floor_decided = 0
    for span, rel_tol, abs_tol, rounds in calls:
        accepted = 0.0
        for (a, b, kron, est, resabs), later in zip(rounds, rounds[1:] + [None]):
            tol = np.maximum(abs_tol, rel_tol * np.abs(accepted + kron.sum(axis=1)))
            share = 0.5 * tol[:, None] * ((b - a) / span)
            floor = 50.0 * quadrature.EPS * resabs
            bad = np.any((est > share) & (est > floor), axis=0)
            carried = np.zeros(0) if later is None else later[0][:later[0].size // 2]
            assert np.array_equal(a[bad], carried)
            floor_decided += int(np.sum(~bad & np.any(est > share, axis=0)))
            accepted = accepted + kron[:, ~bad].sum(axis=1)
    assert floor_decided > 0


def test_rounds_reported_in_meta(drifted, monkeypatch):
    rounds = []
    integrate_family = engine.adaptive_simpson

    def recording(f, lo, hi, **kw):
        res = integrate_family(f, lo, hi, **kw)
        rounds.append(res.rounds)
        return res

    monkeypatch.setattr(engine, "adaptive_simpson", recording)
    F, h = gallery("F4", drifted), b_element(drifted)
    # two groups of points that need different numbers of rounds: the first
    # partition splits no panel at the kink of |psi| = exp(-|v - 6|), whose
    # envelope e^6 exp(-|v|) carries no curvature, and only the second
    # group's truncation cuts reach it
    psi = PsiFn(fn=lambda v: np.exp(-np.abs(v - 6.0)),
                envelope=Envelope("exponential", scale=math.exp(6.0), rate=1.0))
    xi = np.concatenate([np.linspace(-20.0, -10.0, 8), np.linspace(4.0, 8.0, 4)])
    res = k_lambda(F, h, psi, 1.0 + 0.5j, xi)
    assert len(rounds) == 2 and rounds[0] < rounds[1]
    assert res.meta["quad_rounds"] == max(rounds)
    res = k_lambda(F, h, gaussian_psi(), 1.0 + 0.5j, [0.0])
    assert res.meta["quad_rounds"] == rounds[-1]
    assert k_lambda(F, h, gaussian_psi(), 1.0, []).meta["quad_rounds"] == 0


def test_empty_grid_gives_empty_arrays(drifted):
    # a density's row probe then has no point to weigh
    for F in (gallery("F3", drifted), _sweep_density(drifted)):
        res = k_lambda(F, b_element(drifted), gaussian_psi(), 1.0 + 0.5j, np.array([]))
        assert res.values.shape == (0,) and res.values.dtype == complex
        assert res.meta["quad_err"].shape == (0,)
        assert res.meta["n_eval"] == 0


def test_one_quadrature_per_group_of_points(drifted, monkeypatch):
    calls = []
    integrate_family = engine.adaptive_simpson

    def counting(f, lo, hi, **kw):
        calls.append((lo, hi))
        return integrate_family(f, lo, hi, **kw)

    monkeypatch.setattr(engine, "adaptive_simpson", counting)
    F, h = gallery("F4", drifted), b_element(drifted)
    k_lambda(F, h, gaussian_psi(), 1.0 + 0.5j, np.linspace(-2.0, 2.0, 5))
    assert len(calls) == 1
    # groups of 8: nine points take two integrations
    j_q(F, h, gaussian_psi(), 1.5, np.linspace(-2.0, 2.0, 9), q0=0.5, delta=0.5)
    assert len(calls) == 3
    # a nine-row kernel groups its points too, each value within both
    # sides' errors of its own one-point call
    atoms = tuple((float(v), 0.1 + 0j) for v in np.linspace(-1.0, 1.0, 9))
    G = gallery("F1", drifted, w0=h, eta=EtaAtoms(atoms=atoms))
    xi = np.array([-1.0, 0.0, 1.5])
    grid = k_lambda(G, h, gaussian_psi(), 1.0 + 0.5j, xi)
    assert len(calls) == 4
    for j in range(xi.size):
        one = k_lambda(G, h, gaussian_psi(), 1.0 + 0.5j, xi[j:j + 1])
        gap = abs(grid.values[j] - one.values[0])
        assert gap <= grid.meta["quad_err"][j] + one.meta["quad_err"][0]


def test_grid_memory_does_not_grow_with_the_grid(drifted):
    h = b_element(drifted)
    atoms = tuple((float(v), 0.1 + 0j) for v in np.linspace(-1.0, 1.0, 9))
    psi = shifted_gaussian_psi(1.0, 0.0, 0.3)
    for F in (gallery("F4", drifted),
              gallery("F1", drifted, w0=h, eta=EtaAtoms(atoms=atoms))):
        peaks = []
        for n in (8, 64):
            tracemalloc.start()
            try:
                j_q(F, h, psi, 1.5, np.linspace(-10.0, 10.0, n),
                    q0=0.5, delta=0.5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]


def test_mc_memory_does_not_grow_with_the_atom_count(drifted):
    # the line transform runs in row chunks, so 10^4 paths against 2,000
    # atoms never hold a (paths x atoms) array
    h = b_element(drifted)
    atoms = tuple((float(v), 0.5e-3 + 0j) for v in np.linspace(-2.0, 2.0, 2000))
    F = gallery("F1", drifted, w0=h, eta=EtaAtoms(atoms=atoms))
    tracemalloc.start()
    try:
        i_lambda_mc(F, h, gaussian_psi(), 1.0, np.linspace(-1.0, 1.0, 5),
                    10000, RngStream(seed=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_op_norm_bound_rejects(wiener):
    F = unit_functional(wiener)
    h = b_element(wiener)
    with pytest.raises(NotAdmissible):
        op_norm_bound(F, h, -0.25j, q0=0.5)


def test_op_norm_bound_refuses_the_boundary_with_drift(drifted):
    # at -1.5i the drifted kernel outgrows the driftless cap |M| K_q0(F)
    # times ||psi||_{nu_delta} (0.0391) 357-fold at xi = -40, so no bound
    # is returned there
    F = gallery("F4", drifted)
    h = b_element(drifted)
    psi = shifted_gaussian_psi(1.0, 0.0, 0.03)
    with pytest.raises(NotAdmissible):
        op_norm_bound(F, h, -1.5j, q0=0.5)
    m_mod = abs(engine.kernel_M(LambdaParam.from_value(-1.5j),
                                KernelContext.from_direction(h)))
    cap = (m_mod * engine.kq0_integral(F, 0.5)
           * nu_delta_norm(psi, 0.5, drifted))
    value = j_q(F, h, psi, 1.5, np.array([-40.0]), q0=0.5, delta=0.5).values[0]
    assert abs(value) > 300.0 * cap


def test_identity_check_and_witness_integrate_through_the_tail_check(
        drifted, monkeypatch):
    calls = []
    real = engine._integrate_with_tail_check

    def counting(f, bounds, *args, **kwargs):
        calls.append(bounds)
        return real(f, bounds, *args, **kwargs)

    monkeypatch.setattr(engine, "_integrate_with_tail_check", counting)
    gaussian_identity_check(1.0 + 0.5j, 0.2 - 0.3j)
    q = (-1.0, 0.2, 0.0)
    assert calls == [[LogBound(left=q, right=q)]]
    calls.clear()
    divergence_witness_partial(drifted, 10.0)
    # the partial integral on [0, R] alone
    assert calls == [[LogBound(support=(0.0, 10.0))]]


def test_tail_check_retries_at_a_wider_drop(monkeypatch):
    # at a drop of 10 the gaussian's tail beyond |v| = sqrt(10) is about
    # 1e-5 of the integral; the retry at 10 + log(1e6) certifies it
    calls = []
    real = engine.adaptive_simpson

    def counting(f, lo, hi, **kwargs):
        calls.append((lo, hi))
        return real(f, lo, hi, **kwargs)

    monkeypatch.setattr(engine, "adaptive_simpson", counting)
    monkeypatch.setattr(engine, "TRUNC_DROP", 10.0)
    assert gaussian_identity_check(1.0, 0.0).rel_err < 1e-10
    assert len(calls) == 2
    assert calls[1][1] == pytest.approx(math.sqrt(10.0 + math.log(1e6)))


def test_tail_check_raises_when_the_retry_cannot_certify(monkeypatch):
    monkeypatch.setattr(engine, "TRUNC_DROP", 1.0)
    with pytest.raises(QuadratureError, match="could not be certified"):
        gaussian_identity_check(1.0, 0.0)


def _recording_rounds(monkeypatch):
    rounds = []
    integrate_family = engine.adaptive_simpson

    def recording(f, lo, hi, **kw):
        res = integrate_family(f, lo, hi, **kw)
        rounds.append((res.rounds, lo, hi))
        return res

    monkeypatch.setattr(engine, "adaptive_simpson", recording)
    return rounds


def test_criterion_06_draws_take_one_round(monkeypatch):
    # the first partition resolves the criterion-06 draws in one round, but
    # for two kinds it does not claim: draws whose half-period offsets
    # PHASE_CAP thins (rate * reach^2 past PHASE_CAP half periods), and
    # draws whose integral is cancelled far below the integrand's peak, so
    # that the tolerance, relative to the integral, is that much tighter
    rounds = _recording_rounds(monkeypatch)
    gen = np.random.default_rng(61)
    kinds = []
    for _ in range(100):
        re_a = 10.0 ** gen.uniform(-3.0, 1.0)
        alpha = re_a + 1j * gen.uniform(-2.0, 2.0)
        beta = (gen.uniform(-3.0, 3.0) * math.sqrt(re_a)
                + 1j * gen.uniform(-3.0, 3.0))
        res = gaussian_identity_check(alpha, beta)
        (n, lo, hi), = rounds
        rounds.clear()
        centre = beta.imag / (2.0 * alpha.imag)
        reach = max(centre - lo, hi - centre)
        thinned = abs(alpha.imag) * reach * reach / quadrature.PHASE_STEP > quadrature.PHASE_CAP
        cancelled = math.exp(beta.real ** 2 / (4.0 * re_a)) > 8.0 * abs(res.closed_form)
        kinds.append((thinned, cancelled))
        assert n == 1 or (thinned or cancelled) and n <= 3, (alpha, beta, n)
    assert sum(t for t, _ in kinds) == 2 and sum(c for _, c in kinds) == 3


@pytest.mark.parametrize("lam", [1.0 + 0.5j, 0.5 - 0.8j, 2.0, -1.1j], ids=str)
def test_gallery_kernel_calls_take_one_round(drifted, lam):
    h = b_element(drifted)
    for name in ("F3", "F4", "unit"):
        F = unit_functional(drifted) if name == "unit" else gallery(name, drifted)
        for xi in (np.array([0.0]), np.linspace(-2.0, 2.0, 5), np.linspace(-3.0, 3.0, 13)):
            if lam.real == 0.0:
                res = j_q(F, h, gaussian_psi(), -lam.imag, xi, delta=0.5)
            else:
                res = k_lambda(F, h, gaussian_psi(), lam, xi)
            assert res.meta["quad_rounds"] == 1, (name, xi.size)


def test_tail_check_raises_when_the_quadrature_misses_its_tolerance(
        drifted, monkeypatch):
    # the witness's exponential envelope carries no curvature and its norm
    # no phase, so the first partition is the plain one and one round
    # leaves panels unresolved (four resolve it)
    psi = divergence_witness_psi(1.0)
    assert nu_delta_norm(psi, 0.0, drifted) > 0.0
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 1)
    with pytest.raises(QuadratureError, match="missed its tolerance"):
        nu_delta_norm(psi, 0.0, drifted)


def test_kernel_rejects_a_measure_without_the_exponential_moment(drifted):
    # mu = ||w0|| ||a|| / sqrt(2 q0) = 5 ||b|| ||a|| = 1.53 at q0 = 0.5
    # outgrows the density's envelope rate 1
    eta = EtaDensity(fn=lambda v: np.exp(-np.abs(v)), radius=40.0,
                     envelope=Envelope("exponential", scale=1.0, rate=1.0))
    h = b_element(drifted)
    F = FresnelFunctional(LineMeasure(w0=h.scaled(5.0), eta=eta))
    with pytest.raises(NotInFq0):
        k_lambda(F, h, gaussian_psi(), 1.0, np.array([0.0]), q0=0.5)


def test_norm_bound_caps_kernel_on_random_interior(drifted):
    # |K psi|_sup <= bound * weighted norm, spot check on one random draw
    gen = np.random.default_rng(5)
    lam = sample_interior_lambda(1, 0.5, gen)[0]
    F = gallery("F3", drifted)
    h = b_element(drifted)
    psi = gaussian_psi()
    delta = 0.5
    xi = np.linspace(-6.0, 6.0, 13)
    res = k_lambda(F, h, psi, lam, xi, q0=0.5, delta=delta)
    cap = op_norm_bound(F, h, lam, q0=0.5) * nu_delta_norm(psi, delta, drifted)
    assert np.max(np.abs(res.values)) <= cap * (1.0 + 1e-9)


def test_convergence_study_monotone(drifted):
    F = unit_functional(drifted)
    h = b_element(drifted)
    psi = gaussian_psi()
    study = convergence_study(F, h, psi, 1.0, np.array([-1.0, 0.0, 1.0]),
                              q0=0.5, delta=0.5, n_steps=8)
    gaps = study.gaps
    assert gaps[-1] < 1e-3
    assert all(gaps[k + 1] < gaps[k] for k in range(2, len(gaps) - 1))


@pytest.mark.parametrize("name,psi", [
    ("F3", gaussian_psi()), ("F4", gaussian_psi()), ("density", gaussian_psi()),
    ("F3", bump_psi(2.0)), ("density", bump_psi(2.0))])
def test_convergence_members_match_separate_calls(drifted, monkeypatch, name, psi):
    # the target and the approach sequence are one kernel family; each
    # member agrees with its own k_lambda or j_q call within both errors
    h, xi = b_element(drifted), np.linspace(-2.0, 2.0, 5)
    F = _sweep_density(drifted) if name == "density" else gallery(name, drifted)
    seen = []
    family = engine._kernel_family

    def recording(F, h, psi, lams, xi_grid, **kw):
        seen.append((lams, family(F, h, psi, lams, xi_grid, **kw)))
        return seen[-1][1]

    monkeypatch.setattr(engine, "_kernel_family", recording)
    study = convergence_study(F, h, psi, 1.2, xi, q0=0.5, delta=0.5, n_steps=6)
    (lams, results), = seen
    assert [lam.value for lam in lams] == [-1.2j] + list(study.lam_values)
    assert np.array_equal(study.target.values, results[0].values)
    assert study.target.route == "boundary" and study.target.meta["q"] == 1.2
    separate = [j_q(F, h, psi, 1.2, xi, delta=0.5)] + [
        k_lambda(F, h, psi, lam, xi, delta=0.5) for lam in study.lam_values]
    for member, own in zip(results, separate):
        gap = np.abs(member.values - own.values)
        assert np.all(gap <= member.meta["quad_err"] + own.meta["quad_err"])
        assert member.meta["rows"] == own.meta["rows"]
    assert np.array_equal(study.gaps, [np.max(np.abs(r.values - results[0].values))
                                       for r in results[1:]])


def test_convergence_study_takes_one_quadrature(drifted, monkeypatch):
    # the 11 parameters share Im lam, so one partition serves all 55
    # members, where separate calls make 11 quadratures
    calls = []
    integrate_family = engine.adaptive_simpson

    def counting(f, lo, hi, **kw):
        res = integrate_family(f, lo, hi, **kw)
        calls.append(res.values.size)
        return res

    monkeypatch.setattr(engine, "adaptive_simpson", counting)
    study = convergence_study(gallery("F3", drifted), b_element(drifted),
                              gaussian_psi(), 1.0, np.linspace(-2.0, 2.0, 5),
                              q0=0.5, delta=0.5)
    assert calls == [55]
    assert study.target.meta["n_eval"] > 0


def test_a_wide_family_splits_by_parameter_within_the_byte_budget(drifted, monkeypatch):
    # 120 rows x 5 parameters x 3 points would hold 432 KB a panel: the
    # group splits by parameter, each exponent stays within CHUNK_BYTES,
    # and every member keeps to its own one-parameter call's value
    h, psi, xi = b_element(drifted), gaussian_psi(), np.linspace(-1.0, 1.0, 3)
    F = _sweep_density(drifted)
    build = engine.kernel_exponent
    sizes, params = [], []

    def traced(*args):
        exponent = build(*args)

        def recording(*call):
            e = exponent(*call)  # (rows, parameters, points, nodes)
            sizes.append(e.nbytes)
            params.append(e.shape[1])
            return e
        return recording

    monkeypatch.setattr(engine, "kernel_exponent", traced)
    lams = [LambdaParam.from_value(complex(2.0 ** -n, -1.5)) for n in range(5)]
    results = _kernel_family(F, h, psi, lams, xi, q0=0.5, delta=0.5)
    assert results[0].meta["rows"] * len(lams) * xi.size * 240 > CHUNK_BYTES
    assert max(sizes) <= CHUNK_BYTES and 1 < max(params) < len(lams)
    for lam, member in zip(lams, results):
        one = k_lambda(F, h, psi, lam, xi)
        assert np.all(np.abs(member.values - one.values)
                      <= member.meta["quad_err"] + one.meta["quad_err"])


@pytest.mark.parametrize("lam_value", (1.0, 0.8 + 0.6j, 0.3 - 1.2j, -1.5j))
def test_a_one_parameter_family_is_k_lambda_bit_for_bit(drifted, lam_value):
    h, xi = b_element(drifted), np.linspace(-2.0, 2.0, 5)
    lam = LambdaParam.from_value(lam_value)
    for F in (gallery("F3", drifted), gallery("F4", drifted), _sweep_density(drifted)):
        one, = _kernel_family(F, h, gaussian_psi(), [lam], xi, q0=0.5, delta=0.5)
        res = k_lambda(F, h, gaussian_psi(), lam, xi, delta=0.5)
        assert np.array_equal(one.values, res.values)
        assert np.array_equal(one.meta["quad_err"], res.meta["quad_err"])
        assert ({k: v for k, v in one.meta.items() if k != "quad_err"}
                == {k: v for k, v in res.meta.items() if k != "quad_err"})


@pytest.mark.parametrize("route", ["mc", "kernel"])
def test_an_empty_line_measure_is_refused_before_either_route(drifted, route):
    # it built, Monte Carlo returned 0 and the kernel raised ZeroDivisionError
    h, psi, xi = b_element(drifted), gaussian_psi(), np.array([0.0])
    calls = {"mc": lambda F: i_lambda_mc(F, h, psi, 1.0, xi, 100, RngStream(1)),
             "kernel": lambda F: k_lambda(F, h, psi, 1.0 + 0.5j, xi)}
    with pytest.raises(BadConfig, match="at least one piece"):
        calls[route](gallery("F1", drifted, w0=s_star(h), eta=EtaAtoms(())))
    with pytest.raises(BadConfig, match="at least one piece"):
        calls[route](FresnelFunctional(LineMeasure(h, LinePieces(
            coef=np.zeros(0), mean=np.zeros(0), var=np.zeros(0)))))


def test_convergence_rejects_small_q(drifted):
    F = unit_functional(drifted)
    h = b_element(drifted)
    with pytest.raises(SequenceLeavesRegion):
        convergence_study(F, h, gaussian_psi(), 0.4, np.array([0.0]), q0=0.5)


def test_convergence_rejects_leaving_sequence(drifted):
    # one ulp beyond q0, rounding puts the members from n = 55 on outside
    # the region, and from n = 1075 on 2^-n is 0, so the member is on the
    # boundary; either way the study stops before integrating
    F = unit_functional(drifted)
    h = b_element(drifted)
    for q, n_steps in ((math.nextafter(0.5, 1.0), 60), (1.0, 1080)):
        with pytest.raises(SequenceLeavesRegion):
            convergence_study(F, h, gaussian_psi(), q, np.array([0.0]),
                              q0=0.5, delta=0.5, n_steps=n_steps)


def test_convergence_study_needs_a_step(drifted):
    # with no step the study returned no gaps and a target nobody approached
    with pytest.raises(BadConfig, match="n_steps"):
        convergence_study(unit_functional(drifted), b_element(drifted), gaussian_psi(),
                          1.0, np.array([0.0]), delta=0.5, n_steps=0)


def test_an_integral_past_a_float_raises_kernel_overflow(drifted, monkeypatch):
    # exp(-v^2 + 60 v) peaks at e^900 and the witness partial to R = 1e4 at
    # e^{1e4 sqrt(2) p / 4}: infinite integrals, which read as an uncertified
    # tail.  The refinement budget only bounds the work spent on them first
    monkeypatch.setattr(quadrature, "MAX_PANELS", 1 << 10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(KernelOverflow, match="overflows a float"):
            gaussian_identity_check(1.0, 60.0)
        with pytest.raises(KernelOverflow, match="overflows a float"):
            divergence_witness_partial(drifted, 1e4)


def test_witness_partial_past_a_float_raises_kernel_overflow():
    # under a drift of 1000 t the witness's scale e^{p^2 / 2} has no float
    with pytest.raises(KernelOverflow, match="witness"):
        divergence_witness_partial(drifted_pair(1000.0, 0.5), 5.0)


def test_witness_partial_growth(drifted):
    p5 = divergence_witness_partial(drifted, 5.0)
    p10 = divergence_witness_partial(drifted, 10.0)
    assert p10.value > 2.0 * p5.value
    psi = divergence_witness_psi(p5.pair_ha)
    psi_l1 = nu_delta_norm(psi, 0.0, drifted)
    assert math.isfinite(psi.sup_probe())
    # L1 norm of the witness in closed form: exp(p^2/2)/c^2 with c = sqrt(2) p / 4
    p = p5.pair_ha
    c = math.sqrt(2.0) * p / 4.0
    assert abs(psi_l1 - math.exp(p * p / 2.0) / (c * c)) < 1e-6 * psi_l1


def test_witness_partial_closed_form(drifted):
    # by parts: int_0^R v e^{mu v} dv = (R/mu - 1/mu^2) e^{mu R} + 1/mu^2
    part = divergence_witness_partial(drifted, 7.0)
    mu = math.sqrt(2.0) * part.pair_ha / 4.0
    ref = ((7.0 / mu - 1.0 / mu**2) * math.exp(mu * 7.0) + 1.0 / mu**2) \
        / math.sqrt(2.0 * math.pi)
    assert abs(part.value - ref) < 1e-8 * ref


def test_witness_partial_rejects(wiener, drifted):
    with pytest.raises(BadConfig):
        divergence_witness_partial(drifted, 0.0)
    with pytest.raises(BadConfig):
        divergence_witness_partial(wiener, 5.0)


def test_bound_sweep_small_clean(drifted):
    res = bound_chain_sweep(drifted, 500, q0=0.5, seed=3)
    assert res.clean
    assert set(res.violations) == {"cauchy_schwarz", "orthogonal_component",
                                   "vl_magnitude", "h_vs_s", "a_vs_k",
                                   "region_membership"}


def test_gaussian_identity_basics():
    res = gaussian_identity_check(1.0, 0.0)
    assert abs(res.closed_form - math.sqrt(math.pi)) < 1e-14
    assert res.rel_err < 1e-9
    res2 = gaussian_identity_check(0.5 + 2.0j, 1.0 - 1.0j)
    assert res2.rel_err < 1e-9
    with pytest.raises(BadConfig):
        gaussian_identity_check(-1.0, 0.0)


def test_sample_interior_lambda_stays_inside():
    gen = np.random.default_rng(0)
    lams = sample_interior_lambda(50, 0.5, gen)
    assert all(l.real > 0 for l in lams)
    assert all(LambdaParam.from_value(l).in_gamma(0.5) for l in lams)


class _Draws:
    """A generator's uniform draws, at most ``cap`` calls of them."""

    def __init__(self, seed, cap=40):
        self.gen, self.cap, self.calls = np.random.default_rng(seed), cap, 0

    def uniform(self, lo, hi, size):
        self.calls += 1
        assert self.calls <= self.cap, "the sampler keeps rejecting"
        return self.gen.uniform(lo, hi, size)


@pytest.mark.parametrize("q0", [0.5, 16.9])
def test_sample_interior_lambda_draws_as_from_the_whole_box(q0):
    # where 2 (2 q0)^{-1/2} 18^{3/4} >= 3 the candidates come from the box
    # [1e-3, 3] x [-3, 3], draw for draw, so bounds.csv stays as it was
    gen = np.random.default_rng(4)
    out = []
    while len(out) < 300:
        cand = gen.uniform(1e-3, 3.0, 600) + 1j * gen.uniform(-3.0, 3.0, 600)
        out += cand[gamma_margin(cand, q0) < 0.0].tolist()
    assert np.array_equal(sample_interior_lambda(300, q0, np.random.default_rng(4)),
                          out[:300])


@pytest.mark.parametrize("q0", [1e4, 1e8, 1e300], ids=str)
def test_sample_interior_lambda_accepts_a_share_however_large_q0(q0):
    # the box's acceptance fell like (2 q0)^{-1/2}: 5.6 s for 10^4 draws at
    # q0 = 1e8 and no end at 1e300; within |Im lam| <= 2 (2 q0)^{-1/2} 18^{3/4}
    # a fifth or more are accepted
    draws = _Draws(seed=5)
    lams = sample_interior_lambda(2000, q0, draws)
    assert draws.calls <= 8
    assert np.all(gamma_margin(lams, q0) < 0.0) and np.all(lams.real > 0.0)
    assert np.max(np.abs(lams.imag)) > 0.5 * 2.0 * 3.0 ** 1.5 / math.sqrt(2.0 * q0)


def test_sample_interior_lambda_refuses_an_interior_empty_in_floats():
    # past q0 of about 9e307, (2 q0)^{-1/2} is 0 and no candidate can pass
    with pytest.raises(ArgOutOfRange, match="empty"):
        sample_interior_lambda(10, 1.7e308, _Draws(seed=6))


def test_sample_interior_lambda_count_is_checked():
    gen = np.random.default_rng(0)
    with pytest.raises(BadConfig):
        sample_interior_lambda(-1, 0.5, gen)
    assert sample_interior_lambda(0, 0.5, gen).shape == (0,)


def test_kernel_exponent_past_the_cap_raises_kernel_overflow():
    # under a strong drift a wide bump reaches v where the kernel's real
    # exponent passes EXP_CAP; the integrand refuses rather than give inf
    sp = drifted_pair(40.0, 0.5)
    with pytest.raises(KernelOverflow, match="kernel exponent exceeds"):
        k_lambda(unit_functional(sp), b_element(sp), bump_psi(200.0),
                 0.2 - 1j, [0.0])


def test_kernel_overflow_is_raised_before_any_exp_overflows():
    # the guard sees the whole real exponent, so no exp overflows first
    sp = drifted_pair(40.0, 0.5)
    with np.errstate(over="raise", invalid="raise"), \
            pytest.raises(KernelOverflow, match="kernel exponent exceeds"):
        k_lambda(unit_functional(sp), b_element(sp), bump_psi(200.0),
                 0.2 - 1j, [0.0])


def _f4_at_b(sp):
    return gallery("F4", sp), b_element(sp), gaussian_psi()


@pytest.mark.parametrize("call, error", [
    (lambda sp: i_lambda_mc(*_f4_at_b(sp), math.nan, [0.0], 100, RngStream(1)),
     NonPositiveLambda),
    (lambda sp: i_lambda_mc(*_f4_at_b(sp), 1.0, [0.0], 0, RngStream(1)),
     BadConfig),
    (lambda sp: i_lambda_mc(*_f4_at_b(sp), 1.0, [0.0], -5, RngStream(1)),
     BadConfig),
    (lambda sp: k_lambda(*_f4_at_b(sp), -1.5j, [0.0], delta=-0.5),
     ArgOutOfRange),
    (lambda sp: j_q(*_f4_at_b(sp), 1.5, [0.0], delta=math.nan), ArgOutOfRange),
    (lambda sp: nu_delta_norm(gaussian_psi(), -1.0, sp), ArgOutOfRange),
    (lambda sp: nu_delta_norm(gaussian_psi(), math.nan, sp), ArgOutOfRange),
    (lambda sp: divergence_witness_partial(sp, math.inf), BadConfig),
    (lambda sp: divergence_witness_partial(sp, math.nan), BadConfig),
    (lambda sp: bound_chain_sweep(sp, 0), BadConfig),
    (lambda sp: gaussian_identity_check(math.nan, 0.0), BadConfig),
    (lambda sp: gaussian_identity_check(math.inf, 0.0), BadConfig),
    (lambda sp: k_lambda(*_f4_at_b(sp), math.inf, [0.0]), ArgOutOfRange),
    (lambda sp: k_lambda(*_f4_at_b(sp), math.nan, [0.0]), ArgOutOfRange),
    (lambda sp: j_q(*_f4_at_b(sp), math.nan, [0.0], delta=0.5), ArgOutOfRange),
    (lambda sp: op_norm_bound(gallery("F4", sp), b_element(sp), math.inf),
     ArgOutOfRange),
    (lambda sp: op_norm_bound(gallery("F4", drifted_pair(0.3, 0.5)),
                              b_element(sp), 1.0), MismatchedScalePair),
], ids=["mc_nan_lambda", "mc_zero_paths", "mc_negative_paths",
        "kernel_negative_delta", "boundary_nan_delta", "norm_negative_delta",
        "norm_nan_delta", "witness_infinite_R", "witness_nan_R",
        "sweep_zero_tuples", "identity_nan_alpha", "identity_infinite_alpha",
        "kernel_infinite_lambda", "kernel_nan_lambda", "boundary_nan_q",
        "op_norm_infinite_lambda", "op_norm_mismatched_pair"])
def test_library_entry_points_raise_typed_errors(drifted, call, error):
    # each value passed a bare comparison before, and gave NaN or zero
    # values, a value over two scale pairs, another typed error or an
    # untyped numpy or math error instead of the OpfeynError named
    with pytest.raises(error):
        call(drifted)


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_every_route_refuses_a_non_finite_evaluation_point(drifted, point):
    # the kernel routes blamed the state function's envelope for it, and
    # Monte Carlo returned nan, or 0 at an infinite point
    xi = [0.0, point]
    for call in (lambda: i_lambda_mc(*_f4_at_b(drifted), 1.0, xi, 100, RngStream(1)),
                 lambda: k_lambda(*_f4_at_b(drifted), 1.0 + 0.5j, xi),
                 lambda: j_q(*_f4_at_b(drifted), 1.5, xi, delta=0.5)):
        with pytest.raises(ArgOutOfRange, match="evaluation points must be finite"):
            call()


BAD_Q0 = (0.0, -1.0, math.nan, math.inf)
BAD_DELTA = (-1.0, math.nan, math.inf)


@pytest.mark.parametrize("q0", BAD_Q0, ids=str)
@pytest.mark.parametrize("call", [
    lambda sp, q0: LambdaParam.from_value(1.0).in_gamma(q0),
    lambda sp, q0: kq0_integral(gallery("F4", sp), q0),
    lambda sp, q0: k_lambda(*_f4_at_b(sp), 1.0, [0.0], q0=q0),
    lambda sp, q0: j_q(*_f4_at_b(sp), 1.5, [0.0], q0=q0, delta=0.5),
    lambda sp, q0: convergence_study(*_f4_at_b(sp), 1.5, [0.0], q0=q0,
                                     delta=0.5, n_steps=2),
    lambda sp, q0: op_norm_bound(gallery("F4", sp), b_element(sp), 1.0, q0=q0),
    lambda sp, q0: bound_chain_sweep(sp, 10, q0=q0),
    lambda sp, q0: sample_interior_lambda(5, q0, np.random.default_rng(0)),
], ids=["in_gamma", "kq0_integral", "k_lambda", "j_q", "convergence_study",
        "op_norm_bound", "bound_chain_sweep", "sample_interior_lambda"])
def test_every_entry_point_requires_a_positive_finite_threshold(drifted, call,
                                                                 q0):
    with pytest.raises(ArgOutOfRange, match="threshold q0"):
        call(drifted, q0)


@pytest.mark.parametrize("delta", BAD_DELTA, ids=str)
@pytest.mark.parametrize("call", [
    lambda sp, delta: nu_delta_norm(gaussian_psi(), delta, sp),
    lambda sp, delta: gaussian_psi().delta_admissible(delta, sp.var_a),
    lambda sp, delta: j_q(*_f4_at_b(sp), 1.5, [0.0], delta=delta),
], ids=["nu_delta_norm", "delta_admissible", "j_q"])
def test_every_entry_point_requires_a_nonnegative_finite_delta(drifted, call,
                                                                delta):
    with pytest.raises(ArgOutOfRange, match="delta"):
        call(drifted, delta)


def test_bound_sweep_gram_matches_node_sums(drifted):
    gram, pair_a = _cubic_gram(drifted)
    t, sw = drifted.t_nodes, drifted.weights
    g = np.random.default_rng(5).standard_normal((6, 4))
    z = g @ np.vstack([np.ones_like(t), t, t * t, t ** 3])
    inner = (z[:, None, :] * z[None, :, :] * drifted.bprime_nodes) @ sw
    norms = np.sqrt(np.diag(inner))
    assert np.max(np.abs(g @ gram @ g.T - inner)
                  / np.outer(norms, norms)) < 1e-12
    pair = (z * drifted.aprime_nodes) @ sw
    assert np.max(np.abs(g @ pair_a - pair)) < 1e-12 * np.max(np.abs(pair))


def test_bound_sweep_memory_does_not_grow_with_the_grid(drifted):
    tracemalloc.start()
    try:
        bound_chain_sweep(drifted, 10000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def _gaussian_lines(sp):
    """(label, functional, base direction); w0 = h gives a_resid = 0."""
    h = b_element(sp)
    eta = EtaGaussian(mean=0.5, var=1.0, scale=1.2 - 0.3j)
    # off-centre, with a_resid != 0: the row's sup exceeds |scale| at 1.3j
    off = EtaGaussian(mean=1.0, var=1.0, scale=1.2 - 0.3j)
    return [("F1_w0_h", gallery("F1", sp, w0=h, eta=eta), h),
            ("F3", gallery("F3", sp), h),
            ("F1_sstar_b", gallery("F1", sp, w0=s_star(h), eta=off), h)]


def _analytic_row(F, lam, h):
    """(ctx, row sum at u, amp) of F's kernel family, whatever its rows."""
    ctx = KernelContext.from_direction(h)
    weights, lin, const, quad, amp = (x[0] for x in _measure_family(
        F, [lam], ctx, gaussian_psi(), np.zeros(0), np.zeros((1, 0, 2))))

    def row(u):
        return weights @ np.exp(np.multiply.outer(lin, u) + const[:, None] + quad * u * u)

    return ctx, row, amp


# a discrete line on s*(b), where a_resid != 0 for h = b
LINE_ATOMS = ((-1.2, 0.6 + 0.1j), (0.4, -0.3 + 0.5j), (1.7, 0.25 - 0.2j))


ROW_LAMBDAS = (1.0, 0.8 + 0.6j, 0.3 - 1.2j, -1.1j, 1.3j)


@pytest.mark.parametrize("lam_value", ROW_LAMBDAS)
def test_gaussian_row_matches_inline_hermite_rows(drifted, lam_value):
    lam = LambdaParam.from_value(lam_value)
    u = np.linspace(-3.0, 3.0, 61)
    for _, F, h in _gaussian_lines(drifted):
        ctx, row, _ = _analytic_row(F, lam, h)
        (w0, eta), = F.measure.lines
        st = DirectionStats.from_elements(ctx, w0)
        x, w = np.polynomial.hermite.hermgauss(64)
        s = eta.mean[0] + math.sqrt(2.0 * eta.var[0]) * x
        n2 = ctx.norm_h_sq
        coef = (eta.coef[0] * w / math.sqrt(math.pi)
                * np.exp(1j * lam.inv_sqrt * s * st.a_resid))
        vl = (1j * np.outer(s * st.c_hw / n2, u)
              + ((s * st.c_hw) ** 2 - n2 * s * s * st.norm_sq)[:, None]
              / (2.0 * lam.value * n2))
        hermite = coef @ np.exp(vl)
        assert np.max(np.abs(hermite - row(u))) < 1e-12 * max(
            1.0, np.max(np.abs(hermite)))


@pytest.mark.parametrize("lam_value", ROW_LAMBDAS)
def test_gaussian_row_amp_bounds_the_row(drifted, lam_value):
    # every kind of row: gaussian lines, atoms, a discrete line and a density
    lam = LambdaParam.from_value(lam_value)
    u = np.linspace(-30.0, 30.0, 2001)
    h = b_element(drifted)
    w0 = s_star(h)
    two_atoms = FresnelFunctional(measure=AtomicMeasure(
        sp=drifted, atoms=((0.7 - 0.2j, w0), (-0.4 + 0.5j, a_unit_element(drifted)))))
    others = [("F4", gallery("F4", drifted), h),
              ("two_atoms", two_atoms, h),
              ("line_atoms", gallery("F1", drifted, w0=w0, eta=EtaAtoms(LINE_ATOMS)), h),
              ("density", _sweep_density(drifted), h)]
    for label, F, h in _gaussian_lines(drifted) + others:
        _, row, amp = _analytic_row(F, lam, h)
        assert np.max(np.abs(row(u))) <= amp * (1.0 + 1e-12), label


def test_line_atoms_match_the_atoms_on_their_scaled_directions(drifted):
    # a node v of a discrete line on w0 and an atom on v * w0 are the same
    # kernel row, reached through the two inputs of the one row formula
    h, psi, xi = b_element(drifted), gaussian_psi(), np.linspace(-2.0, 2.0, 5)
    w0 = s_star(h)
    assert DirectionStats.from_elements(KernelContext.from_direction(h), w0).a_resid != 0.0
    line = gallery("F1", drifted, w0=w0, eta=EtaAtoms(LINE_ATOMS))
    atoms = FresnelFunctional(measure=AtomicMeasure(
        sp=drifted, atoms=tuple((c, w0.scaled(v)) for v, c in LINE_ATOMS)))
    runs = [lambda F, lam=lam: k_lambda(F, h, psi, lam, xi)
            for lam in (1.0, 0.8 + 0.6j, 0.3 - 1.2j)]
    runs += [lambda F, q=q: j_q(F, h, psi, q, xi, delta=0.5) for q in (1.5, -3.0)]
    for run in runs:
        a, b = run(line), run(atoms)
        assert np.all(np.abs(a.values - b.values)
                      <= a.meta["quad_err"] + b.meta["quad_err"])


@pytest.mark.parametrize("lam_value", (1.0, 0.8 + 0.6j, -1.1j))
def test_gaussian_row_matches_the_density_of_the_same_eta(drifted, lam_value):
    # the same gaussian given as an EtaDensity: its pdf on mean +- 12 sd,
    # integrated by the discrete node rows; w0 scaled by 8 scales the
    # rows' frequency reach by 8
    psi = gaussian_psi()
    xi = np.array([0.7])
    for (label, F0, h), scale in itertools.product(_gaussian_lines(drifted), (1.0, 8.0)):
        (w0, eta), = F0.measure.lines
        (c,), (mean,), (var,) = eta.coef, eta.mean, eta.var
        sd = math.sqrt(var)

        def pdf(v, c=c, mean=mean, sd=sd):
            return (c * np.exp(-0.5 * ((v - mean) / sd) ** 2)
                    / (sd * math.sqrt(2.0 * math.pi)))

        density = EtaDensity(fn=pdf, radius=abs(mean) + 12.0 * sd)
        w0 = w0.scaled(scale)
        F = gallery("F1", drifted, w0=w0, eta=eta)
        G = gallery("F1", drifted, w0=w0, eta=density)
        if lam_value.real == 0.0:
            a = j_q(F, h, psi, -lam_value.imag, xi, delta=0.5).values
            b = j_q(G, h, psi, -lam_value.imag, xi, delta=0.5).values
        else:
            a = k_lambda(F, h, psi, lam_value, xi).values
            b = k_lambda(G, h, psi, lam_value, xi).values
        assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(b)), (label, scale)


def _sweep_density(sp, scale=1.0):
    """A smooth complex density on radius 4 along scale * b."""
    eta = EtaDensity(fn=lambda v: ((1.0 + 0.5j) * np.exp(-v * v)
                                   * (1.0 + 0.3 * np.cos(3.0 * v))),
                     radius=4.0)
    return gallery("F1", sp, w0=b_element(sp).scaled(scale), eta=eta)


def test_kernel_rows_follow_the_frequency_reach(drifted):
    # a density takes the nodes its call needs; an atom or a gaussian
    # line measure is one row
    h, psi, xi = b_element(drifted), gaussian_psi(), np.array([0.3])
    low = k_lambda(_sweep_density(drifted), h, psi, 1.0 + 0.5j, xi)
    high = k_lambda(_sweep_density(drifted, 8.0), h, psi, 1.0 + 0.5j, xi)
    assert low.meta["rows"] < 2049
    assert high.meta["rows"] > low.meta["rows"]
    for name in ("F3", "F4"):
        res = j_q(gallery(name, drifted), h, psi, 1.5, xi, delta=0.5)
        assert res.meta["rows"] == 1


@pytest.mark.parametrize("scale,n_points,group", [(1.0, 3, 3), (8.0, 8, 4)])
def test_kernel_exponent_blocks_stay_within_the_byte_budget(drifted, monkeypatch,
                                                            scale, n_points, group):
    # every exponent the integrand builds holds at most CHUNK_BYTES; at
    # 8 points the 240 rows of the wider density split the points into
    # groups of 4, whose values agree with one point at a time
    h, psi, xi = b_element(drifted), gaussian_psi(), np.linspace(-1.0, 1.0, n_points)
    F = _sweep_density(drifted, scale)
    build = engine.kernel_exponent
    sizes, points = [], []

    def traced(*args):
        exponent = build(*args)

        def recording(*call):
            e = exponent(*call)
            sizes.append(e.nbytes)
            points.append(np.size(args[3]))
            return e
        return recording

    monkeypatch.setattr(engine, "kernel_exponent", traced)
    res = k_lambda(F, h, psi, 1.0 + 0.5j, xi)
    assert sizes and max(sizes) <= CHUNK_BYTES and max(points) == group
    for x, value, err in zip(xi, res.values, res.meta["quad_err"]):
        one = k_lambda(F, h, psi, 1.0 + 0.5j, [x])
        assert abs(one.values[0] - value) <= err + one.meta["quad_err"][0]


def test_kernel_of_a_sum_of_lines_is_the_sum_of_their_kernels(drifted):
    # a density line on b, a discrete line and an atom on s*(b): one family
    # of rows, each line's pieces on its own direction
    h, psi, xi = b_element(drifted), gaussian_psi(), np.linspace(-1.0, 1.0, 3)
    density, w0 = _sweep_density(drifted), s_star(h)
    lines = density.measure.lines + ((w0, EtaAtoms(LINE_ATOMS)),
                                     (w0.scaled(0.5), EtaAtoms(((1.0, -0.7j),))))
    F = FresnelFunctional(SpectralMeasure(drifted, lines))
    parts = [FresnelFunctional(SpectralMeasure(drifted, (line,))) for line in lines]
    for route in (lambda E: k_lambda(E, h, psi, 1.0 + 0.5j, xi),
                  lambda E: j_q(E, h, psi, 1.5, xi, delta=0.5)):
        whole, split = route(F), [route(E) for E in parts]
        gap = np.abs(whole.values - sum(r.values for r in split))
        assert np.all(gap <= whole.meta["quad_err"] + sum(r.meta["quad_err"] for r in split))
        assert whole.meta["rows"] == sum(r.meta["rows"] for r in split)


def test_kernel_takes_a_piece_of_var_above_0_only_alone(drifted):
    # the kernel's u^2 coefficient is one number, shared by every row, so
    # two gaussian pieces, or one beside an atom, are refused; the Monte
    # Carlo route takes them
    h, psi, xi = b_element(drifted), gaussian_psi(), np.array([0.3])
    two = LinePieces(coef=np.array([1.0, 0.5j]), mean=np.array([0.0, 0.5]),
                     var=np.array([1.0, 2.0]))
    mixed = SpectralMeasure(drifted, ((h, EtaGaussian(0.0, 1.0)),
                                      (s_star(h), EtaAtoms(((1.0, 1.0),)))))
    for measure in (LineMeasure(h, two), mixed):
        F = FresnelFunctional(measure)
        with pytest.raises(UnsupportedVariant, match="only piece"):
            k_lambda(F, h, psi, 1.0 + 0j, xi)
        mc = i_lambda_mc(F, h, psi, 1.0, xi, 1000, RngStream(seed=5))
        assert np.all(np.isfinite(mc.values))


def test_mc_on_a_density_matches_the_gaussian_row_of_the_same_eta(drifted):
    # scale * N(0.5, 0.001) as a density on radius 4, against the
    # closed-form row of the same eta: the kernel route to 1e-9, and the
    # Monte Carlo route, which transforms the density at every path,
    # within the Bonferroni threshold z* of a 1e-6 family-wise
    # false-alarm rate over the points.  An 8-panel rule puts the narrow
    # peak's mass at 1.33 in place of 1
    h, psi, xi = b_element(drifted), gaussian_psi(), np.linspace(-2.0, 2.0, 5)
    eta = EtaGaussian(mean=0.5, var=0.001, scale=1.2 - 0.3j)
    pdf = lambda v: ((1.2 - 0.3j) * np.exp(-0.5 * (v - 0.5) ** 2 / 0.001)
                     / math.sqrt(2.0 * math.pi * 0.001))
    F = gallery("F1", drifted, w0=h, eta=eta)
    G = gallery("F1", drifted, w0=h, eta=EtaDensity(fn=pdf, radius=4.0))
    z_star = math.sqrt(2.0) * special.erfcinv(1e-6 / (2 * xi.size))
    ker = k_lambda(F, h, psi, 1.0 + 0j, xi)
    assert np.max(np.abs(k_lambda(G, h, psi, 1.0 + 0j, xi).values
                         - ker.values)) < 1e-9
    mc = i_lambda_mc(G, h, psi, 1.0, xi, 10000, RngStream(811, stream_id=3))
    assert np.all(np.abs(mc.values - ker.values) <= z_star * mc.stderr)


def test_sign_changing_density_matches_a_fine_atom_rule(drifted):
    # exp(-v^2) cos 3v changes sign at pi/6 + k pi/3, inside panels of
    # every rule, so |fn| has kinks there.  The tail check and the moment
    # condition take |fn| on the cap rule as it is, while the kernel rows,
    # smooth in v, resolve: all three routes agree with the same eta as
    # 200 Gauss-Legendre atoms
    fn = lambda v: np.exp(-v * v) * np.cos(3.0 * v)
    x, w = np.polynomial.legendre.leggauss(200)
    atoms = EtaAtoms(tuple(zip(6.0 * x, 6.0 * w * fn(6.0 * x))))
    density = EtaDensity(fn=fn, radius=6.0,
                         envelope=Envelope("gaussian", scale=1.0, rate=1.0))
    h, psi, xi = b_element(drifted), gaussian_psi(), np.linspace(-1.0, 1.0, 3)
    F = gallery("F1", drifted, w0=h, eta=density)
    G = gallery("F1", drifted, w0=h, eta=atoms)
    for route in (lambda E: k_lambda(E, h, psi, 1.0 + 0.5j, xi),
                  lambda E: j_q(E, h, psi, 1.1, xi, delta=0.5)):
        a, b = route(F).values, route(G).values
        assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(b))
    z_star = math.sqrt(2.0) * special.erfcinv(1e-6 / (2 * xi.size))
    ker = k_lambda(G, h, psi, 1.0 + 0j, xi)
    mc = i_lambda_mc(F, h, psi, 1.0, xi, 10000, RngStream(812, stream_id=3))
    assert np.all(np.abs(mc.values - ker.values) <= z_star * mc.stderr)


def test_kernel_on_an_unresolvable_density_raises(drifted):
    eta = EtaDensity(fn=lambda v: ((v >= -1.3) & (v <= 0.7)).astype(float),
                     radius=4.0)
    F = gallery("F1", drifted, w0=b_element(drifted), eta=eta)
    with pytest.raises(QuadratureError, match="line density"):
        k_lambda(F, b_element(drifted), gaussian_psi(), 1.0 + 0j, [0.0])
