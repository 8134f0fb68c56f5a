import math
import tracemalloc

import numpy as np
from scipy import integrate

from opfeyn import quadrature
from opfeyn.quadrature import (CHUNK_BYTES, GK_GAUSS, GK_KRONROD, GK_NODES,
                               MIN_PANELS, PHASE_CAP, PHASE_STEP, LogBound,
                               adaptive_simpson, phase_breakpoints,
                               quadratic_tail_bound)


def as_family(*fns):
    def f(v):
        v = np.asarray(v, dtype=float)
        return np.stack([np.asarray(fn(v), dtype=complex) for fn in fns])
    return f


def test_polynomial_family():
    res = adaptive_simpson(as_family(lambda v: v**2, lambda v: v**5), 0.0, 2.0)
    assert res.converged
    assert abs(res.values[0] - 8.0 / 3.0) < 1e-12
    assert abs(res.values[1] - 64.0 / 6.0) < 5e-10


def test_matches_scipy_on_smooth_integrands():
    fns = [lambda v: np.exp(-v * v), lambda v: np.sin(3 * v) / (1 + v * v)]
    res = adaptive_simpson(as_family(*fns), -4.0, 6.0, rel_tol=1e-12)
    for k, fn in enumerate(fns):
        ref, _ = integrate.quad(lambda v: float(np.real(fn(np.array(v)))),
                                -4.0, 6.0, epsabs=1e-13, epsrel=1e-13)
        assert abs(res.values[k].real - ref) < 1e-10


def test_oscillatory_gaussian():
    # int exp(-v^2) cos(10 v) dv over R = sqrt(pi) exp(-25)
    lo, hi = -8.0, 8.0
    bp = phase_breakpoints(lo, hi, rate=5.0, center=0.0)
    res = adaptive_simpson(as_family(lambda v: np.exp(-v * v + 10j * v)),
                           lo, hi, rel_tol=1e-12, breakpoints=bp)
    ref = math.sqrt(math.pi) * math.exp(-25.0)
    assert abs(res.values[0].real - ref) < 1e-14
    assert abs(res.values[0].imag) < 1e-14


def test_error_estimate_is_honest():
    res = adaptive_simpson(as_family(lambda v: np.exp(np.sin(4 * v))), 0.0, 3.0,
                           rel_tol=1e-9)
    ref, _ = integrate.quad(lambda v: math.exp(math.sin(4 * v)), 0.0, 3.0,
                            epsabs=1e-13, epsrel=1e-13)
    assert abs(res.values[0].real - ref) <= max(res.err[0] * 10, 1e-12)


def test_gauss_kronrod_tables_integrate_monomials():
    # one panel on [-1, 1]: K15 is exact through degree 22, G7 through 13
    assert abs(GK_KRONROD.sum() - 2.0) < 1e-15
    assert abs(GK_GAUSS.sum() - 2.0) < 1e-15
    assert np.all(np.diff(GK_NODES) > 0.0)
    for d in range(23):
        exact = (1.0 + (-1.0) ** d) / (d + 1.0)
        assert abs(GK_KRONROD @ GK_NODES ** d - exact) < 1e-15, d
        if d <= 13:
            assert abs(GK_GAUSS @ GK_NODES ** d - exact) < 1e-15, d
    # the two rules differ, so |K15 - G7| measures something
    assert abs(GK_GAUSS @ GK_NODES ** 14 - 2.0 / 15.0) > 1e-6


def test_rounds_are_counted_and_memory_is_chunked():
    # 10000 initial panels at 15 complex nodes each are several
    # chunks; every integrand call stays within the byte budget
    sizes = []

    def f(v):
        out = np.stack([np.exp(1j * v), np.cos(v) + 0j])
        sizes.append(out.nbytes)
        return out

    res = adaptive_simpson(f, 0.0, 4.0, breakpoints=np.linspace(0.0, 4.0, 10001))
    assert res.converged and res.rounds == 1
    assert res.n_eval == 10000 * 15
    assert len(sizes) > 2 and max(sizes) <= CHUNK_BYTES
    assert abs(res.values[0] - (np.exp(4j) - 1.0) / 1j) < 1e-13
    assert abs(res.values[1] - math.sin(4.0)) < 1e-13
    # a needle at an initial node takes more rounds than a smooth integrand
    needle = adaptive_simpson(as_family(lambda v: np.exp(-1e4 * (v - 0.5) ** 2)),
                              0.0, 1.0, breakpoints=[0.5])
    assert needle.converged and needle.rounds > 1


def test_a_smallest_partition_takes_one_integrand_call():
    # before the family size is known the first call takes MIN_PANELS
    # panels, so an integral that converges on them costs one call
    calls = []

    def f(v):
        calls.append(v.size)
        return np.exp(-v * v)[None, :]

    res = adaptive_simpson(f, -1.0, 1.0)
    assert res.converged and res.rounds == 1
    assert calls == [MIN_PANELS * GK_NODES.size]


def test_phase_breakpoints_spacing():
    bp = phase_breakpoints(-2.0, 2.0, rate=10.0, center=0.5)
    assert np.all(bp > -2.0) and np.all(bp < 2.0)
    # quadratic phase rate*(v-c)^2 advances by at most PHASE_STEP (half a
    # period) per cell near center
    assert bp.size >= 8


def test_phase_breakpoints_bound_every_centre():
    # one point set serves a family of centres: no panel turns any centre's
    # phase by more than 2 PHASE_STEP (its total variation when the centre
    # lies inside), and a lone centre may come as a 1-element array; rate is
    # drawn in units of PHASE_STEP / (pi/4), so the share of draws that
    # yield points does not depend on PHASE_STEP
    gen = np.random.default_rng(7)
    with_points = 0
    for _ in range(2000):
        lo = gen.uniform(-20.0, 5.0)
        hi = lo + gen.uniform(0.5, 30.0)
        rate = 10.0 ** gen.uniform(-2.0, 0.5) * PHASE_STEP / (math.pi / 4.0)
        centres = gen.uniform(lo - 5.0, hi + 5.0, gen.integers(1, 9))
        reach = max(centres.max() - lo, hi - centres.min())
        assert rate * reach * reach < PHASE_CAP * PHASE_STEP  # no thinning
        one = phase_breakpoints(lo, hi, rate, centres[0])
        same = phase_breakpoints(lo, hi, rate, centres[:1])
        assert (one is None and same is None) or np.array_equal(one, same)
        bp = phase_breakpoints(lo, hi, rate, centres)
        if bp is None:
            continue
        with_points += 1
        edges = np.concatenate([[lo], bp, [hi]])
        a, b = edges[:-1, None], edges[1:, None]
        phi_a, phi_b = rate * (a - centres) ** 2, rate * (b - centres) ** 2
        inside = (a < centres) & (centres < b)
        turn = np.where(inside, phi_a + phi_b, np.abs(phi_b - phi_a))
        assert turn.max() <= 2.0 * PHASE_STEP * (1.0 + 1e-9)
    assert with_points > 1500


def _phase_breakpoints_full(lo, hi, rate, center):
    """The construction that builds every half-period offset, then thins."""
    c_lo, c_hi = float(np.min(center)), float(np.max(center))
    reach = max(c_hi - lo, hi - c_lo)
    n_steps = int(rate * (reach * reach) / PHASE_STEP)
    if n_steps < 4:
        return None
    us = np.sqrt(np.arange(1, n_steps + 1) * PHASE_STEP / rate)
    if us.size > PHASE_CAP:
        us = us[:: us.size // PHASE_CAP + 1]
    far = us[us > 0.5 * (c_hi - c_lo)]
    pts = np.concatenate([c_hi - far[::-1], c_lo + far])
    pts = pts[(pts > lo) & (pts < hi)]
    return pts if pts.size else None


def test_phase_breakpoints_thin_as_the_full_construction_does():
    gen = np.random.default_rng(11)
    thinned = 0
    for _ in range(300):
        lo = gen.uniform(-50.0, 0.0)
        hi = lo + gen.uniform(1.0, 100.0)
        centres = gen.uniform(lo - 5.0, hi + 5.0, gen.integers(1, 9))
        reach = max(centres.max() - lo, hi - centres.min())
        rate = 10.0 ** gen.uniform(0.0, 5.9) * PHASE_STEP / (reach * reach)
        thinned += rate * reach * reach / PHASE_STEP > PHASE_CAP
        new = phase_breakpoints(lo, hi, rate, centres)
        old = _phase_breakpoints_full(lo, hi, rate, centres)
        assert (new is None and old is None) or np.array_equal(new, old)
    assert thinned > 50


def test_phase_breakpoints_memory_does_not_grow_with_the_reach():
    # rate 0.5 over a reach of 1e6 asks for 1.6e11 half-period offsets
    tracemalloc.start()
    try:
        bp = phase_breakpoints(0.0, 1e6, rate=0.5, center=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < bp.size <= PHASE_CAP
    assert peak < 4 * 2 ** 20


def test_phase_breakpoints_zero_rate():
    assert phase_breakpoints(0.0, 1.0, rate=0.0, center=0.0) is None


def test_budget_exhaustion_reported(monkeypatch):
    # a needle pinned to an initial node so it is seen, but far too narrow
    # for a four-round refinement budget to resolve at this tolerance
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 4)
    def needle(v):
        v = np.asarray(v, dtype=float)
        return np.stack([np.exp(-1e8 * (v - 0.37) ** 2).astype(complex)])

    bp = np.array([0.37])
    res = adaptive_simpson(needle, 0.0, 1.0, rel_tol=1e-13, abs_tol=1e-300,
                           breakpoints=bp)
    assert not res.converged
    assert np.all(np.isinf(res.err))


def test_rounding_floor_accepts_cancellation():
    # strongly oscillatory with large amplitude: the true value is tiny
    # compared to |f|, so acceptance must use the rounding-noise floor
    amp = math.exp(5.0)

    def f(v):
        v = np.asarray(v, dtype=float)
        return np.stack([amp * np.exp(1j * 40.0 * v)])

    res = adaptive_simpson(f, 0.0, 2.0 * math.pi, rel_tol=1e-10, abs_tol=1e-13,
                           breakpoints=np.linspace(0.1, 6.2, 61))
    assert res.converged
    assert abs(res.values[0]) < 1e-10


def test_quadratic_helpers():
    # -2 v^2 + 4 v + 1 peaks at v = 1 with value 3
    peak = 3.0
    q = (-2.0, 4.0, 1.0)
    bound = LogBound(left=q, right=q)
    assert bound.peak() == peak
    lo, hi = bound.cut(8.0)
    assert abs(0.5 * (lo + hi) - 1.0) < 1e-15
    assert abs((-2.0 * lo * lo + 4.0 * lo + 1.0) - (peak - 8.0)) < 1e-12
    assert abs((-2.0 * hi * hi + 4.0 * hi + 1.0) - (peak - 8.0)) < 1e-12
    # a side that grows has no peak, so no cut
    q = (0.0, 1.0, 0.0)
    assert LogBound(left=q, right=q).peak() == math.inf


def test_quadratic_tail_bound_dominates():
    # bound >= true tail of exp(-v^2) beyond 2
    bound = quadratic_tail_bound(-1.0, 0.0, 0.0, edge=2.0, side=+1)
    true, _ = integrate.quad(lambda v: math.exp(-v * v), 2.0, np.inf)
    assert true <= bound
    assert bound < 10.0 * true
    # wrong-direction slope gives no information
    assert quadratic_tail_bound(-1.0, 0.0, 0.0, edge=-2.0, side=+1) == math.inf


def test_left_tail_bound():
    bound = quadratic_tail_bound(-0.5, 1.0, 0.0, edge=-3.0, side=-1)
    true, _ = integrate.quad(lambda v: math.exp(-0.5 * v * v + v), -np.inf, -3.0)
    assert true <= bound < 5.0 * true
