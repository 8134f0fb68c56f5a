import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from opfeyn import quadrature
from opfeyn.quadrature import (CHIRP_STEP, CHUNK_BYTES, CURVE_CAP, GK_GAUSS,
                               GK_KRONROD, GK_NODES, MAGNITUDE_STEP, MIN_PANELS,
                               PHASE_CAP, PHASE_STEP, LogBound,
                               adaptive_simpson, curvature_breakpoints,
                               phase_breakpoints, quadratic_tail_bound)


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

    res = adaptive_simpson(f, 0.0, 4.0, breakpoints=np.linspace(0.0, 4.0, 10001),
                           width=2)
    assert res.converged and res.rounds == 1
    assert res.n_eval == 10000 * 15
    assert len(sizes) > 2 and max(sizes) <= CHUNK_BYTES
    assert abs(res.values[0] - (np.exp(4j) - 1.0) / 1j) < 1e-13
    assert abs(res.values[1] - math.sin(4.0)) < 1e-13
    # a needle at an initial node takes more rounds than a smooth integrand
    needle = adaptive_simpson(as_family(lambda v: np.exp(-1e4 * (v - 0.5) ** 2)),
                              0.0, 1.0, breakpoints=[0.5])
    assert needle.converged and needle.rounds > 1


def test_every_call_of_a_wide_family_stays_within_the_byte_budget():
    # 200 members: 8 panels of 15 nodes would hold 384 KB, so the first
    # call is chunked by the family's width like every later one
    k = np.arange(200)
    sizes = []

    def f(v):
        out = np.exp(1j * np.outer(k, v))
        sizes.append(out.nbytes)
        return out

    res = adaptive_simpson(f, 0.0, 1.0, width=k.size)
    assert res.converged and max(sizes) <= CHUNK_BYTES
    exact = np.where(k > 0, (np.exp(1j * k) - 1.0) / (1j * np.maximum(k, 1)), 1.0)
    assert np.max(np.abs(res.values - exact)) < 1e-12


def test_a_smallest_partition_takes_one_integrand_call():
    # a one-member family's call holds every one of the MIN_PANELS panels,
    # so an integral that converges on them costs one call
    calls = []

    def f(v):
        calls.append(v.size)
        return np.exp(-v * v)[None, :]

    res = adaptive_simpson(f, -1.0, 1.0)
    assert res.converged and res.rounds == 1
    assert calls == [MIN_PANELS * GK_NODES.size]


def _qk15_reference(f, a, b, step):
    """QUADPACK's qk15 on every panel [a, b], written out plainly, ``step``
    panels per call of f: (K15 value, error estimate, resabs).  The shape
    of each call is kept, because a real matmul's rounding can follow it."""
    parts = []
    for s in range(0, a.size, step):
        lo, hi = a[s:s + step], b[s:s + step]
        half = 0.5 * (hi - lo)
        fv = f(((lo + half)[:, None] + half[:, None] * GK_NODES).ravel())
        fv = fv.reshape(fv.shape[0], lo.size, GK_NODES.size)
        resk = fv @ GK_KRONROD
        abserr = np.abs(resk - fv @ GK_GAUSS) * half
        resasc = np.abs(fv - 0.5 * resk[..., None]) @ GK_KRONROD * half
        est = abserr.copy()
        big = resasc > 0.0
        est[big] = resasc[big] * np.minimum(1.0, (200.0 * abserr[big] / resasc[big]) ** 1.5)
        parts.append((resk * half, est, np.abs(fv) @ GK_KRONROD * half))
    return [np.concatenate(p, axis=1) for p in zip(*parts)]


def test_panel_sums_match_a_plain_qk15_reference_bit_for_bit():
    # three members on ten panels, in two integrand calls of five and in
    # one; the sums reuse the integrand's output and |f| in place
    k = np.array([[1.0], [2.5], [-4.0]])
    f = lambda v: np.exp(1j * k * v - v * v)
    edges = np.linspace(-3.0, 3.0, 11) ** 3 / 9.0
    a, b = edges[:-1], edges[1:]
    for step in (5, 10):
        sums = quadrature._panel_sums(f, a, b, step)
        ref = _qk15_reference(f, a, b, step)
        assert all(np.array_equal(x, y) for x, y in zip(sums, ref)), step


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


def _step(curvature, rate):
    return 1.0 / math.sqrt(curvature / MAGNITUDE_STEP ** 2 + rate / CHIRP_STEP ** 2)


def test_curvature_breakpoints_keep_every_offset_and_meet_each_step():
    # random families of one or several rows: every half-period offset is
    # still an edge, so no panel turns any centre's phase by more than 2
    # PHASE_STEP, the edges rise strictly inside (lo, hi), and every panel
    # that meets a row's window (the hull of its cuts, within pi / (2 rate
    # step) of its centres) is no wider than that row's step
    gen = np.random.default_rng(27)
    split = 0
    for _ in range(500):
        rows, cols = gen.integers(1, 4), gen.integers(1, 6)
        rate = 0.0 if gen.uniform() < 0.2 else 10.0 ** gen.uniform(-2.0, 1.0)
        curv = np.repeat(10.0 ** gen.uniform(-3.0, 1.0, rows), cols)
        centres = np.tile(np.sort(gen.uniform(-3.0, 3.0, cols)), rows)
        half = gen.uniform(2.0, 15.0, rows * cols)
        cuts = np.column_stack([centres - half, centres + gen.uniform(2.0, 15.0, rows * cols)])
        lo, hi = cuts[:, 0].min(), cuts[:, 1].max()
        offsets = phase_breakpoints(lo, hi, rate, centres)
        pts = curvature_breakpoints(lo, hi, offsets, curv.tolist(), rate, centres, cuts)
        if offsets is not None:
            assert np.all(np.isin(offsets, pts))
        if pts is None:
            continue
        split += pts.size > (0 if offsets is None else offsets.size)
        edges = np.concatenate([[lo], pts, [hi]])
        assert np.all(np.diff(edges) > 0.0)
        a, b = edges[:-1], edges[1:]
        if rate > 0.0:
            phi_a = rate * (a[:, None] - centres) ** 2
            phi_b = rate * (b[:, None] - centres) ** 2
            inside = (a[:, None] < centres) & (centres < b[:, None])
            turn = np.where(inside, phi_a + phi_b, np.abs(phi_b - phi_a))
            assert turn.max() <= 2.0 * PHASE_STEP * (1.0 + 1e-9)
        for r in range(rows):
            row = slice(r * cols, (r + 1) * cols)
            step = _step(curv[r * cols], rate)
            w_lo, w_hi = cuts[row, 0].min(), cuts[row, 1].max()
            if rate > 0.0:
                w_lo = max(w_lo, centres[row].min() - 0.5 * math.pi / (rate * step))
                w_hi = min(w_hi, centres[row].max() + 0.5 * math.pi / (rate * step))
            meets = (a < w_hi) & (b > w_lo)
            assert np.all(b[meets] - a[meets] <= step * (1.0 + 1e-12))
    assert split > 300


def test_curvature_breakpoints_stay_within_their_cap():
    centre = np.array([0.0])
    # a rate of 1e300: the thinned offsets leave a panel about the centre
    # far wider than the step, which takes at most CURVE_CAP points; past
    # the float range the rate asks for none
    offsets = phase_breakpoints(-10.0, 10.0, 1e300, centre)
    pts = curvature_breakpoints(-10.0, 10.0, offsets, [1.0], 1e300, centre,
                                np.array([[-10.0, 10.0]]))
    assert offsets.size < pts.size <= offsets.size + CURVE_CAP
    assert np.all(np.isin(offsets, pts)) and np.all(np.diff(pts) > 0.0)
    assert curvature_breakpoints(-10.0, 10.0, None, [1.0], 1.7e308, centre,
                                 np.array([[-10.0, 10.0]])) is None
    # no curvature and no phase ask for no step; a vanishing curvature
    # asks for 1e150 steps across a cut of 1e300, and a unit curvature
    # for 1e12 across one of 1e12: the points are capped, and so is memory
    assert curvature_breakpoints(0.0, 1.0, None, [0.0], 0.0, centre,
                                 np.array([[0.0, 1.0]])) is None
    for curv, reach in ((1e-300, 1e300), (1.0, 1e12)):
        tracemalloc.start()
        try:
            pts = curvature_breakpoints(-reach, reach, None, [curv], 0.0, centre,
                                        np.array([[-reach, reach]]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert CURVE_CAP // 2 <= pts.size <= CURVE_CAP
        assert np.all(np.diff(pts) > 0.0)
        assert peak < 4 * 2 ** 20


def _model(kind, c):
    """A model integrand of curvature or rate c: (f, step, cut half-width,
    |integral|, magnitude curvature, rate)."""
    if kind == "magnitude":
        return (lambda v: np.exp(-c * v * v)[None, :], MAGNITUDE_STEP / math.sqrt(c),
                math.sqrt(40.0 / c), math.sqrt(math.pi / c), c, 0.0)
    # a chirp that decays a hundredth as fast as it turns
    alpha = (0.01 - 1j) * c
    return (lambda v: np.exp(-alpha * v * v)[None, :], CHIRP_STEP / math.sqrt(c),
            math.sqrt(40.0 / alpha.real), abs(cmath.sqrt(math.pi / alpha)), alpha.real, c)


def _worst_panel(kind, c, width):
    """The largest estimate over acceptance limit, at rel_tol 1e-11 over
    the model's cut, among the panels of a grid of ``width``, laid at 41
    alignments: over the cut for the magnitude model, and within pi / (2
    rate width) of the stationary point for the chirp, which its first 40
    half-period offsets continue."""
    f, _, reach, integral, _, rate = _model(kind, c)
    limit = 0.5 * 1e-11 * integral / (2.0 * reach)
    worst = 0.0
    for shift in np.linspace(0.0, width, 41, endpoint=False):
        span = reach if kind == "magnitude" else 0.5 * math.pi / (rate * width)
        j = np.arange(math.floor((-span - shift) / width), math.ceil((span - shift) / width))
        a = shift + j * width
        b = a + width
        if kind == "chirp":
            u = np.sqrt(np.arange(1, 41) * PHASE_STEP / rate)
            u = u[u > b.max()]
            a = np.concatenate([a, u[:-1], -u[1:]])
            b = np.concatenate([b, u[1:], -u[:-1]])
        _, est, resabs = quadrature._panel_sums(f, a, b, a.size)
        worst = max(worst, float(np.max(est[0] / np.maximum(
            limit * (b - a), 50.0 * quadrature.EPS * resabs[0]))))
    return worst


@pytest.mark.parametrize("kind", ["magnitude", "chirp"])
def test_curve_steps_are_the_widest_grids_that_pass(kind):
    # the derivation of MAGNITUDE_STEP and CHIRP_STEP, in units of
    # 1/sqrt(c) at any c: every panel of a grid of the step passes the
    # acceptance test at the routes' tightest tolerance, one of twice it
    # does not, and one panel of twice the step placed on the peak fails
    # for the magnitude model
    for c in (0.04, 1.0, 25.0):
        f, step, reach, integral, _, _ = _model(kind, c)
        assert _worst_panel(kind, c, step) <= 1.0
        assert _worst_panel(kind, c, 2.0 * step) > 1.0
        if kind == "magnitude":
            w = 2.0 * step
            _, est, _ = quadrature._panel_sums(f, np.array([-w / 2]), np.array([w / 2]), 1)
            assert est[0, 0] > 0.5 * 1e-11 * integral * w / (2.0 * reach)


@pytest.mark.parametrize("kind", ["magnitude", "chirp"])
def test_the_curvature_partition_takes_one_round(kind, monkeypatch):
    # the first partition of each model over its cut converges in one round
    # at rel_tol 1e-11; with the steps doubled it does not
    for c in (0.04, 1.0, 25.0):
        f, _, reach, _, curv, rate = _model(kind, c)

        def partition():
            return curvature_breakpoints(
                -reach, reach, phase_breakpoints(-reach, reach, rate, 0.0), [curv],
                rate, np.array([0.0]), np.array([[-reach, reach]]))

        res = adaptive_simpson(f, -reach, reach, rel_tol=1e-11, abs_tol=1e-15,
                               breakpoints=partition())
        assert res.rounds == 1
        with monkeypatch.context() as m:
            m.setattr(quadrature, "MAGNITUDE_STEP", 2.0 * MAGNITUDE_STEP)
            m.setattr(quadrature, "CHIRP_STEP", 2.0 * CHIRP_STEP)
            coarse = partition()
        res = adaptive_simpson(f, -reach, reach, rel_tol=1e-11, abs_tol=1e-15,
                               breakpoints=coarse)
        assert res.rounds > 1


def test_initial_edges_are_the_distinct_sorted_points():
    # the ends, the points strictly inside and, below MIN_PANELS panels,
    # the equal fill, each once and in order, as np.unique gives them
    gen = np.random.default_rng(5)
    for _ in range(200):
        lo, hi = sorted(gen.uniform(-5.0, 5.0, 2))
        pts = np.round(gen.uniform(lo - 1.0, hi + 1.0, gen.integers(0, 40)), 1)
        inside = pts[(pts > lo) & (pts < hi)]
        want = np.unique(np.concatenate([[lo, hi], inside]))
        if want.size - 1 < MIN_PANELS:
            want = np.unique(np.concatenate([want, np.linspace(lo, hi, MIN_PANELS + 1)]))
        assert np.array_equal(quadrature._initial_edges(lo, hi, pts), want)


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
