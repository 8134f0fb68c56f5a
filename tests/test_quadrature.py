import math

import numpy as np
from scipy import integrate

from opfeyn.quadrature import (LogBound, adaptive_simpson, phase_breakpoints,
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


def test_phase_breakpoints_spacing():
    bp = phase_breakpoints(-2.0, 2.0, rate=10.0, center=0.5)
    assert np.all(bp > -2.0) and np.all(bp < 2.0)
    # quadratic phase rate*(v-c)^2 advances by at most ~pi/4 per cell near center
    assert bp.size >= 8


def test_phase_breakpoints_zero_rate():
    assert phase_breakpoints(0.0, 1.0, rate=0.0, center=0.0) is None


def test_budget_exhaustion_reported():
    # a needle pinned to an initial node so it is seen, but far too narrow
    # for a four-round refinement budget to resolve at this tolerance
    def needle(v):
        v = np.asarray(v, dtype=float)
        return np.stack([np.exp(-1e8 * (v - 0.37) ** 2).astype(complex)])

    bp = np.array([0.37])
    res = adaptive_simpson(needle, 0.0, 1.0, rel_tol=1e-13, abs_tol=1e-300,
                           breakpoints=bp, max_rounds=4)
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
