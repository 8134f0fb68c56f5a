"""Adaptive composite-Simpson quadrature for families of line integrals.

The integrand is evaluated as a family: f(v) returns a (k, len(v)) array
so that k related integrals (one per spectral node, say) share every grid
evaluation.  Panels are refined where the Richardson error estimate of
any family member exceeds its share of the budget.  Oscillatory
integrands get an initial partition bounded by a quarter-period of the
quadratic phase per panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PHASE_STEP = math.pi / 4.0
# per-panel error floor: Richardson estimates below a few dozen ulps of the
# local integrand magnitude are rounding noise, not discretization error
ROUND_FLOOR = 32.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadResult:
    values: np.ndarray
    err: np.ndarray
    n_eval: int
    converged: bool


def phase_breakpoints(lo: float, hi: float, rate: float,
                      center: float, cap: int = 16384) -> np.ndarray | None:
    """Interior points keeping the phase rate*(v-center)^2 within pi/4 per panel."""
    if rate <= 0.0 or hi <= lo:
        return None
    u_lo, u_hi = lo - center, hi - center
    phi_max = rate * max(u_lo * u_lo, u_hi * u_hi)
    n_steps = int(phi_max / PHASE_STEP)
    if n_steps < 4:
        return None
    ks = np.arange(1, n_steps + 1)
    us = np.sqrt(ks * PHASE_STEP / rate)
    if us.size > cap:
        us = us[:: us.size // cap + 1]
    pts = np.concatenate([center - us, center + us])
    pts = pts[(pts > lo) & (pts < hi)]
    pts.sort()
    return pts if pts.size else None


def _initial_edges(lo, hi, breakpoints, min_panels=8):
    pts = np.atleast_1d(np.asarray([] if breakpoints is None else breakpoints,
                                   dtype=float))
    edges = np.unique(np.concatenate([[lo, hi], pts[(pts > lo) & (pts < hi)]]))
    if edges.size - 1 < min_panels:
        fill = np.linspace(lo, hi, min_panels + 1)
        edges = np.unique(np.concatenate([edges, fill]))
    return edges


def adaptive_simpson(f, lo: float, hi: float, *, rel_tol: float = 1e-10,
                     abs_tol: float = 1e-14, breakpoints=None,
                     max_rounds: int = 40, max_panels: int = 1 << 19) -> QuadResult:
    """Integrate a family of functions over [lo, hi].

    Parameters
    ----------
    f : callable
        Maps a 1-d float array of nodes to a (k, n_nodes) array (complex
        or real); each of the k rows is integrated.
    breakpoints : array_like, optional
        Interior points the initial partition must respect.

    Returns
    -------
    QuadResult with per-family values and error bounds.
    """
    if hi <= lo:
        probe = np.asarray(f(np.array([lo])))
        k = probe.shape[0]
        return QuadResult(np.zeros(k, dtype=probe.dtype), np.zeros(k), 1, True)
    edges = _initial_edges(lo, hi, breakpoints)
    a = edges[:-1].copy()
    b = edges[1:].copy()
    span = hi - lo
    accepted_val = None
    accepted_err = None
    n_eval = 0
    converged = False
    for _ in range(max_rounds):
        width = b - a
        offs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        nodes = a[:, None] + width[:, None] * offs[None, :]
        vals = np.asarray(f(nodes.ravel()))
        n_eval += nodes.size
        k = vals.shape[0]
        F = vals.reshape(k, a.size, 5)
        if accepted_val is None:
            accepted_val = np.zeros(k, dtype=F.dtype)
            accepted_err = np.zeros(k)
        coarse = (width / 6.0) * (F[:, :, 0] + 4.0 * F[:, :, 2] + F[:, :, 4])
        fine = (width / 12.0) * (F[:, :, 0] + 4.0 * F[:, :, 1] + 2.0 * F[:, :, 2]
                                 + 4.0 * F[:, :, 3] + F[:, :, 4])
        err_p = np.abs(fine - coarse) / 15.0
        i_est = accepted_val + fine.sum(axis=1)
        tol_k = np.maximum(abs_tol, rel_tol * np.abs(i_est))
        # each panel may spend a width-proportional share of half the budget,
        # and is never refined below the local rounding floor
        thresh = 0.5 * tol_k[:, None] * (width[None, :] / span)
        floor = ROUND_FLOOR * np.max(np.abs(F), axis=2) * width[None, :]
        ok = np.all(err_p <= np.maximum(thresh, floor), axis=0)
        if ok.any():
            accepted_val = accepted_val + fine[:, ok].sum(axis=1)
            accepted_err = accepted_err + err_p[:, ok].sum(axis=1)
        if ok.all():
            converged = True
            break
        a_bad = a[~ok]
        b_bad = b[~ok]
        if 2 * a_bad.size > max_panels:
            accepted_val = accepted_val + fine[:, ~ok].sum(axis=1)
            accepted_err = accepted_err + err_p[:, ~ok].sum(axis=1)
            break
        mid = 0.5 * (a_bad + b_bad)
        a = np.concatenate([a_bad, mid])
        b = np.concatenate([mid, b_bad])
    else:
        # rounds exhausted: absorb what is left at its current estimate
        width = b - a
        mid_nodes = a[:, None] + width[:, None] * np.array([[0.0, 0.5, 1.0]])
        vals = np.asarray(f(mid_nodes.ravel()))
        n_eval += mid_nodes.size
        F = vals.reshape(vals.shape[0], a.size, 3)
        coarse = (width / 6.0) * (F[:, :, 0] + 4.0 * F[:, :, 1] + F[:, :, 2])
        accepted_val = accepted_val + coarse.sum(axis=1)
        accepted_err = accepted_err + np.full(accepted_val.shape, np.inf)
    return QuadResult(values=accepted_val, err=accepted_err,
                      n_eval=n_eval, converged=converged)


# ---------------------------------------------------------------------------
# truncation bound
# ---------------------------------------------------------------------------

def quadratic_tail_bound(q2: float, q1: float, q0: float,
                         edge: float, side: int) -> float:
    """Upper bound for the integral of exp(Q) beyond ``edge``.

    ``side`` is +1 for [edge, inf), -1 for (-inf, edge].  Valid when Q is
    strictly decreasing in that direction at the edge; returns inf
    otherwise.
    """
    slope = (2.0 * q2 * edge + q1) * side
    if slope >= 0.0:
        return math.inf
    q_edge = q2 * edge * edge + q1 * edge + q0
    if q_edge > 700.0:
        return math.inf
    return math.exp(q_edge) / -slope


@dataclass(frozen=True)
class LogBound:
    """Truncation interval of a line integral and the tail it leaves out.

    ``left`` and ``right`` are the coefficients (q2, q1, q0) of quadratics
    bounding log|integrand| on v <= 0 and on v >= 0; each side's vertex is
    clamped to its half-line.  A compact ``support`` takes their place:
    the integrand vanishes outside it, so it is the interval and the tail
    is 0.
    """

    left: tuple[float, float, float] = (0.0, 0.0, 0.0)
    right: tuple[float, float, float] = (0.0, 0.0, 0.0)
    support: tuple[float, float] | None = None

    def _side_peak(self, coeffs, side: int) -> float:
        q2, q1, q0 = coeffs
        if q2 > 0.0:
            return math.inf
        if q2 < 0.0:
            v = -q1 / (2.0 * q2)
            v = max(v, 0.0) if side > 0 else min(v, 0.0)
            return q2 * v * v + q1 * v + q0
        if q1 * side < 0.0:
            return q0
        return math.inf

    def peak(self) -> float:
        """Maximum of the quadratic bound; inf when a side does not decay."""
        return max(self._side_peak(self.left, -1), self._side_peak(self.right, +1))

    def _side_cut(self, coeffs, side: int, target: float) -> float:
        q2, q1, q0 = coeffs
        if q2 < 0.0:
            disc = q1 * q1 - 4.0 * q2 * (q0 - target)
            if disc <= 0.0:
                return 0.0
            r = math.sqrt(disc)
            v = (-q1 - side * r) / (2.0 * q2)
            return max(v, 0.0) if side > 0 else min(v, 0.0)
        # linear decay on this side (slope pointing down)
        return (target - q0) / q1

    def cut(self, drop: float) -> tuple[float, float]:
        """Interval outside which the bound is ``drop`` below its peak."""
        if self.support is not None:
            return self.support
        target = self.peak() - drop
        lo = self._side_cut(self.left, -1, target)
        hi = self._side_cut(self.right, +1, target)
        if hi <= lo:
            hi = lo + 1.0
        return lo, hi

    def tails(self, lo: float, hi: float, amp: float = 1.0) -> float:
        """Bound for the integral of amp * exp(bound) outside [lo, hi]."""
        if self.support is not None:
            return 0.0
        l2, l1, l0 = self.left
        r2, r1, r0 = self.right
        return amp * (quadratic_tail_bound(l2, l1, l0, lo, -1)
                      + quadratic_tail_bound(r2, r1, r0, hi, +1))
