"""Adaptive Gauss-Kronrod quadrature for families of line integrals.

The integrand is evaluated as a family: f(v) returns a (k, len(v)) array
so that k related integrals (one per spectral node, say) share every grid
evaluation.  Each panel carries the 7-point Gauss rule and its 15-point
Kronrod extension (G7/K15, QUADPACK's ``qk15``); panels are bisected
where the error estimate of any family member exceeds its share of the
budget.  The estimate is QUADPACK's heuristic resasc min(1, (200 |K15 -
G7| / resasc)^1.5), as the Richardson estimate of the earlier Simpson
panels was a heuristic too: neither is a proven bound.  Oscillatory
integrands get an initial partition whose panels keep every family
member's quadratic phase within a half period (``PHASE_STEP``).  The
engine keeps the name ``adaptive_simpson`` because the benchmark tracer
(perfbench/spans.py) hooks that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PHASE_STEP = math.pi
EPS = np.finfo(float).eps
# per-panel error floor: estimates below a few dozen ulps of the local
# integrand magnitude are rounding noise, not discretization error
ROUND_FLOOR = 32.0 * EPS
# bytes of one integrand call's (k, nodes) output; a round is evaluated in
# chunks of panels within it, so memory does not grow with the panel count
CHUNK_BYTES = 1 << 18
PHASE_CAP = 16384     # most half-period offsets a partition uses per side
MIN_PANELS = 8        # fewest panels of an initial partition
MAX_PANELS = 1 << 19  # most panels a refinement round may bisect into
MAX_ROUNDS = 40       # most refinement rounds of one integral

# G7/K15 on [-1, 1] (QUADPACK qk15): Kronrod abscissae from the end point
# inwards, their weights, and the Gauss weights of the odd-indexed abscissae
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# the 15 nodes in ascending order, with the Kronrod and Gauss weights
GK_NODES = np.array([-x for x in _XK] + [x for x in _XK[-2::-1]])
GK_KRONROD = np.array(_WK + _WK[-2::-1])
GK_GAUSS = np.zeros(15)
GK_GAUSS[1:15:2] = _WG + _WG[-2::-1]


@dataclass(frozen=True)
class QuadResult:
    values: np.ndarray
    err: np.ndarray
    n_eval: int
    converged: bool
    rounds: int


def phase_breakpoints(lo: float, hi: float, rate: float,
                      center: float | np.ndarray) -> np.ndarray | None:
    """Interior points keeping each phase rate*(v-c)^2 within pi per panel.

    ``center`` is one c or an array: right of the extreme centres' midpoint
    the smallest one's points serve all of them, left of it the largest's.
    """
    if rate <= 0.0 or hi <= lo:
        return None
    c_lo, c_hi = float(np.min(center)), float(np.max(center))
    reach = max(c_hi - lo, hi - c_lo)  # farthest any centre is from an end
    n_steps = int(rate * (reach * reach) / PHASE_STEP)
    if n_steps < 4:
        return None
    # every stride-th offset only, so memory stays bounded by PHASE_CAP
    stride = n_steps // PHASE_CAP + 1 if n_steps > PHASE_CAP else 1
    us = np.sqrt(np.arange(1, n_steps + 1, stride) * PHASE_STEP / rate)
    far = us[us > 0.5 * (c_hi - c_lo)]  # offsets reaching past the midpoint
    pts = np.concatenate([c_hi - far[::-1], c_lo + far])
    pts = pts[(pts > lo) & (pts < hi)]
    return pts if pts.size else None


def _initial_edges(lo, hi, breakpoints):
    pts = np.atleast_1d(np.asarray([] if breakpoints is None else breakpoints,
                                   dtype=float))
    edges = np.unique(np.concatenate([[lo, hi], pts[(pts > lo) & (pts < hi)]]))
    if edges.size - 1 < MIN_PANELS:
        fill = np.linspace(lo, hi, MIN_PANELS + 1)
        edges = np.unique(np.concatenate([edges, fill]))
    return edges


def _panel_sums(f, a, b, step):
    """G7/K15 sums of every panel [a, b], ``step`` panels per call of f.

    Returns (kronrod, estimate, resabs, fmax), each of shape (k, panels):
    the K15 value, QUADPACK's error estimate, the K15 integral of |f| and
    the largest |f| at the nodes; and the step that keeps one call's
    output within CHUNK_BYTES, known once f has given its family size k.
    """
    half = 0.5 * (b - a)
    centre = a + half
    parts = []
    start = 0
    while start < a.size:
        h = half[start:start + step]
        nodes = centre[start:start + step, None] + h[:, None] * GK_NODES
        vals = np.asarray(f(nodes.ravel()))
        k = vals.shape[0]
        step = max(1, CHUNK_BYTES // (k * GK_NODES.size * vals.itemsize))
        start += h.size
        F = vals.reshape(k, h.size, GK_NODES.size)
        absf = np.abs(F)
        kron = F @ GK_KRONROD
        raw = np.abs(kron - F @ GK_GAUSS) * h
        resasc = np.abs(F - 0.5 * kron[..., None]) @ GK_KRONROD * h
        scaled = 200.0 * raw / np.where(resasc > 0.0, resasc, 1.0)
        est = np.where(resasc > 0.0, resasc * np.minimum(1.0, scaled ** 1.5), raw)
        parts.append((kron * h, est, absf @ GK_KRONROD * h, absf.max(axis=2)))
    return [np.concatenate(p, axis=1) for p in zip(*parts)], step


def adaptive_simpson(f, lo: float, hi: float, *, rel_tol: float = 1e-10,
                     abs_tol: float = 1e-14, breakpoints=None) -> QuadResult:
    """Integrate a family of functions over [lo, hi] with G7/K15 panels.

    Parameters
    ----------
    lo, hi : float
        Ends of the interval, lo < hi.
    f : callable
        Maps a 1-d float array of nodes to a (k, n_nodes) array (complex
        or real); each of the k rows is integrated.
    breakpoints : array_like, optional
        Interior points the initial partition must respect.

    Returns
    -------
    QuadResult with per-family values and error estimates, the node
    count and the number of refinement rounds.  A panel is accepted when
    every member's estimate is within its width-proportional share of
    half the budget or below the rounding floor; the reported error of a
    panel is at least 50 ulps of its K15 integral of |f|.  When the
    ``MAX_ROUNDS`` refinement rounds run out, the panels left are taken
    at their last K15 values and the error is infinite.
    """
    edges = _initial_edges(lo, hi, breakpoints)
    a = edges[:-1].copy()
    b = edges[1:].copy()
    span = hi - lo
    accepted_val = 0.0
    accepted_err = 0.0
    n_eval = 0
    converged = False
    step = MIN_PANELS  # panels per integrand call until the family size is known
    for rounds in range(1, MAX_ROUNDS + 1):
        width = b - a
        (kron, est, resabs, fmax), step = _panel_sums(f, a, b, step)
        n_eval += a.size * GK_NODES.size
        err_p = np.maximum(est, 50.0 * EPS * resabs)
        i_est = accepted_val + kron.sum(axis=1)
        tol_k = np.maximum(abs_tol, rel_tol * np.abs(i_est))
        # each panel may spend a width-proportional share of half the budget,
        # and is never refined below the local rounding floor
        thresh = 0.5 * tol_k[:, None] * (width[None, :] / span)
        floor = ROUND_FLOOR * fmax * width[None, :]
        ok = np.all(est <= np.maximum(thresh, floor), axis=0)
        accepted_val = accepted_val + kron[:, ok].sum(axis=1)
        accepted_err = accepted_err + err_p[:, ok].sum(axis=1)
        if ok.all():
            converged = True
            break
        a_bad = a[~ok]
        b_bad = b[~ok]
        if rounds == MAX_ROUNDS or 2 * a_bad.size > MAX_PANELS:
            accepted_val = accepted_val + kron[:, ~ok].sum(axis=1)
            # rounds exhausted: the panels left are taken unresolved
            accepted_err = accepted_err + (np.inf if rounds == MAX_ROUNDS
                                           else err_p[:, ~ok].sum(axis=1))
            break
        mid = 0.5 * (a_bad + b_bad)
        a = np.concatenate([a_bad, mid])
        b = np.concatenate([mid, b_bad])
    return QuadResult(values=accepted_val, err=accepted_err,
                      n_eval=n_eval, converged=converged, rounds=rounds)


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
    """A bound on log|f| for a line integrand f, or a compact support.

    ``left`` and ``right`` are the coefficients (q2, q1, q0) of quadratics
    bounding log|f| on v <= 0 and on v >= 0; each side's vertex is
    clamped to its half-line.  A compact ``support`` says f vanishes
    outside it: the support is then the truncation interval, and the tail
    is 0 beyond any interval covering it.  A state-function envelope is
    one of these, and a weight exp(Q) is added with ``plus``.
    """

    left: tuple[float, float, float] = (0.0, 0.0, 0.0)
    right: tuple[float, float, float] = (0.0, 0.0, 0.0)
    support: tuple[float, float] | None = None

    def _side_peak(self, coeffs, side: int) -> float:
        q2, q1, q0 = coeffs
        if not q2 <= 0.0:  # growing, or a nan coefficient
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

    @property
    def integrable(self) -> bool:
        """Whether exp(bound) is integrable: a support, or a finite peak."""
        return self.support is not None or math.isfinite(self.peak())

    def plus(self, left: tuple[float, float, float],
             right: tuple[float, float, float] | None = None) -> LogBound:
        """This bound with the quadratic ``left`` added on v <= 0 and
        ``right`` (``left`` when not given) on v >= 0; the support is kept."""
        right = left if right is None else right
        return LogBound(left=tuple(a + b for a, b in zip(self.left, left)),
                        right=tuple(a + b for a, b in zip(self.right, right)),
                        support=self.support)

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
        """Bound for the integral of amp * exp(bound) outside [lo, hi]; for
        a support, 0 when [lo, hi] covers it and inf otherwise."""
        if self.support is not None:
            s_lo, s_hi = self.support
            return 0.0 if lo <= s_lo and s_hi <= hi else math.inf
        l2, l1, l0 = self.left
        r2, r1, r0 = self.right
        return amp * (quadratic_tail_bound(l2, l1, l0, lo, -1)
                      + quadratic_tail_bound(r2, r1, r0, hi, +1))
