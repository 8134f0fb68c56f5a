"""Adaptive Gauss-Kronrod quadrature for families of line integrals.

The integrand is evaluated as a family: f(v) returns a (k, len(v)) array
so that k related integrals (one per spectral node, say) share every grid
evaluation.  Each panel carries the 7-point Gauss rule and its 15-point
Kronrod extension (G7/K15, QUADPACK's ``qk15``); panels are bisected
where the error estimate of any family member exceeds both its share of
the budget and the panel's rounding floor.  The estimate is QUADPACK's
heuristic resasc min(1, (200 |K15 - G7| / resasc)^1.5), not a proven
bound.  The engine lays the initial partition from what each member's
integrand declares: its half-period offsets keep every member's
quadratic phase within a half period (``PHASE_STEP``), and where those
leave a panel wider than the member's magnitude curvature and phase rate
allow (``MAGNITUDE_STEP``, ``CHIRP_STEP``), the panel is split, so that
most integrals are accepted in the first round.  The engine keeps the
name ``adaptive_simpson`` because the benchmark tracer
(perfbench/spans.py) hooks that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KernelOverflow

PHASE_STEP = math.pi
EPS = np.finfo(float).eps
EXP_CAP = 700.0       # largest exponent taken: exp(709.8) overflows a float
# bytes of complex values one integrand call may hold, at its width (values
# per node), so that memory does not grow with the panel count
CHUNK_BYTES = 1 << 18
PHASE_CAP = 16384     # most half-period offsets a partition uses per side
# The widest steps, in units of 1/sqrt(c), at which every K15 panel of a
# model integrand's first partition, its grid at any alignment, passes the
# acceptance test at the routes' tightest tolerance (rel_tol 1e-11, over the
# model's cut at a drop of 40), to 0.02: for exp(-c s^2), c the magnitude
# curvature -q2, gridded over its cut; and for exp((i - 1/100) c s^2), c the
# phase rate, a chirp that decays a hundredth as fast as it turns, gridded
# within pi / (2 c step) of its stationary point, past which its half-period
# offsets are finer, and cut at those offsets beyond.  A member with both
# takes the step 1 / sqrt(c_mag / MAGNITUDE_STEP^2 + rate / CHIRP_STEP^2).
MAGNITUDE_STEP = 1.22
CHIRP_STEP = 0.54
CURVE_CAP = 16384     # most points the curvature grids add to a partition
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
    Near the centres these half-period offsets are far apart, and
    ``curvature_breakpoints`` splits the panels they leave there.  A count
    of half periods that is not a finite float raises KernelOverflow.
    """
    if rate <= 0.0 or hi <= lo:
        return None
    c_lo, c_hi = float(np.min(center)), float(np.max(center))
    reach = max(c_hi - lo, hi - c_lo)  # farthest any centre is from an end
    halves = rate * (reach * reach) / PHASE_STEP
    if not math.isfinite(halves):
        raise KernelOverflow(f"the phase's half periods on [{lo}, {hi}] at rate {rate} "
                             f"overflow a float")
    n_steps = int(halves)
    if n_steps < 4:
        return None
    # every stride-th offset only, so memory stays bounded by PHASE_CAP; in
    # floats, since past 2^63 an integer arange holds Python ints
    stride = n_steps // PHASE_CAP + 1 if n_steps > PHASE_CAP else 1
    us = np.sqrt(np.arange(1, n_steps + 1, stride, dtype=float) * PHASE_STEP / rate)
    far = us[us > 0.5 * (c_hi - c_lo)]  # offsets reaching past the midpoint
    pts = np.concatenate([c_hi - far[::-1], c_lo + far])
    pts = pts[(pts > lo) & (pts < hi)]
    return pts if pts.size else None


def curvature_breakpoints(lo: float, hi: float, offsets: np.ndarray | None,
                          curvature: list[float], rate: float, centres: np.ndarray,
                          cuts: np.ndarray) -> np.ndarray | None:
    """The interior edges of a first partition: the half-period
    ``offsets``, each panel they leave split into equal parts no wider
    than the finest step asked for within it.

    Member j has magnitude curvature curvature[j], centre centres[j] and
    cut cuts[j]; a run of members of one curvature (a parameter's points)
    asks for the step 1 / sqrt(curvature / MAGNITUDE_STEP^2 + rate /
    CHIRP_STEP^2) within the hull of its cuts, and with a phase only
    within pi / (2 rate step) of its centres, past which its offsets are
    finer than the step.  Every offset stays an edge.  At most CURVE_CAP
    edges are added: past that each panel gets its share of them.
    """
    start = [j for j, c in enumerate(curvature) if j == 0 or c != curvature[j - 1]]
    if len(start) == 1:  # one run, whose hull is the family's
        runs = [(curvature[0], lo, hi, float(centres.min()), float(centres.max()))]
    else:
        runs = zip([curvature[j] for j in start],
                   np.minimum.reduceat(cuts[:, 0], start).tolist(),
                   np.maximum.reduceat(cuts[:, 1], start).tolist(),
                   np.minimum.reduceat(centres, start).tolist(),
                   np.maximum.reduceat(centres, start).tolist())
    asks = []  # (window lo, window hi, step) per run that asks for a step
    for c, w_lo, w_hi, c_lo, c_hi in runs:
        scale = c * MAGNITUDE_STEP ** -2 + rate * CHIRP_STEP ** -2
        if not 0.0 < scale < math.inf:  # no curvature and no phase, or overflow
            continue
        step = 1.0 / math.sqrt(scale)
        if rate > 0.0:
            half = 0.5 * math.pi / (rate * step)
            w_lo, w_hi = max(w_lo, c_lo - half), min(w_hi, c_hi + half)
        if w_lo < w_hi:
            asks.append((w_lo, w_hi, step))
    if not asks:
        return offsets
    base = np.array([lo, hi]) if offsets is None else np.concatenate(([lo], offsets, [hi]))
    fine = np.full(base.size - 1, math.inf)
    for w_lo, w_hi, step in asks:
        # panel k is [base[k], base[k + 1]]; the window meets those from the
        # one holding w_lo to the one holding w_hi
        first, last = np.searchsorted(base, (w_lo, w_hi), "right").tolist()
        np.minimum(fine[first - 1:last], step, out=fine[first - 1:last])
    # pieces per panel, counted in floats so that no count overflows
    pieces = np.maximum(np.ceil(np.minimum(np.diff(base) / fine, CURVE_CAP + 1.0)), 1.0)
    extra = pieces.sum() - pieces.size
    if extra == 0.0:
        return offsets
    if extra > CURVE_CAP:
        pieces = 1.0 + np.floor((pieces - 1.0) * (CURVE_CAP / extra))
    # edge t of the split partition, where the cumulative piece count
    # reaches t; the offsets are where it reaches a panel's end
    count = np.concatenate(([0.0], np.cumsum(pieces)))
    return np.interp(np.arange(1.0, count[-1]), count, base)


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    # np.unique's values, without the numpy.ma import its first call makes
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _initial_edges(lo, hi, breakpoints):
    if breakpoints is None:
        return np.linspace(lo, hi, MIN_PANELS + 1)
    pts = np.atleast_1d(np.asarray(breakpoints, dtype=float))
    edges = _sorted_distinct(np.concatenate([[lo, hi], pts[(pts > lo) & (pts < hi)]]))
    if edges.size - 1 < MIN_PANELS:
        fill = np.linspace(lo, hi, MIN_PANELS + 1)
        edges = _sorted_distinct(np.concatenate([edges, fill]))
    return edges


def panels_per_call(width: int) -> int:
    """Panels whose nodes fit CHUNK_BYTES at ``width``, and at least one."""
    return max(1, CHUNK_BYTES // (width * GK_NODES.size * 16))


def _panel_sums(f, a, b, step):
    """G7/K15 sums of every panel [a, b], ``step`` panels per call of f.

    Returns (kronrod, estimate, resabs), each of shape (k, panels): the
    K15 value, QUADPACK's error estimate and the K15 integral of |f|,
    whose 50 ulps are the panel's rounding floor.  f's output is
    overwritten, so f must return an array of its own, not a view of one
    it keeps.
    """
    half = 0.5 * (b - a)
    centre = a + half
    parts = []
    for start in range(0, a.size, step):
        h = half[start:start + step]
        nodes = centre[start:start + step, None] + h[:, None] * GK_NODES
        vals = np.asarray(f(nodes.ravel()))
        F = vals.reshape(vals.shape[0], h.size, GK_NODES.size)
        absf = np.abs(F)
        resabs = absf @ GK_KRONROD * h
        kron = F @ GK_KRONROD
        raw = np.abs(kron - F @ GK_GAUSS) * h
        F -= 0.5 * kron[..., None]
        resasc = np.abs(F, out=absf) @ GK_KRONROD * h
        scaled = 200.0 * raw / np.where(resasc > 0.0, resasc, 1.0)
        est = np.where(resasc > 0.0, resasc * np.minimum(1.0, scaled ** 1.5), raw)
        parts.append((kron * h, est, resabs))
    if len(parts) == 1:
        return parts[0]
    return [np.concatenate(p, axis=1) for p in zip(*parts)]


def adaptive_simpson(f, lo: float, hi: float, *, rel_tol: float = 1e-10,
                     abs_tol: float = 1e-14, breakpoints=None,
                     width: int = 1) -> QuadResult:
    """Integrate a family of functions over [lo, hi] with G7/K15 panels.

    Parameters
    ----------
    lo, hi : float
        Ends of the interval, lo < hi.
    f : callable
        Maps a 1-d float array of nodes to a (k, n_nodes) float or
        complex array of its own, which the rule overwrites; each of the
        k rows is integrated.
    breakpoints : array_like, optional
        Interior points the initial partition must respect; the engine
        passes ``curvature_breakpoints``, whose panels the acceptance test
        below takes in the first round for most integrands.
    width : int
        Complex values f holds per node (its k members, or rows x points
        for a kernel); every call of f takes ``panels_per_call(width)``.

    Returns
    -------
    QuadResult with per-family values and error estimates, the node
    count and the number of refinement rounds.  A panel's error is its
    estimate or, when larger, its rounding floor, 50 ulps of its K15
    integral of |f|.  The panel is accepted when every member's estimate
    is within its length-proportional share of half the budget or within
    that floor, so the floor that accepts it is the one it reports.  When
    the ``MAX_ROUNDS`` refinement rounds run out, the panels left are
    taken at their last K15 values and the error is infinite.
    """
    edges = _initial_edges(lo, hi, breakpoints)
    a = edges[:-1].copy()
    b = edges[1:].copy()
    span = hi - lo
    accepted_val = 0.0
    accepted_err = 0.0
    n_eval = 0
    converged = False
    for rounds in range(1, MAX_ROUNDS + 1):
        length = b - a
        kron, est, resabs = _panel_sums(f, a, b, panels_per_call(width))
        n_eval += a.size * GK_NODES.size
        floor = 50.0 * EPS * resabs
        err_p = np.maximum(est, floor)
        i_est = accepted_val + kron.sum(axis=1)
        tol_k = np.maximum(abs_tol, rel_tol * np.abs(i_est))
        # each panel may spend a length-proportional share of half the budget,
        # and is never refined below its rounding floor
        thresh = 0.5 * tol_k[:, None] * (length[None, :] / span)
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
    if q_edge > EXP_CAP:
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

    def __post_init__(self):
        # every use of a bound reads its peak, so it is taken once here
        object.__setattr__(self, "_peak", max(self._side_peak(self.left, -1),
                                              self._side_peak(self.right, +1)))

    def peak(self) -> float:
        """Maximum of the quadratic bound; inf when a side does not decay."""
        return self._peak

    @property
    def integrable(self) -> bool:
        """Whether exp(bound) is integrable: a support, or a finite peak."""
        return self.support is not None or math.isfinite(self._peak)

    @property
    def curvature(self) -> float:
        """The larger side's -q2, at least 0."""
        return max(-self.left[0], -self.right[0], 0.0)

    def plus(self, left: tuple[float, float, float],
             right: tuple[float, float, float] | None = None) -> LogBound:
        """This bound with the quadratic ``left`` added on v <= 0 and
        ``right`` (``left`` when not given) on v >= 0; the support is kept."""
        right = left if right is None else right
        (l2, l1, l0), (r2, r1, r0) = self.left, self.right
        return LogBound(left=(l2 + left[0], l1 + left[1], l0 + left[2]),
                        right=(r2 + right[0], r1 + right[1], r0 + right[2]),
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
        target = self._peak - drop
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
