"""Bounded functionals given by Fourier transforms of complex measures.

A functional F(x) = integral of exp{i (w,x)~} df(w) is stored through its
spectral measure f: a sum of lines (w, eta), eta on the real line pushed
forward along v -> v*w.  Each eta is gaussian pieces c*N(m, var), var 0
for an atom (an atom c at w is the line (w, c*delta_1)), or a density
that generates var-0 pieces on demand.  Such functionals are invariant
under shifts of the path argument, which is what lets one path batch
serve every evaluation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (BadConfig, KernelOverflow, MeasureUnderflow,
                     MismatchedScalePair, QuadratureError, UnknownExample,
                     UnsupportedVariant)
from .hilbert import CambElement, b_element, combine, s_star, zero_element
from .kernels import require_threshold
from .psi import Envelope
from .quadrature import CHUNK_BYTES, GK_KRONROD, GK_NODES
from .scale import ScalePair

UNDERFLOW_TOL = 1e-8
# a line density's node rule: RULE_START panels doubling to RULE_CAP,
# accepted at RULE_TOL; a probe grid has PROBE_DENSITY points per period
RULE_START = 8
RULE_CAP = 256
RULE_TOL = 1e-13
PROBE_DENSITY = 4


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _finite(moment: float) -> float:
    """An exponential moment; OverflowError when a float cannot hold it."""
    if not math.isfinite(moment):
        raise OverflowError("exponential moment overflows a float")
    return moment


def grid_fourier_sum(grid: np.ndarray, freq: np.ndarray,
                     coef: np.ndarray) -> np.ndarray:
    """Sum over r of coef[r] exp(i freq[r] u) at each u of an equispaced
    grid of n >= 2 points.

    The phase at point j = b K + k, K about sqrt(n), splits into that of
    its block start and that of its offset k steps on, so the sum is one
    product of a (K, rows) table of offset phases and a (rows, blocks)
    table of weighted block-start phases: (K + n / K) rows exps in place
    of n rows.
    """
    n = grid.size
    step = (grid[-1] - grid[0]) / (n - 1)
    size = math.isqrt(n)
    ifreq = 1j * freq
    offsets = np.exp(np.multiply.outer(step * np.arange(size), ifreq))
    starts = np.exp(np.multiply.outer(ifreq, grid[::size])) * coef[:, None]
    return (offsets @ starts).T.ravel()[:n]


def probe_grid(lo: float, hi: float, reach: float) -> np.ndarray:
    """Points on [lo, hi], PROBE_DENSITY per period of frequency ``reach``."""
    turns = (hi - lo) * reach / (2.0 * math.pi)
    return np.linspace(lo, hi, math.ceil(PROBE_DENSITY * turns) + 2)


def _hat_probe(u: np.ndarray):
    """Probe factory that resolves a line density's transform up to max |u|."""
    def probe_for(radius):
        # the transform's rows have frequencies |v| <= radius
        top = float(np.max(np.abs(u), initial=0.0))
        grid = probe_grid(-top, top, radius)
        return lambda v, c: grid_fourier_sum(grid, v, c)
    return probe_for


# ---------------------------------------------------------------------------
# line measures: gaussian pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinePieces:
    """A measure on the line: the sum of gaussian pieces coef[j] *
    N(mean[j], var[j]), a piece of var 0 being an atom at mean[j].  It
    needs at least one piece, and each piece a finite coef and mean and
    0 <= var < inf, else BadConfig.
    """

    coef: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        coef, mean, var = (np.asarray(x, dtype=t).ravel() for x, t in (
            (self.coef, complex), (self.mean, float), (self.var, float)))
        if not (coef.size == mean.size == var.size and np.all(np.isfinite(coef))
                and np.all(np.isfinite(mean)) and np.all((var >= 0.0) & (var < math.inf))):
            raise BadConfig("line measure pieces need a finite coef and mean "
                            "and 0 <= var < inf each")
        if not coef.size:
            raise BadConfig("a line measure needs at least one piece")
        for name, value in (("coef", coef), ("mean", mean), ("var", var)):
            object.__setattr__(self, name, value)

    def points(self, probe_for=None) -> LinePieces:
        return self

    def hat(self, u: np.ndarray) -> np.ndarray:
        """Transform sum_j coef_j exp(i mean_j u - var_j u^2 / 2) at each u."""
        u = np.asarray(u, dtype=float)
        return _transform(u.reshape(-1, 1), *join([self])).reshape(u.shape)

    def total_mass(self) -> float:
        return float(np.sum(np.abs(self.coef)))

    def exp_moment(self, mu: float) -> float:
        """Integral of exp(mu |v|) against |eta|, in closed form for each
        piece; OverflowError past a float."""
        size = np.abs(self.coef)
        with np.errstate(over="ignore"):
            atoms = np.where(self.var > 0.0, 0.0, np.exp(mu * np.abs(self.mean)))
        total = float(np.dot(size, atoms))
        for j in np.flatnonzero(self.var).tolist():
            m, s = float(self.mean[j]), math.sqrt(self.var[j])
            up = math.exp(mu * m + 0.5 * mu * mu * s * s) * _phi((m + mu * s * s) / s)
            dn = math.exp(-mu * m + 0.5 * mu * mu * s * s) * _phi((mu * s * s - m) / s)
            total += float(size[j]) * (up + dn)
        return _finite(total)


def _transform(x: np.ndarray, col, coef, mean, var) -> np.ndarray:
    """The transform of pieces (coef, mean, var) on several lines at each row
    of the batch x of line coordinates, piece j reading x[:, col[j]], in
    row chunks of at most CHUNK_BYTES per temporary."""
    out = np.empty(x.shape[0], dtype=complex)
    step = max(1, CHUNK_BYTES // max(16 * coef.size, 1))
    for i in range(0, x.shape[0], step):
        xs = x[i:i + step].take(col, 1)
        z = xs * (1j * mean)
        z.real = xs * (-0.5 * var) * xs
        out[i:i + step] = np.dot(np.exp(z, out=z), coef)
    return out


def EtaAtoms(atoms) -> LinePieces:
    """Finitely many weighted points (v, c) on the line: pieces of var 0."""
    return LinePieces(coef=[c for _, c in atoms], mean=[v for v, _ in atoms],
                      var=np.zeros(len(atoms)))


def EtaGaussian(mean: float, var: float, scale: complex = 1.0 + 0.0j) -> LinePieces:
    """scale * N(mean, var) with var > 0: one piece."""
    if not var > 0.0:
        raise BadConfig(f"gaussian line measure needs var > 0, got {var}")
    return LinePieces(coef=[scale], mean=[mean], var=[var])


def join(lines) -> tuple[np.ndarray, ...]:
    """The pieces of several line measures: each piece's line, and the
    pieces' coef, mean and var."""
    col = np.repeat(np.arange(len(lines)), [p.coef.size for p in lines])
    return (col, np.concatenate([p.coef for p in lines]),
            np.concatenate([p.mean for p in lines]), np.concatenate([p.var for p in lines]))


@dataclass(frozen=True)
class EtaDensity:
    """Complex density on [-radius, radius], with an optional decay envelope.

    The density holds no fixed nodes.  ``points(probe_for)`` integrates
    it on 2^k equal panels of the G7/K15 Kronrod nodes, from RULE_START
    panels doubling, and returns as var-0 pieces the first rule whose
    probe agrees with that of the rule of twice as many panels to
    RULE_TOL of the larger of the finer rule's total |weight| and its
    probe's largest modulus, so that the difference bounds the returned
    rule's error; when no rule agrees with its successor up to RULE_CAP
    panels, QuadratureError.  So the node count follows each caller's
    need: the kernel route probes its rows' effect on the kernel
    integral, ``hat`` its transform over the requested points.
    ``total_mass`` and ``exp_moment`` are bounds, taken on the rule of
    RULE_CAP panels (built once per density) without a convergence test,
    so a density with kinks (|fn| of a sign-changing fn) still has them.
    When an envelope is given, it certifies the tail beyond the radius; a
    tail heavier than the truncation tolerance raises MeasureUnderflow.
    """

    fn: Callable
    radius: float
    envelope: Envelope | None = None

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise BadConfig(f"density radius must be positive and finite, got {self.radius}")
        if self.envelope is not None:
            tail = self.envelope.log_bound.tails(-self.radius, self.radius)
            if tail > UNDERFLOW_TOL * max(self.total_mass(), 1e-300):
                raise MeasureUnderflow(
                    f"density tail beyond radius {self.radius:g} holds mass "
                    f"{tail:.3g}, above tolerance")

    def _rule(self, n_panels: int) -> LinePieces:
        half = self.radius / n_panels
        centres = -self.radius + half * (2 * np.arange(n_panels) + 1)
        v = (centres[:, None] + half * GK_NODES).ravel()
        w = np.tile(half * GK_KRONROD, n_panels)
        return LinePieces(coef=w * np.asarray(self.fn(v), dtype=complex),
                          mean=v, var=np.zeros(v.size))

    @cached_property
    def _cap_rule(self) -> LinePieces:
        return self._rule(RULE_CAP)

    def points(self, probe_for=None) -> LinePieces:
        """The first rule of 2^k panels that resolves the probe
        ``probe_for(radius)``, a function of the nodes v and weights c
        where radius bounds |v|; with no probe, the rule of RULE_CAP
        panels."""
        if probe_for is None:
            return self._cap_rule
        probe = probe_for(self.radius)
        n = RULE_START
        rule = self._rule(n)
        last = np.asarray(probe(rule.mean, rule.coef))
        while 2 * n <= RULE_CAP:
            finer = self._rule(2 * n)
            now = np.asarray(probe(finer.mean, finer.coef))
            tol = RULE_TOL * max(finer.total_mass(),
                                 float(np.max(np.abs(now), initial=0.0)))
            if np.all(np.abs(now - last) <= tol):
                return rule
            n *= 2
            rule, last = finer, now
        raise QuadratureError(
            f"line density on radius {self.radius:g} is not resolved: no two "
            f"successive rules up to {RULE_CAP} Kronrod panels agree")

    def hat(self, u: np.ndarray) -> np.ndarray:
        """Transform at u, resolved over |u| <= max |u|."""
        return self.points(_hat_probe(u)).hat(u)

    def total_mass(self) -> float:
        return self.points().total_mass()

    def exp_moment(self, mu: float) -> float:
        """Integral of exp(mu |v|) against |eta|; inf when the envelope
        times exp(mu |v|) is not integrable."""
        env = self.envelope
        if env is not None and not env.log_bound.plus(
                (0.0, -mu, 0.0), (0.0, mu, 0.0)).integrable:
            return math.inf
        return self.points().exp_moment(mu)


# ---------------------------------------------------------------------------
# spectral measures on direction space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralMeasure:
    """A finite sum of lines: each line (w, eta) is the pushforward of the
    line measure eta along v -> v * w, w a direction over ``sp``."""

    sp: ScalePair
    lines: tuple[tuple[CambElement, LinePieces | EtaDensity], ...]

    def __post_init__(self):
        if not self.lines:
            raise BadConfig("a spectral measure needs at least one line")
        for w, _ in self.lines:
            if w.sp is not self.sp:
                raise MismatchedScalePair("line direction over a different scale pair")


def AtomicMeasure(sp: ScalePair, atoms) -> SpectralMeasure:
    """Weighted atoms (c, w) at directions: one line (w, c * delta_1) each."""
    return SpectralMeasure(sp=sp, lines=tuple((w, EtaAtoms(((1.0, c),)))
                                              for c, w in atoms))


def LineMeasure(w0: CambElement, eta: LinePieces | EtaDensity) -> SpectralMeasure:
    """Pushforward of a line measure along v -> v * w0: one line."""
    return SpectralMeasure(sp=w0.sp, lines=((w0, eta),))


@dataclass(frozen=True)
class FresnelFunctional:
    """Shift-invariant functional determined by a spectral measure."""

    measure: SpectralMeasure
    label: str = ""

    @property
    def sp(self) -> ScalePair:
        return self.measure.sp

    def directions(self) -> list[CambElement]:
        return [w for w, _ in self.measure.lines]


def eval_from_projections(F: FresnelFunctional, proj: np.ndarray) -> np.ndarray:
    """Evaluate on a batch given pairings with F.directions(), shape (n,
    lines): the transform of every line's pieces at its column."""
    return _transform(proj, *join([eta.points(_hat_probe(proj[:, k]))
                                   for k, (_, eta) in enumerate(F.measure.lines)]))


def kq0_integral(F: FresnelFunctional, q0: float) -> float:
    """Integral of the exponential moment weight against |f|.

    Finiteness is the membership criterion for the admissible functional
    class at threshold q0; divergence is reported as inf, never raised.  A
    finite integral too large for a float raises KernelOverflow.
    """
    require_threshold(q0)
    inv = 1.0 / math.sqrt(2.0 * q0)
    try:
        moments = [eta.exp_moment(inv * w.norm * F.sp.norm_a)
                   for w, eta in F.measure.lines]
        if all(map(math.isfinite, moments)):
            return _finite(math.fsum(moments))
    except OverflowError:
        raise KernelOverflow(f"the exponential-moment integral at q0 = {q0:g} "
                             f"is finite but too large for a float") from None
    return math.inf


def convolve(F: FresnelFunctional, G: FresnelFunctional) -> FresnelFunctional:
    """Product-of-transforms convolution, defined when every piece of both
    measures is an atom: c_f at v_f w_f and c_g at v_g w_g give c_f c_g at
    v_f w_f + v_g w_g."""
    if not all(isinstance(eta, LinePieces) and not eta.var.any()
               for _, eta in F.measure.lines + G.measure.lines):
        raise UnsupportedVariant("convolution is defined for measures of atoms")
    if F.sp is not G.sp:
        raise MismatchedScalePair("convolution needs a shared scale pair")
    f, g = ([(complex(c), float(v), w) for w, eta in X.measure.lines
             for c, v in zip(eta.coef, eta.mean)] for X in (F, G))
    atoms = tuple((cf * cg, combine(wf, wg, vf, vg, label=f"({wf.label}+{wg.label})"))
                  for cf, vf, wf in f for cg, vg, wg in g)
    return FresnelFunctional(measure=AtomicMeasure(sp=F.sp, atoms=atoms),
                             label=f"{F.label}*{G.label}")


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def unit_functional(sp: ScalePair) -> FresnelFunctional:
    """The constant functional F = 1 (a single atom at the zero direction)."""
    return FresnelFunctional(AtomicMeasure(sp, ((1.0 + 0.0j, zero_element(sp)),)), "one")


def gallery(name: str, sp: ScalePair, *, w0: CambElement | None = None,
            eta: LinePieces | EtaDensity | None = None, mean: float | None = None,
            var: float | None = None) -> FresnelFunctional:
    """Named example functionals.

    F1: pushforward of a given eta along a given direction.
    F2: F1 with a gaussian eta (needs a finite mean and 0 < var < inf).
    F3: gaussian line functional along the adjoint shift of b, giving
        exp{-(time integral of x against db)^2}.
    F4: unit atom at the adjoint shift of b, giving
        exp{i * time integral of x against db}.
    """
    if name == "F1":
        if w0 is None or eta is None:
            raise BadConfig("F1 needs a direction w0 and a line measure eta")
        return FresnelFunctional(LineMeasure(w0, eta), "F1")
    if name == "F2":
        if w0 is None or mean is None or var is None:
            raise BadConfig("F2 needs w0, mean and var")
        return FresnelFunctional(LineMeasure(w0, EtaGaussian(mean, var)), "F2")
    if name == "F3":
        return FresnelFunctional(LineMeasure(s_star(b_element(sp)), EtaGaussian(0.0, 2.0)), "F3")
    if name == "F4":
        return FresnelFunctional(AtomicMeasure(sp, ((1.0 + 0.0j, s_star(b_element(sp))),)), "F4")
    raise UnknownExample(f"no gallery functional named {name!r}")
