"""Bounded functionals given by Fourier transforms of complex measures.

A functional F(x) = integral of exp{i (w,x)~} df(w) is stored through its
spectral measure f.  Two measure variants are supported: finitely many
atoms on directions, and the pushforward of a one-dimensional measure
eta along a single direction v -> v*w0.  Such functionals are invariant
under shifts of the path argument, which is what lets one path batch
serve every evaluation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

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


# ---------------------------------------------------------------------------
# one-dimensional measures for the line pushforward
# ---------------------------------------------------------------------------

def fourier_sum(u: np.ndarray, freq: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Sum over r of coef[r] exp(i freq[r] u) at each u of a 1-d array, in
    row chunks of at most CHUNK_BYTES per temporary."""
    out = np.empty(u.size, dtype=complex)
    step = max(1, CHUNK_BYTES // max(16 * freq.size, 1))
    ifreq = 1j * freq
    for i in range(0, u.size, step):
        z = np.multiply.outer(u[i:i + step], ifreq)
        out[i:i + step] = np.exp(z, out=z) @ coef
    return out


def grid_fourier_sum(grid: np.ndarray, freq: np.ndarray,
                     coef: np.ndarray) -> np.ndarray:
    """``fourier_sum`` on an equispaced grid of n >= 2 points.

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


class _WeightedPoints:
    """A line measure integrated as weighted points ``v`` with complex
    weights ``c``.  ``points(probe_for)`` gives a node set that resolves
    the probe ``probe_for(radius)``, a function of (v, c), where radius
    bounds |v|; ``points()`` gives the finest node set, on which the
    scalar bounds are taken."""

    def hat(self, u: np.ndarray) -> np.ndarray:
        """Transform at u, resolved over |u| <= max |u|."""
        u = np.asarray(u, dtype=float)
        top = float(np.max(np.abs(u), initial=0.0))

        def probe_for(radius):
            # the transform's rows have frequencies |v| <= radius
            grid = probe_grid(-top, top, radius)
            return lambda v, c: grid_fourier_sum(grid, v, c)
        v, c = self.points(probe_for)
        return fourier_sum(u.ravel(), v, c).reshape(u.shape)

    def total_mass(self) -> float:
        return float(np.sum(np.abs(self.points()[1])))

    def exp_moment(self, mu: float) -> float:
        """Integral of exp(mu |v|) against |eta|; OverflowError past a float."""
        v, c = self.points()
        with np.errstate(over="ignore"):
            return _finite(float(np.dot(np.abs(c), np.exp(mu * np.abs(v)))))


@dataclass(frozen=True)
class EtaAtoms(_WeightedPoints):
    """Finitely many weighted points on the line."""

    atoms: tuple[tuple[float, complex], ...]
    v: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "v", np.array([v for v, _ in self.atoms], dtype=float))
        object.__setattr__(self, "c", np.array([c for _, c in self.atoms], dtype=complex))

    def points(self, probe_for=None) -> tuple[np.ndarray, np.ndarray]:
        """The atoms themselves, whatever the probe."""
        return self.v, self.c


@dataclass(frozen=True)
class EtaGaussian:
    """scale * N(mean, var) with finite mean and 0 < var < inf; its
    transform is an explicit gaussian."""

    mean: float
    var: float
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0.0 < self.var < math.inf):
            raise BadConfig(f"gaussian line measure needs a finite mean and finite "
                            f"var > 0, got mean {self.mean}, var {self.var}")

    def hat(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.scale * np.exp(-0.5 * self.var * u * u + 1j * self.mean * u)

    def total_mass(self) -> float:
        return abs(self.scale)

    def exp_moment(self, mu: float) -> float:
        """Integral of exp(mu |v|) against |eta| in closed form; OverflowError
        past a float."""
        m, s = self.mean, math.sqrt(self.var)
        up = math.exp(mu * m + 0.5 * mu * mu * s * s) * _phi((m + mu * s * s) / s)
        dn = math.exp(-mu * m + 0.5 * mu * mu * s * s) * _phi((mu * s * s - m) / s)
        return _finite(abs(self.scale) * (up + dn))


@dataclass(frozen=True)
class EtaDensity(_WeightedPoints):
    """Complex density on [-radius, radius], with an optional decay envelope.

    The density holds no fixed nodes.  ``points(probe_for)`` integrates
    it on 2^k equal panels of the G7/K15 Kronrod nodes, from RULE_START
    panels doubling, and returns the first rule whose probe agrees with
    that of the rule of twice as many panels to RULE_TOL of the larger of
    the finer rule's total |weight| and its probe's largest modulus, so
    that the difference bounds the returned rule's error; when no rule
    agrees with its successor up to RULE_CAP panels, QuadratureError.  So
    the node count follows each caller's need: the kernel route probes
    its rows' effect on the kernel integral, ``hat`` its transform over
    the requested points.  ``total_mass`` and ``exp_moment`` are bounds,
    taken on the rule of RULE_CAP panels without a convergence test, so
    a density with kinks (|fn| of a sign-changing fn) still has them.
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

    def _rule(self, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
        half = self.radius / n_panels
        centres = -self.radius + half * (2 * np.arange(n_panels) + 1)
        v = (centres[:, None] + half * GK_NODES).ravel()
        w = np.tile(half * GK_KRONROD, n_panels)
        return v, w * np.asarray(self.fn(v), dtype=complex)

    def points(self, probe_for=None) -> tuple[np.ndarray, np.ndarray]:
        """The first rule of 2^k panels that resolves the probe
        ``probe_for(radius)``; with no probe, the rule of RULE_CAP panels."""
        if probe_for is None:
            return self._rule(RULE_CAP)
        probe = probe_for(self.radius)
        n = RULE_START
        v, c = self._rule(n)
        last = np.asarray(probe(v, c))
        while 2 * n <= RULE_CAP:
            finer = self._rule(2 * n)
            now = np.asarray(probe(*finer))
            tol = RULE_TOL * max(float(np.sum(np.abs(finer[1]))),
                                 float(np.max(np.abs(now), initial=0.0)))
            if np.all(np.abs(now - last) <= tol):
                return v, c
            n *= 2
            (v, c), last = finer, now
        raise QuadratureError(
            f"line density on radius {self.radius:g} is not resolved: no two "
            f"successive rules up to {RULE_CAP} Kronrod panels agree")

    def exp_moment(self, mu: float) -> float:
        """Integral of exp(mu |v|) against |eta|; inf when the envelope
        times exp(mu |v|) is not integrable."""
        env = self.envelope
        if env is not None and not env.log_bound.plus(
                (0.0, -mu, 0.0), (0.0, mu, 0.0)).integrable:
            return math.inf
        return super().exp_moment(mu)


Eta1D = Union[EtaAtoms, EtaGaussian, EtaDensity]


# ---------------------------------------------------------------------------
# spectral measures on direction space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many weighted atoms at directions in the reproducing-kernel space."""

    sp: ScalePair
    atoms: tuple[tuple[complex, CambElement], ...]

    def __post_init__(self):
        for _, w in self.atoms:
            if w.sp is not self.sp:
                raise MismatchedScalePair("atom direction over a different scale pair")

    def directions(self) -> list[CambElement]:
        return [w for _, w in self.atoms]


@dataclass(frozen=True)
class LineMeasure:
    """Pushforward of a one-dimensional measure along v -> v * w0."""

    w0: CambElement
    eta: Eta1D

    @property
    def sp(self) -> ScalePair:
        return self.w0.sp

    def directions(self) -> list[CambElement]:
        return [self.w0]


SpectralMeasure = Union[AtomicMeasure, LineMeasure]


@dataclass(frozen=True)
class FresnelFunctional:
    """Shift-invariant functional determined by a spectral measure."""

    measure: SpectralMeasure
    label: str = ""

    @property
    def sp(self) -> ScalePair:
        return self.measure.sp

    def directions(self) -> list[CambElement]:
        return self.measure.directions()


def eval_from_projections(F: FresnelFunctional, proj: np.ndarray) -> np.ndarray:
    """Evaluate on a batch given pairings with F.directions(), shape (n, n_dirs)."""
    m = F.measure
    if isinstance(m, AtomicMeasure):
        wts = np.array([c for c, _ in m.atoms], dtype=complex)
        return np.exp(1j * proj) @ wts
    return m.eta.hat(proj[:, 0])


def kq0_integral(F: FresnelFunctional, q0: float) -> float:
    """Integral of the exponential moment weight against |f|.

    Finiteness is the membership criterion for the admissible functional
    class at threshold q0; divergence is reported as inf, never raised.  A
    finite integral too large for a float raises KernelOverflow.
    """
    require_threshold(q0)
    m = F.measure
    norm_a = m.sp.norm_a
    inv = 1.0 / math.sqrt(2.0 * q0)
    try:
        if isinstance(m, AtomicMeasure):
            return _finite(float(sum(abs(c) * math.exp(inv * w.norm * norm_a)
                                     for c, w in m.atoms)))
        return m.eta.exp_moment(inv * m.w0.norm * norm_a)
    except OverflowError:
        raise KernelOverflow(f"the exponential-moment integral at q0 = {q0:g} "
                             f"is finite but too large for a float") from None


def convolve(F: FresnelFunctional, G: FresnelFunctional) -> FresnelFunctional:
    """Product-of-transforms convolution; defined for atomic measures only."""
    mf, mg = F.measure, G.measure
    if not isinstance(mf, AtomicMeasure) or not isinstance(mg, AtomicMeasure):
        raise UnsupportedVariant("convolution is defined for atomic measures")
    if mf.sp is not mg.sp:
        raise MismatchedScalePair("convolution needs a shared scale pair")
    atoms = tuple(
        (cf * cg, combine(wf, wg, 1.0, 1.0, label=f"({wf.label}+{wg.label})"))
        for cf, wf in mf.atoms for cg, wg in mg.atoms
    )
    return FresnelFunctional(measure=AtomicMeasure(sp=mf.sp, atoms=atoms),
                             label=f"{F.label}*{G.label}")


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def unit_functional(sp: ScalePair) -> FresnelFunctional:
    """The constant functional F = 1 (a single atom at the zero direction)."""
    return FresnelFunctional(
        measure=AtomicMeasure(sp=sp, atoms=((1.0 + 0.0j, zero_element(sp)),)),
        label="one")


def gallery(name: str, sp: ScalePair, *, w0: CambElement | None = None,
            eta: Eta1D | None = None, mean: float | None = None,
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
        return FresnelFunctional(measure=LineMeasure(w0=w0, eta=eta), label="F1")
    if name == "F2":
        if w0 is None or mean is None or var is None:
            raise BadConfig("F2 needs w0, mean and var")
        return FresnelFunctional(
            measure=LineMeasure(w0=w0, eta=EtaGaussian(mean=mean, var=var)),
            label="F2")
    if name == "F3":
        return FresnelFunctional(
            measure=LineMeasure(w0=s_star(b_element(sp)),
                                eta=EtaGaussian(mean=0.0, var=2.0)),
            label="F3")
    if name == "F4":
        return FresnelFunctional(
            measure=AtomicMeasure(sp=sp, atoms=((1.0 + 0.0j, s_star(b_element(sp))),)),
            label="F4")
    raise UnknownExample(f"no gallery functional named {name!r}")
