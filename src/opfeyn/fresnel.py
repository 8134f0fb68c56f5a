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

from .errors import (ArgOutOfRange, BadConfig, MeasureUnderflow,
                     MismatchedScalePair, UnknownExample, UnsupportedVariant)
from .hilbert import (CambElement, a_element, b_element, combine, s_star,
                      zero_element)
from .psi import EXPONENTIAL, Envelope
from .quadrature import CHUNK_BYTES
from .scale import ScalePair, simpson_weights

UNDERFLOW_TOL = 1e-8


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# one-dimensional measures for the line pushforward
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _WeightedPoints:
    """Finitely many points ``v`` with complex weights ``c``, set once by
    the subclass at construction."""

    v: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)

    def _set_points(self, v: np.ndarray, c: np.ndarray) -> None:
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", c)

    def hat(self, u: np.ndarray) -> np.ndarray:
        """Transform at u, in row chunks of at most CHUNK_BYTES per temporary."""
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        out = np.empty(flat.size, dtype=complex)
        step = max(1, CHUNK_BYTES // max(16 * self.v.size, 1))
        for i in range(0, flat.size, step):
            chunk = flat[i:i + step]
            out[i:i + step] = np.exp(1j * np.multiply.outer(chunk, self.v)) @ self.c
        return out.reshape(u.shape)

    def total_mass(self) -> float:
        return float(np.sum(np.abs(self.c)))

    def exp_moment(self, mu: float) -> float:
        """Integral of exp(mu |v|) against |eta|; inf when it overflows."""
        with np.errstate(over="ignore"):
            return float(np.dot(np.abs(self.c), np.exp(mu * np.abs(self.v))))


@dataclass(frozen=True)
class EtaAtoms(_WeightedPoints):
    """Finitely many weighted points on the line."""

    atoms: tuple[tuple[float, complex], ...]

    def __post_init__(self):
        self._set_points(np.array([v for v, _ in self.atoms], dtype=float),
                         np.array([c for _, c in self.atoms], dtype=complex))

    def describe(self) -> dict:
        return {"kind": "atoms",
                "atoms": [[v, c.real, c.imag] for v, c in self.atoms]}


@dataclass(frozen=True)
class EtaGaussian:
    """scale * N(mean, var) with var > 0; its transform is an explicit gaussian."""

    mean: float
    var: float
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.var <= 0:
            raise BadConfig("gaussian line measure needs var > 0")

    def hat(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.scale * np.exp(-0.5 * self.var * u * u + 1j * self.mean * u)

    def total_mass(self) -> float:
        return abs(self.scale)

    def exp_moment(self, mu: float) -> float:
        """Integral of exp(mu |v|) against |eta|, in closed form."""
        m, s = self.mean, math.sqrt(self.var)
        up = math.exp(mu * m + 0.5 * mu * mu * s * s) * _phi((m + mu * s * s) / s)
        dn = math.exp(-mu * m + 0.5 * mu * mu * s * s) * _phi((mu * s * s - m) / s)
        return abs(self.scale) * (up + dn)

    def describe(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "var": self.var,
                "scale": [self.scale.real, self.scale.imag]}


@dataclass(frozen=True)
class EtaDensity(_WeightedPoints):
    """Complex density on [-radius, radius], with an optional decay envelope.

    The density is held as its composite Simpson nodes over ``n_panels``
    (even) panels, weighted by w * rho.  When an envelope is given, it
    certifies the tail beyond the radius; a tail heavier than the
    truncation tolerance raises MeasureUnderflow.
    """

    fn: Callable
    radius: float
    envelope: Envelope | None = None
    n_panels: int = 2048

    def __post_init__(self):
        if self.radius <= 0:
            raise BadConfig("density radius must be positive")
        if self.n_panels <= 0 or self.n_panels % 2:
            raise BadConfig(f"density panel count must be even and positive, "
                            f"got {self.n_panels}")
        v = np.linspace(-self.radius, self.radius, self.n_panels + 1)
        w = simpson_weights(self.n_panels, 2.0 * self.radius)
        self._set_points(v, w * np.asarray(self.fn(v), dtype=complex))
        if self.envelope is not None:
            tail = self.envelope.tail_mass(self.radius)
            if tail > UNDERFLOW_TOL * max(self.total_mass(), 1e-300):
                raise MeasureUnderflow(
                    f"density tail beyond radius {self.radius:g} holds mass "
                    f"{tail:.3g}, above tolerance")

    def exp_moment(self, mu: float) -> float:
        """Integral of exp(mu |v|) against |eta|; inf when the envelope loses."""
        env = self.envelope
        if env is not None and env.kind == EXPONENTIAL and mu >= env.rate:
            return math.inf
        return super().exp_moment(mu)

    def describe(self) -> dict:
        return {"kind": "density", "radius": self.radius}


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

    def describe(self) -> dict:
        return {"variant": "atoms",
                "atoms": [{"weight": [c.real, c.imag],
                           "direction": w.label or "custom",
                           "norm": w.norm}
                          for c, w in self.atoms]}


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

    def describe(self) -> dict:
        return {"variant": "line", "direction": self.w0.label or "custom",
                "direction_norm": self.w0.norm, "eta": self.eta.describe()}


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

    def describe(self) -> dict:
        d = self.measure.describe()
        d["label"] = self.label
        return d


@dataclass(frozen=True)
class Kq0Result:
    """Exponential-moment integral of a measure; member means it is finite."""

    value: float
    member: bool


def eval_from_projections(F: FresnelFunctional, proj: np.ndarray) -> np.ndarray:
    """Evaluate on a batch given pairings with F.directions(), shape (n, n_dirs)."""
    m = F.measure
    if isinstance(m, AtomicMeasure):
        wts = np.array([c for c, _ in m.atoms], dtype=complex)
        return np.exp(1j * proj) @ wts
    return m.eta.hat(proj[:, 0])


def kq0_integral(F: FresnelFunctional, q0: float) -> Kq0Result:
    """Integral of the exponential moment weight against |f|.

    Finiteness is the membership criterion for the admissible functional
    class at threshold q0; divergence is reported as (inf, False), never
    raised.
    """
    if q0 <= 0:
        raise ArgOutOfRange(f"threshold q0 must be positive, got {q0}")
    m = F.measure
    norm_a = a_element(m.sp).norm
    inv = 1.0 / math.sqrt(2.0 * q0)
    if isinstance(m, AtomicMeasure):
        val = float(sum(abs(c) * math.exp(inv * w.norm * norm_a)
                        for c, w in m.atoms))
        return Kq0Result(value=val, member=math.isfinite(val))
    mu = inv * m.w0.norm * norm_a
    val = m.eta.exp_moment(mu)
    return Kq0Result(value=val, member=math.isfinite(val))


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
    F2: F1 with a gaussian eta (needs mean and var > 0).
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
        if var <= 0:
            raise BadConfig("F2 needs var > 0; the degenerate limit is excluded")
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
