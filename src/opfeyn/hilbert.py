"""Reproducing-kernel directions w(t) = integral of z db and their geometry.

Elements are stored through their densities z = Dw; the inner product is
the L^2(db) pairing of densities, and the drift pairing integrates the
density against da.  Densities are closures; their primitives are
accumulated with fourth-order panel Simpson on the scale pair's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MismatchedScalePair, ZeroDirection
from .scale import ScalePair, eval_on


@dataclass(frozen=True)
class CambElement:
    """A direction in the reproducing-kernel space over a scale pair.

    ``z_nodes``/``w_nodes`` hold the density and its running integral
    against db on the scale grid.  ``z_fn`` is the density closure;
    ``primitive`` optionally gives the running integral off the grid.
    """

    sp: ScalePair
    z_nodes: np.ndarray
    w_nodes: np.ndarray
    norm_sq: float
    z_fn: Callable
    primitive: Callable | None = None
    label: str = ""

    # -- evaluation -----------------------------------------------------------

    def density(self, t) -> np.ndarray:
        """Evaluate z = Dw at the given times."""
        return eval_on(self.z_fn, np.asarray(t, dtype=float))

    def value(self, t) -> np.ndarray:
        """Evaluate w(t), the running integral of the density against db."""
        t = np.asarray(t, dtype=float)
        if self.primitive is not None:
            return eval_on(self.primitive, t)
        return np.interp(t, self.sp.t_nodes, self.w_nodes)

    @property
    def norm(self) -> float:
        return math.sqrt(max(self.norm_sq, 0.0))

    def scaled(self, c: float) -> "CambElement":
        z_fn = lambda t, _f=self.z_fn: c * np.asarray(_f(t))
        prim = None if self.primitive is None else (lambda t, _f=self.primitive: c * np.asarray(_f(t)))
        return CambElement(
            sp=self.sp,
            z_nodes=c * self.z_nodes,
            w_nodes=c * self.w_nodes,
            norm_sq=c * c * self.norm_sq,
            z_fn=z_fn,
            primitive=prim,
            label=f"{c:g}*{self.label}" if self.label else "",
        )

    def unit(self) -> "CambElement":
        n = self.norm
        if n <= 0.0:
            raise ZeroDirection("cannot normalize a zero direction")
        out = self.scaled(1.0 / n)
        object.__setattr__(out, "norm_sq", 1.0)
        return out


def _require_same_sp(w1: CambElement, w2: CambElement) -> None:
    if w1.sp is not w2.sp:
        raise MismatchedScalePair("elements live over different scale pairs")


def _nodes_norm_sq(sp: ScalePair, z_nodes: np.ndarray) -> float:
    return float(np.dot(sp.weights, z_nodes * z_nodes * sp.bprime_nodes))


def _primitive_nodes(sp: ScalePair, z_fn: Callable,
                     z_nodes: np.ndarray) -> np.ndarray:
    t = sp.t_nodes
    h = t[1] - t[0]
    mids = t[:-1] + 0.5 * h
    f_nodes = z_nodes * sp.bprime_nodes
    f_mid = eval_on(z_fn, mids) * np.asarray(sp.b_prime(mids), dtype=float)
    panel = (h / 6.0) * (f_nodes[:-1] + 4.0 * f_mid + f_nodes[1:])
    w = np.empty(t.shape)
    w[0] = 0.0
    np.cumsum(panel, out=w[1:])
    return w


def from_density(sp: ScalePair, z: Callable, primitive: Callable | None = None,
                 label: str = "") -> CambElement:
    """Build an element from a density closure."""
    if not callable(z):
        raise ValueError(f"a density must be callable, got {type(z).__name__}")
    z_nodes = eval_on(z, sp.t_nodes)
    return CambElement(
        sp=sp,
        z_nodes=z_nodes,
        w_nodes=_primitive_nodes(sp, z, z_nodes),
        norm_sq=_nodes_norm_sq(sp, z_nodes),
        z_fn=z,
        primitive=primitive,
        label=label,
    )


def combine(w1: CambElement, w2: CambElement, c1: float = 1.0,
            c2: float = 1.0, label: str = "") -> CambElement:
    """Linear combination c1*w1 + c2*w2."""
    _require_same_sp(w1, w2)
    z_fn = lambda t, f1=w1.z_fn, f2=w2.z_fn: c1 * np.asarray(f1(t)) + c2 * np.asarray(f2(t))
    prim = None
    if w1.primitive is not None and w2.primitive is not None:
        prim = lambda t, f1=w1.primitive, f2=w2.primitive: c1 * np.asarray(f1(t)) + c2 * np.asarray(f2(t))
    z_nodes = c1 * w1.z_nodes + c2 * w2.z_nodes
    return CambElement(
        sp=w1.sp,
        z_nodes=z_nodes,
        w_nodes=c1 * w1.w_nodes + c2 * w2.w_nodes,
        norm_sq=_nodes_norm_sq(w1.sp, z_nodes),
        z_fn=z_fn,
        primitive=prim,
        label=label,
    )


def inner(w1: CambElement, w2: CambElement) -> float:
    """Inner product of two elements: the L^2(db) pairing of densities."""
    _require_same_sp(w1, w2)
    sp = w1.sp
    return float(np.dot(sp.weights, w1.z_nodes * w2.z_nodes * sp.bprime_nodes))


def pair_with_a(w: CambElement) -> float:
    """Pairing of an element with the drift: integral of z against da."""
    sp = w.sp
    return float(np.dot(sp.weights, w.z_nodes * sp.aprime_nodes))


def s_star(w: CambElement) -> CambElement:
    """Adjoint-shift of an element: density t -> w(T) - w(t).

    Its pairing with a path x recovers the time integral of x against db.
    """
    w_T = float(w.value(np.array([w.sp.T]))[0])
    z_new = lambda t: w_T - w.value(t)
    return from_density(w.sp, z_new, label=f"sstar({w.label})" if w.label else "sstar")


# ---------------------------------------------------------------------------
# preset directions
# ---------------------------------------------------------------------------

def b_element(sp: ScalePair) -> CambElement:
    """The variance function itself as a direction (unit density)."""
    return from_density(sp, lambda t: np.ones_like(np.asarray(t, dtype=float)),
                        primitive=sp.b, label="b")


def a_element(sp: ScalePair) -> CambElement:
    """The drift as a direction (density a'/b'); requires the drift energy."""
    z = lambda t: np.asarray(sp.a_prime(t), dtype=float) / np.asarray(sp.b_prime(t), dtype=float)
    return from_density(sp, z, primitive=sp.a, label="a")


def a_unit_element(sp: ScalePair) -> CambElement:
    """The normalized drift direction a/||a||."""
    return a_element(sp).unit()


def monomial_element(sp: ScalePair, degree: int) -> CambElement:
    """Direction with density t^degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return from_density(sp, lambda t: np.asarray(t, dtype=float) ** degree,
                        label=f"monomial{degree}")


def zero_element(sp: ScalePair) -> CambElement:
    """The zero direction."""
    return from_density(sp, lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                        primitive=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                        label="0")


def preset_direction(sp: ScalePair, preset: str, degree: int | None = None) -> CambElement:
    """Build a preset direction by name."""
    if preset == "b":
        return b_element(sp)
    if preset == "a_unit":
        return a_unit_element(sp)
    if preset == "sstar_b":
        return s_star(b_element(sp))
    if preset == "sstar_b_unit":
        return s_star(b_element(sp)).unit()
    if preset == "monomial":
        if degree is None:
            raise ValueError("monomial preset needs a degree")
        return monomial_element(sp, degree)
    if preset == "zero":
        return zero_element(sp)
    raise ValueError(f"unknown direction preset {preset!r}")
