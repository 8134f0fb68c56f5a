"""Drift/variance scale pair and its quadrature grid.

A scale pair consists of an absolutely continuous drift ``a`` with
``a(0) = 0`` and a strictly increasing variance function ``b`` with
``b(0) = 0``.  Both are supplied as closures together with their
derivatives.  Construction checks these conditions and a finite drift
energy and variation on the grid, and raises the typed error of the
first that fails, so a pair that exists is valid.  Every one-dimensional
time integral in the package is a dot product with the pair's composite
Simpson weights on one uniform grid (against dt, db = b' dt or
|da| = |a'| dt), so all inner products downstream share a single,
positive-weight discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (InfiniteDrift, NonPositiveVariance, NonzeroOrigin,
                     OpfeynError, OutOfDomain)

ORIGIN_TOL = 1e-12


def simpson_weights(n_panels: int, width: float) -> np.ndarray:
    """Composite Simpson weights on ``n_panels`` uniform panels.

    ``n_panels`` must be even and positive; the returned vector has
    ``n_panels + 1`` strictly positive entries summing to ``width``.
    """
    if n_panels < 2 or n_panels % 2:
        raise ValueError("composite Simpson needs an even, positive panel count")
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (width / n_panels / 3.0)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    value: float
    message: str
    error: type[OpfeynError]


@dataclass(frozen=True)
class ScalePair:
    """Drift ``a`` and variance ``b`` on [0, T], with derivative closures.

    ``grid_n`` fixes the (even) panel count of the uniform quadrature grid
    used for every integral against this pair.  Construction raises the
    error class of the first failed check of ``validation_report()``.
    """

    T: float
    a: Callable[[np.ndarray], np.ndarray]
    a_prime: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    b_prime: Callable[[np.ndarray], np.ndarray]
    grid_n: int = 1024
    name: str = ""

    def __post_init__(self):
        if self.T <= 0:
            raise OutOfDomain(f"horizon T must be positive, got {self.T}")
        if self.grid_n < 2 or self.grid_n % 2:
            raise ValueError("grid_n must be even and at least 2")
        for check in self.validation_report():
            if not check.passed:
                raise check.error(f"{check.name} fails ({check.value:.6g}): "
                                  f"{check.message}")

    # -- cached node data ---------------------------------------------------

    @cached_property
    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.grid_n + 1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Simpson weights for integrals over the full interval [0, T]."""
        return simpson_weights(self.grid_n, self.T)

    @cached_property
    def bprime_nodes(self) -> np.ndarray:
        return eval_on(self.b_prime, self.t_nodes)

    @cached_property
    def aprime_nodes(self) -> np.ndarray:
        return eval_on(self.a_prime, self.t_nodes)

    @cached_property
    def var_a(self) -> float:
        """Total variation of the drift over [0, T]."""
        return float(np.dot(self.weights, np.abs(self.aprime_nodes)))

    @cached_property
    def norm_a(self) -> float:
        """Norm of the drift as a direction: the root of the integral of (a'/b')^2 db."""
        ap = self.aprime_nodes
        return math.sqrt(float(np.dot(self.weights, ap * ap / self.bprime_nodes)))

    # -- validation ----------------------------------------------------------

    def validation_report(self) -> tuple[ConditionCheck, ...]:
        """The pair's conditions on its grid, each with its value."""
        a0 = float(np.asarray(self.a(np.array([0.0])))[0])
        b0 = float(np.asarray(self.b(np.array([0.0])))[0])
        bp_min = float(self.bprime_nodes.min())
        # drift energy: integral of |a'|^2 against d|a|; inf when it overflows
        with np.errstate(over="ignore"):
            energy = float(np.dot(self.weights, np.abs(self.aprime_nodes) ** 3))
        return (
            ConditionCheck(
                "origin_a", abs(a0) <= ORIGIN_TOL, a0,
                f"|a(0)| = {abs(a0):.3g} (tol {ORIGIN_TOL:g})", NonzeroOrigin),
            ConditionCheck(
                "origin_b", abs(b0) <= ORIGIN_TOL, b0,
                f"|b(0)| = {abs(b0):.3g} (tol {ORIGIN_TOL:g})", NonzeroOrigin),
            ConditionCheck(
                "variance_increasing", bp_min > 0.0, bp_min,
                f"min b'(t) on grid = {bp_min:.3g}", NonPositiveVariance),
            ConditionCheck(
                "drift_energy_finite", np.isfinite(energy), energy,
                "integral of |a'|^2 d|a| over [0, T]", InfiniteDrift),
            ConditionCheck(
                "drift_variation_finite", np.isfinite(self.var_a), self.var_a,
                "total variation of a over [0, T]", InfiniteDrift),
        )


def eval_on(fn, t: np.ndarray) -> np.ndarray:
    """fn at the nodes t as a float array; a constant result is broadcast."""
    out = np.asarray(fn(t), dtype=float)
    if out.ndim == 0:
        out = np.full(t.shape, float(out))
    return out


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def wiener_pair(T: float = 1.0, grid_n: int = 1024) -> ScalePair:
    """Driftless unit-rate pair: a = 0, b(t) = t."""
    return ScalePair(
        T=T,
        a=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        a_prime=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        b=lambda t: np.asarray(t, dtype=float),
        b_prime=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        grid_n=grid_n,
        name=f"wiener(T={T:g})",
    )


def drifted_pair(alpha: float, beta: float, T: float = 1.0,
                 grid_n: int = 1024) -> ScalePair:
    """Linear drift with quadratic variance: a = alpha t, b = t + beta t^2.

    b increases on [0, T] exactly when beta > -1/(2T).
    """
    return ScalePair(
        T=T,
        a=lambda t: alpha * np.asarray(t, dtype=float),
        a_prime=lambda t: np.full_like(np.asarray(t, dtype=float), alpha),
        b=lambda t: np.asarray(t, dtype=float) * (1.0 + beta * np.asarray(t, dtype=float)),
        b_prime=lambda t: 1.0 + 2.0 * beta * np.asarray(t, dtype=float),
        grid_n=grid_n,
        name=f"drifted(alpha={alpha:g}, beta={beta:g}, T={T:g})",
    )


def preset_scale(preset: str, *, alpha: float | None = None,
                 beta: float | None = None, T: float = 1.0,
                 grid_n: int = 1024) -> ScalePair:
    """Build a scale pair from a preset name."""
    if preset == "wiener":
        if alpha is not None or beta is not None:
            raise ValueError("wiener preset takes no alpha/beta")
        return wiener_pair(T=T, grid_n=grid_n)
    if preset == "drifted":
        if alpha is None or beta is None:
            raise ValueError("drifted preset needs alpha and beta")
        return drifted_pair(alpha, beta, T=T, grid_n=grid_n)
    raise ValueError(f"unknown scale preset {preset!r}")
