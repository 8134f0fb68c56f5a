"""State functions on the real line with explicit decay envelopes.

Every state function carries a certified envelope |psi(v)| <= env(v) of
gaussian, exponential, or compact-support shape.  The envelope is held
as a ``LogBound``, which drives integration-domain truncation and
decides integrability against the gaussian-weighted norms used by the
operator bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .kernels import require_delta
from .quadrature import LogBound

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
COMPACT = "compact"


@dataclass(frozen=True)
class Envelope:
    """Pointwise bound C*exp(-rate*v^2), C*exp(-rate*|v|), or C on [-radius, radius].

    C, the rate of a decay envelope and the radius of a compact one must be
    positive and finite, else ValueError.
    """

    kind: str
    scale: float
    rate: float = 0.0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, EXPONENTIAL, COMPACT):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"envelope scale must be positive and finite, got {self.scale}")
        if self.kind in (GAUSSIAN, EXPONENTIAL) and not 0.0 < self.rate < math.inf:
            raise ValueError(f"decay envelopes need a positive finite rate, got {self.rate}")
        if self.kind == COMPACT and not 0.0 < self.radius < math.inf:
            raise ValueError(f"compact envelope needs a positive finite radius, got {self.radius}")

    @cached_property
    def log_bound(self) -> LogBound:
        """The envelope as a bound on log|psi|: log C - rate v^2, log C -
        rate |v|, or log C on the support [-radius, radius]."""
        log_c = math.log(self.scale)
        if self.kind == GAUSSIAN:
            q = (-self.rate, 0.0, log_c)
            return LogBound(left=q, right=q)
        if self.kind == EXPONENTIAL:
            return LogBound(left=(0.0, self.rate, log_c),
                            right=(0.0, -self.rate, log_c))
        q = (0.0, 0.0, log_c)
        return LogBound(left=q, right=q, support=(-self.radius, self.radius))


def _exp(x: float) -> float:
    """e^x, or inf where a float cannot hold it, which ``Envelope`` refuses."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PsiFn:
    """A state function together with its certified envelope."""

    fn: Callable
    envelope: Envelope
    label: str = ""

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = np.asarray(self.fn(v), dtype=complex)
        if out.ndim == 0:
            out = np.full(v.shape, complex(out))
        return out

    def delta_admissible(self, delta: float, var_a: float) -> bool:
        """Integrability of |psi| against the weight exp(delta*var_a*v^2)."""
        require_delta(delta)
        return self.envelope.log_bound.plus((delta * var_a, 0.0, 0.0)).integrable

    def sup_probe(self, lo: float = -50.0, hi: float = 50.0, n: int = 20001) -> float:
        """Grid estimate of the sup norm (exact enough for smooth presets)."""
        v = np.linspace(lo, hi, n)
        return float(np.max(np.abs(self(v))))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def gaussian_psi() -> PsiFn:
    """Standard gaussian density (2 pi)^{-1/2} exp(-v^2 / 2)."""
    c = 1.0 / math.sqrt(2.0 * math.pi)
    return PsiFn(
        fn=lambda v: c * np.exp(-0.5 * np.asarray(v, dtype=float) ** 2),
        envelope=Envelope(GAUSSIAN, scale=c, rate=0.5),
        label="gaussian",
    )


def shifted_gaussian_psi(amp: complex, mean: float, sigma: float,
                         label: str = "shifted_gaussian") -> PsiFn:
    """amp * exp(-(v-mean)^2 / (2 sigma^2)) with an exact gaussian envelope.

    The envelope rate 1/(4 sigma^2) and scale |amp| exp(mean^2/(2 sigma^2))
    dominate pointwise for every shift.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    amp = complex(amp)
    scale = abs(amp) * _exp(mean * mean / (2.0 * sigma * sigma))
    return PsiFn(
        fn=lambda v: amp * np.exp(-(np.asarray(v, dtype=float) - mean) ** 2
                                  / (2.0 * sigma * sigma)),
        envelope=Envelope(GAUSSIAN, scale=scale, rate=1.0 / (4.0 * sigma * sigma)),
        label=label,
    )


def bump_psi(radius: float, amp: float = 1.0) -> PsiFn:
    """Smooth compactly supported bump of height amp on [-radius, radius]."""
    def fn(v):
        v = np.asarray(v, dtype=float)
        s = v / radius
        inside = np.abs(s) < 1.0
        out = np.zeros(v.shape)
        ss = np.where(inside, s * s, 0.0)
        with np.errstate(divide="ignore"):
            out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - ss[inside]))
        return out

    return PsiFn(fn=fn, envelope=Envelope(COMPACT, scale=amp, radius=radius),
                 label=f"bump(r={radius:g})")


def divergence_witness_psi(pair_ha: float) -> PsiFn:
    """Integrable, bounded state function whose transform diverges at -i.

    For p = (h,a) > 0 the product of this function with the boundary
    kernel factor H at the origin grows like v exp(sqrt(2) p v / 4), so
    the transform's defining integral is infinite even though the
    function itself is both integrable and bounded.  Its envelope scale,
    about e^{p^2/2}, overflows a float past p = 37.658, and ``Envelope``
    refuses it.
    """
    if pair_ha <= 0:
        raise ValueError("the witness needs a positive drift pairing (h,a)")
    p = pair_ha
    c_quarter = math.sqrt(2.0) * p / 4.0

    def fn(v):
        v = np.asarray(v, dtype=float)
        pos = v > 0.0
        out = np.zeros(v.shape, dtype=complex)
        vv = v[pos]
        exponent = (1j * 0.5 * vv * vv
                    - 1j * math.sqrt(2.0) * p * vv / 2.0
                    + p * p / 2.0
                    - c_quarter * vv)
        out[pos] = vv * np.exp(exponent)
        return out

    # |psi(v)| = v exp(p^2/2 - c v) on v >= 0; halving the decay rate
    # absorbs the linear factor: sup v exp(-c v / 2) = 2/(c e)
    rate = c_quarter / 2.0
    scale = _exp(p * p / 2.0) * 2.0 / (c_quarter * math.e)
    return PsiFn(fn=fn,
                 envelope=Envelope(EXPONENTIAL, scale=scale, rate=rate),
                 label="divergence_witness")
