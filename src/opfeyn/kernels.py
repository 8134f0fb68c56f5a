"""Closed-form kernel factors of the analytic operator-valued transform.

The transform with parameter lambda (nonzero, nonnegative real part)
factors into a Gaussian normalizer M, an oscillatory direction factor
V*L whose quadratic terms cancel, a drift-shifted Gaussian H in the
state variable, and a residual drift phase A per direction.  Everything
here works in log space so magnitude bounds can be compared without
overflow; vectorized helpers operate on arrays of directions.  The
parameter domain -- lambda, the region threshold q0, the weight
exponent delta and the points xi -- is decided here and nowhere else.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgOutOfRange, ZeroLambda, ZeroDirection
from .hilbert import CambElement, inner, pair_with_a

TWO_PI = 2.0 * math.pi
# a direction w is parallel to the base direction h when the squared
# norm of its orthogonal component is below this share of max(||w||^2, 1)
PARALLEL_TOL_SQ = 1e-13


@dataclass(frozen=True)
class LambdaParam:
    """Kernel parameter with cached principal root and inverse root."""

    value: complex
    sqrt: complex
    inv_sqrt: complex

    @classmethod
    def from_value(cls, value: complex) -> "LambdaParam":
        value = complex(value)
        if value == 0:
            raise ZeroLambda("kernel parameter must be nonzero")
        if not cmath.isfinite(value) or value.real < 0.0:
            raise ArgOutOfRange(f"kernel parameter must be finite with "
                                f"nonnegative real part, got {value}")
        # the principal root, Re >= 0; its cut on the negative axis lies
        # outside the closed right half plane checked above
        s = cmath.sqrt(value)
        return cls(value=value, sqrt=s, inv_sqrt=1.0 / s)

    @classmethod
    def from_q(cls, q: float) -> "LambdaParam":
        """Boundary parameter -iq for real nonzero q."""
        if q == 0:
            raise ZeroLambda("boundary parameter needs q != 0")
        return cls.from_value(complex(0.0, -q))

    @property
    def is_interior(self) -> bool:
        return self.value.real > 0.0

    def in_gamma(self, q0: float) -> bool:
        """Membership in the admissible region for threshold q0: the
        interior |Im lam^{-1/2}| < (2 q0)^{-1/2}, or the boundary -iq with
        |q| > q0."""
        require_threshold(q0)
        if self.is_interior:
            return abs(self.inv_sqrt.imag) < 1.0 / math.sqrt(2.0 * q0)
        return abs(self.value.imag) > q0


def require_threshold(q0: float) -> None:
    """The admissible region's threshold needs 0 < q0 < inf."""
    if not 0.0 < q0 < math.inf:
        raise ArgOutOfRange(f"threshold q0 must be positive and finite, got {q0}")


def gamma_margin(lam: np.ndarray, q0: float) -> np.ndarray:
    """|Im lam^{-1/2}| - (2 q0)^{-1/2} per parameter: negative exactly on
    the interior of the admissible region for threshold q0."""
    require_threshold(q0)
    inv_rt = 1.0 / np.sqrt(np.asarray(lam, dtype=complex))
    return np.abs(inv_rt.imag) - 1.0 / math.sqrt(2.0 * q0)


def require_delta(delta: float) -> None:
    """The weight exponent of exp(delta Var(a) v^2) needs 0 <= delta < inf."""
    if not 0.0 <= delta < math.inf:
        raise ArgOutOfRange(f"delta must be nonnegative and finite, got {delta}")


def evaluation_points(xi_grid) -> np.ndarray:
    """The evaluation points xi as a float array; each must be finite."""
    xi = np.asarray(xi_grid, dtype=float)
    bad = xi[~np.isfinite(xi)]
    if bad.size:
        raise ArgOutOfRange(f"evaluation points must be finite, got {bad[0]}")
    return xi


@dataclass(frozen=True)
class KernelContext:
    """Per-(scale pair, base direction) data shared by all kernel factors."""

    h: CambElement
    norm_h_sq: float
    pair_ha: float

    @classmethod
    def from_direction(cls, h: CambElement) -> "KernelContext":
        n2 = h.norm_sq
        if n2 <= 0.0:
            raise ZeroDirection("kernel base direction must have positive norm")
        return cls(h=h, norm_h_sq=n2, pair_ha=pair_with_a(h))


@dataclass(frozen=True)
class DirectionStats:
    """Scalars of a spectral direction w relative to the base direction h.

    ``a_resid`` is the drift pairing of the component of w orthogonal to
    h; it vanishes identically when w is parallel to h.
    """

    c_hw: float
    norm_sq: float
    a_resid: float

    @classmethod
    def from_elements(cls, ctx: KernelContext, w: CambElement) -> "DirectionStats":
        c = inner(ctx.h, w)
        w2 = w.norm_sq
        proj = c / math.sqrt(ctx.norm_h_sq)
        beta_sq = w2 - proj * proj
        # the difference w2 - proj^2 carries cancellation noise of order
        # eps * w2, so parallelism must be decided on the squared scale
        if beta_sq < PARALLEL_TOL_SQ * max(w2, 1.0):
            return cls(c_hw=c, norm_sq=w2, a_resid=0.0)
        return cls(c_hw=c, norm_sq=w2,
                   a_resid=pair_with_a(w) - (c / ctx.norm_h_sq) * ctx.pair_ha)


# ---------------------------------------------------------------------------
# scalar kernel factors
# ---------------------------------------------------------------------------

def kernel_M(lam: LambdaParam, ctx: KernelContext) -> complex:
    """Gaussian normalizer sqrt(lambda / (2 pi ||h||^2))."""
    return cmath.sqrt(lam.value / (TWO_PI * ctx.norm_h_sq))


# ---------------------------------------------------------------------------
# vectorized log-space helpers (arrays of directions / parameters)
# ---------------------------------------------------------------------------

def vl_abs_log(lam: np.ndarray, c: np.ndarray, n2, w2: np.ndarray) -> np.ndarray:
    """log |V*L|: independent of the state variable, always <= 0."""
    lam = np.asarray(lam, dtype=complex)
    num = np.asarray(c) ** 2 - np.asarray(n2) * np.asarray(w2)
    return num * lam.real / (2.0 * np.abs(lam) ** 2 * np.asarray(n2))


def h_abs_log(lam: np.ndarray, u: np.ndarray, p, n2) -> np.ndarray:
    """log |H| as a function of u = v - xi."""
    lam = np.asarray(lam, dtype=complex)
    root = np.sqrt(lam)
    u = np.asarray(u, dtype=float)
    return (-lam.real * u * u + 2.0 * root.real * u * np.asarray(p)
            - np.asarray(p) ** 2) / (2.0 * np.asarray(n2))


def h_abs_log_coeffs(lam: LambdaParam, xi: float, ctx: KernelContext):
    """Quadratic coefficients (q2, q1, q0) of log |H| in the state variable v."""
    n2 = ctx.norm_h_sq
    p = ctx.pair_ha
    re_l = lam.value.real
    re_rt = lam.sqrt.real
    q2 = -re_l / (2.0 * n2)
    q1 = (re_l * xi + re_rt * p) / n2
    q0 = (-re_l * xi * xi - 2.0 * re_rt * xi * p - p * p) / (2.0 * n2)
    return q2, q1, q0


def s_log(lam: np.ndarray, p, n2) -> np.ndarray:
    """log of the interior magnitude bound; needs Re(lam) > 0."""
    lam = np.asarray(lam, dtype=complex)
    sec = np.abs(lam) / lam.real
    return (sec + 1.0) * np.asarray(p) ** 2 / (4.0 * np.asarray(n2))


def a_abs_log(lam: np.ndarray, a_resid: np.ndarray) -> np.ndarray:
    """log |A| for the residual drift phase."""
    lam = np.asarray(lam, dtype=complex)
    inv_sqrt = 1.0 / np.sqrt(lam)
    return -inv_sqrt.imag * np.asarray(a_resid)


def k_log(q0: float, norm_w: np.ndarray, norm_a) -> np.ndarray:
    """log of the exponential moment weight."""
    return np.asarray(norm_w) * np.asarray(norm_a) / math.sqrt(2.0 * q0)


def vl_coeffs(lam: LambdaParam, c, w2, ctx: KernelContext):
    """Coefficients (lin, const) of log(V*L) = lin * u + const per direction.

    The quadratic terms of V and L cancel analytically, leaving the phase
    lin = i (h,w) / ||h||^2 and const = ((h,w)^2 - ||h||^2 ||w||^2) /
    (2 lam ||h||^2), whose real part is <= 0 by Cauchy-Schwarz.
    """
    n2 = ctx.norm_h_sq
    c = np.asarray(c, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    return 1j * (c / n2), (c * c - n2 * w2) / (2.0 * lam.value * n2)


def kernel_exponent(lam_value, lam_sqrt, quad, xi, centre, ctx: KernelContext):
    """The kernel exponent of a family of members about their centres, as a
    function of the nodes v and the rows' (lin, const), with every
    per-member constant computed once.

    Member m has parameter lam_m, point xi_m and centre v0_m.  lam (its
    value and principal root) and the u^2 coefficient ``quad`` are one
    value, or per-parameter columns that broadcast against the columns
    ``xi`` and ``centre``.  The returned function builds lin[r] u +
    const[r] + quad u^2 + log H(u), u = v - xi, less i Im log H(v0 - xi),
    the phase of log H at the centre, which the caller multiplies back in
    (``vlh_exponent`` is the build with quad 0 about the points), for
    every member at once, shape lin.shape + (the members' shape) +
    v.shape; a row's lin and const are one number or one per parameter.
    The terms in u^2 are summed in powers of v - v0, so the phase left
    out, which grows like |lam| (v0 - xi)^2, is not rounded into every
    node.  With u0 = v0 - xi, the members' u^2 terms are
    (a (u + u0) + b) (v - v0) + c, a = quad - lam / (2 ||h||^2), b =
    sqrt(lam) (h,a) / ||h||^2 and c = quad u0^2 + Re log H(u0).
    """
    k = 0.5 / ctx.norm_h_sq
    u0 = centre - xi
    c0 = lam_sqrt * u0 - ctx.pair_ha
    a = quad - k * lam_value
    b = 2.0 * k * lam_sqrt * ctx.pair_ha
    c = quad * u0 * u0 - k * (c0 * c0).real

    def exponent(v: np.ndarray, lin: np.ndarray, const: np.ndarray) -> np.ndarray:
        u = np.subtract(v, xi, dtype=float)
        lin, const = np.atleast_1d(lin), np.atleast_1d(const)
        out = np.multiply.outer(lin, u, dtype=complex)
        out += const.reshape(const.shape + (1,) * (out.ndim - const.ndim))
        out += (a * (u + u0) + b) * np.subtract(v, centre, dtype=float) + c
        return out
    return exponent


def vlh_exponent(lam: LambdaParam, xi: float | np.ndarray, v: np.ndarray,
                 lin: np.ndarray, const: np.ndarray, ctx: KernelContext) -> np.ndarray:
    """Kernel exponent lin[r] u + const[r] + log H(u), u = v - xi.

    One row r per spectral row, shape (len(lin), len(v)), or (len(lin),
    n, len(v)) for a column ``xi`` of n points.  ``lin`` and ``const`` are
    ``vl_coeffs`` for a direction.  It is one ``kernel_exponent`` build
    about the points themselves, where log H(0) is real, so no phase is
    left out.
    """
    return kernel_exponent(lam.value, lam.sqrt, 0.0, xi, xi, ctx)(v, lin, const)
