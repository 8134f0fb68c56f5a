"""Operator evaluation: Monte Carlo route, closed-form kernel route, bounds.

The analytic operator acts on a state function by averaging it along
scaled paths against a shift-invariant functional.  For real positive
parameters the average is estimated by Monte Carlo over sampled paths;
for complex parameters in the admissible region (and on its imaginary
boundary) the closed-form kernel is integrated by adaptive quadrature
with envelope-certified truncation.  The two routes agree where they
overlap, which is the package's central cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadConfig, KernelOverflow, MismatchedScalePair,
                     NonPositiveLambda, NotAdmissible, NotInFq0,
                     PsiNotIntegrable, QuadratureError, SequenceLeavesRegion,
                     UnsupportedVariant)
from .fresnel import (FresnelFunctional, eval_from_projections,
                      grid_fourier_sum, join, kq0_integral, probe_grid,
                      unit_functional)
from .hilbert import CambElement, a_unit_element, b_element, pair_with_a
from .kernels import (DirectionStats, KernelContext, LambdaParam, a_abs_log,
                      evaluation_points, gamma_margin, h_abs_log,
                      h_abs_log_coeffs, k_log, kernel_exponent, kernel_M,
                      require_delta, require_threshold, s_log, vl_abs_log,
                      vl_coeffs, vlh_exponent)
from .psi import PsiFn, divergence_witness_psi, gaussian_psi
from .quadrature import (EXP_CAP, LogBound, QuadResult, adaptive_simpson,
                         curvature_breakpoints, panels_per_call,
                         phase_breakpoints)
from .sampler import RngStream, left_densities, projection_law
# not called here; perfbench/spans.py wraps the sampler at this import site
from .sampler import sample_increments  # noqa: F401
from .scale import ScalePair

TRUNC_DROP = 40.0
TAIL_REL = 1e-10
XI_GROUP = 8          # evaluation points integrated as one quadrature family
MC_BATCH = 10000      # Monte Carlo paths drawn and reduced at a time


@dataclass(frozen=True)
class OperatorResult:
    """Operator values on an evaluation grid, with per-point standard errors
    when the route is stochastic.  On the kernel routes ``meta["quad_err"]``
    is a per-point error (the quadrature estimate plus the certified tail),
    ``meta["n_eval"]`` counts integrand nodes once per quadrature the
    result's kernel family made, ``meta["quad_rounds"]`` is the largest
    number of refinement rounds one took and ``meta["rows"]`` the number
    of kernel rows.  A family is one parameter's groups of points for
    ``k_lambda`` and ``j_q``, and the whole approach sequence with its
    target for ``convergence_study``, whose counts are then shared."""

    xi_grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None
    route: str
    meta: dict


@dataclass(frozen=True)
class GaussianIdentityResult:
    numeric: complex
    closed_form: complex

    @property
    def rel_err(self) -> float:
        scale = max(abs(self.closed_form), 1e-300)
        return abs(self.numeric - self.closed_form) / scale


@dataclass(frozen=True)
class DivergencePartial:
    """Partial transform value of the divergence witness up to radius R."""

    R: float
    value: float
    pair_ha: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """The approach sequence lam_n = 2^{-n} - iq to the boundary target.

    ``gaps[n - 1]`` is the largest |K(lam_n) - K(-iq)| over the points and
    ``target`` the boundary route's result at -iq.  The target and the
    sequence are integrated as one kernel family, so ``target.meta``'s
    ``n_eval`` and ``quad_rounds`` count the quadratures they all shared.
    """

    q: float
    lam_values: tuple[complex, ...]
    gaps: np.ndarray
    target: OperatorResult


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------

def _merge_moments(n_a: int, mean_a: np.ndarray, m2_a: np.ndarray,
                   n_b: int, mean_b: np.ndarray, m2_b: np.ndarray):
    """Merge (count, mean, sum of squared deviations) of two disjoint samples.

    Chan, Golub & LeVeque (1979).  Sums of |y - mean|^2 stay accurate when
    the mean is large against the spread, where the one-pass
    sum(|y|^2) - n |mean|^2 cancels catastrophically.
    """
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + (delta.real ** 2 + delta.imag ** 2) * (n_a * n_b / n)
    return n, mean, m2


def i_lambda_mc(F: FresnelFunctional, h: CambElement, psi: PsiFn,
                lam: float, xi_grid, n_paths: int, rng: RngStream, *,
                path_grid: int = 1024) -> OperatorResult:
    """Monte Carlo estimate of the operator for real lam > 0.

    The estimate averages F and psi over the left-point pairings of
    F.directions() and h with paths on a grid of ``path_grid`` steps.  The
    pairings are drawn from their exact joint Gaussian law
    (``projection_law``), so no path is built; the estimator and its
    discretisation bias are those of the path average.  The paths are
    drawn in batches of ``MC_BATCH``; batch b draws from
    ``rng.generator(batch=b)``, so the result is bit-identical for a fixed
    (seed, stream_id) and would change with ``MC_BATCH``.  Each batch is
    reduced by two-pass sums and the batches are merged in index order.
    Standard errors combine the real and imaginary component variances.
    """
    lam = complex(lam)
    if lam.imag != 0.0 or not lam.real > 0.0:
        raise NonPositiveLambda(
            f"Monte Carlo route needs real lam > 0, got {lam}")
    if n_paths < 1:
        raise BadConfig(f"Monte Carlo route needs n_paths >= 1, got {n_paths}")
    lam_r = lam.real
    if F.sp is not h.sp:
        raise MismatchedScalePair("functional and base direction share no scale pair")
    sp = h.sp
    inv_rt = 1.0 / math.sqrt(lam_r)
    xi = evaluation_points(xi_grid)
    t_grid = np.linspace(0.0, sp.T, path_grid + 1)
    mu, factor = projection_law(sp, left_densities(F.directions() + [h], t_grid))
    n = 0
    mean = np.zeros(xi.size, dtype=complex)
    m2 = np.zeros(xi.size)
    batch = 0
    while n < n_paths:
        nb = min(MC_BATCH, n_paths - n)
        g = rng.generator(batch=batch).standard_normal((nb, mu.size))
        proj = mu + g @ factor
        f_vals = eval_from_projections(F, inv_rt * proj[:, :-1])
        s = inv_rt * proj[:, -1]
        mean_b = np.empty(xi.size, dtype=complex)
        m2_b = np.empty(xi.size)
        for i in range(xi.size):
            y = f_vals * psi(s + xi[i])
            mean_b[i] = y.mean()
            d = y - mean_b[i]
            m2_b[i] = float(np.sum(d.real ** 2 + d.imag ** 2))
        n, mean, m2 = _merge_moments(n, mean, m2, nb, mean_b, m2_b)
        batch += 1
    stderr = np.sqrt(m2 / max(n - 1, 1) / n)
    return OperatorResult(
        xi_grid=xi, values=mean, stderr=stderr, route="mc",
        meta={"lambda": lam_r, "n_paths": n_paths, "path_grid": path_grid,
              "seed": rng.seed, "stream_id": rng.stream_id})


# ---------------------------------------------------------------------------
# truncation bookkeeping for the kernel route
# ---------------------------------------------------------------------------

def _integrate_with_tail_check(f, bounds: list[LogBound], phase_rate: float, centres,
                               *, rel_tol, abs_tol, amps, cuts=None, width=1):
    """Integrate a family on the union of its members' truncation cuts.

    Row j of f's output has truncation bound bounds[j], tail amplitude
    amps[j] and a quadratic phase of rate at most ``phase_rate`` centred
    at centres[j].  The first partition keeps every row's phase within a
    half period (``phase_breakpoints``) and splits the panels that leaves
    too wide for a row's curvature and phase (``curvature_breakpoints``);
    each row's tail is certified at the shared ends against its own
    tolerance, with one retry at a wider drop.  ``cuts`` are the bounds'
    (lo, hi) cuts at TRUNC_DROP when the caller has them; ``width`` goes
    to ``adaptive_simpson``.  The bookkeeping is per member in floats, so
    a one-member family pays little array work beyond the quadrature's.
    Returns the QuadResult with each row's tail bound added to its error.
    """
    centres = np.asarray(centres, dtype=float)
    curvature = [b.curvature for b in bounds]
    for drop in (TRUNC_DROP, TRUNC_DROP + math.log(1e6)):
        if cuts is None or drop > TRUNC_DROP:
            cuts = [b.cut(drop) for b in bounds]
        cuts = np.asarray(cuts, dtype=float)
        lo, hi = float(cuts[:, 0].min()), float(cuts[:, 1].max())
        breakpoints = curvature_breakpoints(
            lo, hi, phase_breakpoints(lo, hi, phase_rate, centres), curvature,
            phase_rate, centres, cuts)
        res = adaptive_simpson(f, lo, hi, rel_tol=rel_tol, abs_tol=abs_tol,
                               breakpoints=breakpoints, width=width)
        tails = [b.tails(lo, hi, a) for b, a in zip(bounds, amps)]
        if all(t <= max(TAIL_REL * v, abs_tol)
               for t, v in zip(tails, np.abs(res.values).tolist())):
            if not res.converged and np.any(res.err > np.maximum(
                    abs_tol, rel_tol * np.abs(res.values))):
                raise QuadratureError("kernel quadrature missed its tolerance")
            return QuadResult(values=res.values, err=res.err + tails, n_eval=res.n_eval,
                              converged=res.converged, rounds=res.rounds)
    raise QuadratureError("kernel tail could not be certified below tolerance")


# ---------------------------------------------------------------------------
# kernel route
# ---------------------------------------------------------------------------

def _require_kernel_admissible(F: FresnelFunctional, h: CambElement,
                               lams: list[LambdaParam], q0: float) -> float:
    """Check that F and h share a scale pair, every parameter against the
    admissible region for threshold q0 and F against the exponential-moment
    condition; return F's moment integral."""
    if F.sp is not h.sp:
        raise MismatchedScalePair("functional and base direction share no scale pair")
    for lam in lams:
        if not lam.in_gamma(q0):
            raise NotAdmissible(
                f"lambda = {lam.value} lies outside the admissible region for q0 = {q0}")
    kq0 = kq0_integral(F, q0)
    if not math.isfinite(kq0):
        raise NotInFq0("spectral measure fails the exponential-moment condition")
    return kq0


def _row_probe(lams: list[LambdaParam], ctx: KernelContext, psi: PsiFn, xi, cuts,
               reach_per_radius: float, terms):
    """Probe factory that weighs a line density's row sum by its effect on
    the kernel integral at every parameter of a family.

    ``terms(lam, v, c)`` gives the (freq, coef) of the row sum S(u) =
    sum_r coef_r exp(i freq_r u) that a node set makes at lam, with |freq|
    at most ``reach_per_radius`` times the radius.  For each parameter
    lams[l], ``probe_for(radius)`` samples u on one uniform grid that
    covers every point's truncation cut cuts[l] less the point ``xi``,
    outside which its weights below are e^-TRUNC_DROP of their peak, with
    PROBE_DENSITY points per period of the rows' reach plus the fastest
    phase of H there.  For each point, its probe gives the grid sum of
    S(u) H(u) psi(u + xi) divided by that of |H psi|, the parameters'
    points one after another.  A row-sum error that oscillates against a
    smooth H psi averages out there as it does in the integral, so the
    rule stops at the size the kernel needs.
    """
    n2 = ctx.norm_h_sq

    def probe_for(radius):
        weighed = []  # per parameter, its grid and its points' weights
        for lam, lam_cuts in zip(lams, cuts):
            u_cuts = lam_cuts - xi[:, None]  # each point's cut, in u
            lo, hi = (u_cuts[:, 0].min(), u_cuts[:, 1].max()) if xi.size else (0.0, 0.0)
            # H's phase rate -Im(lam u - sqrt(lam) p) / n2 is linear in u
            chirp = max(abs(lam.value.imag * x - lam.sqrt.imag * ctx.pair_ha)
                        for x in (lo, hi)) / n2
            u = probe_grid(lo, hi, reach_per_radius * radius + chirp)
            log_h = vlh_exponent(lam, 0.0, u, np.array([0.0]), np.array([0.0]), ctx)[0]
            with np.errstate(divide="ignore"):
                log_g = log_h + np.log(psi(u + xi[:, None]))
            # each point's weights are scaled by their own peak, which the
            # division by their total modulus cancels
            peak = np.max(log_g.real, axis=1, keepdims=True)
            g = np.exp(log_g - np.where(np.isfinite(peak), peak, 0.0))
            weighed.append((lam, u, g, np.sum(np.abs(g), axis=1)))

        def probe(v, c):
            out = [np.zeros(0, complex)]
            for lam, u, g, mass in weighed:
                s = grid_fourier_sum(u, *terms(lam, v, c))
                out.append(np.divide(g @ s, mass, out=np.zeros(mass.size, complex),
                                     where=mass > 0.0))
            return np.concatenate(out)
        return probe
    return probe_for


def _measure_family(F: FresnelFunctional, lams: list[LambdaParam],
                    ctx: KernelContext, psi: PsiFn, xi, cuts):
    """Flatten the spectral measure into kernel rows, one set of rows for
    every parameter of a family, each row one gaussian piece coef *
    N(mean, var) of the line along a direction.

    Returns (weights, lin, const, quad, amp), each stacked over the
    parameters: at lams[l], row r of the kernel is weights[l, r]
    exp(lin[l, r] u + const[l, r] + quad[l] u^2) times H(u), and amp[l]
    bounds the modulus of the rows' sum by exp(Re log H) (the tail
    amplitude).  Coordinate s of the line contributes exp(A s + B s^2)
    with A = i lam^{-1/2} a_resid + lin0 u and B = const0, where (lin0,
    const0) = vl_coeffs of the direction, and its gaussian mean is
    kappa^{-1/2} exp((A mean + B mean^2 + A^2 var / 2) / kappa), kappa =
    1 - 2 B var.  Re B <= 0 by Cauchy-Schwarz, so Re kappa >= 1 and the
    principal root is the continuous branch, on the boundary too; amp is
    the sum of |coef| E exp(Re A s).  Each line gives its pieces on its
    own direction, whose stats are taken once; a density gives those that
    resolve the rows' effect on the integral of psi at every point xi, cut
    at cuts[l] for each parameter (``_row_probe``).  quad is
    one number, so a piece of var > 0 must be the measure's only piece,
    else UnsupportedVariant.
    """
    def pieces(lam, coef, dirs, mean, var):
        c_hw, norm_sq, a_resid = dirs
        lin0, b = vl_coeffs(lam, c_hw, norm_sq, ctx)
        alpha = 1j * lam.inv_sqrt * a_resid
        kappa = 1.0 - 2.0 * b * var
        lin = lin0 * (mean + alpha * var) / kappa
        const = (alpha * mean + b * mean * mean + 0.5 * alpha * alpha * var) / kappa
        quad = (0.5 * lin0 * lin0 * var / kappa).item() if np.any(var) else 0.0
        return coef / np.sqrt(kappa), lin, const, quad

    lines = []
    for w, eta in F.measure.lines:
        s = DirectionStats.from_elements(ctx, w)
        dirs = (s.c_hw, s.norm_sq, s.a_resid)

        def row_sum_terms(lam, v, coefs, dirs=dirs):
            # row r at u is weights[r] exp(const[r]) exp(i Im(lin[r]) u)
            weights, lin, const, _ = pieces(lam, coefs, dirs, v, 0.0)
            return lin.imag, weights * np.exp(const)

        lines.append((dirs, eta.points(_row_probe(
            lams, ctx, psi, xi, cuts, abs(s.c_hw) / ctx.norm_h_sq, row_sum_terms))))
    col, coef, mean, var = join([p for _, p in lines])
    if coef.size > 1 and np.any(var):
        raise UnsupportedVariant(
            "the kernel's u^2 coefficient is one number: a piece of var > 0 "
            "must be the measure's only piece")
    dirs = np.array([d for d, _ in lines])[col].T
    size = np.abs(coef)
    family = []
    for lam in lams:
        r = -lam.inv_sqrt.imag * dirs[2]
        amp = float(size @ np.exp(r * mean + 0.5 * r * r * var))
        family.append((*pieces(lam, coef, dirs, mean, var), amp))
    return tuple(np.array(x) for x in zip(*family))


def _kernel_family(F: FresnelFunctional, h: CambElement, psi: PsiFn,
                   lams: list[LambdaParam], xi_grid, *, q0: float,
                   delta: float | None, rel_tol: float = 1e-10,
                   abs_tol: float = 1e-13) -> list[OperatorResult]:
    """The kernel route at every member (lam, xi) of lams x xi_grid, one
    result per parameter.

    What depends on F and h alone (the moment integral, the direction
    stats, the rows) is built once; what depends on lam (the rows'
    coefficients, each point's truncation bound and centre) once per
    parameter.  The kernel depends on v and xi only through v - xi, so
    groups of up to ``XI_GROUP`` consecutive points, as many as let one
    panel of their rows fit the quadrature's byte budget (at least one),
    are integrated with every parameter as one quadrature family, in one
    exponent per integrand call; a group splits by parameter only where
    one panel of its rows x members would pass that budget.  Each member
    keeps its own truncation bound, tail amplitude and certificate, the
    panels keep the fastest member's phase within a half period, and
    ``meta["n_eval"]`` and ``meta["quad_rounds"]`` count the shared groups.
    """
    kq0 = _require_kernel_admissible(F, h, lams, q0)
    var_a = h.sp.var_a
    if var_a > 0.0 and not all(lam.is_interior for lam in lams):
        if delta is None:
            raise PsiNotIntegrable(
                "boundary evaluation with drift needs a delta weight exponent")
        if not psi.delta_admissible(delta, var_a):
            raise PsiNotIntegrable(
                "state function is not integrable against the delta weight")
    ctx = KernelContext.from_direction(h)
    xi = evaluation_points(xi_grid)
    # each member's truncation bound: the envelope times the kernel's |H|
    bounds = [[psi.envelope.log_bound.plus(h_abs_log_coeffs(lam, x0, ctx))
               for x0 in xi.tolist()] for lam in lams]
    if not all(b.integrable for lam_bounds in bounds for b in lam_bounds):
        raise PsiNotIntegrable(
            "state-function envelope does not control the kernel tail")
    cuts = np.array([[b.cut(TRUNC_DROP) for b in lam_bounds]
                     for lam_bounds in bounds]).reshape(len(lams), -1, 2)
    centres = 0.5 * (cuts[..., 0] + cuts[..., 1])  # what the exponents are built about
    weights, lin, const, quad, amp = _measure_family(F, lams, ctx, psi, xi, cuts)
    rows = weights.shape[1]
    size = min(XI_GROUP, panels_per_call(rows))  # points one panel's budget holds
    # per parameter, a column against the (points, nodes) of the exponent
    lam_value = np.array([lam.value for lam in lams])[:, None, None]
    lam_sqrt = np.array([lam.sqrt for lam in lams])[:, None, None]
    raw = np.zeros((len(lams), xi.size), dtype=complex)
    err = np.zeros((len(lams), xi.size))
    n_eval = rounds = 0
    for k in range(0, xi.size, size):
        g = slice(k, k + size)
        step = panels_per_call(rows * xi[g].size)  # parameters of these points it holds
        for j in range(0, len(lams), step):
            ls = slice(j, j + step)
            members = raw[ls, g].shape
            exponent = kernel_exponent(lam_value[ls], lam_sqrt[ls], quad[ls, None, None],
                                       xi[g, None], centres[ls, g, None], ctx)
            # each member's phase is centred at its point
            res = _integrate_with_tail_check(
                _kernel_integrand(exponent, weights[ls], lin[ls].T, const[ls].T, psi),
                [b for lam_bounds in bounds[ls] for b in lam_bounds[g]],
                max(abs(lam.value.imag) for lam in lams[ls]) / (2.0 * ctx.norm_h_sq),
                np.tile(xi[g], members[0]), cuts=cuts[ls, g].reshape(-1, 2), rel_tol=rel_tol,
                abs_tol=abs_tol, amps=[a for a in amp[ls].tolist() for _ in range(members[1])],
                width=rows * members[0] * members[1])
            raw[ls, g] = res.values.reshape(members)
            err[ls, g] = res.err.reshape(members)
            n_eval += res.n_eval
            rounds = max(rounds, res.rounds)
    results = []
    for lam, lam_raw, lam_err, lam_centres in zip(lams, raw, err, centres):
        # each integral times the phase its exponent left out, Im log H(u0)
        m_factor = kernel_M(lam, ctx)
        u0 = lam_centres - xi
        left_out = (lam.sqrt.imag * ctx.pair_ha - 0.5 * lam.value.imag * u0) * u0 / ctx.norm_h_sq
        results.append(OperatorResult(
            xi_grid=xi, values=m_factor * np.exp(1j * left_out) * lam_raw,
            stderr=None, route="kernel",
            meta={"lambda": lam.value, "q0": q0, "delta": delta,
                  "rel_tol": rel_tol, "abs_tol": abs_tol,
                  "quad_err": abs(m_factor) * lam_err, "n_eval": n_eval,
                  "quad_rounds": rounds, "rows": rows, "kq0_integral": kq0}))
    return results


def _kernel_integrand(exponent, weights, lin, const, psi: PsiFn):
    """The integrand of a kernel family at nodes v: per parameter l, its
    rows' sum weights[l] @ exp(exponent) at each of its points, times psi,
    one row per member; ``lin`` and ``const`` hold a column per parameter."""
    def f(v):
        e = exponent(v, lin, const)
        if e.size and float(np.max(e.real)) > EXP_CAP:
            raise KernelOverflow("kernel exponent exceeds float range")
        e = np.exp(e, out=e)
        sums = np.empty(e.shape[1:], dtype=complex)
        for j, w in enumerate(weights):
            np.matmul(w, e[:, j].reshape(w.size, -1), out=sums[j].reshape(-1))
        return sums.reshape(-1, v.size) * psi(v)
    return f


def k_lambda(F: FresnelFunctional, h: CambElement, psi: PsiFn,
             lam, xi_grid, *, q0: float = 0.5, delta: float | None = None,
             rel_tol: float = 1e-10, abs_tol: float = 1e-13) -> OperatorResult:
    """Closed-form kernel route of the operator.

    Admissible parameters are the interior of the admissible region for
    threshold q0, plus purely imaginary -iq with |q| > q0; on the
    boundary with a genuine drift the state function must be integrable
    against the gaussian delta-weight.

    This is the one-parameter family of ``_kernel_family``: groups of up
    to ``XI_GROUP`` consecutive points are integrated as one quadrature
    family, as many as let one panel of their rows fit the quadrature's
    byte budget (at least one); memory then does not grow with the grid.
    ``meta["quad_err"]`` is per point; ``meta["n_eval"]`` counts nodes once
    per group, ``meta["quad_rounds"]`` is the largest round count over the
    groups, and ``meta["rows"]`` is the kernel family's row count: one per
    atom, 1 for a gaussian line measure, the resolved node count for a
    density.
    """
    lam = lam if isinstance(lam, LambdaParam) else LambdaParam.from_value(lam)
    return _kernel_family(F, h, psi, [lam], xi_grid, q0=q0, delta=delta,
                          rel_tol=rel_tol, abs_tol=abs_tol)[0]


def _boundary(res: OperatorResult, q: float) -> OperatorResult:
    """A kernel result at -iq as the boundary route's."""
    return OperatorResult(xi_grid=res.xi_grid, values=res.values, stderr=None,
                          route="boundary", meta={**res.meta, "q": q})


def j_q(F: FresnelFunctional, h: CambElement, psi: PsiFn, q: float,
        xi_grid, *, q0: float = 0.5, delta: float | None = None,
        rel_tol: float = 1e-10, abs_tol: float = 1e-13) -> OperatorResult:
    """Boundary (oscillatory-limit) evaluation at lam = -iq, |q| > q0."""
    return _boundary(k_lambda(F, h, psi, LambdaParam.from_q(q), xi_grid, q0=q0,
                              delta=delta, rel_tol=rel_tol, abs_tol=abs_tol), q)


def convergence_study(F: FresnelFunctional, h: CambElement, psi: PsiFn,
                      q: float, xi_grid, *, q0: float = 0.5,
                      delta: float | None = None,
                      n_steps: int = 10) -> ConvergenceStudy:
    """Gap between interior evaluations and the boundary target.

    The approach sequence is fixed: -iq + 2^{-n}, n = 1..n_steps.  Each
    member must lie in the interior of the admissible region for q0 and
    the target itself must be admissible, else SequenceLeavesRegion.
    Rounding breaks the first for n > 1074, where 2^{-n} is 0, and can
    break it when |q| is within an ulp of q0.  The target and the sequence
    share Im lam, so one kernel family integrates them all.
    """
    if q == 0.0 or not LambdaParam.from_q(q).in_gamma(q0):
        raise SequenceLeavesRegion(
            f"target q = {q} is not beyond the threshold q0 = {q0}")
    lams = [LambdaParam.from_value(complex(2.0 ** -n, -q))
            for n in range(1, n_steps + 1)]
    for lp in lams:
        if not (lp.is_interior and lp.in_gamma(q0)):
            raise SequenceLeavesRegion(
                f"sequence member {lp.value} leaves the admissible interior")
    target, *approach = _kernel_family(F, h, psi, [LambdaParam.from_q(q)] + lams,
                                       xi_grid, q0=q0, delta=delta)
    gaps = np.array([float(np.max(np.abs(res.values - target.values)))
                     for res in approach])
    return ConvergenceStudy(q=q, lam_values=tuple(lp.value for lp in lams),
                            gaps=gaps, target=_boundary(target, q))


# ---------------------------------------------------------------------------
# bounds, norms, witnesses
# ---------------------------------------------------------------------------

def op_norm_bound(F: FresnelFunctional, h: CambElement, lam, *,
                  q0: float = 0.5) -> float:
    """A priori operator norm bound from the kernel magnitude estimates.

    Interior parameters use the drift magnitude factor S; boundary
    parameters -iq use the normalizer at |q| alone.  In both cases the
    exponential-moment integral of the measure multiplies the bound.

    The boundary bound holds only without drift.  With drift the modulus
    of the kernel's H factor at -iq can grow without bound in v - xi, so
    sup |K psi| / ||psi||_{nu_delta} is unbounded as psi narrows; a
    boundary parameter over a scale pair with Var(a) > 0 (where k_lambda
    demands a delta weight) raises NotAdmissible.
    """
    lam = lam if isinstance(lam, LambdaParam) else LambdaParam.from_value(lam)
    ctx = KernelContext.from_direction(h)
    kq0 = _require_kernel_admissible(F, h, [lam], q0)
    if not lam.is_interior and h.sp.var_a > 0.0:
        raise NotAdmissible(
            "the boundary operator-norm bound holds only without drift")
    m_mod = abs(kernel_M(lam, ctx))
    if lam.is_interior:
        s = math.exp(s_log(lam.value, ctx.pair_ha, ctx.norm_h_sq))
        return s * m_mod * kq0
    return m_mod * kq0


def nu_delta_norm(psi: PsiFn, delta: float, sp: ScalePair) -> float:
    """Norm of |psi| against the gaussian weight exp(delta * Var(a) * v^2).

    Divergence (per the envelope) is reported as inf, never raised;
    delta = 0 recovers the plain L1 norm.
    """
    require_delta(delta)
    growth = delta * sp.var_a
    bound = psi.envelope.log_bound.plus((growth, 0.0, 0.0))
    if not bound.integrable:
        return math.inf

    def f(v):
        # one exp of the summed logs: |psi| exp(growth v^2) is 0 * inf far out
        with np.errstate(divide="ignore"):
            return np.exp(np.log(np.abs(psi(v))) + growth * v * v)[None, :]

    res = _integrate_with_tail_check(
        f, [bound], 0.0, [0.0], rel_tol=1e-11, abs_tol=1e-14, amps=[1.0])
    return float(abs(res.values[0]))


def divergence_witness_partial(sp: ScalePair, R: float) -> DivergencePartial:
    """Partial kernel transform of the divergence witness at lam = i.

    With the base direction the unit drift direction ``a_unit_element``
    (unit norm, positive drift pairing) and evaluation at the origin, the
    defining integral restricted to [0, R] grows without bound as R
    increases even though the witness is integrable and bounded.  The
    partial value is computed with the kernel machinery; divergence shows
    up as growth in R, never as an exception.
    """
    if not 0.0 < R < math.inf:
        raise BadConfig(f"the partial-integral radius must be finite and "
                        f"positive, got R = {R}")
    if sp.var_a <= 0.0:
        raise BadConfig("the witness needs a scale pair with genuine drift")
    h = a_unit_element(sp)
    p = pair_with_a(h)
    psi = divergence_witness_psi(p)
    lam = LambdaParam.from_q(-1.0)
    ctx = KernelContext.from_direction(h)
    m_factor = kernel_M(lam, ctx)

    def f(v):
        e = vlh_exponent(lam, 0.0, v, np.array([0.0]), np.array([0.0]), ctx)
        return np.exp(e[0])[None, :] * psi(v)[None, :]

    # the partial integral is defined on [0, R], so its tail is 0; the
    # witness's phase v^2 / 2 - sqrt(2) p v / 2 cancels that of H at lam =
    # i (||h|| = 1), so the integrand v exp(sqrt(2) p v / 4) has no phase
    res = _integrate_with_tail_check(f, [LogBound(support=(0.0, R))],
                                     0.0, [0.0], rel_tol=1e-11,
                                     abs_tol=1e-14, amps=[1.0])
    value = float(abs(m_factor * res.values[0]))
    return DivergencePartial(R=R, value=value, pair_ha=p)


@dataclass(frozen=True)
class BoundSweepResult:
    """Violation counts and worst slacks from a random magnitude-bound sweep."""

    n_tuples: int
    violations: dict
    worst_slack: dict

    @property
    def clean(self) -> bool:
        return all(v == 0 for v in self.violations.values())


def sample_interior_lambda(n: int, q0: float,
                           gen: np.random.Generator) -> np.ndarray:
    """Rejection-sample parameters from the interior of the admissible region."""
    require_threshold(q0)
    if n < 0:
        raise BadConfig(f"cannot sample a negative count of parameters, got {n}")
    out = np.empty(n, dtype=complex)
    filled = 0
    while filled < n:
        cand = gen.uniform(1e-3, 3.0, 2 * n) + 1j * gen.uniform(-3.0, 3.0, 2 * n)
        keep = cand[gamma_margin(cand, q0) < 0.0]
        take = min(keep.size, n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def _cubic_gram(sp: ScalePair) -> tuple[np.ndarray, np.ndarray]:
    """Inner products of the cubic densities 1, t, t^2, t^3 on the scale grid.

    Returns the 4x4 Gram matrix under the b'-weighted inner product and
    the four drift pairings, so a direction with density g @ (1, t, t^2,
    t^3) has squared norm g G g^T and drift pairing g @ pair_a.
    """
    t = sp.t_nodes
    basis = np.vstack([np.ones_like(t), t, t * t, t ** 3])
    sw = sp.weights
    return (basis * (sp.bprime_nodes * sw)) @ basis.T, basis @ (sp.aprime_nodes * sw)


def bound_chain_sweep(sp: ScalePair, n_tuples: int = 10000, *,
                      q0: float = 0.5, seed: int = 0,
                      slack: float = 1e-12) -> BoundSweepResult:
    """Check every kernel magnitude bound on random direction/parameter tuples.

    Random polynomial densities give the base and spectral directions;
    parameters are drawn from the interior of the admissible region.  All
    comparisons run in log space.  Violations are inequality failures
    beyond the stated relative slack; a clean sweep returns zero for all.
    """
    if n_tuples < 1:
        raise BadConfig(f"the bound sweep needs n_tuples >= 1, got {n_tuples}")
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(977,))))
    gram, pair_a = _cubic_gram(sp)
    gh = gen.standard_normal((n_tuples, 4))
    gw = gen.standard_normal((n_tuples, 4))
    gh_gram = gh @ gram
    n2h = np.sum(gh_gram * gh, axis=1)
    # avoid degenerate base directions
    small = n2h < 1e-6
    if small.any():
        gh[small, 0] += 1.0
        gh_gram = gh @ gram
        n2h = np.sum(gh_gram * gh, axis=1)
    pah = gh @ pair_a
    n2w = np.sum((gw @ gram) * gw, axis=1)
    paw = gw @ pair_a
    c = np.sum(gh_gram * gw, axis=1)
    lam = sample_interior_lambda(n_tuples, q0, gen)
    u = gen.uniform(-5.0, 5.0, n_tuples)
    proj = c / np.sqrt(n2h)
    beta_sq = n2w - proj * proj
    a_resid = paw - (c / n2h) * pah

    checks = {}
    # Cauchy-Schwarz of the shared discretization (positive weights)
    checks["cauchy_schwarz"] = c * c - n2h * n2w * (1.0 + slack)
    checks["orthogonal_component"] = -beta_sq - slack * np.maximum(n2w, 1.0)
    vl = vl_abs_log(lam, c, n2h, n2w)
    checks["vl_magnitude"] = vl - slack
    hlog = h_abs_log(lam, u, pah, n2h)
    slog = s_log(lam, pah, n2h)
    checks["h_vs_s"] = hlog - slog - slack * (1.0 + np.abs(slog))
    alog = a_abs_log(lam, a_resid)
    klog = k_log(q0, np.sqrt(np.maximum(n2w, 0.0)), sp.norm_a)
    checks["a_vs_k"] = alog - klog - slack * (1.0 + np.abs(klog))
    checks["region_membership"] = gamma_margin(lam, q0)

    violations = {k: int(np.sum(v > 0.0)) for k, v in checks.items()}
    worst = {k: float(np.max(v)) for k, v in checks.items()}
    return BoundSweepResult(n_tuples=n_tuples, violations=violations,
                            worst_slack=worst)


def gaussian_identity_check(alpha: complex, beta: complex) -> GaussianIdentityResult:
    """Self-test of the quadrature engine on the analytic gaussian integral.

    The integral of exp(-alpha v^2 + beta v) over the line equals
    sqrt(pi/alpha) exp(beta^2 / (4 alpha)) for Re(alpha) > 0, with the
    principal branch of the root.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta) and alpha.real > 0.0):
        raise BadConfig(f"gaussian identity needs finite alpha and beta with "
                        f"Re(alpha) > 0, got {alpha} and {beta}")
    closed = cmath.sqrt(math.pi / alpha) * np.exp(beta * beta / (4.0 * alpha))
    # log|integrand| = -Re(alpha) v^2 + Re(beta) v; breakpoints follow the
    # phase -Im(alpha) v^2 + Im(beta) v, whose stationary point is
    # Im(beta) / (2 Im(alpha)), not the magnitude peak
    q = (-alpha.real, beta.real, 0.0)
    centre = beta.imag / (2.0 * alpha.imag) if alpha.imag != 0.0 else 0.0
    res = _integrate_with_tail_check(
        lambda v: np.exp(-alpha * v * v + beta * v)[None, :],
        [LogBound(left=q, right=q)], abs(alpha.imag), [centre],
        rel_tol=1e-11, abs_tol=1e-15, amps=[1.0])
    return GaussianIdentityResult(numeric=complex(res.values[0]),
                                  closed_form=complex(closed))


def unit_spot_check(sp: ScalePair, lam: float = 1.0) -> tuple[complex, float]:
    """Kernel value at the origin for F = 1, h = b, standard gaussian psi.

    Returns (value, reference); the reference applies the gaussian
    identity by hand to the same configuration, so the two must agree to
    quadrature accuracy.  For the driftless unit pair at lam = 1 both
    equal 1/(2 sqrt(pi)).
    """
    if lam <= 0:
        raise BadConfig("spot check needs real lam > 0")
    h = b_element(sp)
    res = k_lambda(unit_functional(sp), h, gaussian_psi(), complex(lam),
                   np.array([0.0]))
    n2 = h.norm_sq
    p = pair_with_a(h)
    alpha = 0.5 * (1.0 + lam / n2)
    beta = math.sqrt(lam) * p / n2
    ref = (math.sqrt(lam / (2.0 * math.pi * n2)) / math.sqrt(2.0 * math.pi)
           * math.sqrt(math.pi / alpha)
           * math.exp(beta * beta / (4.0 * alpha) - p * p / (2.0 * n2)))
    return complex(res.values[0]), ref
