import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opfeyn import (ArgOutOfRange, LambdaParam, ZeroDirection, ZeroLambda, a_element,
                    b_element, bound_chain_sweep, monomial_element, s_star,
                    sample_interior_lambda, wiener_pair, zero_element)
from opfeyn.kernels import (DirectionStats, KernelContext, a_abs_log, h_abs_log,
                            h_abs_log_coeffs, k_log, kernel_exponent, kernel_M, s_log,
                            vl_abs_log, vl_coeffs, vlh_exponent)

interior_lam = st.builds(
    complex,
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0))


def test_principal_sqrt_branch():
    # the parameter's root is the principal one on the closed right half plane
    assert abs(LambdaParam.from_value(1j).sqrt - (1 + 1j) / math.sqrt(2)) < 1e-15
    # sqrt(-iq) = sqrt(q/2) (1 - i) for q > 0
    q = 3.0
    assert abs(LambdaParam.from_q(q).sqrt
               - math.sqrt(q / 2.0) * (1 - 1j)) < 1e-14


def test_lambda_param_domain():
    lam = LambdaParam.from_value(2.0 + 1.0j)
    assert lam.is_interior
    assert abs(lam.sqrt * lam.sqrt - lam.value) < 1e-14
    assert abs(lam.inv_sqrt * lam.sqrt - 1.0) < 1e-14
    with pytest.raises(ArgOutOfRange):
        LambdaParam.from_value(-1.0)
    with pytest.raises(ZeroLambda):
        LambdaParam.from_value(0.0)


def test_from_q_is_boundary():
    lam = LambdaParam.from_q(2.0)
    assert lam.value == -2.0j
    assert not lam.is_interior
    # the boundary rule |q| > q0 is decided exactly
    assert lam.in_gamma(math.nextafter(2.0, 0.0)) and not lam.in_gamma(2.0)


def test_region_membership():
    # -iq belongs iff |q| > q0; positive reals always belong
    for lam, member in ((-1j * 1.0, True), (-1j * 0.25, False),
                        (-1j * 0.5, False), (1j * 1.0, True), (1.0, True),
                        (1e-6, True)):
        assert LambdaParam.from_value(lam).in_gamma(q0=0.5) is member


@settings(max_examples=50)
@given(interior_lam)
def test_secant_identity(lam_c):
    # [Re sqrt(lam)]^2 / Re(lam) = (sec(arg lam) + 1) / 2
    lam = LambdaParam.from_value(lam_c)
    sec = abs(lam.value) / lam.value.real
    lhs = lam.sqrt.real ** 2 / lam.value.real
    assert abs(lhs - (sec + 1.0) / 2.0) < 1e-10 * (1.0 + sec)


@pytest.fixture(scope="module")
def ctx():
    sp = wiener_pair()
    return KernelContext.from_direction(b_element(sp))


@pytest.fixture(scope="module")
def drift_ctx(drifted_mod):
    return KernelContext.from_direction(b_element(drifted_mod))


@pytest.fixture(scope="module")
def drifted_mod():
    from opfeyn import drifted_pair
    return drifted_pair(0.3, 0.5)


def test_context_rejects_zero_direction(ctx):
    with pytest.raises(ZeroDirection):
        KernelContext.from_direction(zero_element(ctx.h.sp))


def test_h_forms_agree(drift_ctx):
    # Re of the kernel exponent without direction rows is the log |H| that
    # the bound sweep compares against S
    lam = LambdaParam.from_value(0.7 + 1.3j)
    v = np.array([-2.0, 0.3, 1.7])
    for xi in (-1.5, 0.0, 2.0):
        e = vlh_exponent(lam, xi, v, np.array([0.0]), np.array([0.0]),
                         drift_ctx)[0]
        hl = h_abs_log(np.array([lam.value]), v - xi, drift_ctx.pair_ha,
                       drift_ctx.norm_h_sq)
        assert np.max(np.abs(e.real - hl)) < 1e-12


def test_vlh_product_identity(drift_ctx):
    # exp of the combined exponent equals the pointwise product V*L*H of
    # the paper's factors, and V*L, quadratic terms included, collapses to
    # exp(lin u + const); w = h covers the parallel direction
    sp = drift_ctx.h.sp
    lam = LambdaParam.from_value(0.4 - 0.9j)
    lv, n2, p = lam.value, drift_ctx.norm_h_sq, drift_ctx.pair_ha
    xi = 0.7
    v = np.array([-1.3, 0.0, 0.8, 2.2])
    u = v - xi
    for w in (s_star(b_element(sp)), b_element(sp)):
        stats = DirectionStats.from_elements(drift_ctx, w)
        V = np.exp(((1j * lv * u + stats.c_hw) ** 2 - n2 * stats.norm_sq)
                   / (2.0 * lv * n2))
        L = np.exp(lv * u * u / (2.0 * n2))
        H = np.exp(-(lam.sqrt * u - p) ** 2 / (2.0 * n2))
        lin, const = vl_coeffs(lam, np.array([stats.c_hw]),
                               np.array([stats.norm_sq]), drift_ctx)
        assert np.max(np.abs(V * L - np.exp(lin[0] * u + const[0]))) < 1e-12
        combined = np.exp(vlh_exponent(lam, xi, v, lin, const, drift_ctx))[0]
        direct = V * L * H
        assert np.max(np.abs(combined - direct)) < 1e-10 * np.max(np.abs(direct) + 1)


@pytest.mark.parametrize("lam_value", [0.4 - 0.9j, 2.0 + 0.0j, -1.5j])
def test_kernel_exponent_matches_its_terms_written_out(drift_ctx, lam_value):
    lam = LambdaParam.from_value(lam_value)
    gen = np.random.default_rng(3)
    c, w2 = gen.normal(size=7), gen.uniform(0.5, 2.0, 7)
    quad = -0.3 + 0.2j
    v = np.linspace(-4.0, 4.0, 33)
    # the exponent written out term by term
    n2, u = drift_ctx.norm_h_sq, v - 0.3
    arg = lam.sqrt * u - drift_ctx.pair_ha
    expected = ((c * c - n2 * w2) / (2.0 * lam.value * n2))[:, None] \
        + 1j * np.outer(c / n2, u) + quad * u * u \
        - (arg * arg)[None, :] / (2.0 * n2)
    lin, const = vl_coeffs(lam, c, w2, drift_ctx)
    # built by kernel_exponent, which takes the u^2 coefficient that
    # vlh_exponent leaves out, about the point itself
    built = kernel_exponent(lam.value, lam.sqrt, quad, 0.3, 0.3, drift_ctx)(v, lin, const)
    assert np.max(np.abs(built - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("lam_value", [0.4 - 0.9j, 2.0 + 0.0j, -1.5j])
def test_kernel_exponent_about_a_centre_leaves_out_only_the_phase_there(
        drift_ctx, lam_value):
    # built about a centre v0 per point, kernel_exponent is its build about
    # the point itself less i Im log H(v0 - xi), which vlh_exponent gives
    # at v = v0; the real part, which the overflow guard reads, stays whole
    lam = LambdaParam.from_value(lam_value)
    gen = np.random.default_rng(5)
    lin, const = vl_coeffs(lam, gen.normal(size=3), gen.uniform(0.5, 2.0, 3),
                           drift_ctx)
    xi = np.array([[-60.0], [0.3], [25.0]])
    v0 = np.array([[0.4], [0.3], [-1.0]])
    v = np.linspace(-2.0, 2.0, 17)
    quad = -0.3 + 0.2j
    plain = kernel_exponent(lam.value, lam.sqrt, quad, xi, xi, drift_ctx)(v, lin, const)
    centred = kernel_exponent(lam.value, lam.sqrt, quad, xi, v0, drift_ctx)(v, lin, const)
    phase = vlh_exponent(lam, xi, v0, np.zeros(1), np.zeros(1), drift_ctx)[0].imag
    assert np.max(np.abs(centred + 1j * phase - plain)) <= 1e-13 * np.max(np.abs(plain))
    assert phase[1, 0] == 0.0  # at v0 = xi nothing is left out


def test_a_family_exponent_is_each_parameters_exponent_bit_for_bit(drift_ctx):
    # parameters as columns (a kernel family's members) give, member by
    # member, the bits of one parameter's scalar build: the same terms in
    # the same order
    gen = np.random.default_rng(7)
    c, w2 = gen.normal(size=3), gen.uniform(0.5, 2.0, 3)
    lams = [LambdaParam.from_value(x) for x in (0.4 - 0.9j, 2.0, -1.5j, 0.02 + 1.3j)]
    quads = [-0.3 + 0.2j, 0.0, 0.1 - 0.4j, 0.0]
    xi = np.array([[-60.0], [0.3], [25.0]])
    centre = xi + gen.normal(size=(len(lams), 3, 1))
    v = np.linspace(-4.0, 4.0, 45)
    lin, const = zip(*(vl_coeffs(lam, c, w2, drift_ctx) for lam in lams))
    family = kernel_exponent(
        np.array([lam.value for lam in lams])[:, None, None],
        np.array([lam.sqrt for lam in lams])[:, None, None],
        np.array(quads)[:, None, None], xi, centre, drift_ctx)(
            v, np.stack(lin, axis=1), np.stack(const, axis=1))
    assert family.shape == (3, len(lams), 3, v.size)
    for j, (lam, quad) in enumerate(zip(lams, quads)):
        one = kernel_exponent(lam.value, lam.sqrt, quad, xi, centre[j], drift_ctx)(
            v, lin[j], const[j])
        assert np.array_equal(family[:, j], one), lam.value


def test_parallel_direction_exact_branch(drift_ctx):
    stats = DirectionStats.from_elements(drift_ctx, b_element(drift_ctx.h.sp).scaled(3.0))
    assert stats.a_resid == 0.0
    assert a_abs_log(1.0 + 2.0j, 0.0) == 0


@settings(max_examples=50)
@given(interior_lam, st.floats(min_value=-3, max_value=3))
def test_vl_magnitude_never_exceeds_one(lam_c, c_scale):
    # |VL| = exp{(c^2 - n2 w2) Re(lam) / (2 |lam|^2 n2)} <= 1 by Cauchy-Schwarz
    n2, w2 = 2.0, 1.5
    c_max = math.sqrt(n2 * w2)
    c = c_scale / 3.0 * c_max
    val = vl_abs_log(np.array([lam_c]), np.array([c]), n2, np.array([w2]))[0]
    assert val <= 1e-12


@settings(max_examples=50)
@given(interior_lam)
def test_h_bounded_by_s_interior(lam_c):
    p, n2 = 0.3, 1.5
    u = np.linspace(-30.0, 30.0, 401)
    hl = h_abs_log(np.array([lam_c]), u, p, n2)
    sl = s_log(np.array([lam_c]), p, n2)[0]
    assert np.max(hl) <= sl + 1e-10 * (1 + abs(sl))


def test_h_coeffs_match_pointwise(drift_ctx):
    lam = LambdaParam.from_value(0.8 + 0.6j)
    xi = -1.1
    v = np.linspace(-4.0, 4.0, 9)
    q2, q1, q0 = h_abs_log_coeffs(lam, xi, drift_ctx)
    poly = q2 * v * v + q1 * v + q0
    direct = h_abs_log(np.array([lam.value]), v - xi, drift_ctx.pair_ha,
                       drift_ctx.norm_h_sq)
    assert np.max(np.abs(poly - direct)) < 1e-12


def test_a_bounded_by_k(drift_ctx):
    # |A| <= exp{(2 q0)^{-1/2} ||w|| ||a||} inside the admissible region
    sp = drift_ctx.h.sp
    w = monomial_element(sp, 2)
    stats = DirectionStats.from_elements(drift_ctx, w)
    q0 = 0.5
    for lam_c in (1.0, 0.6 - 0.8j, -1j * 0.9, 2.0 + 2.0j):
        if not LambdaParam.from_value(lam_c).in_gamma(q0):
            continue
        al = a_abs_log(np.array([lam_c]), np.array([stats.a_resid]))[0]
        kl = k_log(q0, np.array([math.sqrt(stats.norm_sq)]),
                   a_element(sp).norm)[0]
        assert al <= kl + 1e-12


def test_kernel_m_normalizer(ctx):
    lam = LambdaParam.from_value(2.0)
    assert abs(kernel_M(lam, ctx) - math.sqrt(2.0 / (2.0 * math.pi))) < 1e-14


def test_kernel_s_domain(ctx, drift_ctx):
    # log S = (sec(arg lam) + 1) (h,a)^2 / (4 ||h||^2): 0 without drift,
    # positive with it, and (1 + 1) p^2 / (4 n2) at lam = 1
    assert s_log(1.0, ctx.pair_ha, ctx.norm_h_sq) == 0.0
    for lam_c in (1.0, 0.5 + 2.0j, 3.0 - 0.1j):
        assert s_log(lam_c, drift_ctx.pair_ha, drift_ctx.norm_h_sq) > 0.0
    assert abs(s_log(1.0, 0.3, 2.0) - 0.0225) < 1e-16


def test_kernel_k_domain(drifted_mod):
    # the weight k needs a threshold 0 < q0 < inf; the bound sweep's
    # parameter sampler rejects any other before k is formed.  For NaN and
    # inf no candidate passes |Im lam^{-1/2}| < 1/sqrt(2 q0), so its
    # rejection loop would never end
    gen = np.random.default_rng(1)
    for q0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ArgOutOfRange):
            sample_interior_lambda(5, q0, gen)
        with pytest.raises(ArgOutOfRange):
            bound_chain_sweep(drifted_mod, 10, q0=q0)
    assert k_log(0.5, np.array([0.0]), 1.0)[0] == 0.0


def test_counter_gaussian_cancels(drift_ctx):
    # V's quadratic term times L collapses to a pure linear phase in u:
    # |V(lam,xi,v) L(lam,xi,v)| is independent of v for parallel w = h
    lam = LambdaParam.from_value(0.5 + 1.5j)
    lv, n2 = lam.value, drift_ctx.norm_h_sq
    stats = DirectionStats.from_elements(drift_ctx, b_element(drift_ctx.h.sp))
    u = np.array([-2.0, 0.0, 3.0])
    V = np.exp(((1j * lv * u + stats.c_hw) ** 2 - n2 * stats.norm_sq)
               / (2.0 * lv * n2))
    L = np.exp(lv * u * u / (2.0 * n2))
    mags = np.abs(V * L)
    assert mags.max() - mags.min() < 1e-12
    lin, const = vl_coeffs(lam, np.array([stats.c_hw]),
                           np.array([stats.norm_sq]), drift_ctx)
    assert abs(lin[0].real) < 1e-12
