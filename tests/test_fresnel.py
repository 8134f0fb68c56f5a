import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from opfeyn import (AtomicMeasure, BadConfig, Envelope, EtaAtoms, EtaDensity,
                    EtaGaussian, FresnelFunctional, KernelOverflow, LineMeasure,
                    MeasureUnderflow, MismatchedScalePair, QuadratureError,
                    RngStream, UnknownExample, UnsupportedVariant, b_element, convolve,
                    eval_from_projections, gallery, kq0_integral,
                    monomial_element, s_star, sample_increments,
                    unit_functional, wiener_pair)
from opfeyn.fresnel import LinePieces
from opfeyn.sampler import left_densities


WIENER = wiener_pair()


def _on_paths(F, t, dx):
    """F on each path, from the batched projections."""
    return eval_from_projections(F, dx @ left_densities(F.directions(), t))


def _pairing(w, t, dx_row):
    """Left-point sum of w's density against one path's increments."""
    z = w.density(t[:-1])
    return sum(z[k] * dx_row[k] for k in range(dx_row.size))


def test_eta_gaussian_hat_oracle():
    eta = EtaGaussian(mean=0.7, var=2.0, scale=1.5 - 0.5j)
    u = np.array([-1.0, 0.0, 2.5])
    expected = (1.5 - 0.5j) * np.exp(-0.5 * 2.0 * u * u + 1j * 0.7 * u)
    assert np.allclose(eta.hat(u), expected, atol=1e-15)
    assert abs(eta.total_mass() - abs(1.5 - 0.5j)) < 1e-15
    with pytest.raises(BadConfig):
        EtaGaussian(mean=0.0, var=0.0)


@pytest.mark.parametrize("build", [
    lambda: EtaGaussian(mean=0.0, var=math.nan),
    lambda: EtaGaussian(mean=0.0, var=math.inf),
    lambda: EtaGaussian(mean=math.nan, var=1.0),
    lambda: EtaGaussian(mean=math.inf, var=1.0),
    lambda: EtaDensity(fn=np.exp, radius=math.nan),
    lambda: EtaDensity(fn=np.exp, radius=math.inf),
    lambda: EtaAtoms(((math.nan, 1.0),)),
    lambda: EtaAtoms(((0.5, math.nan),)),
    lambda: EtaGaussian(0.0, 1.0, scale=math.nan),
    lambda: AtomicMeasure(WIENER, ((math.inf, b_element(WIENER)),)),
], ids=["var-nan", "var-inf", "mean-nan", "mean-inf", "radius-nan", "radius-inf",
        "atom-location-nan", "atom-weight-nan", "scale-nan", "atomic-weight-inf"])
def test_line_measures_reject_non_finite_parameters(build):
    # unchecked, they reach the kernel as a misleading KernelOverflow and
    # the Monte Carlo route as a silent NaN (or 0 for var = inf); every
    # line measure is gaussian pieces, checked once when they are built
    with pytest.raises(BadConfig):
        build()


def test_pieces_of_several_gaussians_transform_as_their_sum():
    # the Monte Carlo route takes any pieces; only the kernel needs a
    # single piece of var > 0 (tests/test_engine.py)
    eta = LinePieces(coef=np.array([1.0, 0.5j, -0.25]), mean=np.array([0.3, -1.0, 2.0]),
                     var=np.array([0.5, 2.0, 0.0]))
    u = np.linspace(-3.0, 3.0, 13)
    parts = [EtaGaussian(0.3, 0.5), EtaGaussian(-1.0, 2.0, scale=0.5j),
             EtaAtoms(((2.0, -0.25),))]
    assert np.max(np.abs(eta.hat(u) - sum(p.hat(u) for p in parts))) < 1e-15
    assert abs(eta.exp_moment(0.7) - sum(p.exp_moment(0.7) for p in parts)) < 1e-14
    with pytest.raises(BadConfig):
        LinePieces(coef=np.ones(2), mean=np.zeros(2), var=np.zeros(3))


def test_eta_gaussian_exp_moment_vs_quad():
    eta = EtaGaussian(mean=0.4, var=1.3, scale=2.0)
    for mu in (0.0, 0.5, 1.7):
        pdf = lambda v: (2.0 / math.sqrt(2 * math.pi * 1.3)
                         * math.exp(-(v - 0.4) ** 2 / (2 * 1.3)))
        ref, _ = integrate.quad(lambda v: math.exp(mu * abs(v)) * pdf(v),
                                -60, 60, epsabs=1e-13, epsrel=1e-13)
        assert abs(eta.exp_moment(mu) - ref) < 1e-9 * ref


def test_eta_atoms():
    eta = EtaAtoms(atoms=((1.0, 2.0 + 0.0j), (-0.5, 1.0j)))
    u = np.array([0.3])
    expected = 2.0 * np.exp(1j * 0.3) + 1j * np.exp(-1j * 0.15)
    assert abs(eta.hat(u)[0] - expected) < 1e-14
    assert abs(eta.total_mass() - 3.0) < 1e-15
    assert abs(eta.exp_moment(1.0)
               - (2.0 * math.e + math.exp(0.5))) < 1e-12


def test_eta_density_matches_gaussian():
    rho = lambda v: np.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
    eta = EtaDensity(fn=rho, radius=12.0,
                     envelope=Envelope("gaussian", scale=0.4, rate=0.5))
    ref = EtaGaussian(mean=0.0, var=1.0)
    u = np.linspace(-3, 3, 7)
    assert np.max(np.abs(eta.hat(u) - ref.hat(u))) < 1e-10
    assert abs(eta.total_mass() - 1.0) < 1e-10


def test_eta_density_tail_check():
    rho = lambda v: np.exp(-np.abs(v))
    with pytest.raises(MeasureUnderflow):
        EtaDensity(fn=rho, radius=3.0,
                   envelope=Envelope("exponential", scale=1.0, rate=1.0))
    # same density with a wide enough window passes
    eta = EtaDensity(fn=rho, radius=40.0,
                     envelope=Envelope("exponential", scale=1.0, rate=1.0))
    assert abs(eta.total_mass() - 2.0) < 3e-6
    # exponential weight at the envelope rate diverges
    assert eta.exp_moment(1.0) == math.inf
    with pytest.raises(BadConfig):
        EtaDensity(fn=rho, radius=-1.0)


def test_eta_density_matches_the_truncated_exponential_transform():
    # e^{-|v|} on [-R, R]: hat(u) = 2 (1 - e^{-R} (cos uR - u sin uR)) / (1 + u^2);
    # its kink at 0 is a panel edge of every rule, and for |u| <= 20 the
    # rules of 128 and 256 panels are the first two that agree
    R = 40.0
    eta = EtaDensity(fn=lambda v: np.exp(-np.abs(v)), radius=R)
    u = np.linspace(-20.0, 20.0, 401)
    exact = (2.0 * (1.0 - math.exp(-R) * (np.cos(u * R) - u * np.sin(u * R)))
             / (1.0 + u * u))
    assert np.max(np.abs(eta.hat(u) - exact)) < 1e-12
    assert abs(eta.total_mass() - 2.0 * (1.0 - math.exp(-R))) < 1e-14


def test_eta_density_that_no_rule_resolves_raises():
    # a step on [-1.3, 0.7]: its jumps fall inside panels of every rule,
    # so the rules never agree on its transform to the tolerance.  The
    # scalar bounds take the cap rule without a convergence test
    eta = EtaDensity(fn=lambda v: ((v >= -1.3) & (v <= 0.7)).astype(float),
                     radius=4.0)
    with pytest.raises(QuadratureError, match="line density"):
        eta.hat(np.array([0.5]))
    assert abs(eta.total_mass() - 2.0) < 1e-3
    exact = (math.exp(0.3 * 1.3) + math.exp(0.3 * 0.7) - 2.0) / 0.3
    assert abs(eta.exp_moment(0.3) - exact) < 1e-3


def test_eval_consistency_atomic(wiener):
    w1 = b_element(wiener)
    w2 = monomial_element(wiener, 1)
    F = FresnelFunctional(AtomicMeasure(sp=wiener, atoms=(
        (0.7 + 0.2j, w1), (-0.3j, w2))), label="test")
    t, dx = sample_increments(wiener, 256, 3, RngStream(seed=3).generator())
    direct = np.array([(0.7 + 0.2j) * np.exp(1j * _pairing(w1, t, row))
                       + (-0.3j) * np.exp(1j * _pairing(w2, t, row))
                       for row in dx])
    assert np.max(np.abs(_on_paths(F, t, dx) - direct)) < 1e-12


def test_eval_consistency_line(wiener):
    F = gallery("F3", wiener)
    t, dx = sample_increments(wiener, 256, 3, RngStream(seed=4).generator())
    u = np.array([_pairing(s_star(b_element(wiener)), t, row) for row in dx])
    # gaussian eta with var 2: transform exp(-u^2)
    assert np.max(np.abs(_on_paths(F, t, dx) - np.exp(-u * u))) < 1e-12


def test_unit_functional_is_one(wiener):
    F = unit_functional(wiener)
    t, dx = sample_increments(wiener, 64, 3, RngStream(seed=6).generator())
    assert np.max(np.abs(_on_paths(F, t, dx) - 1.0)) < 1e-15
    assert abs(kq0_integral(F, 0.5) - 1.0) < 1e-15


def test_kq0_atoms_oracle(drifted):
    # exp-moment integral: sum |c| exp(||w|| ||a|| / sqrt(2 q0))
    w = b_element(drifted)
    F = FresnelFunctional(AtomicMeasure(sp=drifted, atoms=((2.0 + 0.0j, w),)))
    norm_a = 0.3 * math.sqrt(math.log(2.0))
    expected = 2.0 * math.exp(w.norm * norm_a / math.sqrt(1.0))
    assert abs(kq0_integral(F, 0.5) - expected) < 1e-9 * expected


def test_kq0_divergence_flagged(drifted):
    # exponential-envelope density: the exponential moment diverges once
    # the weight rate reaches the envelope rate, so membership fails
    rho = lambda v: np.exp(-np.abs(v))
    eta = EtaDensity(fn=rho, radius=40.0,
                     envelope=Envelope("exponential", scale=1.0, rate=1.0))
    w0 = b_element(drifted).scaled(10.0)
    F = FresnelFunctional(LineMeasure(w0=w0, eta=eta))
    assert kq0_integral(F, 0.5) == math.inf


def test_kq0_atom_overflow_flagged(drifted):
    # an atom far out overflows exp(mu |v|): a finite moment too large for a
    # float, raised as KernelOverflow, not divergence, and not warned about.
    # So are two atoms whose moments, 1.35e308 each, are floats but whose
    # sum over the lines is not
    b = b_element(drifted)
    far = FresnelFunctional(LineMeasure(w0=b, eta=EtaAtoms(atoms=((1e300, 1.0 + 0j),))))
    mu = b.norm * drifted.norm_a / math.sqrt(2.0 * 0.5)
    w = b.scaled(math.log(1.35e308) / mu)
    one = FresnelFunctional(AtomicMeasure(sp=drifted, atoms=((1.0, w),)))
    assert math.isclose(kq0_integral(one, 0.5), 1.35e308, rel_tol=1e-12)
    two = FresnelFunctional(AtomicMeasure(sp=drifted, atoms=((1.0, w), (1.0, w))))
    for F in (far, two):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelOverflow):
                kq0_integral(F, 0.5)


def test_convolution_transform_product(wiener):
    w1 = b_element(wiener)
    w2 = monomial_element(wiener, 1)
    F = FresnelFunctional(AtomicMeasure(sp=wiener, atoms=((0.5, w1), (0.5j, w2))),
                          label="F")
    G = FresnelFunctional(AtomicMeasure(sp=wiener, atoms=((1.0, w2),)), label="G")
    # a discrete line on s*(b): its nodes are atoms at v * s*(b)
    line = gallery("F1", wiener, w0=s_star(w1),
                   eta=EtaAtoms(((-1.2, 0.6 + 0.1j), (0.4, -0.3 + 0.5j), (1.7, 0.25))))
    t, dx = sample_increments(wiener, 128, 5, RngStream(seed=100).generator())
    for F, G in ((F, G), (line, G)):
        FG = convolve(F, G)
        lhs = _on_paths(FG, t, dx)
        rhs = _on_paths(F, t, dx) * _on_paths(G, t, dx)
        assert np.all(np.abs(lhs - rhs) < 1e-12 * np.maximum(1.0, np.abs(rhs)))


def test_convolution_variant_errors(wiener, drifted):
    F_line = gallery("F3", wiener)
    F_atom = unit_functional(wiener)
    with pytest.raises(UnsupportedVariant):
        convolve(F_line, F_atom)
    # a density has var-0 pieces, but no fixed ones
    density = gallery("F1", wiener, w0=b_element(wiener),
                      eta=EtaDensity(fn=lambda v: np.exp(-v * v), radius=6.0))
    with pytest.raises(UnsupportedVariant):
        convolve(F_atom, density)
    with pytest.raises(MismatchedScalePair):
        convolve(F_atom, unit_functional(drifted))


def test_atomic_measure_checks_pairs(wiener, drifted):
    with pytest.raises(MismatchedScalePair):
        AtomicMeasure(sp=wiener, atoms=((1.0 + 0j, b_element(drifted)),))


def test_gallery_dispatch(wiener):
    assert gallery("F3", wiener).label == "F3"
    assert gallery("F4", wiener).label == "F4"
    with pytest.raises(BadConfig):
        gallery("F2", wiener, w0=b_element(wiener), mean=0.0, var=0.0)
    with pytest.raises(UnknownExample):
        gallery("F9", wiener)

