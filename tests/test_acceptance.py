"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one line

    criterion NN <name>: PASS|FAIL (detail)

and then asserts, so `pytest tests/test_acceptance.py -v -s` reads as a
checklist.  Tolerances are pinned here and nowhere else; stochastic
criteria use frozen seeds so a passing suite stays green.  The heavy
criteria print their wall time on a separate `timing criterion NN: ...s`
line, so two runs of the same code give byte-identical criterion lines;
the time is deliberately not asserted, since it depends on the host.
"""

import math
import time

import numpy as np
from scipy import integrate

from opfeyn import (EtaGaussian, RngStream, b_element, bound_chain_sweep,
                    convergence_study, convolve, divergence_witness_partial,
                    divergence_witness_psi,
                    eval_from_projections, from_density, gallery,
                    gaussian_identity_check, gaussian_psi,
                    i_lambda_mc, inner, k_lambda, nu_delta_norm,
                    op_norm_bound, pair_with_a, preset_direction,
                    sample_increments, sample_interior_lambda,
                    shifted_gaussian_psi, unit_functional)
from opfeyn.fresnel import AtomicMeasure, FresnelFunctional
from opfeyn.sampler import left_densities


def _report(num, name, ok, detail, seconds=None):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({detail})", flush=True)
    if seconds is not None:
        print(f"timing criterion {num:02d}: {seconds:.1f}s", flush=True)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _functionals(sp):
    return [
        ("F1_gaussian", gallery("F1", sp, w0=b_element(sp),
                                eta=EtaGaussian(mean=0.5, var=1.0))),
        ("F3", gallery("F3", sp)),
        ("F4", gallery("F4", sp)),
        ("unit", unit_functional(sp)),
    ]


def _poly_direction(sp, gen, label=""):
    c = gen.normal(size=3)
    return from_density(sp, lambda t: c[0] + c[1] * t + c[2] * t * t,
                        label=label)


def test_criterion_01_mc_matches_kernel(drifted):
    # |MC - kernel| <= 3 SE pointwise across the functional gallery,
    # both base directions, lam in {0.5, 1, 2}, on the drifted pair
    t0 = time.perf_counter()
    xi = np.linspace(-2.0, 2.0, 5)
    psi = gaussian_psi()
    hs = [("b", preset_direction(drifted, "b")),
          ("sstar_b_unit", preset_direction(drifted, "sstar_b_unit"))]
    max_z = 0.0
    worst = ""
    stream = 0
    ok = True
    for fname, F in _functionals(drifted):
        for hname, h in hs:
            for lam in (0.5, 1.0, 2.0):
                stream += 1
                mc = i_lambda_mc(F, h, psi, lam, xi, 100000,
                                 RngStream(74123, stream_id=stream),
                                 path_grid=1024)
                ker = k_lambda(F, h, psi, complex(lam), xi)
                z = np.abs(ker.values - mc.values) / mc.stderr
                zm = float(np.max(z))
                if zm > max_z:
                    max_z = zm
                    worst = f"{fname}/{hname}/lam={lam}"
                ok = ok and bool(np.all(z <= 3.0))
    dt = time.perf_counter() - t0
    _report(1, "mc_matches_kernel", ok,
            f"120 points, max z = {max_z:.2f} at {worst}", dt)


def test_criterion_02_spot_value(wiener):
    # F = 1, driftless unit pair, lam = 1, standard gaussian state,
    # origin: both routes hit 1/(2 sqrt(pi))
    ref = 1.0 / (2.0 * math.sqrt(math.pi))
    F = unit_functional(wiener)
    h = b_element(wiener)
    psi = gaussian_psi()
    ker = k_lambda(F, h, psi, 1.0 + 0.0j, np.array([0.0]))
    k_err = abs(complex(ker.values[0]) - ref)
    mc = i_lambda_mc(F, h, psi, 1.0, np.array([0.0]), 100000,
                     RngStream(4242, stream_id=1), path_grid=1024)
    mc_err = abs(complex(mc.values[0]) - ref)
    se = float(mc.stderr[0])
    ok = k_err < 1e-6 and mc_err <= 3.0 * se
    _report(2, "spot_value", ok,
            f"kernel err {k_err:.2e} (tol 1e-6), mc err {mc_err:.2e} "
            f"vs 3SE {3 * se:.2e}")


def test_criterion_03_bound_chain(drifted):
    t0 = time.perf_counter()
    sweep = bound_chain_sweep(drifted, 10000, q0=0.5, seed=3, slack=1e-12)
    dt = time.perf_counter() - t0
    total = sum(sweep.violations.values())
    _report(3, "bound_chain", sweep.clean and sweep.n_tuples == 10000,
            f"{sweep.n_tuples} tuples, {total} violations", dt)


def test_criterion_04_boundary_convergence(drifted):
    # lam_n = -iq + 2^-n approaches the boundary target; gaps shrink
    t0 = time.perf_counter()
    study = convergence_study(unit_functional(drifted), b_element(drifted),
                              gaussian_psi(), 1.0, np.linspace(-2, 2, 5),
                              q0=0.5, delta=0.5, n_steps=10)
    dt = time.perf_counter() - t0
    gaps = study.gaps
    decreasing = bool(np.all(np.diff(gaps[2:]) < 0.0))
    final = float(gaps[-1])
    ok = decreasing and final < 1e-3
    _report(4, "boundary_convergence", ok,
            f"final gap {final:.2e} (tol 1e-3), decreasing after n=3: "
            f"{decreasing}", dt)


def test_criterion_05_divergence_witness(drifted):
    # partial transforms of the integrable witness blow up with R while
    # its L1 and sup norms stay finite
    radii = (5.0, 10.0, 20.0, 40.0)
    parts = [divergence_witness_partial(drifted, r) for r in radii]
    vals = np.array([p.value for p in parts])
    mu = math.sqrt(2.0) * parts[0].pair_ha / 4.0
    root2pi = math.sqrt(2.0 * math.pi)

    def closed(r):
        return ((r / mu - 1.0 / mu ** 2) * math.exp(mu * r)
                + 1.0 / mu ** 2) / root2pi

    rel = max(abs(p.value - closed(p.R)) / closed(p.R) for p in parts)
    increasing = bool(np.all(np.diff(vals) > 0.0))
    ratios = vals[1:] / vals[:-1]
    doubling = bool(np.all(ratios > 2.0))
    psi = divergence_witness_psi(parts[0].pair_ha)
    psi_l1, psi_sup = nu_delta_norm(psi, 0.0, drifted), psi.sup_probe()
    finite = math.isfinite(psi_l1) and math.isfinite(psi_sup)
    ok = increasing and doubling and rel < 1e-8 and finite
    _report(5, "divergence_witness", ok,
            f"min ratio {ratios.min():.2f} (>2), closed-form rel err "
            f"{rel:.2e} (tol 1e-8), ||psi||_1 = {psi_l1:.4g}, "
            f"sup = {psi_sup:.4g}")


def test_criterion_06_gaussian_identity():
    t0 = time.perf_counter()
    gen = np.random.default_rng(61)
    worst = 0.0
    for _ in range(100):
        re_a = 10.0 ** gen.uniform(-3.0, 1.0)
        alpha = re_a + 1j * gen.uniform(-2.0, 2.0)
        # Re(beta) on the sqrt(Re alpha) scale keeps the integrand peak
        # exp(Re(beta)^2 / (4 Re alpha)) representable in doubles
        beta = (gen.uniform(-3.0, 3.0) * math.sqrt(re_a)
                + 1j * gen.uniform(-3.0, 3.0))
        worst = max(worst, gaussian_identity_check(alpha, beta).rel_err)
    dt = time.perf_counter() - t0
    _report(6, "gaussian_identity", worst <= 1e-6,
            f"100 draws, worst rel err {worst:.2e} (tol 1e-6)", dt)


def test_criterion_07_pwz_law(drifted):
    # pairing with 5 random directions: sample mean matches the drift
    # pairing and sample variance the squared norm, within 3 SE
    gen = np.random.default_rng(7001)
    ws = [_poly_direction(drifted, gen, label=f"w{k}") for k in range(5)]
    n, grid = 100000, 1024
    t_grid = np.linspace(0.0, drifted.T, grid + 1)
    z_left = left_densities(ws, t_grid)
    rng = RngStream(7002)
    s = np.zeros(len(ws))
    sq = np.zeros(len(ws))
    done, batch = 0, 0
    while done < n:
        nb = min(10000, n - done)
        _, dx = sample_increments(drifted, grid, nb, rng.generator(batch=batch))
        proj = dx @ z_left
        s += proj.sum(axis=0)
        sq += (proj * proj).sum(axis=0)
        done += nb
        batch += 1
    mean_hat = s / n
    var_hat = (sq - n * mean_hat ** 2) / (n - 1)
    ok = True
    worst = 0.0
    for k, w in enumerate(ws):
        mean_th = pair_with_a(w)
        var_th = inner(w, w)
        se_mean = math.sqrt(var_hat[k] / n)
        se_var = var_th * math.sqrt(2.0 / (n - 1))
        z1 = abs(mean_hat[k] - mean_th) / se_mean
        z2 = abs(var_hat[k] - var_th) / se_var
        worst = max(worst, z1, z2)
        ok = ok and z1 <= 3.0 and z2 <= 3.0
    _report(7, "pwz_law", ok,
            f"5 directions x {n} paths, worst z = {worst:.2f} (<= 3)")


def test_criterion_08_convolution_identity(drifted):
    # transform of a convolution = product of transforms, pathwise
    gen = np.random.default_rng(88)

    def random_functional(tag):
        atoms = tuple(
            (complex(gen.normal(), gen.normal()),
             _poly_direction(drifted, gen, label=f"{tag}{k}"))
            for k in range(3))
        return FresnelFunctional(
            measure=AtomicMeasure(sp=drifted, atoms=atoms), label=tag)

    F = random_functional("f")
    G = random_functional("g")
    FG = convolve(F, G)
    grid = 256
    t_grid = np.linspace(0.0, drifted.T, grid + 1)
    _, dx = sample_increments(drifted, grid, 100, gen)
    lhs = eval_from_projections(FG, dx @ left_densities(FG.directions(), t_grid))
    rhs = (eval_from_projections(F, dx @ left_densities(F.directions(), t_grid))
           * eval_from_projections(G, dx @ left_densities(G.directions(), t_grid)))
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-15)
    worst = float(rel.max())
    _report(8, "convolution_identity", worst <= 1e-10,
            f"100 paths, worst rel err {worst:.2e} (tol 1e-10)")


def test_criterion_09_norm_bound(drifted):
    # measured sup |K psi| never exceeds the a priori bound times the
    # weighted state norm, over random interior parameters
    gen = np.random.default_rng(91)
    lams = sample_interior_lambda(20, 0.5, gen)
    fs = _functionals(drifted)
    hs = [preset_direction(drifted, "b"),
          preset_direction(drifted, "sstar_b_unit")]
    xi = np.linspace(-6.0, 6.0, 25)
    violations = 0
    worst_margin = math.inf
    for i, lam in enumerate(lams):
        F = fs[i % len(fs)][1]
        h = hs[i % len(hs)]
        psi = shifted_gaussian_psi(1.0, mean=float(gen.uniform(-1.0, 1.0)),
                                   sigma=float(gen.uniform(0.5, 1.2)))
        cap = (op_norm_bound(F, h, lam, q0=0.5)
               * nu_delta_norm(psi, 0.5, drifted))
        sup = float(np.max(np.abs(
            k_lambda(F, h, psi, lam, xi, q0=0.5).values)))
        worst_margin = min(worst_margin, cap / sup)
        if sup > cap * (1.0 + 1e-9):
            violations += 1
    _report(9, "norm_bound", violations == 0,
            f"20 interior draws, {violations} violations, smallest "
            f"cap/sup = {worst_margin:.2f}")


def test_criterion_10_wiener_reduction(wiener):
    # on the driftless unit pair the kernel route collapses to the
    # classical heat-kernel convolution; check against direct quadrature
    F = unit_functional(wiener)
    h = b_element(wiener)
    psi = shifted_gaussian_psi(1.0, mean=0.4, sigma=0.9)
    xi = np.array([-1.0, 0.0, 0.7])
    worst = 0.0
    for lam in (1.0, 2.0):
        ker = k_lambda(F, h, psi, complex(lam), xi)
        pref = math.sqrt(lam / (2.0 * math.pi))
        for j, x0 in enumerate(xi):
            oracle, _ = integrate.quad(
                lambda u: math.exp(-0.5 * lam * (u - x0) ** 2)
                * float(np.real(psi(np.array([u]))[0])),
                -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13)
            oracle *= pref
            worst = max(worst, abs(complex(ker.values[j]) - oracle))
    _report(10, "wiener_reduction", worst <= 1e-8,
            f"lam in {{1, 2}}, 3 points, worst abs err {worst:.2e} "
            f"(tol 1e-8)")
