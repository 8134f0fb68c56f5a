import math

import numpy as np
import pytest
from scipy import integrate

from opfeyn import (ArgOutOfRange, ConfigError, Envelope, EtaDensity, PsiFn, b_element,
                    bump_psi, divergence_witness_psi, gaussian_psi, pair_with_a,
                    shifted_gaussian_psi)
from opfeyn.config import config_from_dict


def _bound_values(bound, v):
    # exp of the bound's quadratic on each side of 0, and 0 off its support
    q = np.where(v < 0.0, np.polyval(bound.left, v), np.polyval(bound.right, v))
    if bound.support is not None:
        lo, hi = bound.support
        q = np.where((v >= lo) & (v <= hi), q, -np.inf)
    return np.exp(q)


def _envelope_margin(psi, lo, hi, n):
    # smallest env(v) - |psi(v)| on a probe grid, env the LogBound the
    # kernel route truncates with; >= 0 means dominated
    v = np.linspace(lo, hi, n)
    return float(np.min(_bound_values(psi.envelope.log_bound, v) - np.abs(psi(v))))


@pytest.mark.parametrize("psi", [
    gaussian_psi(),
    shifted_gaussian_psi(2.0 - 1.0j, mean=1.5, sigma=0.8),
    bump_psi(2.0, amp=3.0),
    divergence_witness_psi(0.4),
])
def test_envelopes_dominate(psi):
    assert _envelope_margin(psi, -50.0, 50.0, 10001) >= -1e-12


def test_envelope_validation():
    with pytest.raises(ValueError):
        Envelope("weird", scale=1.0)
    with pytest.raises(ValueError):
        Envelope("gaussian", scale=0.0, rate=1.0)
    with pytest.raises(ValueError):
        Envelope("gaussian", scale=1.0, rate=0.0)
    with pytest.raises(ValueError):
        Envelope("compact", scale=1.0, radius=0.0)


@pytest.mark.parametrize("build", [
    lambda: bump_psi(math.inf),
    lambda: bump_psi(math.nan),
    lambda: Envelope("gaussian", scale=math.nan, rate=1.0),
    lambda: Envelope("exponential", scale=1.0, rate=math.inf),
    lambda: shifted_gaussian_psi(1.0, 40.0, 1.0),
    lambda: divergence_witness_psi(40.0),
], ids=["bump-radius-inf", "bump-radius-nan", "scale-nan", "rate-inf",
        "shifted-scale-overflows", "witness-scale-overflows"])
def test_envelopes_refuse_non_finite_parameters(build):
    # unchecked, an infinite bump radius ended in "kernel tail could not be
    # certified", a nan scale in PsiNotIntegrable, and an envelope scale
    # past a float (e^800 for the shifted gaussian) in a bare OverflowError
    with pytest.raises(ValueError, match="finite"):
        build()


def test_tail_mass_dominates_true_tail():
    r = 2.5
    env = Envelope("gaussian", scale=2.0, rate=0.7)
    true, _ = integrate.quad(lambda v: 2.0 * math.exp(-0.7 * v * v), r, np.inf)
    assert 2.0 * true <= env.log_bound.tails(-r, r) + 1e-15

    env2 = Envelope("exponential", scale=1.5, rate=0.9)
    true2, _ = integrate.quad(lambda v: 1.5 * math.exp(-0.9 * v), r, np.inf)
    assert 2.0 * true2 <= env2.log_bound.tails(-r, r) + 1e-15

    # a compact envelope leaves no tail beyond its radius; inside it the
    # tail is not estimated, so the bound is inf
    env3 = Envelope("compact", scale=1.0, radius=2.0)
    assert env3.log_bound.tails(-3.0, 3.0) == 0.0
    assert env3.log_bound.tails(-2.0, 2.0) == 0.0
    assert env3.log_bound.tails(-1.0, 1.0) == math.inf
    assert env3.log_bound.tails(-3.0, 1.5) == math.inf


def test_delta_admissibility_rules():
    g = gaussian_psi()            # gaussian envelope, rate 1/2
    assert g.delta_admissible(0.5, var_a=0.3)       # growth 0.15 < 0.5
    assert not g.delta_admissible(2.0, var_a=0.3)   # growth 0.6 >= 0.5
    assert g.delta_admissible(10.0, var_a=0.0)      # no drift, any delta

    c = bump_psi(1.0)
    assert c.delta_admissible(100.0, var_a=5.0)     # compact support wins

    e = divergence_witness_psi(0.4)                 # exponential envelope
    assert e.delta_admissible(0.0, var_a=0.3)
    assert not e.delta_admissible(0.1, var_a=0.3)

    with pytest.raises(ArgOutOfRange):
        g.delta_admissible(-1.0, var_a=0.3)


@pytest.mark.parametrize("kind", ["gaussian", "exponential", "compact"])
def test_integrable_matches_the_closed_form_rules(kind):
    # plus(...).integrable against the rules it replaced: a gaussian
    # envelope beats a weight exp(g v^2) when g < rate, an exponential one
    # only when g == 0 and beats exp(mu |v|) when mu < rate, and a compact
    # one beats every weight
    rates = (0.25, 0.5, 1.0, 2.0)
    for rate in rates:
        env = Envelope(kind, scale=1.3, rate=0.0 if kind == "compact" else rate,
                       radius=1.5 if kind == "compact" else 0.0)
        for g in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0):
            got = env.log_bound.plus((g, 0.0, 0.0)).integrable
            want = {"gaussian": g < rate, "exponential": g == 0.0,
                    "compact": True}[kind]
            assert got is want, (kind, rate, g)
        for mu in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0):
            got = env.log_bound.plus((0.0, -mu, 0.0), (0.0, mu, 0.0)).integrable
            assert got is (kind != "exponential" or mu < rate), (kind, rate, mu)
            if kind == "exponential":
                eta = EtaDensity(fn=lambda v: np.exp(-rate * np.abs(v)),
                                 radius=200.0 / rate, envelope=env)
                assert (eta.exp_moment(mu) == math.inf) is (mu >= rate)


def test_gaussian_psi_values():
    psi = gaussian_psi()
    c = 1.0 / math.sqrt(2.0 * math.pi)
    v = np.array([0.0, 1.0, -2.0])
    assert np.allclose(psi(v), c * np.exp(-0.5 * v * v), atol=1e-15)
    assert psi(v).dtype == complex


def test_shifted_gaussian_envelope_is_exact():
    # C exp(-v^2/(4 s^2)) >= |amp| exp(-(v-m)^2/(2 s^2)) with equality at v = 2m
    psi = shifted_gaussian_psi(1.0, mean=2.0, sigma=1.0)
    margin = _envelope_margin(psi, -10.0, 10.0, 40001)
    assert margin >= -1e-12
    v = np.array([4.0])
    assert abs(_bound_values(psi.envelope.log_bound, v)[0] - abs(psi(v)[0])) < 1e-12
    with pytest.raises(ValueError):
        shifted_gaussian_psi(1.0, mean=0.0, sigma=0.0)


def test_bump_support_and_smoothness():
    psi = bump_psi(2.0, amp=3.0)
    v = np.array([-2.5, -2.0, 0.0, 2.0, 2.5])
    vals = np.abs(psi(v))
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert abs(vals[2] - 3.0) < 1e-14
    assert vals[3] == 0.0 and vals[4] == 0.0
    with pytest.raises(ValueError):
        bump_psi(0.0)


def test_witness_shape():
    p = 0.4
    psi = divergence_witness_psi(p)
    c = math.sqrt(2.0) * p / 4.0
    assert np.all(psi(np.array([-1.0, 0.0])) == 0.0)
    v = np.array([0.5, 1.0, 4.0])
    expected = v * np.exp(p * p / 2.0 - c * v)
    assert np.allclose(np.abs(psi(v)), expected, rtol=1e-12)
    # analytic maximum of |psi| sits at v = 1/c
    sup = psi.sup_probe(lo=0.0, hi=60.0, n=600001)
    assert abs(sup - (1.0 / c) * math.exp(p * p / 2.0 - 1.0)) < 1e-5
    # integrable: int v exp(-c v) dv = 1/c^2
    l1, _ = integrate.quad(lambda x: x * math.exp(p * p / 2.0 - c * x), 0, np.inf)
    assert abs(l1 - math.exp(p * p / 2.0) / (c * c)) < 1e-8
    with pytest.raises(ValueError):
        divergence_witness_psi(0.0)


def test_preset_psi_dispatch(drifted):
    # config_from_dict is the one dispatch from a preset name; the configs
    # name the fixture's drifted pair, since the witness needs drift
    h = b_element(drifted)

    def build(psi):
        cfg = config_from_dict({"scale": {"preset": "drifted", "alpha": 0.3,
                                          "beta": 0.5}, "psi": psi})
        return cfg.psi

    assert build("gaussian").label == "gaussian"
    bump = build({"preset": "bump", "radius": 2.0, "amp": 3.0})
    assert bump.envelope == bump_psi(2.0, 3.0).envelope
    assert bump.label == "bump(r=2)"
    assert build("bump").envelope == Envelope("compact", 1.0, radius=1.0)
    witness = build("divergence_witness")
    assert witness.label == "divergence_witness"
    assert witness.envelope == divergence_witness_psi(pair_with_a(h)).envelope
    with pytest.raises(ConfigError):
        build("nope")


def test_scalar_fn_broadcasts():
    psi = PsiFn(fn=lambda v: 1.0, envelope=Envelope("compact", 1.0, radius=60.0))
    out = psi(np.array([1.0, 2.0]))
    assert out.shape == (2,)
    assert np.all(out == 1.0 + 0.0j)
