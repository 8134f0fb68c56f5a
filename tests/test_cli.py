import csv
import inspect
import json
import math

import numpy as np
import pytest

from opfeyn import (InfiniteDrift, InvalidGrid, KernelOverflow,
                    MeasureUnderflow, MismatchedScalePair, NonPositiveVariance,
                    NonzeroOrigin, OperatorResult, OutOfDomain, QuadratureError,
                    UnknownExample, UnsupportedVariant, errors)
from opfeyn.cli import _ADMISSIBILITY_ERRORS, _fmt, main, mc_z_scores
from opfeyn.sampler import RngStream, sample_increments
from opfeyn.scale import wiener_pair

QUICK = {
    "scale": {"preset": "wiener"},
    "h": {"preset": "b"},
    "F": {"name": "one"},
    "psi": {"preset": "gaussian"},
    "lambdas": [[1.0, 0.0]],
    "n_paths": 4000,
    "path_grid": 64,
    "seed": 11,
    "xi_grid": {"min": -1.0, "max": 1.0, "count": 3},
    "sample_count": 3,
    "bound_tuples": 200,
}


def write_config(tmp_path, name="cfg.json", **over):
    d = dict(QUICK)
    d.update(over)
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


def run(tmp_path, *args):
    return main(list(args) + ["--out", str(tmp_path / "out")])


def read_csv(tmp_path, name):
    with open(tmp_path / "out" / name, newline="") as f:
        return list(csv.reader(f))


def test_validate_ok(tmp_path, capsys):
    assert run(tmp_path, "validate", "--config", write_config(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "validate: PASS" in out


def test_selftest_ok(tmp_path, capsys):
    assert run(tmp_path, "selftest", "--quiet") == 0
    assert "selftest:" in capsys.readouterr().out


def test_sample_writes_paths(tmp_path):
    assert run(tmp_path, "sample", "--config", write_config(tmp_path),
               "--quiet") == 0
    rows = read_csv(tmp_path, "paths.csv")
    assert rows[0] == ["t", "path_0", "path_1", "path_2"]
    assert len(rows) == 1 + 64 + 1
    assert float(rows[1][1]) == 0.0  # paths start at the origin


def test_paths_csv_cells_are_the_sampled_values_formatted(tmp_path):
    # 70 paths on 64 steps take two blocks of the table formatter; each
    # cell is _fmt of its value, as the cell-by-cell writer wrote it
    cfg = write_config(tmp_path, sample_count=70)
    assert run(tmp_path, "sample", "--config", cfg, "--quiet") == 0
    t, dx = sample_increments(wiener_pair(), 64, 70,
                              RngStream(seed=11, stream_id=0).generator())
    x = np.concatenate([np.zeros((70, 1)), np.cumsum(dx, axis=1)], axis=1)
    text = (tmp_path / "out" / "paths.csv").read_bytes()
    assert b"\r" not in text and text.endswith(b"\n")
    rows = read_csv(tmp_path, "paths.csv")
    assert rows[0] == ["t"] + [f"path_{k}" for k in range(70)]
    assert rows[1:] == [[_fmt(t[i])] + [_fmt(x[k, i]) for k in range(70)]
                        for i in range(t.size)]


def test_evaluate_routes_and_manifest(tmp_path):
    cfg = write_config(tmp_path, q=1.0)
    assert run(tmp_path, "evaluate", "--config", cfg, "--quiet") == 0
    rows = read_csv(tmp_path, "evaluate.csv")
    assert rows[0] == ["route", "lambda_re", "lambda_im", "xi", "re", "im",
                       "stderr"]
    routes = {r[0] for r in rows[1:]}
    assert routes == {"kernel", "mc", "boundary"}
    kern = [r for r in rows[1:] if r[0] == "kernel"]
    assert all(r[6] == "" for r in kern)
    mc = [r for r in rows[1:] if r[0] == "mc"]
    assert all(float(r[6]) > 0 for r in mc)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == "evaluate"
    assert manifest["seed"] == 11
    assert manifest["summary"]["max_z"] < 5.0


def test_evaluate_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["evaluate", "--config", cfg, "--quiet",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["evaluate", "--config", cfg, "--quiet",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "evaluate.csv").read_bytes()
    b = (tmp_path / "b" / "evaluate.csv").read_bytes()
    assert a == b
    assert b"\r" not in a  # LF line endings only


def test_seed_override_changes_mc(tmp_path):
    cfg = write_config(tmp_path)
    main(["evaluate", "--config", cfg, "--quiet", "--out", str(tmp_path / "a")])
    main(["evaluate", "--config", cfg, "--quiet", "--seed", "99",
          "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "evaluate.csv").read_text().splitlines()
    b = (tmp_path / "b" / "evaluate.csv").read_text().splitlines()
    kern_a = [l for l in a if l.startswith("kernel")]
    kern_b = [l for l in b if l.startswith("kernel")]
    mc_a = [l for l in a if l.startswith("mc")]
    mc_b = [l for l in b if l.startswith("mc")]
    assert kern_a == kern_b  # analytic route ignores the seed
    assert mc_a != mc_b


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, typo_key=1)
    assert run(tmp_path, "evaluate", "--config", cfg) == 2
    assert "typo_key" in capsys.readouterr().err


def test_degenerate_f2_variance_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, F={"name": "F2", "w0": {"preset": "b"},
                                    "mean": 0.0, "var": 0})
    assert run(tmp_path, "validate", "--config", cfg) == 2
    assert "var > 0" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["mean", "var", "scale_re", "scale_im"])
def test_non_numeric_gaussian_eta_exits_2(tmp_path, capsys, key):
    cfg = write_config(tmp_path, F={"name": "F1", "w0": {"preset": "b"},
                                    "eta": {"kind": "gaussian", key: "x"}})
    assert run(tmp_path, "validate", "--config", cfg) == 2
    assert f"F.eta.{key}: expected a number" in capsys.readouterr().err


_DRIFTED = {"preset": "drifted", "alpha": 0.3, "beta": 0.5}


@pytest.mark.parametrize("over, where", [
    ({"F": {"name": "F9"}}, "F"),
    ({"h": "a_unit"}, "h"),
    ({"h": {"preset": "monomial", "degree": "x"}}, "h.degree"),
    ({"h": {"preset": "monomial", "degree": 1.5}}, "h.degree"),
    ({"psi": "divergence_witness"}, "psi"),
    ({"psi": {"preset": "bump", "radius": "x"}}, "psi.radius"),
    ({"psi": {"preset": "bump", "radius": -1}}, "psi"),
    ({"scale": {"preset": "wiener", "T": 0}}, "scale"),
    ({"scale": dict(_DRIFTED, alpha="x")}, "scale.alpha"),
    ({"scale": dict(_DRIFTED, alpha=True)}, "scale.alpha"),
    ({"scale": dict(_DRIFTED, beta=-1)}, "scale"),
    ({"seed": -3}, "seed"),
], ids=["F.name", "h.preset", "h.degree-str", "h.degree-float", "psi.preset",
        "psi.radius-str", "psi.radius-neg", "scale.T", "scale.alpha-str",
        "scale.alpha-bool", "scale.beta-neg", "seed-neg"])
def test_every_subcommand_rejects_a_bad_section_with_exit_2(tmp_path, capsys,
                                                            over, where):
    # the run's objects are built once, with the config, so a subcommand
    # that never uses h, F or psi rejects them as validate does
    cfg = write_config(tmp_path, **over)
    for command in ("validate", "bounds"):
        assert run(tmp_path, command, "--config", cfg) == 2
        assert f"config error: {where}: " in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    [float("nan"), 1, 0], ["3", 1, 0], [True, 1, 0],
    [0.5, float("inf"), 0], [0.5, float("nan"), 0],
], ids=["location-nan", "location-str", "location-bool", "re-inf", "re-nan"])
def test_eta_atom_entries_are_checked_as_numbers(tmp_path, capsys, bad):
    eta = {"kind": "atoms", "atoms": [[0.0, 1, 0], bad]}
    cfg = write_config(tmp_path, F={"name": "F1", "w0": {"preset": "b"},
                                    "eta": eta})
    for command in ("validate", "evaluate"):
        assert run(tmp_path, command, "--config", cfg) == 2
        assert "config error: F.eta.atoms[1]." in capsys.readouterr().err


def test_negative_seed_override_exits_2(tmp_path, capsys):
    # the generator takes no negative seed; the override is refused as
    # the config key is, before any subcommand runs
    cfg = write_config(tmp_path)
    for command in ("validate", "sample", "evaluate"):
        assert run(tmp_path, command, "--config", cfg, "--seed", "-3") == 2
        assert "config error: seed: must be at least 0, got -3\n" in capsys.readouterr().err


def test_unusable_output_directory_exits_2(tmp_path, capsys):
    # a file at the path, or a file the path lies under, is a bad setting,
    # not a traceback
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: out: cannot make directory {out}: " in capsys.readouterr().err


def test_zero_base_direction_exits_3(tmp_path, capsys):
    # a zero h is a domain error of the kernel route; sampling needs no h
    cfg = write_config(tmp_path, h="zero")
    assert run(tmp_path, "evaluate", "--config", cfg) == 3
    assert "admissibility error: ZeroDirection" in capsys.readouterr().err
    assert run(tmp_path, "sample", "--config", cfg, "--quiet") == 0


# errors that reach the command line as a failed numeric check (exit 4);
# a config's scale pair, gallery name and path grid are checked while it
# is loaded (a failure there is a ConfigError), so of these only a
# library caller meets the scale, gallery and grid errors
_NUMERIC_FAILURES = (QuadratureError, KernelOverflow, MeasureUnderflow,
                     MismatchedScalePair, UnsupportedVariant, UnknownExample,
                     NonPositiveVariance, NonzeroOrigin, InfiniteDrift,
                     OutOfDomain, InvalidGrid)


def test_every_error_class_has_a_decided_exit_code():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, errors.OpfeynError) and c is not errors.OpfeynError]
    assert classes
    undecided = [c.__name__ for c in classes
                 if c is not errors.ConfigError
                 and c not in _ADMISSIBILITY_ERRORS
                 and c not in _NUMERIC_FAILURES]
    assert undecided == []
    assert not set(_ADMISSIBILITY_ERRORS) & set(_NUMERIC_FAILURES)


def test_config_boundary_gate_exits_2(tmp_path):
    cfg = write_config(tmp_path, q=0.2)
    assert run(tmp_path, "evaluate", "--config", cfg) == 2


def test_inadmissible_lambda_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, lambdas=[[0.0, -0.4]])
    assert run(tmp_path, "evaluate", "--config", cfg) == 3
    assert "admissibility" in capsys.readouterr().err


def test_witness_needs_drift_exits_3(tmp_path):
    assert run(tmp_path, "counterexample", "--config",
               write_config(tmp_path)) == 3


def test_converge_requires_q(tmp_path):
    assert run(tmp_path, "converge", "--config", write_config(tmp_path)) == 2


def test_bounds_subcommand(tmp_path):
    assert run(tmp_path, "bounds", "--config", write_config(tmp_path),
               "--quiet") == 0
    rows = read_csv(tmp_path, "bounds.csv")
    assert rows[0] == ["check", "violations", "worst_slack"]
    assert all(int(r[1]) == 0 for r in rows[1:])


def test_report_on_drifted(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       scale={"preset": "drifted", "alpha": 0.3, "beta": 0.5},
                       q=1.0, converge_steps=8, n_paths=4000)
    assert run(tmp_path, "report", "--config", cfg, "--quiet") == 0
    out = capsys.readouterr().out
    assert "report: PASS" in out
    for name in ("paths.csv", "evaluate.csv", "bounds.csv", "converge.csv",
                 "counterexample.csv", "manifest.json"):
        assert (tmp_path / "out" / name).exists()


def test_report_skips_the_witness_on_a_driftless_drifted_preset(tmp_path,
                                                               capsys):
    # alpha = 0 gives Var(a) = 0, where the witness is undefined; the
    # gate reads the scale pair, not the preset's name
    cfg = write_config(tmp_path,
                       scale={"preset": "drifted", "alpha": 0.0, "beta": 0.5},
                       q=1.0, converge_steps=8)
    assert run(tmp_path, "report", "--config", cfg, "--quiet") == 0
    assert "report: PASS" in capsys.readouterr().out
    assert not (tmp_path / "out" / "counterexample.csv").exists()


def test_exponential_moment_too_large_for_a_float_exits_4(tmp_path, capsys):
    # F2's moment exp(mu^2 var / 2) is finite for var = 1e5 but no float
    # holds it: a numeric failure, not a traceback or a domain error
    cfg = write_config(tmp_path, scale=_DRIFTED,
                       F={"name": "F2", "w0": {"preset": "b"}, "mean": 0.0,
                          "var": 1e5})
    assert run(tmp_path, "validate", "--config", cfg, "--quiet") == 0
    assert run(tmp_path, "evaluate", "--config", cfg, "--quiet") == 4
    assert "numeric failure: KernelOverflow" in capsys.readouterr().err


def test_out_dir_from_env(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("OPFEYN_OUT", str(target))
    cfg = write_config(tmp_path)
    assert main(["sample", "--config", cfg, "--quiet"]) == 0
    assert (target / "paths.csv").exists()


def test_default_config_works(tmp_path):
    assert run(tmp_path, "validate", "--quiet") == 0


def test_mc_z_scores_treat_zero_stderr_explicitly():
    mc = OperatorResult(xi_grid=np.zeros(4), values=np.array([1, 1, 2, 2j]),
                        stderr=np.array([0.5, 0.0, 0.0, 0.25]), route="mc",
                        meta={})
    z = mc_z_scores(np.array([2, 1, 3, 2j]), mc)
    assert z.tolist() == [2.0, 0.0, math.inf, 0.0]


def test_quiet_validate_prints_only_failed_checks_and_status(tmp_path, capsys):
    # a loaded config's scale pair has passed every check, so under
    # --quiet only the status line is left
    cfg = write_config(tmp_path)
    assert run(tmp_path, "validate", "--config", cfg, "--quiet") == 0
    assert capsys.readouterr().out.splitlines() == ["validate: PASS"]


@pytest.mark.parametrize("command", ["validate", "evaluate", "converge",
                                     "bounds", "counterexample", "sample"])
def test_every_subcommand_rejects_a_failed_scale_check_with_exit_2(
        tmp_path, capsys, command):
    # every number is finite, but the drift energy alpha^3 T overflows:
    # the pair is never built, so no subcommand reaches a route with it
    cfg = write_config(tmp_path, scale=dict(_DRIFTED, alpha=1e200), F="F3",
                       lambdas=[[1.0, 0.5]], q=1.0)
    assert run(tmp_path, command, "--config", cfg) == 2
    assert "config error: scale: drift_energy_finite fails" in \
        capsys.readouterr().err


def test_drifted_preset_with_a_negative_beta_validates(tmp_path, capsys):
    # b = t - 0.4 t^2 increases on [0, 1]; the variance check decides
    cfg = write_config(tmp_path, scale=dict(_DRIFTED, beta=-0.4))
    assert run(tmp_path, "validate", "--config", cfg) == 0
    assert "PASS  variance_increasing" in capsys.readouterr().out


def test_kernel_exponent_past_the_float_range_exits_4(tmp_path, capsys):
    # a wide bump under a strong drift drives the kernel exponent past
    # EXP_CAP: a numeric failure, not a traceback
    cfg = write_config(tmp_path,
                       scale={"preset": "drifted", "alpha": 40.0, "beta": 0.5},
                       F="one", psi={"preset": "bump", "radius": 200.0},
                       lambdas=[[0.2, -1.0]])
    assert run(tmp_path, "evaluate", "--config", cfg, "--quiet") == 4
    assert ("numeric failure: KernelOverflow: kernel exponent exceeds float "
            "range") in capsys.readouterr().err


def test_kernel_exponent_past_the_float_range_exits_4_before_any_exp_overflows(
        tmp_path, capsys):
    # a floating-point trap on overflow would escape main as a traceback
    cfg = write_config(tmp_path,
                       scale={"preset": "drifted", "alpha": 40.0, "beta": 0.5},
                       F="one", psi={"preset": "bump", "radius": 200.0},
                       lambdas=[[0.2, -1.0]])
    with np.errstate(over="raise", invalid="raise"):
        assert run(tmp_path, "evaluate", "--config", cfg, "--quiet") == 4
    assert "numeric failure: KernelOverflow" in capsys.readouterr().err


@pytest.mark.parametrize("q", [1e12, 1e300], ids=str)
def test_boundary_past_the_integer_phase_range_exits_4(tmp_path, capsys, q):
    # the half-period breakpoint count passes 2^63; counted as integers it
    # gave an object array that np.sqrt rejected with a TypeError
    cfg = write_config(tmp_path, scale=_DRIFTED, F="F4", lambdas=[], q=q,
                       delta=0.5)
    assert run(tmp_path, "evaluate", "--config", cfg, "--quiet") == 4
    assert "numeric failure: " in capsys.readouterr().err
