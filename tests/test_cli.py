import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from opfeyn import OperatorResult
from opfeyn.cli import main, mc_z_scores
from opfeyn.scale import ScalePair, ValidationReport

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


def test_quiet_validate_prints_only_failed_checks_and_status(tmp_path, capsys,
                                                            monkeypatch):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "validate", "--config", cfg, "--quiet") == 0
    assert capsys.readouterr().out.splitlines() == ["validate: PASS"]
    # one check reported as failed must still print under --quiet
    real = ScalePair.validation_report

    def first_failed(self):
        checks = real(self).checks
        return ValidationReport(
            checks=(dataclasses.replace(checks[0], passed=False),) + checks[1:])

    monkeypatch.setattr(ScalePair, "validation_report", first_failed)
    code = run(tmp_path, "validate", "--config", cfg, "--quiet")
    out = capsys.readouterr().out.splitlines()
    assert code == 4
    assert len(out) == 2 and out[0].startswith("  FAIL  origin_a")
    assert out[1] == "validate: FAIL"
