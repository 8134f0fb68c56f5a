"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests -q

Each workload runs once and prints every named metric with its unit; a
perturbed oracle turns ops into failed ops; traced self times are
non-negative and nest inside their spans.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

run.import_opfeyn()
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _measure(name, trace=False):
    return run.measure(name, seed=11, seconds=0.0, trace=trace, smoke=True)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_prints_every_metric(name, capsys):
    final = run.report(_measure(name))
    out = capsys.readouterr().out
    for metric, unit in run.END_TO_END_UNITS.items():
        assert f"  {metric} = " in out and f" {unit}" in out
    for metric, unit in run.ROUTE_UNITS.items():
        assert f"  {metric} = " in out and unit in out
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in final["metrics"].values())


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == [
        "mc-crosscheck", "kernel-sweep", "oscillatory-quad", "cli-report"]
    assert set(w["name"] for w in BENCH["workloads"]) == set(NAMES)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_traced_run_reports_every_layer_metric_with_nested_self_times():
    result = _measure("mc-crosscheck", trace=True)
    final = run.report(result)
    assert final["correct"]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = final["metrics"]
    assert metrics["sampler.normals"]["value"] > 0
    assert metrics["sampler.normals_per_projection"]["value"] == 1024 / 2
    assert metrics["quadrature.useful_frac"]["value"] == 1.0

    tracer = result["tracer"]
    spans = tracer.spans
    child = np.zeros(len(spans))
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            child[parent] += e - s
    self_t = np.array([e - s for _, s, e, _, _ in spans]) - child
    assert np.all(self_t >= -1e-12)
    # the self times of a root span's subtree add up to no more than it
    root_of = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        root_of.append(i if parent < 0 else root_of[parent])
    for i, (_, s, e, parent, _) in enumerate(spans):
        if parent < 0:
            subtree = sum(self_t[j] for j, r in enumerate(root_of) if r == i)
            assert subtree <= (e - s) + 1e-9
    assert {"bench.op", "sampler.sample_increments", "engine.integrand",
            "quadrature.adaptive_simpson"} <= {sp[0] for sp in spans}


def test_tracer_restores_every_patched_name():
    import opfeyn.cli as cli
    import opfeyn.engine as engine
    import opfeyn.psi as psi
    before = (engine.k_lambda, cli.k_lambda, cli._COMMANDS["report"],
              psi.PsiFn.__call__, engine._integrate_with_tail_check)
    from spans import Tracer
    with Tracer("t").installed():
        assert engine.k_lambda is not before[0]
    assert (engine.k_lambda, cli.k_lambda, cli._COMMANDS["report"],
            psi.PsiFn.__call__, engine._integrate_with_tail_check) == before


@pytest.mark.parametrize("name, oracle, perturbed", [
    ("oscillatory-quad", "identity_closed_form",
     lambda f: lambda a, b: f(a, b) * (1.0 + 1e-4)),
    ("kernel-sweep", "unit_spot_reference",
     lambda f: lambda sp, lam: f(sp, lam) * (1.0 + 1e-6)),
    ("mc-crosscheck", "kernel_oracle",
     lambda f: lambda values: f(values) * 1.5),
])
def test_perturbed_oracle_counts_failed_ops(name, oracle, perturbed, monkeypatch):
    monkeypatch.setattr(workloads, oracle, perturbed(getattr(workloads, oracle)))
    result = _measure(name)
    final = run.report(result)
    assert 0 < final["failed"] <= final["attempted"]
    assert not final["correct"]


def test_failed_report_counts_every_route_call_of_the_pass(monkeypatch):
    monkeypatch.setattr(workloads, "CSV_NAMES", workloads.CSV_NAMES + ("absent.csv",))
    result = _measure("cli-report")
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]


def test_bonferroni_threshold_holds_the_family_rate():
    z = workloads.bonferroni_z(120)
    rate = 2 * 120 * math.erfc(z / math.sqrt(2.0))
    assert rate == pytest.approx(workloads.MC_FAMILY_ALPHA, rel=1e-6)
    assert z > 3.0


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (10, 40, 99, 100, 1000, 20000):
        p = run.tail_percentile(n)
        assert n * (1 - p / 100) >= 10 or p == 50.0


def test_fails_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's files
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(BENCH["command"] + ["--workload", "mc-crosscheck",
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
