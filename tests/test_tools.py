import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
TOOL = HERE.parent / "tools" / "criterion01_sweep.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def sweep():
    return _load("criterion01_sweep", TOOL)


def test_sweep_functionals_are_criterion_01s(sweep, drifted):
    # the sweep copies criterion 01's gallery; a change there must show here
    acceptance = _load("acceptance_criteria", HERE / "test_acceptance.py")
    ours = [(name, F.describe()) for name, F in sweep.functionals(drifted)]
    assert ours == [(name, F.describe())
                    for name, F in acceptance._functionals(drifted)]


def test_sweep_covers_criterion_01_grid_and_reports_a_rate(sweep, capsys):
    assert sweep.main(["--seeds", "2", "--paths", "2000"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    assert summary["points"] == 120 and summary["seeds"] == [1, 2]
    assert 0.0 <= summary["false_alarm_rate"] <= 1.0
    assert summary["alarms"] == sum(
        float(line.split("= ")[1]) > 3.0 for line in out if line.startswith("seed "))


def test_report_diff_reports_identical_files_and_per_column_differences(
        tmp_path, capsys):
    diff = _load("report_diff", HERE.parent / "tools" / "report_diff.py")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        (d / "paths.csv").write_text("t,path_0\n0.0,0.0\n1.0,0.5\n")
    (a / "evaluate.csv").write_text(
        "route,xi,re,stderr\nkernel,0.0,1.0,\nmc,0.0,1.0,0.1\n")
    (b / "evaluate.csv").write_text(
        "route,xi,re,stderr\nkernel,0.0,1.5,\nmc,0.0,1.0,0.1\n")
    assert diff.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "evaluate.csv: identical", "paths.csv: identical"]
    assert diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "evaluate.csv:",
        "  route=kernel re: max abs 0.5, max rel 0.333",
        "  route=mc identical",
        "paths.csv: identical"]
