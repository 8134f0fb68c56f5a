import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opfeyn import eval_from_projections, kq0_integral

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
    proj = np.linspace(-3.0, 3.0, 13)[:, None]

    def behaviour(functionals):
        return [(name, F.label, eval_from_projections(F, proj).tolist(),
                 kq0_integral(F, 0.5)) for name, F in functionals]

    assert behaviour(sweep.functionals(drifted)) == behaviour(
        acceptance._functionals(drifted))


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


def test_surface_counts_source_lines_and_exported_names(capsys):
    surface = _load("surface", HERE.parent / "tools" / "surface.py")
    assert surface.main([]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    # independently: text lines of every source file, and the names that
    # the package's __init__ imports from its submodules
    pkg = HERE.parent / "src" / "opfeyn"
    lines = sum(len(p.read_text().splitlines()) for p in pkg.glob("*.py"))
    tree = ast.parse((pkg / "__init__.py").read_text())
    names = {a.asname or a.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for a in node.names}
    assert int(out["lines"]) == lines
    assert int(out["exports"]) == len({n for n in names if not n.startswith("_")})


def test_op_digest_prints_one_digest_per_workload_and_repeats_it():
    # two runs of one checkout, each its own process, agree line for line,
    # and another seed's inputs give other digests
    root = HERE.parent
    runs = [subprocess.run([sys.executable, str(root / "tools" / "op_digest.py"),
                            str(root), seed, "--smoke"],
                           capture_output=True, text=True, check=True).stdout
            for seed in ("3", "3", "4")]
    lines = [line.split() for line in runs[0].splitlines()]
    assert [name for name, _, _ in lines] == [
        "mc-crosscheck", "kernel-sweep", "oscillatory-quad", "cli-report"]
    assert all(int(n_ops) > 0 and len(digest) == 64 for _, n_ops, digest in lines)
    assert runs[1] == runs[0]
    assert all(a != b for a, b in zip(runs[0].splitlines(), runs[2].splitlines()))
