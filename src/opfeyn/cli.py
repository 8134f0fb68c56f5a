"""Command-line harness.

Subcommands cover the full surface: scale validation, path sampling, the
two operator routes side by side, approach-sequence convergence to the
oscillatory limit, the kernel magnitude bound sweep, the divergence
witness, and a quick quadrature self-test.  Numeric CSV output is
deterministic for a fixed (config, seed): 17 significant digits, LF line
endings, stable row order.  Wall-clock timings live only in the run
manifest, which is allowed to differ between runs.

Exit codes: 0 success, 2 configuration error, 3 admissibility or domain
error, 4 numeric check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_from_dict, load_config
from .engine import (OperatorResult, bound_chain_sweep, convergence_study,
                     divergence_witness_partial, gaussian_identity_check,
                     i_lambda_mc, j_q, k_lambda, nu_delta_norm,
                     unit_spot_check)
from .errors import (ArgOutOfRange, BadConfig, ConfigError, NonPositiveLambda,
                     NotAdmissible, NotInFq0, OpfeynError, PsiNotIntegrable,
                     SequenceLeavesRegion, ZeroDirection, ZeroLambda)
from .psi import divergence_witness_psi
from .sampler import RngStream, left_densities, sample_increments
from .scale import wiener_pair

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_CHECK = 4

_ADMISSIBILITY_ERRORS = (NotAdmissible, NotInFq0, PsiNotIntegrable,
                         SequenceLeavesRegion, BadConfig, NonPositiveLambda,
                         ArgOutOfRange, ZeroLambda, ZeroDirection)

WITNESS_RADII = (5.0, 10.0, 20.0, 40.0)
CONVERGE_GAP_TARGET = 1e-3


def _fmt(x) -> str:
    """Fixed-width scientific notation so reruns are byte-identical."""
    return f"{float(x):.16e}"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _resolve_out(arg_out: str | None, cfg: RunConfig) -> Path:
    out = arg_out or cfg.out_dir or os.environ.get("OPFEYN_OUT") or "runs"
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_manifest(out: Path, command: str, cfg: RunConfig, seed: int,
                    summary: dict, outputs: list, elapsed: float) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": cfg.to_dict(),
        "summary": _json_safe(summary),
        "outputs": outputs,
        "elapsed_s": round(elapsed, 3),
    }
    with open(out / "manifest.json", "w", newline="") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


class _Printer:
    def __init__(self, quiet: bool):
        self.quiet = quiet

    def info(self, msg: str) -> None:
        if not self.quiet:
            print(msg)

    def line(self, msg: str) -> None:
        print(msg)


# -- subcommands ---------------------------------------------------------------


def cmd_validate(cfg: RunConfig, seed: int, out: Path, say: _Printer):
    # the config built every object, so the scale pair passed its checks
    report = cfg.scale.validation_report()
    for line in report.lines():
        say.info("  " + line)
    labels = {"scale": cfg.scale.name, "h": cfg.h.label, "F": cfg.F.label,
              "psi": cfg.psi.label}
    say.info("  built " + " ".join(f"{k}={v}" for k, v in labels.items()))
    say.line("validate: PASS")
    summary = {"ok": True,
               "checks": {c.name: c.passed for c in report.checks}, **labels}
    return EXIT_OK, summary, []


def cmd_sample(cfg: RunConfig, seed: int, out: Path, say: _Printer):
    rng = RngStream(seed=seed, stream_id=0)
    t, dx = sample_increments(cfg.scale, cfg.path_grid, cfg.sample_count,
                              rng.generator())
    x = np.concatenate([np.zeros((cfg.sample_count, 1)), np.cumsum(dx, axis=1)],
                       axis=1)
    header = ["t"] + [f"path_{k}" for k in range(cfg.sample_count)]
    rows = [[_fmt(t[i])] + [_fmt(x[k, i]) for k in range(cfg.sample_count)]
            for i in range(t.size)]
    _write_csv(out / "paths.csv", header, rows)

    proj = dx @ left_densities([cfg.h], t)[:, 0]
    say.info(f"  {cfg.sample_count} paths on {cfg.path_grid} steps, "
             f"projections onto {cfg.h.label}: "
             f"mean {proj.mean():.4g}, sd {proj.std(ddof=1):.4g}")
    say.line(f"sample: wrote {out / 'paths.csv'}")
    summary = {"n_paths": cfg.sample_count, "grid": cfg.path_grid,
               "proj_mean": float(proj.mean()),
               "proj_sd": float(proj.std(ddof=1))}
    return EXIT_OK, summary, ["paths.csv"]


def mc_z_scores(values: np.ndarray, mc: OperatorResult) -> np.ndarray:
    """|values - MC| / SE per point.

    A zero standard error (one path, or a state function the paths never
    move) gives z = 0 where the values agree exactly and inf otherwise.
    """
    diff = np.abs(values - mc.values)
    return np.divide(diff, mc.stderr, out=np.where(diff == 0.0, 0.0, np.inf),
                     where=mc.stderr > 0.0)


def cmd_evaluate(cfg: RunConfig, seed: int, out: Path, say: _Printer):
    F, h, psi, xi = cfg.F, cfg.h, cfg.psi, cfg.xi_grid
    rows = []
    z_max = None
    per_lambda = []
    for i, lam in enumerate(cfg.lambdas):
        kern = k_lambda(F, h, psi, lam, xi, q0=cfg.q0, delta=cfg.delta)
        for j in range(xi.size):
            rows.append(["kernel", _fmt(lam.real), _fmt(lam.imag), _fmt(xi[j]),
                         _fmt(kern.values[j].real), _fmt(kern.values[j].imag),
                         ""])
        entry = {"lambda": lam, "sup_abs": float(np.max(np.abs(kern.values)))}
        if lam.imag == 0.0 and lam.real > 0.0:
            mc = i_lambda_mc(F, h, psi, lam.real, xi, cfg.n_paths,
                             RngStream(seed=seed, stream_id=i + 1),
                             path_grid=cfg.path_grid)
            for j in range(xi.size):
                rows.append(["mc", _fmt(lam.real), _fmt(lam.imag), _fmt(xi[j]),
                             _fmt(mc.values[j].real), _fmt(mc.values[j].imag),
                             _fmt(mc.stderr[j])])
            z = float(np.max(mc_z_scores(kern.values, mc)))
            z_max = z if z_max is None else max(z_max, z)
            entry["max_z"] = z
            say.info(f"  lam={lam:g}: sup|K|={entry['sup_abs']:.6g}, "
                     f"max |K - MC| / SE = {z:.2f}")
        else:
            say.info(f"  lam={lam:g}: sup|K|={entry['sup_abs']:.6g}")
        per_lambda.append(entry)
    if cfg.q is not None:
        bnd = j_q(F, h, psi, cfg.q, xi, q0=cfg.q0, delta=cfg.delta)
        lam = complex(0.0, -cfg.q)
        for j in range(xi.size):
            rows.append(["boundary", _fmt(lam.real), _fmt(lam.imag),
                         _fmt(xi[j]), _fmt(bnd.values[j].real),
                         _fmt(bnd.values[j].imag), ""])
        say.info(f"  q={cfg.q:g}: sup|K| = {np.max(np.abs(bnd.values)):.6g}")
        per_lambda.append({"lambda": lam,
                           "sup_abs": float(np.max(np.abs(bnd.values)))})
    _write_csv(out / "evaluate.csv",
               ["route", "lambda_re", "lambda_im", "xi", "re", "im", "stderr"],
               rows)
    say.line(f"evaluate: wrote {out / 'evaluate.csv'}"
             + (f" (max z = {z_max:.2f})" if z_max is not None else ""))
    summary = {"per_lambda": per_lambda, "max_z": z_max}
    return EXIT_OK, summary, ["evaluate.csv"]


def cmd_converge(cfg: RunConfig, seed: int, out: Path, say: _Printer):
    if cfg.q is None:
        raise ConfigError("q: required for converge")
    study = convergence_study(cfg.F, cfg.h, cfg.psi, cfg.q, cfg.xi_grid,
                              q0=cfg.q0, delta=cfg.delta,
                              n_steps=cfg.converge_steps)
    rows = [[str(n + 1), _fmt(study.lam_values[n].real),
             _fmt(study.lam_values[n].imag), _fmt(study.gaps[n])]
            for n in range(len(study.gaps))]
    _write_csv(out / "converge.csv", ["n", "lambda_re", "lambda_im", "gap"],
               rows)
    gaps = study.gaps
    # settled = monotone decrease once transients die out (n > 3)
    settled = all(gaps[k + 1] < gaps[k] for k in range(2, len(gaps) - 1))
    small = gaps[-1] < CONVERGE_GAP_TARGET
    ok = settled and small
    say.info("  gaps: " + ", ".join(f"{g:.3e}" for g in gaps))
    say.line(f"converge: final gap {gaps[-1]:.3e} "
             f"({'monotone' if settled else 'NOT monotone'}) -> "
             f"{'PASS' if ok else 'FAIL'}")
    summary = {"gaps": [float(g) for g in gaps], "final_gap": float(gaps[-1]),
               "monotone_after_3": settled, "target": CONVERGE_GAP_TARGET,
               "ok": ok}
    return (EXIT_OK if ok else EXIT_CHECK), summary, ["converge.csv"]


def cmd_bounds(cfg: RunConfig, seed: int, out: Path, say: _Printer):
    res = bound_chain_sweep(cfg.scale, cfg.bound_tuples, q0=cfg.q0, seed=seed)
    rows = [[name, str(res.violations[name]), _fmt(res.worst_slack[name])]
            for name in sorted(res.violations)]
    _write_csv(out / "bounds.csv", ["check", "violations", "worst_slack"], rows)
    for name in sorted(res.violations):
        say.info(f"  {name}: {res.violations[name]} violations "
                 f"(worst slack {res.worst_slack[name]:.3e})")
    say.line(f"bounds: {res.n_tuples} tuples, "
             f"{'clean' if res.clean else 'VIOLATIONS'} -> "
             f"{'PASS' if res.clean else 'FAIL'}")
    summary = {"n_tuples": res.n_tuples, "violations": dict(res.violations),
               "clean": res.clean}
    return (EXIT_OK if res.clean else EXIT_CHECK), summary, ["bounds.csv"]


def cmd_counterexample(cfg: RunConfig, seed: int, out: Path, say: _Printer):
    parts = [divergence_witness_partial(cfg.scale, R) for R in WITNESS_RADII]
    psi = divergence_witness_psi(parts[0].pair_ha)
    psi_l1, psi_sup = nu_delta_norm(psi, 0.0, cfg.scale), psi.sup_probe()
    rows = [[_fmt(p.R), _fmt(p.value), _fmt(psi_l1), _fmt(psi_sup)]
            for p in parts]
    _write_csv(out / "counterexample.csv",
               ["R", "partial_value", "psi_l1", "psi_sup"], rows)
    values = [p.value for p in parts]
    growing = all(values[k + 1] > 2.0 * values[k] for k in range(len(values) - 1))
    integrable = math.isfinite(psi_l1) and math.isfinite(psi_sup)
    ok = growing and integrable
    for p in parts:
        say.info(f"  R={p.R:g}: partial value {p.value:.6g}")
    say.line(f"counterexample: psi has L1 norm {psi_l1:.4g} and sup "
             f"{psi_sup:.4g}, yet partials "
             f"{'more than double' if growing else 'DO NOT double'} with R -> "
             f"{'PASS' if ok else 'FAIL'}")
    summary = {"radii": list(WITNESS_RADII), "values": [float(v) for v in values],
               "psi_l1": psi_l1, "psi_sup": psi_sup, "ok": ok}
    return (EXIT_OK if ok else EXIT_CHECK), summary, ["counterexample.csv"]


_SELFTEST_PAIRS = (
    (1.0 + 0.0j, 0.0 + 0.0j),
    (1.0 + 0.0j, 1.0 - 0.5j),
    (0.5 + 2.0j, 0.0 + 0.0j),
    (2.0 - 3.0j, -1.5 + 1.0j),
    (0.01 + 0.5j, 0.2 + 0.2j),
    (5.0 + 0.0j, 3.0 + 0.0j),
)


def cmd_selftest(cfg: RunConfig, seed: int, out: Path, say: _Printer):
    ok = True
    worst = 0.0
    for alpha, beta in _SELFTEST_PAIRS:
        res = gaussian_identity_check(alpha, beta)
        worst = max(worst, res.rel_err)
        good = res.rel_err < 1e-6
        ok &= good
        say.info(f"  gaussian integral alpha={alpha:g} beta={beta:g}: "
                 f"rel err {res.rel_err:.2e} {'ok' if good else 'FAIL'}")
    sp = wiener_pair()
    spot_ref = 1.0 / (2.0 * math.sqrt(math.pi))
    for lam in (1.0, 2.0):
        value, reference = unit_spot_check(sp, lam)
        rel = abs(value - reference) / abs(reference)
        worst = max(worst, rel)
        good = rel < 1e-6
        if lam == 1.0:
            good &= abs(value - spot_ref) < 1e-6
        ok &= good
        say.info(f"  unit kernel spot lam={lam:g}: value {value:.12g}, "
                 f"rel err vs reference {rel:.2e} {'ok' if good else 'FAIL'}")
    say.line(f"selftest: worst rel err {worst:.2e} -> {'PASS' if ok else 'FAIL'}")
    summary = {"worst_rel_err": worst, "ok": ok}
    return (EXIT_OK if ok else EXIT_CHECK), summary, []


def cmd_report(cfg: RunConfig, seed: int, out: Path, say: _Printer):
    sections = [("validate", cmd_validate), ("selftest", cmd_selftest),
                ("sample", cmd_sample), ("evaluate", cmd_evaluate),
                ("bounds", cmd_bounds)]
    if cfg.q is not None:
        sections.append(("converge", cmd_converge))
    if cfg.scale.var_a > 0.0:
        sections.append(("counterexample", cmd_counterexample))
    code = EXIT_OK
    summary = {}
    outputs = []
    for name, fn in sections:
        say.info(f"-- {name} --")
        c, s, o = fn(cfg, seed, out, say)
        code = max(code, c)
        summary[name] = s
        outputs.extend(o)
    say.line(f"report: {'PASS' if code == EXIT_OK else 'FAIL'}")
    return code, summary, outputs


_COMMANDS = {
    "validate": cmd_validate,
    "sample": cmd_sample,
    "evaluate": cmd_evaluate,
    "converge": cmd_converge,
    "bounds": cmd_bounds,
    "counterexample": cmd_counterexample,
    "selftest": cmd_selftest,
    "report": cmd_report,
}

_DEFAULT_CONFIG = {
    "scale": {"preset": "wiener"},
    "h": {"preset": "b"},
    "F": {"name": "one"},
    "psi": {"preset": "gaussian"},
    "lambdas": [[1.0, 0.0]],
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="opfeyn",
        description="Function-space operator integrals: kernel and Monte "
                    "Carlo routes, bounds, limits, and counterexamples.")
    p.add_argument("--version", action="version", version=f"opfeyn {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("validate", "check the scale pair and build every configured object"),
            ("sample", "draw reproducible paths and write them as CSV"),
            ("evaluate", "run the kernel route (and Monte Carlo where defined)"),
            ("converge", "approach the oscillatory limit from the interior"),
            ("bounds", "sweep the kernel magnitude bound chain on random tuples"),
            ("counterexample", "grow the divergence witness partial transforms"),
            ("selftest", "quick quadrature and kernel spot checks"),
            ("report", "run every applicable section and write all outputs")]:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", help="JSON config file (default: built-in "
                                        "driftless demo config)")
        q.add_argument("--seed", type=int, help="override the config seed")
        q.add_argument("--out", help="output directory (overrides config "
                                     "out_dir and OPFEYN_OUT)")
        q.add_argument("--quiet", action="store_true",
                       help="print only the final status lines")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    say = _Printer(quiet=args.quiet)
    t0 = time.time()
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = config_from_dict(dict(_DEFAULT_CONFIG))
        seed = args.seed if args.seed is not None else cfg.seed
        if seed < 0:
            raise ConfigError(f"seed: must be nonnegative, got {seed}")
        out = _resolve_out(args.out, cfg)
        code, summary, outputs = _COMMANDS[args.command](cfg, seed, out, say)
        _write_manifest(out, args.command, cfg, seed, summary, outputs,
                        time.time() - t0)
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except _ADMISSIBILITY_ERRORS as e:
        print(f"admissibility error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except OpfeynError as e:
        print(f"numeric failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
