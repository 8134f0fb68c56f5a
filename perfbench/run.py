"""opfeyn benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; opfeyn is imported from ./src.
One process serves one workload: it pins BLAS/OpenMP to one thread
before numpy loads, sets the workload up (timed, together with extra
set-ups in fresh interpreters, as ``setup_s``), then repeats passes of
the workload's ops in a closed loop with a single caller until S
seconds have passed (at least ``MIN_PASSES``).  Every output is checked.

With ``--trace 0`` it reports the end-to-end metrics, measured with no
wrapper installed.  With ``--trace 1`` it alternates untraced and traced
passes and reports per-layer self times and counters (see spans.py) plus
the tracing overhead.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Full results (environment,
route throughputs, tail percentile and its sample count, spans) go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_PROBES = 4          # extra set-ups in fresh interpreters per run
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "op_ms_p50": "ms", "op_ms_tail": "ms"}
# op_ms_p50 is printed and saved but not gated: on two workloads the median
# op is an interpreter-bound call of a few ms whose time swung by up to 25 %
# between runs with the load on the machine
GATED = ("wall_s", "setup_s", "peak_rss_mb", "op_ms_tail")
# route throughputs: printed and saved where the route runs, not gated
ROUTE_UNITS = {"mc_paths_per_s": "1/s", "mc_time_to_se_s": "s",
               "kernel_points_per_s": "1/s", "boundary_points_per_s": "1/s",
               "quad_integrals_per_s": "1/s"}
SE_TARGET = 1e-3


def pin_threads() -> None:
    """Pin BLAS/OpenMP to one thread; call before numpy loads.

    The BLAS calls here are small (k <= 65 columns), and threaded BLAS
    spin-waits for its helpers, so with more than one thread any other
    load on the machine slows the timed calls severalfold.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_opfeyn():
    """Import opfeyn from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "opfeyn" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no opfeyn sources under {src}")
    sys.path.insert(0, str(src))
    import opfeyn
    if Path(opfeyn.__file__).resolve().parent != (src / "opfeyn").resolve():
        raise SystemExit(f"benchmark: opfeyn imported from {opfeyn.__file__}")
    return opfeyn


# ---------------------------------------------------------------------------
# op timing
# ---------------------------------------------------------------------------

class RouteClock:
    """Times the outermost route calls the CLI makes during a report.

    cli-report's op is a whole ``opfeyn report``; the route calls inside
    it are the ops its op_ms_p50 and op_ms_tail describe.  Only the
    outermost call is timed, so j_q's inner k_lambda is part of j_q.
    """

    ROUTES = {"i_lambda_mc": "mc_paths", "k_lambda": "kernel_points",
              "j_q": "boundary_points", "gaussian_identity_check": "quad_integrals",
              "divergence_witness_partial": "quad_integrals",
              "bound_chain_sweep": None}

    def __init__(self):
        from spans import Patches
        self.records: list[tuple[float, dict]] = []
        self._depth = 0
        self._patches = Patches()

    def _wrap(self, attr, fn):
        kind = self.ROUTES[attr]

        def wrapper(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth -= 1
            work = {}
            if kind == "mc_paths":
                work = {kind: args[5], "mc_se_max": float(max(out.stderr))}
            elif kind in ("kernel_points", "boundary_points"):
                work = {kind: out.values.size}
            elif kind:
                work = {kind: 1}
            self.records.append((dt, work))
            return out
        return wrapper

    def install(self):
        import opfeyn.cli as cli
        import opfeyn.engine as engine
        for attr in self.ROUTES:
            w = self._wrap(attr, getattr(engine, attr))
            for mod in (engine, cli):
                if hasattr(mod, attr):
                    self._patches.set(mod, attr, w)

    def uninstall(self):
        self._patches.restore()


def run_pass(workload, tracer=None):
    """One pass; returns (wall seconds, [(op seconds, ok, work, key)])."""
    from opfeyn.errors import OpfeynError
    records = []
    t_pass = time.perf_counter()
    for op in workload.ops():
        t0 = time.perf_counter()
        try:
            out = (tracer.call("bench.op", op.call) if tracer is not None
                   else op.call())
            dt = time.perf_counter() - t0
            ok = bool(op.check(out))
        except OpfeynError:
            dt = time.perf_counter() - t0
            ok = False
        records.append((dt, ok, op.work, op.key))
    return time.perf_counter() - t_pass, records


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def percentile(xs, p: float) -> float:
    xs = sorted(xs)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def route_metrics(ops) -> dict:
    """Route throughputs from (seconds, work) pairs of the ops that did the work."""
    out = {}
    for kind, name in (("mc_paths", "mc_paths_per_s"),
                       ("kernel_points", "kernel_points_per_s"),
                       ("boundary_points", "boundary_points_per_s"),
                       ("quad_integrals", "quad_integrals_per_s")):
        t = sum(dt for dt, w in ops if kind in w)
        n = sum(w[kind] for dt, w in ops if kind in w)
        if t > 0 and n > 0:
            out[name] = n / t
    mc = [(dt, w["mc_se_max"]) for dt, w in ops if "mc_se_max" in w]
    if mc:
        se = max(s for _, s in mc)
        out["mc_time_to_se_s"] = sum(dt for dt, _ in mc) * (se / SE_TARGET) ** 2
    return out


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def commit_id() -> str | None:
    """HEAD of the checkout when it carries a .git directory, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import hashlib
    import numpy as np
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src" / "opfeyn").glob("*.py")):
        digest.update(p.read_bytes())
    return {"nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine(),
            "commit": commit_id(), "src_sha256": digest.hexdigest()}


def setup_probe(name: str, seed: int, smoke: bool) -> float:
    """Set the workload up in a fresh interpreter and return its set-up time."""
    args = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    res = subprocess.run(args, capture_output=True, text=True, timeout=170,
                         cwd=ROOT)
    if res.returncode != 0:
        raise SystemExit(f"benchmark: set-up probe failed:\n{res.stderr}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def make_workload(name: str, seed: int, smoke: bool):
    import workloads
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliReport:
        OUT.mkdir(exist_ok=True)
        return cls(seed, smoke, out_root=OUT)
    return cls(seed, smoke)


def timed_setup(name: str, seed: int, smoke: bool):
    """Import, build, warm up; the span measured as one setup_s sample."""
    t0 = time.perf_counter()
    import_opfeyn()
    w = make_workload(name, seed, smoke)
    w.setup()
    return time.perf_counter() - t0, w


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one workload and return the full result record."""
    setup_s, w = timed_setup(name, seed, smoke)
    setups = [setup_s] + [setup_probe(name, seed, smoke) for _ in range(SETUP_PROBES)]
    clock = RouteClock() if name == "cli-report" else None
    tracer = None
    traced_ids: list[int] = []
    walls = {False: [], True: []}
    op_times, op_work = [], []
    attempted = failed = 0
    passes = 0
    t_start = time.perf_counter()
    try:
        if trace:
            from spans import Tracer
            tracer = Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
        while passes < MIN_PASSES or time.perf_counter() - t_start < seconds:
            traced = trace and passes % 2 == 1
            if clock is not None:
                clock.install()
            n_routes = len(clock.records) if clock is not None else 0
            try:
                if traced:
                    tracer.pass_id = passes
                    traced_ids.append(passes)
                    with tracer.installed():
                        wall, recs = run_pass(w, tracer)
                else:
                    wall, recs = run_pass(w)
            finally:
                if clock is not None:
                    clock.uninstall()
            passes += 1
            walls[traced].append(wall)
            if passes == 1:
                first_pass = [(key, dt, ok) for dt, ok, _, key in recs]
            if clock is None:
                attempted += len(recs)
                failed += sum(1 for _, ok, _, _ in recs if not ok)
                timed = [(dt, wk) for dt, _, wk, _ in recs]
            else:
                # the pass's check covers every route call made inside it
                timed = clock.records[n_routes:]
                attempted += len(timed)
                if not all(ok for _, ok, _, _ in recs):
                    failed += len(timed)
            if not traced:
                op_times += [dt for dt, _ in timed]
                op_work += timed
    finally:
        w.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # fixed by the op count of MIN_PASSES passes, so that it does not
    # change with how many passes fit in the run
    p_tail = tail_percentile(MIN_PASSES * len(op_times) // max(len(walls[False]), 1))
    e2e = {"wall_s": statistics.median(walls[False]),
           "setup_s": statistics.median(setups),
           "peak_rss_mb": rss_mb,
           "op_ms_p50": 1e3 * statistics.median(op_times),
           "op_ms_tail": 1e3 * percentile(op_times, p_tail)}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "passes": passes, "setup_samples_s": setups,
        "pass_walls_s": walls[False], "traced_pass_walls_s": walls[True],
        "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "op_tail_percentile": p_tail, "op_samples": len(op_times),
        "op_samples_beyond_tail": sum(1 for t in op_times
                                      if 1e3 * t > e2e["op_ms_tail"]),
        "end_to_end": e2e, "routes": route_metrics(op_work),
        "first_pass_ops": first_pass,
    }
    if trace:
        per_layer = tracer.per_layer(traced_ids)
        untraced = statistics.median(walls[False])
        per_layer["trace.overhead_frac"] = (
            statistics.median(walls[True]) / untraced - 1.0, "ratio")
        per_layer["trace.spans_per_pass"] = (
            len(tracer.spans) / max(len(traced_ids), 1), "count")
        result["per_layer"] = per_layer
        result["tracer"] = tracer
    return result


def report(result: dict) -> dict:
    """Print every metric by name with its unit; return the final JSON line."""
    name = result["workload"]
    print(f"workload {name} seed {result['seed']}: {result['passes']} passes, "
          f"{result['attempted']} ops, {result['failed']} failed "
          f"(ops_failed_frac {result['ops_failed_frac']:.6g})")
    for k, v in result["end_to_end"].items():
        print(f"  {k} = {v:.6g} {END_TO_END_UNITS[k]}")
    print(f"  op_ms_tail is p{result['op_tail_percentile']:g} over "
          f"{result['op_samples']} ops ({result['op_samples_beyond_tail']} beyond)")
    for k, unit in ROUTE_UNITS.items():
        v = result["routes"].get(k)
        print(f"  {k} = " + (f"{v:.6g} {unit}" if v is not None
                             else f"n/a {unit} (route not run by this workload)"))
    if result["trace"]:
        for k, (v, unit) in result["per_layer"].items():
            print(f"  {k} = {v:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in result["per_layer"].items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": END_TO_END_UNITS[k]}
                   for k in GATED}
    return {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def save(result: dict, env: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json")
    record = dict(result, environment=env)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))


def main(argv=None) -> int:
    pin_threads()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        setup_s, w = timed_setup(args.workload, args.seed, args.smoke)
        w.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     smoke=args.smoke)
    final = report(result)
    save(result, environment())
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
