"""Span and counter recording around opfeyn's public functions, from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.installed()``
replaces each traced name at the module attributes where callers look it
up (``opfeyn.engine.k_lambda``, ``opfeyn.cli.k_lambda``, ...) with a
wrapper that records a span (name, start, end, parent, pass id) and the
counters measured at that boundary, and restores the originals on exit.
Spans stay in memory until ``dump`` writes them out.

Self time of a span is its duration minus the durations of its direct
children; calls are synchronous and single-threaded, so children never
overlap each other and always lie inside their parent.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

# (module attribute path, span name); functions the engine and the CLI
# import by name are wrapped at both import sites with one span name.
ENGINE_SPANS = {
    "sample_increments": "sampler.sample_increments",
    "left_densities": "hilbert.left_densities",
    "eval_from_projections": "fresnel.eval_from_projections",
    "kq0_integral": "fresnel.kq0_integral",
    "vlh_exponent": "kernels.vlh_exponent",
    "adaptive_simpson": "quadrature.adaptive_simpson",
    "phase_breakpoints": "quadrature.phase_breakpoints",
    "i_lambda_mc": "engine.i_lambda_mc",
    "k_lambda": "engine.k_lambda",
    "j_q": "engine.j_q",
    "convergence_study": "engine.convergence_study",
    "bound_chain_sweep": "engine.bound_chain_sweep",
    "gaussian_identity_check": "engine.gaussian_identity_check",
    "divergence_witness_partial": "engine.divergence_witness_partial",
    "nu_delta_norm": "engine.nu_delta_norm",
    "unit_spot_check": "engine.unit_spot_check",
}
CLI_SECTIONS = ("validate", "selftest", "sample", "evaluate", "bounds",
                "converge", "counterexample", "report")
INTEGRAND = "engine.integrand"
PSI_CALL = "psi.call"

# span names whose self time and call count are reported as per-layer metrics
SELF_TIMED = (
    "sampler.sample_increments", "hilbert.left_densities",
    "fresnel.eval_from_projections", "fresnel.kq0_integral", PSI_CALL,
    "kernels.vlh_exponent", INTEGRAND, "quadrature.adaptive_simpson",
    "quadrature.phase_breakpoints", "engine.i_lambda_mc", "engine.k_lambda",
    "engine.j_q", "engine.convergence_study", "engine.bound_chain_sweep",
    "engine.gaussian_identity_check", "engine.divergence_witness_partial",
    "engine.nu_delta_norm", "engine.unit_spot_check", "config.load_config",
    "cli.write_csv",
)
COUNTERS = ("sampler.normals", "sampler.bytes_computed", "kernels.exp_elems",
            "quadrature.n_eval", "quadrature.unconverged",
            "quadrature.initial_panels")


class Patches:
    """Attributes of modules, classes or dicts replaced until ``restore``."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, obj, attr, new) -> None:
        if isinstance(obj, dict):
            self._saved.append((obj, attr, obj[attr]))
            obj[attr] = new
        else:
            self._saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)

    def restore(self) -> None:
        for obj, attr, old in reversed(self._saved):
            if isinstance(obj, dict):
                obj[attr] = old
            else:
                setattr(obj, attr, old)
        self._saved.clear()


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent, pass_id]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_id = 0

    # -- recording ----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, hook=None):
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(out, *args, **kwargs)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters measured at the wrapped boundaries --------------------------

    def _count_sampler(self, out, sp, grid_n, n_paths, gen):
        normals = grid_n * n_paths
        self.counts["sampler.normals"] += normals
        # computed from array shapes, not measured: the float64 normals
        # plus the float64 increments built from them
        self.counts["sampler.bytes_computed"] += 2 * 8 * normals
        if self._in_span("engine.i_lambda_mc"):
            self.counts["sampler.mc_normals"] += normals

    def _count_mc(self, out, F, h, psi, lam, xi_grid, n_paths, rng, **kw):
        self.counts["sampler.mc_projections"] += n_paths * (len(F.directions()) + 1)

    def _count_vlh(self, out, lam, xi, v, c, w2, ctx):
        rows, nodes = out.shape
        self.counts["kernels.exp_elems"] += rows * nodes
        self.counts["kernels.nodes"] += nodes

    def _in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _adaptive_simpson(self, fn, quadrature):
        def wrapper(f, lo, hi, **kwargs):
            self.counts["quadrature.adaptive_simpson.calls_seen"] += 1
            g = lambda v: self.call(INTEGRAND, f, v)
            res = self.call("quadrature.adaptive_simpson", fn, g, lo, hi, **kwargs)
            c = self.counts
            c["quadrature.n_eval"] += res.n_eval
            c["quadrature.unconverged"] += 0 if res.converged else 1
            if hi > lo:
                edges = quadrature._initial_edges(lo, hi, kwargs.get("breakpoints"))
                c["quadrature.initial_panels"] += edges.size - 1
            return res
        wrapper.__wrapped__ = fn
        return wrapper

    def _tail_check(self, fn):
        # count-only boundary: every adaptive_simpson call made inside one
        # certified integral beyond the first is a tail retry
        def wrapper(*args, **kwargs):
            before = self.counts["quadrature.adaptive_simpson.calls_seen"]
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts["quadrature.retries"] += (
                    self.counts["quadrature.adaptive_simpson.calls_seen"] - before)
                raise
            self.counts["quadrature.retries"] += (
                self.counts["quadrature.adaptive_simpson.calls_seen"] - before - 1)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced import site; restore the originals on exit."""
        import opfeyn.cli as cli
        import opfeyn.engine as engine
        import opfeyn.psi as psi
        import opfeyn.quadrature as quadrature

        patches = Patches()
        patch = patches.set

        hooks = {"sample_increments": self._count_sampler,
                 "i_lambda_mc": self._count_mc,
                 "vlh_exponent": self._count_vlh}
        wrapped = {}
        for attr, name in ENGINE_SPANS.items():
            orig = getattr(engine, attr)
            if attr == "adaptive_simpson":
                wrapped[attr] = self._adaptive_simpson(orig, quadrature)
            else:
                wrapped[attr] = self._wrap(name, orig, hooks.get(attr))
            patch(engine, attr, wrapped[attr])
        patch(engine, "_integrate_with_tail_check",
              self._tail_check(engine._integrate_with_tail_check))
        for attr in ENGINE_SPANS:
            if hasattr(cli, attr):
                patch(cli, attr, wrapped[attr])
        patch(cli, "load_config", self._wrap("config.load_config", cli.load_config))
        patch(cli, "_write_csv", self._wrap("cli.write_csv", cli._write_csv))
        for section in CLI_SECTIONS:
            w = self._wrap(f"cli.{section}", getattr(cli, f"cmd_{section}"))
            patch(cli, f"cmd_{section}", w)
            patch(cli._COMMANDS, section, w)
        patch(psi.PsiFn, "__call__", self._wrap(PSI_CALL, psi.PsiFn.__call__))
        try:
            yield self
        finally:
            patches.restore()

    # -- reduction ----------------------------------------------------------

    def self_times(self, pass_ids=None) -> dict[str, list[float]]:
        """Per span name: [total self time, total duration, call count]."""
        child = np.zeros(len(self.spans))
        for name, s, e, parent, pid in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, s, e, parent, pid) in enumerate(self.spans):
            if pass_ids is not None and pid not in pass_ids:
                continue
            agg = out[name]
            agg[0] += (e - s) - child[i]
            agg[1] += e - s
            agg[2] += 1
        return out

    def per_layer(self, pass_ids: list[int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged over the given traced passes."""
        n = max(len(pass_ids), 1)
        st = self.self_times(set(pass_ids))
        m: dict[str, tuple[float, str]] = {}
        for name in SELF_TIMED:
            self_s, _, calls = st.get(name, (0.0, 0.0, 0))
            m[f"{name}.self_s"] = (self_s / n, "s")
            m[f"{name}.calls"] = (calls / n, "count")
        for section in CLI_SECTIONS[:-1]:
            m[f"cli.{section}.wall_s"] = (st.get(f"cli.{section}", (0, 0.0, 0))[1] / n, "s")
        c = self.counts
        for name in COUNTERS:
            m[name] = (c[name] / n, "count" if "bytes" not in name else "B")
        proj = c["sampler.mc_projections"]
        m["sampler.normals_per_projection"] = (
            c["sampler.mc_normals"] / proj if proj else 0.0, "ratio")
        nodes = c["kernels.nodes"]
        m["kernels.rows_per_point"] = (
            c["kernels.exp_elems"] / nodes if nodes else 0.0, "ratio")
        calls = c["quadrature.adaptive_simpson.calls_seen"]
        m["quadrature.useful_frac"] = (
            (calls - c["quadrature.retries"]) / calls if calls else 0.0, "ratio")
        return m

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, f)
