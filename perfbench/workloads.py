"""The four benchmark workloads: inputs from a seed, one pass of ops, checks.

A workload is built in two steps.  ``setup()`` imports opfeyn, builds the
scale pairs, directions, functionals and state functions, and makes one
warm-up call; the benchmark times it as ``setup_s``.  ``ops()`` then
yields the operations of one pass.  Every pass of a run issues the same
ops on the same inputs, one after another (a closed loop with a single
caller), so repeats can be checked for bit-identical results.

Each op is a route call or one quadrature identity draw.  An op fails
when it raises ``OpfeynError`` or when its check rejects the output.
The oracles the checks compare against are module-level functions so a
test can substitute a perturbed one and see the op counted as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

Q0 = 0.5
DELTA = 0.5
XI = (-2.0, -1.0, 0.0, 1.0, 2.0)
# family-wise false-alarm rate of the Monte Carlo cross-check per pass
MC_FAMILY_ALPHA = 1e-6


@dataclass
class Op:
    """One operation: ``call`` runs it, ``check`` judges its output."""

    key: str
    call: Callable
    check: Callable
    work: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def bonferroni_z(n_points: int, alpha: float = MC_FAMILY_ALPHA) -> float:
    """Threshold z with P(max over n_points of |K - MC|/SE > z) <= alpha.

    |d|/SE > z forces the real or the imaginary part beyond z of its own
    standard error, so each point fails with probability at most
    2 erfc(z / sqrt 2); a union bound over the points gives the family.
    """
    target = alpha / (2.0 * n_points)
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > target:
            lo = mid
        else:
            hi = mid
    return hi


def identity_closed_form(alpha: complex, beta: complex) -> complex:
    """Integral of exp(-alpha v^2 + beta v) over the line, Re(alpha) > 0."""
    root = complex(np.sqrt(complex(math.pi / alpha)))
    return root * complex(np.exp(beta * beta / (4.0 * alpha)))


def witness_closed_form(pair_ha: float, R: float) -> float:
    """Partial transform of the divergence witness up to R (criterion 05)."""
    mu = math.sqrt(2.0) * pair_ha / 4.0
    return (((R / mu - 1.0 / mu ** 2) * math.exp(mu * R) + 1.0 / mu ** 2)
            / math.sqrt(2.0 * math.pi))


def unit_spot_reference(sp, lam: float) -> float:
    """Kernel value of F = 1, h = b, gaussian psi at the origin, by hand."""
    import opfeyn
    h = opfeyn.b_element(sp)
    n2 = h.norm_sq
    p = opfeyn.pair_with_a(h)
    alpha = 0.5 * (1.0 + lam / n2)
    beta = math.sqrt(lam) * p / n2
    return (math.sqrt(lam / (2.0 * math.pi * n2)) / math.sqrt(2.0 * math.pi)
            * math.sqrt(math.pi / alpha)
            * math.exp(beta * beta / (4.0 * alpha) - p * p / (2.0 * n2)))


def kernel_errors_ok(res, h) -> bool:
    """Every point's quad_err within the route's own tolerance.

    The route integrates to max(abs_tol, rel_tol |I|) and certifies the
    truncated tail to max(1e-10 |I|, abs_tol), both before the factor M.
    """
    from opfeyn.kernels import KernelContext, kernel_M
    m = abs(kernel_M(_lam_param(res.meta["lambda"]), KernelContext.from_direction(h)))
    meta = res.meta
    tol = (np.maximum(meta["abs_tol"] * m, meta["rel_tol"] * np.abs(res.values))
           + np.maximum(meta["abs_tol"] * m, 1e-10 * np.abs(res.values)))
    err = np.asarray(meta["quad_err"])
    return bool(np.all(np.isfinite(res.values)) and np.all(err <= tol))


def _lam_param(value):
    from opfeyn.kernels import LambdaParam
    return value if isinstance(value, LambdaParam) else LambdaParam.from_value(value)


class Repeats:
    """Remembers each op's first output digest; later passes must match it."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def same(self, key: str, *arrays) -> bool:
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        d = h.hexdigest()
        return self.first.setdefault(key, d) == d


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.gen = np.random.default_rng(np.random.SeedSequence([seed, 7919]))
        self.repeats = Repeats()

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def close(self) -> None:
        pass


def _gallery(of, sp, hb):
    return [("unit", of.unit_functional(sp)), ("F4", of.gallery("F4", sp)),
            ("F1_gaussian", of.gallery("F1", sp, w0=hb,
                                       eta=of.EtaGaussian(mean=0.5, var=1.0))),
            ("F3", of.gallery("F3", sp))]


class McCrosscheck(Workload):
    """Criterion-01 grid at a reduced path count: MC route against kernel."""

    name = "mc-crosscheck"
    N_PATHS = 2000
    PATH_GRID = 1024

    def setup(self):
        import opfeyn as of
        self.of = of
        sp = of.drifted_pair(0.3, 0.5)
        self.hs = [("b", of.preset_direction(sp, "b")),
                   ("sstar_b_unit", of.preset_direction(sp, "sstar_b_unit"))]
        self.fs = _gallery(of, sp, self.hs[0][1])
        self.psi = of.gaussian_psi()
        self.lams = (0.5, 1.0, 2.0)
        self.xi = np.array(XI)
        if self.smoke:
            self.fs, self.hs, self.lams = self.fs[:2], self.hs[:1], self.lams[:1]
        self.n_paths = 200 if self.smoke else self.N_PATHS
        self.z_max = bonferroni_z(len(self.fs) * len(self.hs) * len(self.lams)
                                  * self.xi.size)
        # warm-up: one short MC call and one kernel point
        F, h = self.fs[0][1], self.hs[0][1]
        of.engine.i_lambda_mc(F, h, self.psi, 1.0, self.xi[:1], 100,
                              of.RngStream(self.seed, 0), path_grid=self.PATH_GRID)
        of.engine.k_lambda(F, h, self.psi, 1.0 + 0j, self.xi[:1])

    def ops(self):
        eng = self.of.engine
        stream = 0
        for fname, F in self.fs:
            for hname, h in self.hs:
                for lam in self.lams:
                    stream += 1
                    key = f"{fname}/{hname}/{lam}"
                    kern = {}

                    def k_call(F=F, h=h, lam=lam):
                        return eng.k_lambda(F, h, self.psi, complex(lam), self.xi)

                    def k_check(res, key=key, h=h, kern=kern):
                        kern["values"] = res.values
                        return (kernel_errors_ok(res, h)
                                and self.repeats.same("k" + key, res.values))

                    def mc_call(F=F, h=h, lam=lam, stream=stream):
                        return eng.i_lambda_mc(
                            F, h, self.psi, lam, self.xi, self.n_paths,
                            self.of.RngStream(self.seed, stream_id=stream),
                            path_grid=self.PATH_GRID)

                    mc_work = {"mc_paths": self.n_paths}

                    def mc_check(res, key=key, kern=kern, mc_work=mc_work):
                        mc_work["mc_se_max"] = float(np.max(res.stderr))
                        if "values" not in kern:
                            return False
                        z = np.abs(kernel_oracle(kern["values"]) - res.values) / res.stderr
                        return (bool(np.all(z <= self.z_max))
                                and self.repeats.same("m" + key, res.values, res.stderr))

                    yield Op("k:" + key, k_call, k_check,
                             {"kernel_points": self.xi.size})
                    yield Op("mc:" + key, mc_call, mc_check, mc_work)


def kernel_oracle(values):
    """The kernel route's values, used as the oracle for the MC route."""
    return values


class KernelSweep(Workload):
    """Kernel and boundary routes across node counts 1, 64 and 2049."""

    name = "kernel-sweep"
    # seed-drawn (interior lambda, boundary q) evaluations per functional.
    # The 64-row calls are the most numerous, so the median op is a 64-row
    # call: numpy-bound and steadier than the interpreter-bound 1-row calls.
    # The 2049-row family gets one of each so that no node-count class
    # takes most of the pass.
    EVALS = {"unit": (2, 1), "F4": (2, 1), "F1_gaussian": (4, 1), "F3": (4, 1),
             "density": (1, 1)}
    N_SPOT = 2

    def setup(self):
        import opfeyn as of
        from opfeyn.fresnel import EtaDensity
        self.of = of
        sp = of.drifted_pair(0.3, 0.5)
        self.sp = sp
        hb = of.preset_direction(sp, "b")
        self.h = hb
        self.psi = of.gaussian_psi()
        density = EtaDensity(
            fn=lambda v: (1.0 + 0.5j) * np.exp(-v * v) * (1.0 + 0.3 * np.cos(3.0 * v)),
            radius=4.0)
        self.fs = _gallery(of, sp, hb) + [("density", of.gallery("F1", sp, w0=hb,
                                                                  eta=density))]
        if self.smoke:
            self.fs = [self.fs[0], self.fs[3]]
        # interior lambda drawn by the package's own sampler, then stratified
        # by arg(lambda), which sets the phase rate and so the quadrature
        # cost; boundary |q| stratified on [0.9, 1.2] with a random sign.
        # A functional evaluated once per pass (the 2049-node one) draws from
        # the middle half of the arg order, so one heavy op does not swing
        # the pass from seed to seed.
        pool = of.sample_interior_lambda(256, Q0, self.gen)
        pool = pool[np.argsort(np.angle(pool), kind="stable")]
        self.points = {}
        for fname, _ in self.fs:
            n_int, n_bnd = (1, 1) if self.smoke else self.EVALS[fname]
            if n_int == 1:
                lams = [pool[pool.size // 4 + self.gen.integers(pool.size // 2)]]
            else:
                lams = [pool[(k * pool.size) // n_int
                             + self.gen.integers(pool.size // n_int)]
                        for k in range(n_int)]
            qs = [(0.9 + 0.3 * (k + self.gen.uniform()) / n_bnd)
                  * self.gen.choice([-1.0, 1.0]) for k in range(n_bnd)]
            self.points[fname] = (lams, qs)
        self.q_conv = float(self.gen.uniform(0.8, 1.5))
        # real-lambda spot checks, stratified on [0.5, 2.5]
        n_spot = 1 if self.smoke else self.N_SPOT
        self.spot_lams = 0.5 + 2.0 * (np.arange(n_spot)
                                      + self.gen.uniform(size=n_spot)) / n_spot
        self.xi = np.array(XI)
        # the 2049-node line measure is evaluated at one seed-drawn point
        self.xi_density = self.gen.uniform(-1.0, 1.0, 1)
        of.engine.k_lambda(self.fs[0][1], hb, self.psi, 1.0 + 0j, self.xi[:1])

    def ops(self):
        eng = self.of.engine
        for fname, F in self.fs:
            xi = self.xi_density if fname == "density" else self.xi
            lams, qs = self.points[fname]
            for i, lam in enumerate(lams):
                key = f"k:{fname}/{i}"
                yield Op(key,
                         lambda F=F, lam=lam, xi=xi: eng.k_lambda(
                             F, self.h, self.psi, complex(lam), xi, q0=Q0),
                         lambda r, key=key: (kernel_errors_ok(r, self.h)
                                             and self.repeats.same(key, r.values)),
                         {"kernel_points": xi.size})
            for i, q in enumerate(qs):
                key = f"j:{fname}/{i}"
                yield Op(key,
                         lambda F=F, q=q, xi=xi: eng.j_q(
                             F, self.h, self.psi, float(q), xi, q0=Q0, delta=DELTA),
                         lambda r, key=key: (kernel_errors_ok(r, self.h)
                                             and self.repeats.same(key, r.values)),
                         {"boundary_points": xi.size})
        for i, lam in enumerate(self.spot_lams):
            key = f"spot/{i}"
            yield Op(key,
                     lambda lam=lam: eng.unit_spot_check(self.sp, float(lam)),
                     lambda r, key=key, lam=lam: self._spot_ok(key, r[0], lam),
                     {"kernel_points": 1})
        steps = 4 if self.smoke else 10
        yield Op("converge",
                 lambda: eng.convergence_study(
                     self.fs[0][1], self.h, self.psi, self.q_conv, self.xi,
                     q0=Q0, delta=DELTA, n_steps=steps),
                 self._converge_ok,
                 {"kernel_points": steps * self.xi.size,
                  "boundary_points": self.xi.size})

    def _spot_ok(self, key, value, lam) -> bool:
        ref = unit_spot_reference(self.sp, float(lam))
        return (abs(value - ref) <= 1e-8 * abs(ref)
                and self.repeats.same(key, np.array([value])))

    def _converge_ok(self, study) -> bool:
        gaps = study.gaps
        decreasing = bool(np.all(np.diff(gaps[2:]) < 0.0))
        final_ok = self.smoke or float(gaps[-1]) < 1e-3
        return decreasing and final_ok and self.repeats.same("converge", gaps)


class OscillatoryQuad(Workload):
    """Criterion-06 gaussian identity draws plus divergence-witness partials.

    The draws follow a stratified design: log10 Re(alpha) in [-2, 1] and
    Im(alpha) in [-2, 2] are cut into a grid of cells, and beta's two
    criterion-06 coordinates are spread over the cells by a fixed
    low-discrepancy sequence.  The seed jitters every coordinate by a
    fifth of its cell.  One draw costs from about 1 ms to about 0.6 s, and
    cost jumps with the phase count, so a fully random draw per cell would
    let a single heavy draw swing the pass from seed to seed.  Criterion
    06 reaches down to Re(alpha) = 1e-3, but below 1e-2 one draw swings
    between 0.4 s and 1.1 s under a small change of alpha.
    """

    name = "oscillatory-quad"
    GRID = 8
    JITTER = 0.2
    LOG_RE_ALPHA = (-2.0, 1.0)
    # 5 * 2^(k/9): 28 radii from 5 to 40, including 5, 10, 20 and 40.  A
    # witness partial costs the same for every seed, and there are enough
    # of them for the median op to fall inside their group
    RADII = tuple(5.0 * 2.0 ** (k / 9.0) for k in range(28))

    def setup(self):
        import opfeyn as of
        self.of = of
        self.sp = of.drifted_pair(0.3, 0.5)
        k = 2 if self.smoke else self.GRID
        self.draws = []
        for n in range(k * k):
            i, j = divmod(n, k)
            u, w = [(c + 0.5 + self.JITTER * self.gen.uniform(-0.5, 0.5)) / k
                    for c in (i, j)]
            b1, b2 = [min(max((n * g) % 1.0 + self.JITTER * self.gen.uniform(-0.5, 0.5)
                              / (k * k), 0.0), 1.0)
                      for g in (0.6180339887, 0.7548776662)]
            lo, hi = self.LOG_RE_ALPHA
            re_a = 10.0 ** (lo + (hi - lo) * u)
            alpha = re_a + 1j * (-2.0 + 4.0 * w)
            beta = (-3.0 + 6.0 * b1) * math.sqrt(re_a) + 1j * (-3.0 + 6.0 * b2)
            self.draws.append((alpha, beta))
        self.radii = self.RADII[:2] if self.smoke else self.RADII
        of.engine.gaussian_identity_check(1.0 + 0j, 0j)

    def ops(self):
        eng = self.of.engine
        for n, (alpha, beta) in enumerate(self.draws):
            key = f"id/{n}"

            def check(r, key=key, alpha=alpha, beta=beta):
                ref = identity_closed_form(alpha, beta)
                return (abs(r.numeric - ref) <= 1e-6 * abs(ref)
                        and self.repeats.same(key, np.array([r.numeric])))
            yield Op(key, lambda a=alpha, b=beta: eng.gaussian_identity_check(a, b),
                     check, {"quad_integrals": 1})
        for R in self.radii:
            key = f"witness/{R:g}"

            def wcheck(p, key=key, R=R):
                ref = witness_closed_form(p.pair_ha, R)
                return (abs(p.value - ref) <= 1e-8 * ref
                        and self.repeats.same(key, np.array([p.value])))
            yield Op(key, lambda R=R: eng.divergence_witness_partial(self.sp, R),
                     wcheck, {"quad_integrals": 1})


README_CONFIG = {
    "scale": {"preset": "drifted", "alpha": 0.3, "beta": 0.5},
    "h": "b",
    "F": {"name": "F3"},
    "psi": "gaussian",
    "lambdas": [[1.0, 0.0], [1.0, 0.5]],
    "q": 1.0,
    "delta": 0.5,
    "n_paths": 20000,
    "seed": 12345,
}
CSV_NAMES = ("paths.csv", "evaluate.csv", "bounds.csv", "converge.csv",
             "counterexample.csv")


class CliReport(Workload):
    """``opfeyn report`` on the README drifted config, in-process.

    The op of this workload is the whole report; the route calls inside
    it are timed separately (see ``RouteClock``) for op_ms_p50/op_ms_tail.
    """

    name = "cli-report"

    def __init__(self, seed, smoke=False, out_root: Path | None = None):
        super().__init__(seed, smoke)
        self.out_root = out_root

    def setup(self):
        import opfeyn.cli as cli
        self.cli = cli
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-report-", dir=self.out_root))
        cfg = dict(README_CONFIG, seed=int(self.seed))
        if self.smoke:
            cfg.update(n_paths=500, bound_tuples=200,
                       lambdas=[[1.0, 0.0]])
        self.config_path = self.tmp / "run.json"
        self.config_path.write_text(json.dumps(cfg))
        self.n_pass = 0
        code = self._cli("validate", self.tmp / "warmup")
        if code != 0:
            raise RuntimeError(f"opfeyn validate exited with {code}")

    def ops(self):
        self.n_pass += 1
        out = self.tmp / f"pass{self.n_pass}"
        yield Op("report", lambda: self._cli("report", out),
                 lambda code: code == 0 and self._csv_same(out))

    def _cli(self, command: str, out: Path) -> int:
        # --quiet still prints the status lines; keep them off the result stream
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main([command, "--config", str(self.config_path),
                                  "--out", str(out), "--quiet"])

    def _csv_same(self, out: Path) -> bool:
        if not all((out / n).exists() for n in CSV_NAMES):
            return False
        digest = ",".join(hashlib.sha256((out / n).read_bytes()).hexdigest()
                          for n in CSV_NAMES)
        shutil.rmtree(out, ignore_errors=True)
        return self.repeats.first.setdefault("csv", digest) == digest

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (McCrosscheck, KernelSweep, OscillatoryQuad,
                                 CliReport)}
