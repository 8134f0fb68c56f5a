"""Strict JSON run configuration for the command-line harness.

Every section rejects unknown keys by name, so typos fail loudly instead
of silently falling back to defaults.  A parsed configuration round-trips
losslessly through ``to_dict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadConfig, ConfigError
from .fresnel import EtaAtoms, EtaGaussian, FresnelFunctional, gallery, unit_functional
from .hilbert import CambElement, pair_with_a, preset_direction
from .psi import PsiFn, bump_psi, divergence_witness_psi, gaussian_psi
from .scale import ScalePair, preset_scale

_SCALE_KEYS = {"preset", "alpha", "beta", "T", "grid_n"}
_H_KEYS = {"preset", "degree"}
_F_KEYS = {"name", "w0", "eta", "mean", "var"}
_ETA_KEYS = {"kind", "mean", "var", "scale_re", "scale_im", "atoms"}
_PSI_KEYS = {"preset", "radius", "amp"}
_XI_KEYS = {"min", "max", "count"}
_TOP_KEYS = {"scale", "h", "F", "psi", "lambdas", "q", "q0", "delta",
             "n_paths", "path_grid", "seed", "xi_grid", "out_dir",
             "sample_count", "converge_steps", "bound_tuples"}


def _check_keys(d: dict, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _num(d: dict, key: str, where: str, default=None, *, integer=False,
         required=False):
    if key not in d:
        if required:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    if integer:
        if int(v) != v:
            raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
        return int(v)
    return float(v)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; ``raw`` echoes the parsed input."""

    raw: dict = field(repr=False)
    scale: dict
    h: dict
    F: dict
    psi: dict
    lambdas: tuple[complex, ...]
    q: float | None
    q0: float
    delta: float
    n_paths: int
    path_grid: int
    seed: int
    xi_min: float
    xi_max: float
    xi_count: int
    out_dir: str | None
    sample_count: int
    converge_steps: int
    bound_tuples: int

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))

    @property
    def xi_grid(self) -> np.ndarray:
        return np.linspace(self.xi_min, self.xi_max, self.xi_count)

    # -- object builders ------------------------------------------------------

    def build_scale(self) -> ScalePair:
        s = self.scale
        return preset_scale(s["preset"],
                            alpha=s.get("alpha"), beta=s.get("beta"),
                            T=s.get("T", 1.0), grid_n=s.get("grid_n", 1024))

    def build_h(self, sp: ScalePair) -> CambElement:
        try:
            return preset_direction(sp, self.h["preset"],
                                    degree=self.h.get("degree"))
        except ValueError as e:
            raise ConfigError(f"h: {e}") from e

    def build_F(self, sp: ScalePair) -> FresnelFunctional:
        f = self.F
        name = f["name"]
        if name == "one":
            return unit_functional(sp)
        if name in ("F3", "F4"):
            return gallery(name, sp)
        try:
            if name == "F2":
                w0 = self._build_w0(sp, f)
                return gallery("F2", sp, w0=w0, mean=f.get("mean"), var=f.get("var"))
            if name == "F1":
                w0 = self._build_w0(sp, f)
                eta = self._build_eta(f.get("eta"))
                return gallery("F1", sp, w0=w0, eta=eta)
        except BadConfig as e:
            raise ConfigError(f"F: {e}") from e
        raise ConfigError(f"F.name: unknown functional {name!r}")

    def _build_w0(self, sp: ScalePair, f: dict) -> CambElement:
        w0 = f.get("w0")
        if not isinstance(w0, dict):
            raise ConfigError("F.w0: expected an object with a direction preset")
        try:
            return preset_direction(sp, w0["preset"], degree=w0.get("degree"))
        except (KeyError, ValueError) as e:
            raise ConfigError(f"F.w0: {e}") from e

    @staticmethod
    def _build_eta(eta: dict | None):
        if not isinstance(eta, dict):
            raise ConfigError("F.eta: expected an object")
        kind = eta.get("kind")
        if kind == "gaussian":
            scale = complex(_num(eta, "scale_re", "F.eta", default=1.0),
                            _num(eta, "scale_im", "F.eta", default=0.0))
            return EtaGaussian(mean=_num(eta, "mean", "F.eta", default=0.0),
                               var=_num(eta, "var", "F.eta", default=1.0),
                               scale=scale)
        if kind == "atoms":
            atoms = eta.get("atoms")
            if not isinstance(atoms, list) or not atoms:
                raise ConfigError("F.eta.atoms: expected a non-empty list")
            try:
                parsed = tuple((float(v), complex(re, im)) for v, re, im in atoms)
            except (TypeError, ValueError) as e:
                raise ConfigError(
                    "F.eta.atoms: entries must be [location, re, im] triples") from e
            return EtaAtoms(atoms=parsed)
        raise ConfigError(f"F.eta.kind: unknown kind {kind!r}")

    def build_psi(self, sp: ScalePair, h: CambElement) -> PsiFn:
        p = self.psi
        preset = p["preset"]
        if preset == "gaussian":
            return gaussian_psi()
        if preset == "bump":
            return bump_psi(p.get("radius", 1.0), p.get("amp", 1.0))
        if preset == "divergence_witness":
            return divergence_witness_psi(pair_with_a(h))
        raise ConfigError(f"psi.preset: unknown preset {preset!r}")


def config_from_dict(d: dict) -> RunConfig:
    _check_keys(d, _TOP_KEYS, "config")

    scale = d.get("scale")
    if not isinstance(scale, dict):
        raise ConfigError("scale: required object missing")
    _check_keys(scale, _SCALE_KEYS, "scale")
    if scale.get("preset") not in ("wiener", "drifted"):
        raise ConfigError(f"scale.preset: unknown preset {scale.get('preset')!r}")
    if scale["preset"] == "wiener" and ("alpha" in scale or "beta" in scale):
        raise ConfigError("scale: wiener preset takes no alpha/beta")
    if scale["preset"] == "drifted" and not {"alpha", "beta"} <= set(scale):
        raise ConfigError("scale: drifted preset needs alpha and beta")
    _num(scale, "T", "scale")
    grid_n = _num(scale, "grid_n", "scale", default=1024, integer=True)
    if grid_n < 2 or grid_n % 2:
        raise ConfigError("scale.grid_n: must be even and at least 2")

    h = d.get("h", {"preset": "b"})
    if isinstance(h, str):
        h = {"preset": h}
    _check_keys(h, _H_KEYS, "h")
    if "preset" not in h:
        raise ConfigError("h.preset: required")

    F = d.get("F", {"name": "one"})
    if isinstance(F, str):
        F = {"name": F}
    _check_keys(F, _F_KEYS, "F")
    if "name" not in F:
        raise ConfigError("F.name: required")
    _num(F, "mean", "F")
    _num(F, "var", "F")
    if "w0" in F:
        if not isinstance(F["w0"], dict):
            raise ConfigError("F.w0: expected an object with a direction preset")
        _check_keys(F["w0"], _H_KEYS, "F.w0")
    if "eta" in F:
        if not isinstance(F["eta"], dict):
            raise ConfigError("F.eta: expected an object")
        _check_keys(F["eta"], _ETA_KEYS, "F.eta")

    psi = d.get("psi", {"preset": "gaussian"})
    if isinstance(psi, str):
        psi = {"preset": psi}
    _check_keys(psi, _PSI_KEYS, "psi")
    if "preset" not in psi:
        raise ConfigError("psi.preset: required")

    lambdas = []
    raw_lams = d.get("lambdas", [])
    if not isinstance(raw_lams, list):
        raise ConfigError("lambdas: expected a list of [re, im] pairs")
    for i, pair in enumerate(raw_lams):
        if (not isinstance(pair, list) or len(pair) != 2
                or any(isinstance(x, bool) or not isinstance(x, (int, float))
                       for x in pair)):
            raise ConfigError(f"lambdas[{i}]: expected an [re, im] number pair")
        lam = complex(pair[0], pair[1])
        if lam == 0:
            raise ConfigError(f"lambdas[{i}]: parameter must be nonzero")
        if lam.real < 0:
            raise ConfigError(f"lambdas[{i}]: real part must be nonnegative")
        lambdas.append(lam)

    q0 = _num(d, "q0", "config", default=0.5)
    if q0 <= 0:
        raise ConfigError("q0: must be positive")
    q = _num(d, "q", "config", default=None)
    if q is not None:
        if q == 0:
            raise ConfigError("q: must be nonzero")
        if abs(q) <= q0:
            raise ConfigError(
                f"q: |q| = {abs(q):g} must exceed q0 = {q0:g} "
                f"(boundary admissibility)")
    delta = _num(d, "delta", "config", default=0.5)
    if delta < 0:
        raise ConfigError("delta: must be nonnegative")

    n_paths = _num(d, "n_paths", "config", default=100000, integer=True)
    path_grid = _num(d, "path_grid", "config", default=1024, integer=True)
    seed = _num(d, "seed", "config", default=12345, integer=True)
    if n_paths < 2:
        raise ConfigError("n_paths: need at least 2 paths")
    if path_grid < 1:
        raise ConfigError("path_grid: need at least 1 step")

    xi = d.get("xi_grid", {"min": -2.0, "max": 2.0, "count": 5})
    _check_keys(xi, _XI_KEYS, "xi_grid")
    xi_min = _num(xi, "min", "xi_grid", default=-2.0)
    xi_max = _num(xi, "max", "xi_grid", default=2.0)
    xi_count = _num(xi, "count", "xi_grid", default=5, integer=True)
    if xi_count < 1 or xi_max < xi_min:
        raise ConfigError("xi_grid: need count >= 1 and max >= min")

    out_dir = d.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir: expected a string path")

    sample_count = _num(d, "sample_count", "config", default=8, integer=True)
    converge_steps = _num(d, "converge_steps", "config", default=10, integer=True)
    bound_tuples = _num(d, "bound_tuples", "config", default=10000, integer=True)
    if sample_count < 1:
        raise ConfigError("sample_count: must be positive")
    if converge_steps < 1:
        raise ConfigError("converge_steps: must be positive")
    if bound_tuples < 1:
        raise ConfigError("bound_tuples: must be positive")

    return RunConfig(
        raw=d, scale=scale, h=h, F=F, psi=psi, lambdas=tuple(lambdas),
        q=q, q0=q0, delta=delta, n_paths=n_paths, path_grid=path_grid,
        seed=seed, xi_min=xi_min, xi_max=xi_max, xi_count=xi_count,
        out_dir=out_dir, sample_count=sample_count,
        converge_steps=converge_steps, bound_tuples=bound_tuples)


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {p}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(data)
