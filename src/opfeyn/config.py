"""Strict JSON run configuration for the command-line harness.

Every section rejects unknown keys by name, so typos fail loudly instead
of silently falling back to defaults.  Parsing builds the run's scale
pair, direction, functional and state function once, so every subcommand
rejects a bad file the same way: a ValueError or package error raised
while a section is built becomes a ConfigError naming that section.  A
parsed configuration round-trips losslessly through ``to_dict``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NotAdmissible, OpfeynError
from .fresnel import EtaAtoms, EtaGaussian, FresnelFunctional, gallery, unit_functional
from .hilbert import CambElement, pair_with_a, preset_direction
from .kernels import LambdaParam, require_delta, require_threshold
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
# the integer settings: (default, least value)
_COUNTS = {"n_paths": (100000, 2), "path_grid": (1024, 1), "seed": (12345, 0),
           "sample_count": (8, 1), "converge_steps": (10, 1),
           "bound_tuples": (10000, 1)}


def check_count(key: str, value: int) -> int:
    """The integer setting ``key`` at ``value``, or ConfigError below its least value."""
    if value < _COUNTS[key][1]:
        raise ConfigError(f"{key}: must be at least {_COUNTS[key][1]}, got {value}")
    return value


def _check_keys(d: dict, allowed: set, where: str,
                required: str | None = None) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    if required is not None and required not in d:
        raise ConfigError(f"{where}.{required}: required")


def _num(d: dict, key: str, where: str, default=None, *, integer=False):
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {v!r}")
    if integer:
        if int(v) != v:
            raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
        return int(v)
    return float(v)


@contextmanager
def _building(where: str):
    """Report a ValueError or package error raised while ``where``'s object
    is built as a ConfigError naming that section."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OpfeynError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _section(d: dict, key: str, name_key: str, default: str):
    """The object under ``key``; a bare string is shorthand for its name."""
    s = d.get(key, {name_key: default})
    return {name_key: s} if isinstance(s, str) else s


def _scale(s) -> ScalePair:
    _check_keys(s, _SCALE_KEYS, "scale", required="preset")
    with _building("scale"):
        return preset_scale(s["preset"],
                            alpha=_num(s, "alpha", "scale"),
                            beta=_num(s, "beta", "scale"),
                            T=_num(s, "T", "scale", default=1.0),
                            grid_n=_num(s, "grid_n", "scale", default=1024,
                                        integer=True))


def _direction(sp: ScalePair, d, where: str) -> CambElement:
    _check_keys(d, _H_KEYS, where, required="preset")
    degree = _num(d, "degree", where, integer=True)
    with _building(where):
        return preset_direction(sp, d["preset"], degree=degree)


def _eta(eta):
    _check_keys(eta, _ETA_KEYS, "F.eta")
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
        parsed = []
        for i, entry in enumerate(atoms):
            where = f"F.eta.atoms[{i}]"
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ConfigError(f"{where}: expected a [location, re, im] triple")
            e = dict(zip(("location", "re", "im"), entry))
            parsed.append((_num(e, "location", where),
                           complex(_num(e, "re", where), _num(e, "im", where))))
        return EtaAtoms(atoms=tuple(parsed))
    raise ConfigError(f"F.eta.kind: unknown kind {kind!r}")


def _functional(sp: ScalePair, f) -> FresnelFunctional:
    _check_keys(f, _F_KEYS, "F", required="name")
    mean = _num(f, "mean", "F")
    var = _num(f, "var", "F")
    with _building("F"):
        # w0 and eta are built whenever given, used or not
        w0 = _direction(sp, f["w0"], "F.w0") if "w0" in f else None
        eta = _eta(f["eta"]) if "eta" in f else None
        if f["name"] == "one":
            return unit_functional(sp)
        return gallery(f["name"], sp, w0=w0, eta=eta, mean=mean, var=var)


def _state_function(p, h: CambElement) -> PsiFn:
    _check_keys(p, _PSI_KEYS, "psi", required="preset")
    radius = _num(p, "radius", "psi", default=1.0)
    amp = _num(p, "amp", "psi", default=1.0)
    preset = p["preset"]
    with _building("psi"):
        if preset == "gaussian":
            return gaussian_psi()
        if preset == "bump":
            return bump_psi(radius, amp)
        if preset == "divergence_witness":
            return divergence_witness_psi(pair_with_a(h))
    raise ConfigError(f"psi.preset: unknown preset {preset!r}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the scale pair, direction, functional
    and state function are built once; ``raw`` echoes the parsed input."""

    raw: dict = field(repr=False)
    scale: ScalePair
    h: CambElement
    F: FresnelFunctional
    psi: PsiFn
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


def config_from_dict(d: dict) -> RunConfig:
    _check_keys(d, _TOP_KEYS, "config")
    if "scale" not in d:
        raise ConfigError("scale: required object missing")
    sp = _scale(d["scale"])
    h = _direction(sp, _section(d, "h", "preset", "b"), "h")
    F = _functional(sp, _section(d, "F", "name", "one"))
    psi = _state_function(_section(d, "psi", "preset", "gaussian"), h)

    lambdas = []
    raw_lams = d.get("lambdas", [])
    if not isinstance(raw_lams, list):
        raise ConfigError("lambdas: expected a list of [re, im] pairs")
    for i, pair in enumerate(raw_lams):
        if (not isinstance(pair, list) or len(pair) != 2
                or any(isinstance(x, bool) or not isinstance(x, (int, float))
                       or not math.isfinite(x) for x in pair)):
            raise ConfigError(f"lambdas[{i}]: expected an [re, im] number pair")
        with _building(f"lambdas[{i}]"):
            lambdas.append(LambdaParam.from_value(complex(pair[0], pair[1])).value)

    q0 = _num(d, "q0", "config", default=0.5)
    with _building("q0"):
        require_threshold(q0)
    q = _num(d, "q", "config", default=None)
    with _building("q"):
        if q is not None and not LambdaParam.from_q(q).in_gamma(q0):
            raise NotAdmissible(f"|q| = {abs(q):g} must exceed q0 = {q0:g} "
                                f"(boundary admissibility)")
    delta = _num(d, "delta", "config", default=0.5)
    with _building("delta"):
        require_delta(delta)

    counts = {key: check_count(key, _num(d, key, "config", default=default, integer=True))
              for key, (default, _) in _COUNTS.items()}

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

    return RunConfig(
        raw=d, scale=sp, h=h, F=F, psi=psi, lambdas=tuple(lambdas),
        q=q, q0=q0, delta=delta, xi_min=xi_min, xi_max=xi_max,
        xi_count=xi_count, out_dir=out_dir, **counts)


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
