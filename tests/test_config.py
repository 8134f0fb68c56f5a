import json

import pytest

from opfeyn import ConfigError, config_from_dict, load_config


def minimal(**over):
    d = {"scale": {"preset": "wiener"}}
    d.update(over)
    return d


def test_defaults():
    cfg = config_from_dict(minimal())
    assert cfg.q0 == 0.5
    assert cfg.delta == 0.5
    assert cfg.n_paths == 100000
    assert cfg.path_grid == 1024
    assert cfg.seed == 12345
    assert cfg.q is None
    assert cfg.lambdas == ()
    assert cfg.xi_count == 5 and cfg.xi_min == -2.0 and cfg.xi_max == 2.0
    assert cfg.xi_grid.size == 5


def test_round_trip():
    d = minimal(h={"preset": "b"}, lambdas=[[1.0, 0.5]], seed=7)
    cfg = config_from_dict(d)
    assert cfg.to_dict() == d


def test_string_shorthands():
    cfg = config_from_dict({"scale": {"preset": "wiener"}, "h": "b",
                            "F": "one", "psi": "gaussian"})
    assert cfg.h.label == "b"
    assert cfg.F.label == "one"
    assert cfg.psi.label == "gaussian"


def test_unknown_keys_named():
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict(minimal(mystery=1))
    with pytest.raises(ConfigError, match="gamma"):
        config_from_dict({"scale": {"preset": "wiener", "gamma": 2}})
    with pytest.raises(ConfigError, match="rate"):
        config_from_dict(minimal(F={"name": "F1", "w0": {"preset": "b"},
                                    "eta": {"kind": "gaussian", "rate": 1}}))
    with pytest.raises(ConfigError, match="shift"):
        config_from_dict(minimal(xi_grid={"min": 0, "max": 1, "count": 3,
                                          "shift": 2}))
    # F.w0 is checked whether or not the functional uses it
    for name in ("F2", "F3"):
        with pytest.raises(ConfigError, match="tilt"):
            config_from_dict(minimal(F={"name": name, "mean": 0.0, "var": 1.0,
                                        "w0": {"preset": "b", "tilt": 1}}))


def test_scale_validation():
    with pytest.raises(ConfigError):
        config_from_dict({})
    with pytest.raises(ConfigError):
        config_from_dict({"scale": {"preset": "brownian"}})
    with pytest.raises(ConfigError):
        config_from_dict({"scale": {"preset": "wiener", "alpha": 1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"scale": {"preset": "drifted", "alpha": 1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"scale": {"preset": "wiener", "grid_n": 7}})


def test_lambda_validation():
    with pytest.raises(ConfigError):
        config_from_dict(minimal(lambdas=[[1.0]]))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(lambdas=[["x", 0.0]]))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(lambdas=[[0.0, 0.0]]))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(lambdas=[[-1.0, 0.0]]))
    cfg = config_from_dict(minimal(lambdas=[[0.0, -1.0], [2, 1]]))
    assert cfg.lambdas == (-1.0j, 2.0 + 1.0j)


def test_boundary_gate():
    with pytest.raises(ConfigError, match="q0"):
        config_from_dict(minimal(q=0.3))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(q=0.0))
    cfg = config_from_dict(minimal(q=-2.0, q0=0.5))
    assert cfg.q == -2.0


def test_numeric_field_checks():
    with pytest.raises(ConfigError):
        config_from_dict(minimal(n_paths=1))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(n_paths=2.5))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(delta=-0.1))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(q0=0.0))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(seed=True))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(xi_grid={"min": 1.0, "max": 0.0}))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(out_dir=7))


@pytest.mark.parametrize("key, least", [
    ("n_paths", 2), ("path_grid", 1), ("seed", 0), ("sample_count", 1),
    ("converge_steps", 1), ("bound_tuples", 1)])
def test_integer_settings_take_one_least_value_rule(key, least):
    with pytest.raises(ConfigError, match=f"^{key}: must be at least {least}, "
                                          f"got {least - 1}$"):
        config_from_dict(minimal(**{key: least - 1}))
    assert getattr(config_from_dict(minimal(**{key: least})), key) == least


def test_non_finite_numbers_rejected():
    # JSON's NaN and Infinity parse as floats; no field accepts them
    for over in ({"delta": float("nan")}, {"n_paths": float("inf")},
                 {"xi_grid": {"min": -1.0, "max": float("nan")}},
                 {"scale": {"preset": "wiener", "T": float("nan")}},
                 {"lambdas": [[float("nan"), 0.0]]}):
        with pytest.raises(ConfigError):
            config_from_dict(minimal(**over))


def test_eta_parsing():
    base = {"name": "F1", "w0": {"preset": "b"}}
    cfg = config_from_dict(minimal(
        F=dict(base, eta={"kind": "atoms", "atoms": [[0.5, 1.0, 0.0]]})))
    assert cfg.F.label == "F1"
    # unknown kinds and malformed atom lists surface when F is built
    with pytest.raises(ConfigError):
        config_from_dict(minimal(F=dict(base, eta={"kind": "cauchy"})))
    with pytest.raises(ConfigError):
        config_from_dict(minimal(F=dict(base, eta={"kind": "atoms",
                                                   "atoms": []})))


def test_f2_requires_positive_var():
    with pytest.raises(ConfigError):
        config_from_dict(minimal(
            F={"name": "F2", "w0": {"preset": "b"}, "mean": 0.0, "var": -1.0}))


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(arr)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal(seed=99)))
    assert load_config(good).seed == 99
