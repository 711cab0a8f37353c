import json
from typing import get_type_hints

import pytest

from pcbs.config import RunConfig, config_from_tree, load_config
from pcbs.errors import ConfigError


def test_defaults_are_the_study_parameters():
    cfg = RunConfig()
    assert cfg.source.r == 1.0 and cfg.source.alpha == 0.5
    assert cfg.truncation.n_max is None and cfg.truncation.tail_tolerance == 1e-8
    assert cfg.crystal.l_a == cfg.crystal.l_b == 5.5e-7
    assert cfg.crystal.eps_rel_b == pytest.approx(2.22**2)
    assert cfg.pump.radiant_flux == 0.03 and cfg.pump.beam_radius == 5.0e-6
    assert cfg.bands.band_index == 4 and cfg.bands.target_vg_over_c == 4.59e-3
    assert cfg.bb84.n_pulses == 10**6 and cfg.bb84.attack == "none"


def test_partial_tree_overrides():
    cfg = config_from_tree({"seed": 7, "source": {"r": 0.3},
                            "sweep": {"steps": 5}})
    assert cfg.seed == 7
    assert cfg.source.r == 0.3 and cfg.source.alpha == 0.5
    assert cfg.sweep.steps == 5 and cfg.sweep.r_max == 2.0
    assert cfg.crystal == RunConfig().crystal


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="swep"):
        config_from_tree({"swep": {}})
    with pytest.raises(ConfigError, match="sweep.stepss"):
        config_from_tree({"sweep": {"stepss": 3}})
    # sweeps read the herald row and have no mass gate to set
    with pytest.raises(ConfigError, match="sweep.tail_tolerance"):
        config_from_tree({"sweep": {"tail_tolerance": 0.05}})
    with pytest.raises(ConfigError):
        config_from_tree({"crystal": {"l_c": 1e-7}})


def test_malformed_values_rejected():
    with pytest.raises(ConfigError):
        config_from_tree({"seed": True})
    with pytest.raises(ConfigError):
        config_from_tree({"sweep": 3})
    with pytest.raises(ConfigError):
        config_from_tree({"pump": {"radiant_flux": -1.0, "beam_radius": 5e-6}})
    with pytest.raises(ConfigError):
        config_from_tree({"bb84": {"attack": "intercept"}})
    with pytest.raises(ConfigError):
        config_from_tree([1, 2])


@pytest.mark.parametrize("n_pulses", [1000.0, True, 0, -5, "1000"])
def test_bad_pulse_count_rejected(n_pulses):
    with pytest.raises(ConfigError, match="n_pulses"):
        config_from_tree({"bb84": {"n_pulses": n_pulses}})


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("section, key", [
    ("truncation", "n_max"),
    ("sweep", "steps"),
    ("sweep", "n_max"),
    ("bands", "n_bands"),
    ("bands", "n_samples"),
    ("bands", "band_index"),
    ("bb84", "n_pulses"),
])
def test_integer_fields_reject_floats_and_bools(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        config_from_tree({section: {key: value}})


FLOAT_FIELDS = [(section, key, hint)
                for section, cls in get_type_hints(RunConfig).items() if section != "seed"
                for key, hint in get_type_hints(cls).items() if hint in (float, float | None)]


def test_float_fields_are_found():
    assert len(FLOAT_FIELDS) == 18 and ("pump", "amplitude", float | None) in FLOAT_FIELDS


@pytest.mark.parametrize("section, key, value", [
    (section, key, value) for section, key, hint in FLOAT_FIELDS
    for value in ("1", True, False, None, [1.0])
    if not (value is None and hint == float | None)    # null is pump.amplitude's default
])
def test_float_fields_reject_non_numbers(section, key, value):
    with pytest.raises(ConfigError, match=f"'{section}.{key}' must be a number"):
        config_from_tree({section: {key: value}})


def test_float_fields_accept_json_integers():
    cfg = config_from_tree({"crystal": {"eps_rel_b": 4}, "source": {"r": 1, "alpha": 0},
                            "bb84": {"z_threshold": 5}})
    assert cfg.crystal.eps_rel_b == 4 and cfg.source.r == 1 and cfg.bb84.z_threshold == 5


def test_optional_n_max_accepts_null():
    assert config_from_tree({"truncation": {"n_max": None}}).truncation.n_max is None
    assert config_from_tree({"truncation": {"n_max": 50}}).truncation.n_max == 50


def test_attack_model_built_from_section():
    cfg = config_from_tree({"bb84": {"attack": "balanced_beam_splitter",
                                     "splitting_ratio": 0.25}})
    model = cfg.bb84.attack_model()
    assert model.routed_fraction == 0.25


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"source": {"alpha": 0.25}}))
    cfg = load_config(str(path))
    assert cfg.source.alpha == 0.25
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(broken))
