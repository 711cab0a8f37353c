import json
import re
import sys
from dataclasses import asdict
from typing import get_type_hints

import pytest

from pcbs.config import RunConfig, config_from_tree, load_config
from pcbs.errors import ConfigError
from pcbs.fock import SqueezedInput


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


def test_source_is_the_library_state():
    assert RunConfig().source == SqueezedInput(r=1.0, alpha=0.5)
    assert config_from_tree({"source": {"alpha": 0.0}}).source == SqueezedInput(r=1.0, alpha=0.0)


def test_partial_pump_tree_loads():
    # the missing keys come from the defaults, as in every other section
    cfg = config_from_tree({"pump": {"radiant_flux": 0.06}})
    assert cfg.pump.radiant_flux == 0.06 and cfg.pump.beam_radius == 5.0e-6
    assert config_from_tree({"pump": {"refractive_index": 2.2}}).pump.radiant_flux == 0.03


def test_tree_sets_keys_on_a_given_config():
    base = config_from_tree({"seed": 3, "source": {"r": 0.3}, "sweep": {"steps": 5}})
    cfg = config_from_tree({"source": {"alpha": 0.1}, "sweep": {"r_max": 1.0}}, base)
    assert cfg.seed == 3 and cfg.source == SqueezedInput(r=0.3, alpha=0.1)
    assert cfg.sweep.steps == 5 and cfg.sweep.r_max == 1.0
    assert config_from_tree({}, base) == base


@pytest.mark.parametrize("tree, message", [
    ({"source": {"r": -0.5}}, "squeeze parameter r must be >= 0, got -0.5"),
    ({"truncation": {"n_max": 0}}, "n_max must be in [1, 4000], got 0"),
    ({"sweep": {"n_max": 4001}}, "n_max must be in [1, 4000], got 4001"),
    ({"sweep": {"steps": 0}}, "steps must be >= 1, got 0"),
    ({"sweep": {"r_min": -1.0}}, "need 0 <= r_min <= r_max < inf"),
    ({"sweep": {"r_min": 1.5, "r_max": 1.0}}, "need 0 <= r_min <= r_max < inf"),
    ({"sweep": {"r_max": float("nan")}}, "need 0 <= r_min <= r_max < inf"),
    ({"bands": {"n_bands": 0}}, "n_bands must be >= 1, got 0"),
    ({"bands": {"n_samples": 1}}, "n_samples must be >= 2, got 1"),
    ({"bands": {"band_index": -2}}, "band_index must be >= 1, got -2"),
    ({"crystal": {"l_a": 1e-300, "l_b": 1e-300}}, "the period l_a + l_b must be >= 1e-280 m"),
])
def test_section_refusals_carry_their_own_message(tree, message):
    with pytest.raises(ConfigError) as exc:
        config_from_tree(tree)
    assert str(exc.value).startswith(message)


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
    # the flux fixes the field amplitude, so a tree may not set it, even to its own value
    with pytest.raises(ConfigError, match=r"^unknown key 'pump\.amplitude'$"):
        config_from_tree({"pump": {"radiant_flux": 0.03, "amplitude": 536470.6514215705}})


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
    assert len(FLOAT_FIELDS) == 17 and ("pump", "radiant_flux", float) in FLOAT_FIELDS


@pytest.mark.parametrize("section, key, value", [
    pytest.param(section, key, value, id=f"{section}-{key}-{value_id}")
    for section, key, hint in FLOAT_FIELDS
    for value_id, value in (("1", "1"), ("True", True), ("False", False), ("None", None),
                            ("list", [1.0]))
    if not (value is None and hint == float | None)    # null is a float | None key's default
])
def test_float_fields_reject_non_numbers(section, key, value):
    with pytest.raises(ConfigError, match=f"'{section}.{key}' must be a number"):
        config_from_tree({section: {key: value}})


def test_float_fields_accept_json_integers():
    cfg = config_from_tree({"crystal": {"eps_rel_b": 4}, "source": {"r": 1, "alpha": 0},
                            "bb84": {"z_threshold": 5}})
    assert cfg.crystal.eps_rel_b == 4 and cfg.source.r == 1 and cfg.bb84.z_threshold == 5
    top = 2**1024 - 2**970 - 1    # the largest integer float() takes: it rounds to 1.8e308
    r_max = config_from_tree({"sweep": {"r_max": top}}).sweep.r_max
    assert type(r_max) is int and r_max == top    # kept as given


@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024 - 2**970])
@pytest.mark.parametrize("section, key", [(section, key) for section, key, _ in FLOAT_FIELDS])
def test_float_fields_refuse_integers_beyond_float_range(tmp_path, section, key, value):
    # 2**1024 - 2**970 is the least integer that rounds to inf
    message = f"^'{section}.{key}' must be a number within float range"
    with pytest.raises(ConfigError, match=message):
        config_from_tree({section: {key: value}})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))


@pytest.mark.parametrize("section, key", [("output", "directory"), ("bb84", "attack")])
@pytest.mark.parametrize("value", [5, 2.5, True, None, ["x"]])
def test_string_fields_reject_non_strings(section, key, value):
    with pytest.raises(ConfigError, match=f"'{section}.{key}' must be a string"):
        config_from_tree({section: {key: value}})


@pytest.mark.parametrize("z_threshold", [0.0, -1.0, float("nan")])
def test_non_positive_z_threshold_rejected(z_threshold):
    with pytest.raises(ConfigError, match="z_threshold must be positive"):
        config_from_tree({"bb84": {"z_threshold": z_threshold}})


def test_every_default_round_trips_through_the_tree():
    # each field's type hint has a rule, and the defaults satisfy it
    assert config_from_tree(asdict(RunConfig())) == RunConfig()


def test_optional_n_max_accepts_null():
    assert config_from_tree({"truncation": {"n_max": None}}).truncation.n_max is None
    assert config_from_tree({"truncation": {"n_max": 50}}).truncation.n_max == 50


def test_routed_fraction_read_from_section():
    cfg = config_from_tree({"bb84": {"attack": "balanced_beam_splitter",
                                     "splitting_ratio": 0.25}})
    assert cfg.bb84.routed_fraction == 0.25
    # without an attack the ratio is kept and checked, but nothing is routed
    cfg = config_from_tree({"bb84": {"attack": "none", "splitting_ratio": 0.7}})
    assert cfg.bb84.splitting_ratio == 0.7 and cfg.bb84.routed_fraction == 0.0
    assert RunConfig().bb84.routed_fraction == 0.0


@pytest.mark.parametrize("attack", ["none", "balanced_beam_splitter"])
@pytest.mark.parametrize("ratio", [-0.1, 1.5, float("nan")])
def test_ratio_outside_unit_interval_rejected_whatever_the_kind(attack, ratio):
    with pytest.raises(ConfigError, match=r"^splitting_ratio must lie in \[0, 1\]$"):
        config_from_tree({"bb84": {"attack": attack, "splitting_ratio": ratio}})


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
    # json reads an integer with int(), which refuses more than
    # sys.get_int_max_str_digits() digits (4300 by default) with a bare ValueError
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"source": {"alpha": 1' + "0" * 4999 + "}}")
    with pytest.raises(ConfigError, match=f"^config file '{re.escape(str(long_int))}' holds an "
                                          f"integer of more than {sys.get_int_max_str_digits()} "
                                          "digits"):
        load_config(str(long_int))
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"output": {"directory": "\xff"}}')
    with pytest.raises(ConfigError, match="is not UTF-8 text"):
        load_config(str(not_utf8))
