"""Run configuration: a single JSON tree feeding every command.

The schema is fixed; unknown keys anywhere in the tree are rejected so a
typo cannot silently fall back to a default.  Every section is optional
and defaults to the standard study parameters (air/LiNbO3 crystal, 30 mW
pump over a 5 um beam, r = 1, alpha = 1/2, a box sized for a 1e-8 tail).
The source, truncation, crystal and pump sections are the domain types
themselves; ``truncation.n_max: null`` is TruncationPolicy's automatic box.
config_from_tree sets a tree's keys on a config, one replace per section:
a file's tree on the defaults, and the CLI flags' tree on the loaded
config.  So each section checks its own keys when they are set, a flag
value as a file value; RunConfig checks the seed.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, is_dataclass, replace
from typing import get_args, get_type_hints

from .bands import CrystalSpec
from .bb84 import _check_fraction, _check_n_pulses, _check_z_threshold
from .errors import ConfigError
from .fock import SqueezedInput, TruncationPolicy, _check_n_max
from .source import PumpSpec

__all__ = ["RunConfig", "load_config", "config_from_tree", "STEPS_CEILING", "ROWS_CEILING"]

# Size ceilings, checked before anything is allocated, as fock.N_MAX_CEILING
# bounds n_max.  At them, on a 2-core x86_64 host, a sweep takes about 10 s
# and a one-band bands run peaks at about 180 MB.
STEPS_CEILING = 100_000         # sweep.steps
ROWS_CEILING = 250_000          # bands.n_samples, and bands.n_bands * bands.n_samples
ATTACK_KINDS = ("none", "balanced_beam_splitter")    # bb84.attack


@dataclass(frozen=True)
class SweepSection:
    """Sweeps and their maxima read P(1,1) from psi_0..psi_2 and the exact
    P1 (:func:`pcbs.stats._herald_probability`): no row is truncated, so no
    sweep needs a mass gate.  ``n_max`` is still accepted and checked, but
    nothing reads it any more."""

    r_min: float = 0.0
    r_max: float = 2.0
    steps: int = 41
    n_max: int = 60

    def __post_init__(self):
        if self.steps > STEPS_CEILING:
            raise ValueError(f"steps must be <= {STEPS_CEILING}, got {self.steps}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 <= self.r_min <= self.r_max < math.inf:
            raise ValueError(f"need 0 <= r_min <= r_max < inf, got r_min = {self.r_min}, "
                             f"r_max = {self.r_max}")
        _check_n_max(self.n_max)


@dataclass(frozen=True)
class BandsSection:
    n_bands: int = 8
    n_samples: int = 121
    band_index: int = 4
    target_vg_over_c: float = 4.59e-3

    def __post_init__(self):
        if max(self.n_samples, self.n_bands * self.n_samples) > ROWS_CEILING:
            raise ValueError(f"n_bands * n_samples must be <= {ROWS_CEILING} "
                             f"(bands.csv rows), got {self.n_bands} * {self.n_samples}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.n_bands < 1:
            raise ValueError(f"n_bands must be >= 1, got {self.n_bands}")
        if self.band_index < 1:
            raise ValueError(f"band_index must be >= 1, got {self.band_index}")
        if not self.target_vg_over_c >= 0:    # NaN too
            raise ValueError(f"target_vg_over_c must be >= 0, got {self.target_vg_over_c}")


@dataclass(frozen=True)
class Bb84Section:
    n_pulses: int = 10**6
    attack: str = "none"
    splitting_ratio: float = 0.5
    z_threshold: float = 5.0

    def __post_init__(self):
        _check_n_pulses(self.n_pulses)
        if self.attack not in ATTACK_KINDS:
            raise ValueError(f"kind must be one of {ATTACK_KINDS}, got {self.attack!r}")
        _check_fraction("splitting_ratio", self.splitting_ratio)
        _check_z_threshold(self.z_threshold)

    @property
    def routed_fraction(self) -> float:
        """simulate_session's per-photon theft probability: the ratio under an attack, else 0."""
        return self.splitting_ratio if self.attack == "balanced_beam_splitter" else 0.0


@dataclass(frozen=True)
class OutputSection:
    directory: str = "."


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    source: SqueezedInput = SqueezedInput(r=1.0, alpha=0.5)
    truncation: TruncationPolicy = TruncationPolicy()
    crystal: CrystalSpec = CrystalSpec()
    pump: PumpSpec = PumpSpec(radiant_flux=0.03, beam_radius=5.0e-6)
    sweep: SweepSection = SweepSection()
    bands: BandsSection = BandsSection()
    bb84: Bb84Section = Bb84Section()
    output: OutputSection = OutputSection()

    def __post_init__(self):
        if self.seed < 0:    # numpy's generators refuse it only once a box is built
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# the JSON types each field type accepts: type(), not isinstance(), since
# bool is an int and JSON true must not read as 1
_ACCEPTS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string")}


_hints = functools.cache(get_type_hints)    # a dataclass's field types, read once


def _check_type(path: str, value, hint) -> None:
    """Raise ConfigError unless value fits the field type hint (X or X | None)."""
    kinds = get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return
    accepted, noun = _ACCEPTS[next(k for k in kinds if k is not type(None))]
    if type(value) not in accepted:
        raise ConfigError(f"'{path}' must be {noun}, got {value!r}")
    if float in kinds and type(value) is int:
        try:
            float(value)    # only checked: an integer in range is kept as given
        except OverflowError:
            raise ConfigError(f"'{path}' must be a number within float range") from None


def config_from_tree(tree: dict, cfg: RunConfig = RunConfig()) -> RunConfig:
    """cfg with every key of a parsed JSON tree set on it, each section replaced once.

    The sections are RunConfig's dataclass fields.  A section's own checks
    run on the keys set, whether they came from a file or from flags, and
    their refusals are raised as ConfigError.
    """
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a JSON object")
    schema = _hints(RunConfig)
    values = {}
    for name, value in tree.items():
        if name not in schema:
            raise ConfigError(f"unknown key '{name}'")
        if not is_dataclass(schema[name]):
            _check_type(name, value, schema[name])
            values[name] = value
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"section '{name}' must be an object, got {type(value).__name__}")
        hints = _hints(schema[name])
        for key, item in value.items():
            if key not in hints:
                raise ConfigError(f"unknown key '{name}.{key}'")
            _check_type(f"{name}.{key}", item, hints[key])
        try:
            values[name] = replace(getattr(cfg, name), **value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return replace(cfg, **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:   # json reads an integer with int(), which caps its digits
        raise ConfigError(f"config file {path!r} holds an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits, the limit of "
                          f"Python's integer reader") from exc
    return config_from_tree(tree)
