"""Run configuration: a single JSON tree feeding every command.

The schema is fixed; unknown keys anywhere in the tree are rejected so a
typo cannot silently fall back to a default.  Every section is optional
and defaults to the standard study parameters (air/LiNbO3 crystal, 30 mW
pump over a 5 um beam, r = 1, alpha = 1/2).  CLI flags override file
values after loading.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import get_type_hints

from .bands import CrystalSpec
from .bb84 import AttackModel
from .errors import ConfigError
from .source import PumpSpec

__all__ = ["RunConfig", "load_config", "config_from_tree"]


@dataclass(frozen=True)
class SourceSection:
    r: float = 1.0
    alpha: float = 0.5


@dataclass(frozen=True)
class TruncationSection:
    n_max: int | None = None        # None: pick via suggest_n_max
    tail_tolerance: float = 1e-8


@dataclass(frozen=True)
class SweepSection:
    """Sweeps and their maxima read only the herald row P(1, n), n <= n_max,
    whose neglected terms add at most (n_max + 2) / 2^(n_max + 2) to P1 at
    any squeeze (1.3e-17 at the default 60), so no row needs a mass gate."""

    r_min: float = 0.0
    r_max: float = 2.0
    steps: int = 41
    n_max: int = 60


@dataclass(frozen=True)
class BandsSection:
    n_bands: int = 8
    n_samples: int = 121
    band_index: int = 4
    target_vg_over_c: float = 4.59e-3


@dataclass(frozen=True)
class Bb84Section:
    n_pulses: int = 10**6
    attack: str = "none"
    splitting_ratio: float = 0.5
    z_threshold: float = 5.0

    def __post_init__(self):
        if self.n_pulses <= 0:
            raise ValueError(f"n_pulses must be positive, got {self.n_pulses}")
        self.attack_model()    # reject bad kind/ratio at load time
        if self.z_threshold <= 0:
            raise ValueError("z_threshold must be positive")

    def attack_model(self) -> AttackModel:
        return AttackModel(kind=self.attack, splitting_ratio=self.splitting_ratio)


@dataclass(frozen=True)
class OutputSection:
    directory: str = "."


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    source: SourceSection = SourceSection()
    truncation: TruncationSection = TruncationSection()
    crystal: CrystalSpec = CrystalSpec()
    pump: PumpSpec = PumpSpec(radiant_flux=0.03, beam_radius=5.0e-6)
    sweep: SweepSection = SweepSection()
    bands: BandsSection = BandsSection()
    bb84: Bb84Section = Bb84Section()
    output: OutputSection = OutputSection()


_SECTIONS = {
    "source": SourceSection,
    "truncation": TruncationSection,
    "crystal": CrystalSpec,
    "pump": PumpSpec,
    "sweep": SweepSection,
    "bands": BandsSection,
    "bb84": Bb84Section,
    "output": OutputSection,
}


def _build_section(name: str, cls, tree: dict):
    if not isinstance(tree, dict):
        raise ConfigError(f"section '{name}' must be an object, got {type(tree).__name__}")
    hints = get_type_hints(cls)
    unknown = set(tree) - set(hints)
    if unknown:
        raise ConfigError(f"unknown key '{name}.{sorted(unknown)[0]}'")
    for key, hint in hints.items():
        if key not in tree:
            continue
        value = tree[key]
        if value is None and hint in (int | None, float | None):
            continue
        # type(), not isinstance(): bool is an int, and JSON true must not read as 1
        if hint in (int, int | None) and type(value) is not int:
            raise ConfigError(f"'{name}.{key}' must be an integer, got {value!r}")
        if hint in (float, float | None) and type(value) not in (int, float):
            raise ConfigError(f"'{name}.{key}' must be a number, got {value!r}")
    try:
        return cls(**tree)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section '{name}': {exc}") from exc


def config_from_tree(tree: dict) -> RunConfig:
    """Validate a parsed JSON tree against the schema and build a RunConfig."""
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(tree) - (set(_SECTIONS) | {"seed"})
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}'")
    cfg = RunConfig()
    if "seed" in tree:
        if not isinstance(tree["seed"], int) or isinstance(tree["seed"], bool):
            raise ConfigError("'seed' must be an integer")
        cfg = replace(cfg, seed=tree["seed"])
    for name, cls in _SECTIONS.items():
        if name in tree:
            cfg = replace(cfg, **{name: _build_section(name, cls, tree[name])})
    return cfg


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return config_from_tree(tree)
