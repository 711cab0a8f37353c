"""Command-line front end: every artifact as CSV/JSON, no plotting.

Commands share a JSON config tree (--config, see config.py).  Each flag
sets one key of it, named by its argparse dest and shown by --help, on
the loaded RunConfig; every command reads its inputs from that alone.  Numeric CSV output is written with 12
significant digits and '\\n' line endings so repeated runs are
byte-identical.

Exit codes: 0 success, 2 validation/configuration error, 3 truncation
failure, 4 numerical degeneracy (touching bands, or no band edge below
dimensionless frequency 64).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .bands import _band_intervals, solve_band, tune_to_group_velocity
from .bb84 import ATTACK_KINDS, simulate_session
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    DegeneratePointError,
    EmptySessionError,
    InsufficientScanError,
    NoHeraldError,
    TruncationError,
    UnachievableTargetError,
)
from .fock import SqueezedInput, TruncationPolicy, suggest_n_max
from .oracle import oracle_state
from .selftest import run_all
from .source import CODATA, squeeze_parameter
from .stats import heralded_stats, joint_distribution, locate_maximum, sweep_r, threshold_probs

__all__ = ["main", "entry_point"]

_FMT = "%.12g"
_CONFIG_NAMES = {f.name for f in fields(RunConfig)}    # seed and the sections


def _emit(payload: dict) -> None:
    """Print the payload as strict JSON: a non-finite value raises ValueError (exit 2)."""
    print(json.dumps(payload, indent=2, allow_nan=False))


def _write_csv(path: str, header: list[str], lines: list[str]) -> None:
    """Write the header row, then ``lines``, each a whole row ending in "\n".

    No field holds a comma, quote or newline, so no field is quoted.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(lines))


def _num(x) -> str:
    return _FMT % x


def _policy_for(cfg: RunConfig) -> TruncationPolicy:
    n_max, tol = cfg.truncation.n_max, cfg.truncation.tail_tolerance
    if n_max is None:
        n_max = suggest_n_max(cfg.source.r, cfg.source.alpha, tol)
    return TruncationPolicy(n_max=n_max, tail_tolerance=tol)


def _dist_rows(p: np.ndarray) -> str:
    """Rows "n1,n2,probability" of the symmetric p, n1-major.

    p equals its transpose exactly, so only the n1 <= n2 half is formatted,
    in one % over a repeated format, and each string serves both cells.
    """
    dim = p.shape[0]
    upper = np.triu_indices(dim)
    half = (((_FMT + ",") * upper[0].size) % tuple(p[upper].tolist())).split(",")[:-1]
    cells = np.empty((dim, dim), dtype=object)
    cells[upper] = half
    cells.T[upper] = half
    row = "".join(f"{{}},{n2},%s\n" for n2 in range(dim))    # {} takes n1
    return "".join(row.replace("{}", str(n1)) for n1 in range(dim)) % tuple(cells.ravel().tolist())


def cmd_dist(cfg: RunConfig, args) -> int:
    r, alpha = cfg.source.r, cfg.source.alpha
    policy = _policy_for(cfg)
    state = SqueezedInput(r=r, alpha=alpha)
    jd = joint_distribution(state, policy)

    _write_csv(os.path.join(cfg.output.directory, "dist.csv"), ["n1", "n2", "probability"],
               [_dist_rows(jd.p)])

    tp = threshold_probs(jd)
    payload = {
        "r": r,
        "alpha": alpha,
        "n_max": policy.n_max,
        "tail_tolerance": policy.tail_tolerance,
        "captured_mass": jd.captured_mass,
        "q1": tp.q1,
        "q2": tp.q2,
        "q3": tp.q3,
        "miss_no_attack": tp.baseline_miss,
        "miss_5050_attack": tp.attacked_miss,
    }
    try:
        hs = heralded_stats(jd)
        payload.update(p1=hs.p1, g2=hs.g2, pn=list(hs.pn[:10]))
    except NoHeraldError:
        payload.update(p1=0.0, g2=None, pn=None)
    if args.oracle:
        # the oracle is exact on every shell that fits whole in the box
        orc = oracle_state(state, policy.n_max)
        n = np.arange(policy.n_max + 1)
        triangle = np.add.outer(n, n) <= policy.n_max
        payload["oracle_block_max_abs_dp"] = float(np.max(np.abs(
            jd.p - orc.entries ** 2)[triangle]))
    _emit(payload)
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    alpha, sw = cfg.source.alpha, cfg.sweep
    r_min, r_max, steps, n_max = sw.r_min, sw.r_max, sw.steps, sw.n_max
    if r_min < 0 or r_max < r_min or steps < 1:
        raise ValueError("need 0 <= r_min <= r_max and steps >= 1")
    if r_min == r_max:
        steps = 1
    result = sweep_r(alpha, np.linspace(r_min, r_max, steps), n_max)

    lines = [f"{_num(pt.r)},{_num(pt.p11)},{_num(pt.p1)},{_num(pt.pn1)},\n"
             for pt in result.points]
    _write_csv(os.path.join(cfg.output.directory, "sweep.csv"),
               ["r", "p11", "p1", "pn1", "error"], lines)

    maxima = {}
    for quantity in ("p11", "p1"):
        if r_min == r_max:
            maxima[quantity] = None
            continue
        try:
            r_star, value = locate_maximum(alpha, quantity, r_min, r_max, n_max)
            maxima[quantity] = {"r": r_star, "value": value}
        except ValueError as exc:
            maxima[quantity] = {"error": str(exc)}
    _emit({"alpha": alpha, "points": steps, "maxima": maxima})
    return 0


def _zeta_report(cfg: RunConfig, omega_s: float, v_g: float) -> dict:
    amplitude = cfg.pump.field_amplitude()
    zeta = squeeze_parameter(omega_s, amplitude, cfg.crystal.chi2_tilde,
                             v_g, cfg.crystal.l_nl)
    return {
        "pump_amplitude": amplitude,
        "omega_s": omega_s,
        "v_g_over_c": v_g / CODATA.c,
        "zeta": zeta,
    }


def cmd_bands(cfg: RunConfig, args) -> int:
    bs = cfg.bands
    n_bands, n_samples, band_index, target = (bs.n_bands, bs.n_samples, bs.band_index,
                                              bs.target_vg_over_c)
    if n_bands < 1:
        raise ValueError(f"n_bands must be >= 1, got {n_bands}")
    if band_index < 1:
        raise ValueError(f"band_index must be >= 1, got {band_index}")
    if not target >= 0:
        raise ValueError(f"target_vg_over_c must be >= 0, got {target}")

    # one edge scan serves every band and the tuning report
    intervals = _band_intervals(cfg.crystal, max(n_bands, band_index))
    lines = []
    for b in range(1, n_bands + 1):
        sol = solve_band(cfg.crystal, b, n_samples=n_samples, _intervals=intervals)
        lines.extend(f"{b},{_num(k)},{_num(omega)},{_num(v_g)}\n"
                     for k, omega, v_g in sol.samples)
    _write_csv(os.path.join(cfg.output.directory, "bands.csv"),
               ["band_index", "k", "omega", "v_g"], lines)

    payload = {"n_bands": n_bands, "samples_per_band": n_samples}
    try:
        rep = tune_to_group_velocity(cfg.crystal, band_index, target * CODATA.c,
                                     _intervals=intervals)
    except (UnachievableTargetError, DegeneratePointError) as exc:
        payload["tuning"] = {"error": str(exc)}
    else:
        payload["tuning"] = asdict(rep)
        try:
            payload["zeta_report"] = _zeta_report(cfg, 2.0 * math.pi * rep.nu_s,
                                                  target * CODATA.c)
        except ValueError as exc:    # v_g = 0: the band edge itself
            payload["zeta_report"] = {"error": str(exc)}
    _emit(payload)
    return 0


def cmd_tune(cfg: RunConfig, args) -> int:
    rep = tune_to_group_velocity(cfg.crystal, cfg.bands.band_index,
                                 cfg.bands.target_vg_over_c * CODATA.c)
    _emit(asdict(rep))
    return 0


def cmd_bb84(cfg: RunConfig, args) -> int:
    jd = joint_distribution(SqueezedInput(r=cfg.source.r, alpha=cfg.source.alpha),
                            _policy_for(cfg))
    section = cfg.bb84
    report = simulate_session(jd, section.n_pulses, section.attack_model(), seed=cfg.seed,
                              z_threshold=section.z_threshold)
    print(report.to_json())
    return 0


def cmd_selftest(cfg: RunConfig, args) -> int:
    results = run_all()
    width = max(len(res.name) for res in results)
    failed = 0
    for number, res in enumerate(results, start=1):
        status = "pass" if res.passed else "FAIL"
        print(f"{number:2d}  {res.name:<{width}}  {status}")
        for line in res.lines:
            print(f"      {line}")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# each flag sets one RunConfig key, its argparse dest: (key, type, help)
_FLAGS = {
    "--r": ("source.r", float, "squeeze magnitude"),
    "--alpha": ("source.alpha", float, "coherent amplitude"),
    "--n-max": ("truncation.n_max", int, "box size (default: automatic)"),
    "--tail-tolerance": ("truncation.tail_tolerance", float, "box mass gate"),
    "--r-min": ("sweep.r_min", float, None),
    "--r-max": ("sweep.r_max", float, None),
    "--steps": ("sweep.steps", int, None),
    "--n-bands": ("bands.n_bands", int, None),
    "--samples": ("bands.n_samples", int, None),
    "--band": ("bands.band_index", int, "band index for the tuning report"),
    "--target-vg-over-c": ("bands.target_vg_over_c", float, None),
    "--n-pulses": ("bb84.n_pulses", int, None),
    "--attack": ("bb84.attack", str, " or ".join(ATTACK_KINDS)),
    "--ratio": ("bb84.splitting_ratio", float, "splitting ratio of the attack"),
    "--seed": ("seed", int, None),
    "--z-threshold": ("bb84.z_threshold", float, None),
    "--out-dir": ("output.directory", str, None),
}

_COMMANDS = (    # (name, help, function, flags)
    ("dist", "joint photon-number distribution -> CSV + stats JSON", cmd_dist,
     ("--r", "--alpha", "--n-max", "--tail-tolerance", "--out-dir")),
    ("sweep", "statistics vs r -> CSV + located maxima JSON", cmd_sweep,
     ("--alpha", "--r-min", "--r-max", "--steps", "--out-dir")),
    ("bands", "band diagram CSV + tuning and zeta JSON", cmd_bands,
     ("--n-bands", "--samples", "--band", "--target-vg-over-c", "--out-dir")),
    ("tune", "group-velocity tuning report JSON", cmd_tune, ("--band", "--target-vg-over-c")),
    ("bb84", "simulate a BB84 session -> report JSON", cmd_bb84,
     ("--r", "--alpha", "--n-max", "--n-pulses", "--attack", "--ratio", "--seed",
      "--z-threshold")),
    ("selftest", "run all reference checks, print a table", cmd_selftest, ()),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcbs",
        description="Entangled-photon source toolkit: photon statistics of a "
                    "squeezed + coherent input on a balanced beam splitter, "
                    "photonic-crystal band structure, and BB84 session analysis.",
    )
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config tree; each command flag sets the key it shows")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        if name == "dist":
            p.add_argument("--oracle", action="store_true",
                           help="also compare against the operator-exponential oracle")
        for flag in flags:
            key, kind, help_text = _FLAGS[flag]
            p.add_argument(flag, dest=key, type=kind, help=help_text)    # metavar: KEY
        p.set_defaults(func=func)
    return parser


def _with_flags(cfg: RunConfig, args) -> RunConfig:
    """cfg with every given flag set on its key, each section replaced once,
    so that its __post_init__ checks a flag value as it checks a file value."""
    top, sections = {}, {}
    for key, value in vars(args).items():
        name, _, field = key.partition(".")
        if value is None or name not in _CONFIG_NAMES:
            continue
        if field:
            sections.setdefault(name, {})[field] = value
        else:
            top[name] = value
    for name, values in sections.items():
        top[name] = replace(getattr(cfg, name), **values)
    return replace(cfg, **top)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _with_flags(load_config(args.config) if args.config else RunConfig(), args)
        return args.func(cfg, args)
    except (ValueError, ConfigError, UnachievableTargetError,
            EmptySessionError, NoHeraldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DegeneratePointError, InsufficientScanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
