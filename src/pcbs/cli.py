"""Command-line front end: every artifact as CSV/JSON, no plotting.

Commands share a JSON config tree (--config, see config.py) whose values
individual flags override.  Numeric CSV output is written with 12
significant digits and '\\n' line endings so repeated runs are
byte-identical.

Exit codes: 0 success, 2 validation/configuration error, 3 truncation
failure, 4 numerical degeneracy (touching bands, or no band edge below
dimensionless frequency 64).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .bands import _band_intervals, solve_band, tune_to_group_velocity
from .bb84 import simulate_session
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


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


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


def _resolve(flag, fallback):
    return fallback if flag is None else flag


def _policy_for(cfg: RunConfig, r: float, alpha: float, n_max, tol) -> TruncationPolicy:
    tol = _resolve(tol, cfg.truncation.tail_tolerance)
    n_max = _resolve(n_max, cfg.truncation.n_max)
    if n_max is None:
        n_max = suggest_n_max(r, alpha, tol)
    return TruncationPolicy(n_max=n_max, tail_tolerance=tol)


def cmd_dist(cfg: RunConfig, args) -> int:
    r = _resolve(args.r, cfg.source.r)
    alpha = _resolve(args.alpha, cfg.source.alpha)
    policy = _policy_for(cfg, r, alpha, args.n_max, args.tail_tolerance)
    state = SqueezedInput(r=r, alpha=alpha)
    jd = joint_distribution(state, policy)

    out_dir = _resolve(args.out_dir, cfg.output.directory)
    cols = jd.p.shape[1]
    lines = [f"{i // cols},{i % cols},{_num(p)}\n" for i, p in enumerate(jd.p.ravel().tolist())]
    _write_csv(os.path.join(out_dir, "dist.csv"), ["n1", "n2", "probability"], lines)

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
    alpha = _resolve(args.alpha, cfg.source.alpha)
    r_min = _resolve(args.r_min, cfg.sweep.r_min)
    r_max = _resolve(args.r_max, cfg.sweep.r_max)
    steps = _resolve(args.steps, cfg.sweep.steps)
    if r_min < 0 or r_max < r_min or steps < 1:
        raise ValueError("need 0 <= r_min <= r_max and steps >= 1")
    if r_min == r_max:
        steps = 1
    n_max = cfg.sweep.n_max
    result = sweep_r(alpha, np.linspace(r_min, r_max, steps), n_max)

    out_dir = _resolve(args.out_dir, cfg.output.directory)
    lines = [f"{_num(pt.r)},{_num(pt.p11)},{_num(pt.p1)},{_num(pt.pn1)},\n"
             for pt in result.points]
    _write_csv(os.path.join(out_dir, "sweep.csv"),
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
    n_bands = _resolve(args.n_bands, cfg.bands.n_bands)
    n_samples = _resolve(args.samples, cfg.bands.n_samples)
    band_index = _resolve(args.band, cfg.bands.band_index)
    target = _resolve(args.target_vg_over_c, cfg.bands.target_vg_over_c)
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
    out_dir = _resolve(args.out_dir, cfg.output.directory)
    _write_csv(os.path.join(out_dir, "bands.csv"),
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
    band_index = _resolve(args.band, cfg.bands.band_index)
    target = _resolve(args.target_vg_over_c, cfg.bands.target_vg_over_c)
    rep = tune_to_group_velocity(cfg.crystal, band_index, target * CODATA.c)
    _emit(asdict(rep))
    return 0


def cmd_bb84(cfg: RunConfig, args) -> int:
    r = _resolve(args.r, cfg.source.r)
    alpha = _resolve(args.alpha, cfg.source.alpha)
    policy = _policy_for(cfg, r, alpha, args.n_max, None)
    jd = joint_distribution(SqueezedInput(r=r, alpha=alpha), policy)

    section = cfg.bb84
    if args.attack is not None:
        section = replace(section, attack=args.attack)
    if args.ratio is not None:
        section = replace(section, splitting_ratio=args.ratio)
    if args.z_threshold is not None:
        section = replace(section, z_threshold=args.z_threshold)
    n_pulses = _resolve(args.n_pulses, section.n_pulses)
    seed = _resolve(args.seed, cfg.seed)

    report = simulate_session(jd, n_pulses, section.attack_model(), seed=seed,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcbs",
        description="Entangled-photon source toolkit: photon statistics of a "
                    "squeezed + coherent input on a balanced beam splitter, "
                    "photonic-crystal band structure, and BB84 session analysis.",
    )
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config tree; command flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="joint photon-number distribution -> CSV + stats JSON")
    d.add_argument("--r", type=float, help="squeeze magnitude")
    d.add_argument("--alpha", type=float, help="coherent amplitude")
    d.add_argument("--n-max", type=int, help="box size (default: automatic)")
    d.add_argument("--tail-tolerance", type=float, help="box mass gate")
    d.add_argument("--oracle", action="store_true",
                   help="also compare against the operator-exponential oracle")
    d.add_argument("--out-dir")
    d.set_defaults(func=cmd_dist)

    s = sub.add_parser("sweep", help="statistics vs r -> CSV + located maxima JSON")
    s.add_argument("--alpha", type=float)
    s.add_argument("--r-min", type=float)
    s.add_argument("--r-max", type=float)
    s.add_argument("--steps", type=int)
    s.add_argument("--out-dir")
    s.set_defaults(func=cmd_sweep)

    b = sub.add_parser("bands", help="band diagram CSV + tuning and zeta JSON")
    b.add_argument("--n-bands", type=int)
    b.add_argument("--samples", type=int)
    b.add_argument("--band", type=int, help="band index for the tuning report")
    b.add_argument("--target-vg-over-c", type=float)
    b.add_argument("--out-dir")
    b.set_defaults(func=cmd_bands)

    t = sub.add_parser("tune", help="group-velocity tuning report JSON")
    t.add_argument("--band", type=int)
    t.add_argument("--target-vg-over-c", type=float)
    t.set_defaults(func=cmd_tune)

    q = sub.add_parser("bb84", help="simulate a BB84 session -> report JSON")
    q.add_argument("--r", type=float)
    q.add_argument("--alpha", type=float)
    q.add_argument("--n-max", type=int)
    q.add_argument("--n-pulses", type=int)
    q.add_argument("--attack", choices=["none", "balanced_beam_splitter"])
    q.add_argument("--ratio", type=float, help="splitting ratio of the attack")
    q.add_argument("--seed", type=int)
    q.add_argument("--z-threshold", type=float)
    q.set_defaults(func=cmd_bb84)

    st = sub.add_parser("selftest", help="run all reference checks, print a table")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
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
