"""Command-line front end: every artifact as CSV/JSON, no plotting.

Commands share a JSON config tree (--config, see config.py).  Each flag
sets one key of it, named by its argparse dest and shown by --help, on
the loaded RunConfig, through the config_from_tree that reads the file;
every command but selftest (which checks it, then runs at the reference
point) reads its inputs from that alone.  Numeric CSV output is written
with 12 significant digits and '\\n' line endings so repeated runs are
byte-identical.

Exit codes are the exit_code of the error raised (see errors.py): 0
success, 2 validation/configuration error (any ValueError, and every
PcbsError without a code of its own), 3 truncation failure, 4 numerical
degeneracy (touching bands, no band edge below dimensionless frequency 64,
a layer whose optical thickness l sqrt(eps_rel) exceeds 1000 periods,
beyond what the edge scan resolves, or a NaN binomial CDF in an attacked
bb84 session).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .bands import sample_bands, scan_bands, tune_to_group_velocity
from .bb84 import ATTACK_KINDS, simulate_session
from .config import RunConfig, config_from_tree, load_config
from .errors import DegeneratePointError, NoHeraldError, PcbsError, UnachievableTargetError
from .oracle import oracle_state
from .selftest import run_all
from .source import CODATA, flux_to_amplitude, squeeze_parameter
from .stats import heralded_stats, joint_distribution, locate_maximum, sweep_r, threshold_probs

__all__ = ["main", "entry_point"]

_FMT = "%.12g"


def _emit(payload: dict) -> None:
    """Print the payload as strict JSON: a non-finite value raises ValueError (exit 2)."""
    print(json.dumps(payload, indent=2, allow_nan=False))


def _write_csv(path: str, header: list[str], body: str) -> None:
    """Write the header row, then ``body``: whole rows, each ending in "\n".

    No field holds a comma, quote or newline, so no field is quoted.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body)


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
    state = cfg.source
    p = joint_distribution(state, cfg.truncation)    # the box it resolves is p's shape
    n_max = p.shape[0] - 1

    _write_csv(os.path.join(cfg.output.directory, "dist.csv"), ["n1", "n2", "probability"],
               _dist_rows(p))

    tp = threshold_probs(p)
    payload = {
        "r": state.r,
        "alpha": state.alpha,
        "n_max": n_max,
        "tail_tolerance": cfg.truncation.tail_tolerance,
        "captured_mass": float(np.sum(p)),
        "q1": tp.q1,
        "q2": tp.q2,
        "q3": tp.q3,
        "miss_no_attack": tp.baseline_miss,
        "miss_5050_attack": tp.attacked_miss,
        "miss_5050_attack_simulated": tp.simulated_attack_miss,
    }
    try:
        hs = heralded_stats(p)
        payload.update(p1=hs.p1, g2=None if math.isnan(hs.g2) else hs.g2,
                       pn=list(hs.pn[:10]))
    except NoHeraldError:
        payload.update(p1=0.0, g2=None, pn=None)
    if args.oracle:
        # the oracle is exact on every shell that fits whole in the box
        orc = oracle_state(state, n_max)
        n = np.arange(n_max + 1)
        triangle = np.add.outer(n, n) <= n_max
        payload["oracle_block_max_abs_dp"] = float(np.max(np.abs(p - orc ** 2)[triangle]))
    _emit(payload)
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    alpha, sw = cfg.source.alpha, cfg.sweep
    r_min, r_max, steps = sw.r_min, sw.r_max, sw.steps
    if r_min == r_max:
        steps = 1
    points = sweep_r(alpha, np.linspace(r_min, r_max, steps))

    # "r,p11,p1,pn1,error" rows, error always empty, in one % over a repeated format
    cells = [x for pt in points for x in (pt.r, pt.p11, pt.p1, pt.pn1)]
    _write_csv(os.path.join(cfg.output.directory, "sweep.csv"),
               ["r", "p11", "p1", "pn1", "error"],
               (f"{_FMT},{_FMT},{_FMT},{_FMT},\n" * len(points)) % tuple(cells))

    maxima = {}
    for quantity in ("p11", "p1"):
        if r_min == r_max:
            maxima[quantity] = None
            continue
        try:
            r_star, value = locate_maximum(alpha, quantity, r_min, r_max)
            maxima[quantity] = {"r": r_star, "value": value}
        except ValueError as exc:
            maxima[quantity] = {"error": str(exc)}
    _emit({"alpha": alpha, "points": steps, "maxima": maxima})
    return 0


def _zeta_report(cfg: RunConfig, omega_s: float, v_g: float) -> dict:
    amplitude = flux_to_amplitude(cfg.pump)
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

    # one edge scan serves every band and the tuning report
    structure = scan_bands(cfg.crystal, max(n_bands, band_index))
    bands = np.arange(1, n_bands + 1)
    k, omega, v_g = sample_bands(structure, bands, n_samples)
    # "band,k,omega,v_g" rows, band-major, in one % over a repeated format
    cells = np.stack(np.broadcast_arrays(bands[:, None], k, omega, v_g), axis=-1)
    _write_csv(os.path.join(cfg.output.directory, "bands.csv"),
               ["band_index", "k", "omega", "v_g"],
               (f"%d,{_FMT},{_FMT},{_FMT}\n" * (cells.size // 4)) % tuple(cells.ravel().tolist()))

    payload = {"n_bands": n_bands, "samples_per_band": n_samples}
    try:
        rep = tune_to_group_velocity(structure, band_index, target * CODATA.c)
    except (UnachievableTargetError, DegeneratePointError) as exc:
        payload["tuning"] = {"error": str(exc)}
    else:
        payload["tuning"] = asdict(rep)
        if target > 0.0:    # a zeta out of float range is refused (exit 2)
            payload["zeta_report"] = _zeta_report(cfg, 2.0 * math.pi * rep.nu_s,
                                                  target * CODATA.c)
        else:
            payload["zeta_report"] = {"error": "zeta is singular at the band edge itself, "
                                               "where v_g = 0"}
    _emit(payload)
    return 0


def cmd_tune(cfg: RunConfig, args) -> int:
    bs = cfg.bands
    rep = tune_to_group_velocity(scan_bands(cfg.crystal, bs.band_index), bs.band_index,
                                 bs.target_vg_over_c * CODATA.c)
    _emit(asdict(rep))
    return 0


def cmd_bb84(cfg: RunConfig, args) -> int:
    p = joint_distribution(cfg.source, cfg.truncation)
    section = cfg.bb84
    report = simulate_session(p, section.n_pulses, section.attack_model(), seed=cfg.seed,
                              z_threshold=section.z_threshold)
    _emit(asdict(report))
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


def _flag_tree(args) -> dict:
    """The config tree of the flags given: each flag's dest is its key."""
    tree = {}
    for key, _, _ in _FLAGS.values():
        value = getattr(args, key, None)
        if value is not None:
            name, _, field = key.rpartition(".")
            (tree.setdefault(name, {}) if name else tree)[field] = value
    return tree


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        return args.func(config_from_tree(_flag_tree(args), cfg), args)
    except (ValueError, PcbsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
