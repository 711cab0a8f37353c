"""The benchmark's workloads: `pcbs` command lines and the checks on their output.

One operation is one in-process `pcbs.cli.main(argv)` call.  Its outcome is

* served   -- exit 0 and every output check holds;
* refused  -- exit 3 or 4 with an `error:` line, the CLI's documented typed
              refusal (truncation failure, precision loss, missed band scan);
* failed   -- anything else: a failed check, another exit code, an exception.

Refusals are not failures: the program answered correctly that it cannot
serve the input.  They lower the `served_ratio` metric instead, so a change
that serves a refused input, or refuses a served one, shows there.

Inputs are fixed except the BB84 session seeds, which come from the
workload seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from pcbs.bands import CrystalSpec
from pcbs.fock import SqueezedInput, TruncationPolicy, suggest_n_max
from pcbs.stats import joint_distribution, threshold_probs

REFUSAL_EXITS = (3, 4)

# selftest's reference numbers and tolerances
P_ATOL = 0.002
JOINT_REFERENCE = {(0, 0): 0.417, (1, 1): 0.0783, (1, 3): 0.0216}
Q1_REFERENCE = 0.509
MAXIMA_REFERENCE = {"p11": (0.85, 0.0799), "p1": (0.675, 0.165)}
ARGMAX_ATOL = 0.01
LAMBDA_K_STAR = 4.33e-3
LAMBDA_K_STAR_RTOL = 0.02

TAIL = 1e-8
ORACLE_DP_MAX = 1e-12
HERALD_SIGMAS = 5.0
DEFAULT_EPS_B = 4.9284


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stdout: str
    stderr: str
    out_dir: str


@dataclass(frozen=True)
class Verdict:
    problems: tuple[str, ...] = ()
    observed: tuple[tuple[str, float], ...] = ()   # informational per-layer values


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[Outcome], Verdict]


@dataclass(frozen=True)
class Workload:
    warmup: tuple[str, ...]
    ops: tuple[Op, ...]


def _payload(outcome: Outcome) -> dict:
    return json.loads(outcome.stdout)


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _near(label: str, got: float, want: float, atol: float) -> list[str]:
    return [] if abs(got - want) <= atol else [f"{label} = {got:.6g}, want {want:g} +/- {atol:g}"]


# -- dist-grid ---------------------------------------------------------------

def _check_dist(r: float, alpha: float) -> Callable[[Outcome], Verdict]:
    def check(outcome: Outcome) -> Verdict:
        payload = _payload(outcome)
        rows = _read_csv(os.path.join(outcome.out_dir, "dist.csv"))
        side = payload["n_max"] + 1
        problems = []
        if len(rows) != side * side:
            problems.append(f"dist.csv has {len(rows)} rows, want {side * side}")
        p = {(int(row["n1"]), int(row["n2"])): float(row["probability"]) for row in rows}
        mass = math.fsum(p.values())
        if not mass >= 1.0 - TAIL:
            problems.append(f"dist.csv mass {mass!r} < 1 - {TAIL:g}")
        dp = payload["oracle_block_max_abs_dp"]
        if not dp <= ORACLE_DP_MAX:
            problems.append(f"oracle_block_max_abs_dp {dp!r} > {ORACLE_DP_MAX:g}")
        if (r, alpha) == (1.0, 0.5):
            for cell, want in JOINT_REFERENCE.items():
                problems += _near(f"P{cell}", p.get(cell, math.nan), want, P_ATOL)
        return Verdict(tuple(problems), (("oracle.max_abs_dp", dp),))
    return check


def _dist_op(r: float, alpha: float, work_dir: str) -> Op:
    argv = ("dist", "--oracle", "--r", repr(r), "--alpha", repr(alpha),
            "--tail-tolerance", repr(TAIL), "--out-dir", work_dir)
    return Op(f"dist r={r} alpha={alpha}", argv, _check_dist(r, alpha))


def dist_grid(size: str, seed: int, work_dir: str) -> Workload:
    grid = ((0.5, 0.5), (1.0, 0.5)) if size == "smoke" else \
        tuple((r, a) for r in (0.5, 1.0, 1.25, 1.5) for a in (0.5, 1.0))
    ops = tuple(_dist_op(r, a, work_dir) for r, a in grid)
    return Workload(warmup=ops[0].argv, ops=ops)


# -- sweep-maxima -------------------------------------------------------------

def _check_sweep(steps: int) -> Callable[[Outcome], Verdict]:
    def check(outcome: Outcome) -> Verdict:
        rows = _read_csv(os.path.join(outcome.out_dir, "sweep.csv"))
        problems = []
        if len(rows) != steps:
            problems.append(f"sweep.csv has {len(rows)} rows, want {steps}")
        bad = [row["r"] for row in rows if row["error"] or not math.isfinite(float(row["p11"]))]
        if bad:
            problems.append(f"sweep.csv error rows at r = {', '.join(bad)}")
        maxima = _payload(outcome)["maxima"]
        for quantity, (r_want, v_want) in MAXIMA_REFERENCE.items():
            found = maxima.get(quantity) or {}
            if "value" not in found:
                problems.append(f"no maximum of {quantity}: {found}")
                continue
            problems += _near(f"max {quantity}", found["value"], v_want, P_ATOL)
            problems += _near(f"argmax {quantity}", found["r"], r_want, ARGMAX_ATOL)
        return Verdict(tuple(problems))
    return check


def sweep_maxima(size: str, seed: int, work_dir: str) -> Workload:
    if size == "smoke":
        config = os.path.join(work_dir, "sweep-smoke.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"sweep": {"n_max": 20}}, fh)
        argv = ("--config", config, "sweep", "--alpha", "0.5",
                "--r-min", "0.5", "--r-max", "1.0", "--steps", "3")
        steps = 3
    else:
        argv = ("sweep", "--alpha", "0.5", "--r-min", "0", "--r-max", "2", "--steps", "41")
        steps = 41
    out = ("--out-dir", work_dir)
    # a single fixed-box point warms the kernel without the half minute of a full sweep
    warmup = ("sweep", "--alpha", "0.5", "--r-min", "1", "--r-max", "1", "--steps", "1") + out
    return Workload(warmup=warmup, ops=(Op("sweep", argv + out, _check_sweep(steps)),))


# -- bb84-sessions ------------------------------------------------------------

def _herald_reference() -> float:
    n_max = suggest_n_max(1.0, 0.5, TAIL)
    jd = joint_distribution(SqueezedInput(r=1.0, alpha=0.5), TruncationPolicy(n_max, TAIL))
    return threshold_probs(jd).q1


def _check_bb84(n_pulses: int, seed: int, attacked: bool, q1: float) -> Callable[[Outcome], Verdict]:
    def check(outcome: Outcome) -> Verdict:
        report = _payload(outcome)
        want = "attack_suspected" if attacked else "clean"
        problems = []
        if report["verdict"] != want:
            problems.append(f"verdict {report['verdict']}, want {want}")
        if report["n_pulses"] != n_pulses or report["seed"] != seed:
            problems.append(f"report echoes n_pulses={report['n_pulses']} seed={report['seed']}")
        rate = report["herald_count"] / n_pulses
        problems += _near("herald rate", rate, q1,
                          HERALD_SIGMAS * math.sqrt(q1 * (1.0 - q1) / n_pulses))
        problems += _near("threshold_probs q1", q1, Q1_REFERENCE, P_ATOL)
        return Verdict(tuple(problems))
    return check


def bb84_sessions(size: str, seed: int, work_dir: str) -> Workload:
    n_pulses = 10**5 if size == "smoke" else 10**7
    q1 = _herald_reference()
    rng = random.Random(seed)
    ops = []
    for attacked in (False, True):
        session_seed = rng.randrange(2**31)
        attack = ("--attack", "balanced_beam_splitter", "--ratio", "0.5") if attacked \
            else ("--attack", "none")
        argv = ("bb84", "--n-pulses", str(n_pulses), "--seed", str(session_seed)) + attack
        ops.append(Op(f"bb84 {attack[1]} seed={session_seed}", argv,
                      _check_bb84(n_pulses, session_seed, attacked, q1)))
    warmup = ("bb84", "--n-pulses", "100000", "--seed", "0")
    return Workload(warmup=warmup, ops=tuple(ops))


# -- bands-tune ---------------------------------------------------------------

N_BANDS, SAMPLES, TUNE_BAND = 8, 121, 4


def _lambda_k_star(k_star: float, eps_b: float) -> list[str]:
    lk = k_star * CrystalSpec().period
    if eps_b == DEFAULT_EPS_B:
        return _near("Lambda k*", lk, LAMBDA_K_STAR, LAMBDA_K_STAR_RTOL * LAMBDA_K_STAR)
    return [] if 0.0 < lk < math.pi else [f"Lambda k* = {lk!r} outside (0, pi)"]


def _check_bands(eps_b: float) -> Callable[[Outcome], Verdict]:
    def check(outcome: Outcome) -> Verdict:
        rows = _read_csv(os.path.join(outcome.out_dir, "bands.csv"))
        problems = []
        if len(rows) != N_BANDS * SAMPLES:
            problems.append(f"bands.csv has {len(rows)} rows, want {N_BANDS * SAMPLES}")
        per_band = [sum(int(row["band_index"]) == b for row in rows) for b in range(1, N_BANDS + 1)]
        if per_band != [SAMPLES] * N_BANDS:
            problems.append(f"bands.csv rows per band {per_band}")
        values = [float(row[key]) for row in rows for key in ("k", "omega", "v_g")]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            problems.append("bands.csv holds a negative or non-finite value")
        tuning = _payload(outcome)["tuning"]
        if "k_star" not in tuning:
            problems.append(f"bands tuning report: {tuning}")
        else:
            problems += _lambda_k_star(tuning["k_star"], eps_b)
        return Verdict(tuple(problems))
    return check


def _check_tune(eps_b: float) -> Callable[[Outcome], Verdict]:
    def check(outcome: Outcome) -> Verdict:
        report = _payload(outcome)
        problems = _lambda_k_star(report["k_star"], eps_b)
        if not (report["nu_s"] > 0.0 and report["delta_nu"] >= 0.0):
            problems.append(f"tune report nu_s={report['nu_s']} delta_nu={report['delta_nu']}")
        return Verdict(tuple(problems))
    return check


def bands_tune(size: str, seed: int, work_dir: str) -> Workload:
    ops = []
    # 2.25 gives an optical-thickness ratio of 2:3, which closes gap 5
    for eps_b in (DEFAULT_EPS_B, 12.25, 2.25):
        config = os.path.join(work_dir, f"crystal-{eps_b}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"crystal": {"eps_rel_b": eps_b}}, fh)
        ops.append(Op(f"bands eps_rel_b={eps_b}",
                      ("--config", config, "bands", "--n-bands", str(N_BANDS),
                       "--samples", str(SAMPLES), "--out-dir", work_dir), _check_bands(eps_b)))
        ops.append(Op(f"tune eps_rel_b={eps_b}",
                      ("--config", config, "tune", "--band", str(TUNE_BAND)), _check_tune(eps_b)))
    return Workload(warmup=ops[0].argv, ops=tuple(ops))


# name -> builder(size, seed, work_dir); size is "full" (the benchmark) or
# "smoke" (its test).  Outputs go to work_dir, which the checks read back.
BUILDERS: dict[str, Callable[[str, int, str], Workload]] = {
    "dist-grid": dist_grid,
    "sweep-maxima": sweep_maxima,
    "bb84-sessions": bb84_sessions,
    "bands-tune": bands_tune,
}
