import argparse
import ast
import csv
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pcbs
import pcbs.selftest
from pcbs.cli import _FLAGS, _FMT, _bands_rows, _build_parser, _emit, main
from pcbs.config import (
    ATTACK_KINDS,
    ROWS_CEILING,
    STEPS_CEILING,
    BandsSection,
    RunConfig,
    SweepSection,
)
from pcbs.errors import (
    ConfigError,
    DegeneratePointError,
    InsufficientScanError,
    NoHeraldError,
    PcbsError,
    TruncationError,
    UnachievableTargetError,
    UndefinedCdfError,
)
from pcbs.fock import N_MAX_CEILING, TAIL_TOLERANCE_FLOOR, SqueezedInput, TruncationPolicy
from pcbs.oracle import oracle_state
from pcbs.selftest import CheckResult
from pcbs.source import CODATA
from pcbs.stats import joint_distribution

WORKING = ["--r", "1.0", "--alpha", "0.5"]


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_dist_working_point(tmp_path, capsys):
    rc, out = run(capsys, "dist", *WORKING, "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["n_max"] == 49
    assert payload["captured_mass"] > 1 - 1e-8
    assert np.isclose(payload["p1"], 0.151, atol=2e-3)
    assert np.isclose(payload["g2"], 1.17, atol=0.02)
    assert len(payload["pn"]) == 10
    assert 0.995 < sum(payload["pn"]) <= 1.0  # small tail beyond n = 9
    assert payload["miss_5050_attack"] > payload["miss_no_attack"]

    header, rows = read_csv(tmp_path / "dist.csv")
    assert header == ["n1", "n2", "probability"]
    assert len(rows) == 50 * 50
    grid_sum = sum(float(p) for _, _, p in rows)
    assert np.isclose(grid_sum, payload["captured_mass"], atol=1e-10)


@pytest.mark.parametrize("r", [0.5, 1.5])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_dist_csv_matches_a_per_cell_writer(tmp_path, capsys, r, alpha):
    # the writer formats the n1 <= n2 half and mirrors it; a naive writer
    # formats every cell of the same distribution
    rc, out = run(capsys, "dist", "--r", str(r), "--alpha", str(alpha),
                  "--out-dir", str(tmp_path))
    assert rc == 0
    n_max = json.loads(out)["n_max"]
    p = joint_distribution(SqueezedInput(r=r, alpha=alpha),
                           TruncationPolicy(n_max=n_max, tail_tolerance=1e-8))
    want = "n1,n2,probability\n" + "".join(
        f"{n1},{n2},{'%.12g' % p[n1, n2]}\n" for n1 in range(n_max + 1) for n2 in range(n_max + 1))
    assert (tmp_path / "dist.csv").read_bytes() == want.encode()


def test_dist_vacuum(tmp_path, capsys):
    rc, out = run(capsys, "dist", "--r", "0", "--alpha", "0",
                  "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["p1"] == 0.0
    assert payload["g2"] is None and payload["pn"] is None
    _, rows = read_csv(tmp_path / "dist.csv")
    assert rows[0] == ["0", "0", "1"]


def test_dist_overflowing_squeeze_exit(tmp_path, capsys):
    rc = main(["dist", "--r", "800", "--alpha", "0.5", "--n-max", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: squeeze parameter r = 800")
    assert not (tmp_path / "dist.csv").exists()


def test_dist_oracle_flag(tmp_path, capsys):
    rc, out = run(capsys, "dist", "--r", "0.8", "--alpha", "0.5",
                  "--oracle", "--out-dir", str(tmp_path))
    assert rc == 0
    assert json.loads(out)["oracle_block_max_abs_dp"] < 1e-10


def test_dist_oracle_checks_the_whole_triangle(tmp_path, capsys, monkeypatch):
    # cell (n_max, 0) lies on the box edge, outside any inner block
    def perturbed(state, n_max):
        orc = oracle_state(state, n_max)
        orc[n_max, 0] += 1e-3
        return orc

    monkeypatch.setattr("pcbs.cli.oracle_state", perturbed)
    rc, out = run(capsys, "dist", "--r", "0.8", "--alpha", "0.5",
                  "--oracle", "--out-dir", str(tmp_path))
    assert rc == 0
    assert json.loads(out)["oracle_block_max_abs_dp"] > 1e-7


def test_dist_truncation_exit(tmp_path, capsys):
    rc = main(["dist", *WORKING, "--n-max", "40", "--out-dir", str(tmp_path)])
    assert rc == 3


def test_dist_large_displacement_mass_at_most_one(tmp_path, capsys):
    # the squeeze-matrix product cancelled here and reported a mass of 9.44
    rc, out = run(capsys, "dist", "--r", "0.5", "--alpha", "10",
                  "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert 1 - 1e-8 <= payload["captured_mass"] <= 1 + 1e-12
    assert payload["q1"] <= 1


def test_dist_strong_squeeze_oracle(tmp_path, capsys):
    # far point at the default 1e-8 mass gate (n_max 161): served, oracle-exact
    rc, out = run(capsys, "dist", "--r", "1.5", "--alpha", "1.0", "--oracle",
                  "--out-dir", str(tmp_path))
    assert rc == 0
    assert json.loads(out)["oracle_block_max_abs_dp"] <= 1e-12


def test_dist_oracle_at_a_subnormal_displacement(tmp_path, capsys):
    # the displacement's 1-norm is subnormal (7.9e-310), where 2 / rho overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["dist", "--r", "0", "--alpha", "1e-310", "--oracle",
                   "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert json.loads(out)["oracle_block_max_abs_dp"] <= 1e-12


def test_sweep_outputs(tmp_path, capsys):
    rc, out = run(capsys, "sweep", "--alpha", "0.5", "--r-min", "0",
                  "--r-max", "2", "--steps", "9", "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["points"] == 9
    assert np.isclose(payload["maxima"]["p11"]["r"], 0.8548850565005707, rtol=1e-6)
    assert np.isclose(payload["maxima"]["p11"]["value"], 0.07993871368513748, rtol=1e-6)
    assert np.isclose(payload["maxima"]["p1"]["r"], 0.6765784265263756, rtol=1e-6)

    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["r", "p11", "p1", "pn1", "error"]
    assert len(rows) == 9
    # r = 0 leaves two independent Poisson outputs of mean alpha^2/2 each
    mean = 0.5**2 / 2.0
    assert np.isclose(float(rows[0][1]), (mean * np.exp(-mean)) ** 2, rtol=1e-9)

    first = (tmp_path / "sweep.csv").read_bytes()
    assert main(["sweep", "--alpha", "0.5", "--r-min", "0", "--r-max", "2",
                 "--steps", "9", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first
    capsys.readouterr()


def test_sweep_bytes_are_pinned(tmp_path, capsys):
    # the sweep-maxima inputs of perfbench; bytes as written by the
    # every-step rescale and the full-row P(1,1) search, and the JSON's
    # P1 maximum from the exact P1 (0.16526504366043376)
    rc, out = run(capsys, "sweep", "--alpha", "0.5", "--r-min", "0", "--r-max", "2",
                  "--steps", "41", "--out-dir", str(tmp_path))
    assert rc == 0
    assert (hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
            == "b0a60fa24e6c7488a34525430acbdbaad8660d97cd492d375b367d9f7902ead1")
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "024a4052f97ed6078c06514a724a035d66439f6b8c5d77a15984d0a94e8e12cf")


def test_dist_bytes_are_pinned(tmp_path, capsys):
    # perfbench's dist-grid line at the working point
    rc, out = run(capsys, "dist", "--oracle", "--r", "1.0", "--alpha", "0.5",
                  "--tail-tolerance", "1e-08", "--out-dir", str(tmp_path))
    assert rc == 0
    assert (hashlib.sha256((tmp_path / "dist.csv").read_bytes()).hexdigest()
            == "e1fea7875633f6c5915249c7c09ed632b2ceb33a79d6f51b378c7cf9c0b80449")
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "ceaa37399dce7905d478b9e15c262f520909af31533374ae773f6ff92d5b1279")


@pytest.mark.parametrize("attack, digest", [
    (["--attack", "none"], "be35456321a5ee8d223c11a2435160f6ad0f39fea613410407922731f94f54ff"),
    (["--attack", "balanced_beam_splitter", "--ratio", "0.5"],
     "5de4012cb7f2db2d60a451ee2df9115d9858d95550283256c602049ffd3f2c92"),
])
def test_bb84_bytes_are_pinned(capsys, attack, digest):
    # perfbench's bb84-sessions lines at seed 7
    rc, out = run(capsys, "bb84", "--n-pulses", "10000000", "--seed", "7", *attack)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_no_attack_routes_nothing_whatever_the_ratio(capsys):
    rc, clean = run(capsys, "bb84", "--attack", "none", "--ratio", "0.7")
    assert rc == 0
    assert run(capsys, "bb84", "--attack", "balanced_beam_splitter", "--ratio", "0") == (0, clean)
    # the ratio is still checked under "none"
    assert main(["bb84", "--attack", "none", "--ratio", "1.5"]) == 2
    assert capsys.readouterr().err == "error: splitting_ratio must lie in [0, 1]\n"


@pytest.mark.parametrize("key, command", [("source.alpha", "dist"), ("crystal.l_a", "bands"),
                                          ("pump.radiant_flux", "bands"),
                                          ("bands.target_vg_over_c", "tune"),
                                          ("sweep.r_max", "sweep")])
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, key, command):
    name, _, field = key.partition(".")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({name: {field: 10**400}}))
    assert main(["--config", str(cfg), command]) == 2
    assert capsys.readouterr().err.startswith(f"error: '{key}' must be a number within float range")


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"source": {"alpha": 1' + "0" * 4999 + "}}")
    assert main(["--config", str(cfg), "dist"]) == 2
    assert capsys.readouterr().err == (f"error: config file {str(cfg)!r} holds an integer of "
                                       f"more than {sys.get_int_max_str_digits()} digits, "
                                       "the limit of Python's integer reader\n")


def test_sweep_strong_squeeze_served(tmp_path, capsys):
    # the box at n_max 60 holds half the mass at r = 3; the herald row is exact
    rc, out = run(capsys, "sweep", "--alpha", "0.5", "--r-min", "0", "--r-max", "3",
                  "--steps", "13", "--out-dir", str(tmp_path))
    assert rc == 0
    assert json.loads(out)["points"] == 13
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 13
    assert all(np.isfinite([float(x) for x in row[:4]]).all() and row[4] == "" for row in rows)
    assert rows[-1][2] == "0.0232718748599"


def test_sweep_zero_width(tmp_path, capsys):
    rc, out = run(capsys, "sweep", "--r-min", "1", "--r-max", "1",
                  "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["maxima"] == {"p11": None, "p1": None}
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 1


def test_sweep_rejects_bad_range(capsys):
    assert main(["sweep", "--r-min", "-1", "--r-max", "2"]) == 2
    assert main(["sweep", "--r-min", "2", "--r-max", "1"]) == 2


def test_bands_outputs(tmp_path, capsys):
    rc, out = run(capsys, "bands", "--n-bands", "2", "--samples", "5",
                  "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    tuning = payload["tuning"]
    assert np.isclose(tuning["k_star"], 3936.9971717834214, rtol=1e-8)
    assert np.isclose(tuning["delta_nu"], 431116939.70807433, rtol=1e-8)
    assert np.isclose(tuning["nu_s"], 322691177976151.0, rtol=1e-12)
    assert np.isclose(payload["zeta_report"]["zeta"], 0.9959787799020379, rtol=1e-10)

    header, rows = read_csv(tmp_path / "bands.csv")
    assert header == ["band_index", "k", "omega", "v_g"]
    assert len(rows) == 2 * 5
    assert {row[0] for row in rows} == {"1", "2"}


def _counting_scans(monkeypatch, module):
    """Count the scan_bands calls that module and pcbs.bands make; return their sizes."""
    scan, calls = pcbs.bands.scan_bands, []

    def counting(spec, n_bands):
        calls.append(n_bands)
        return scan(spec, n_bands)

    monkeypatch.setattr(pcbs.bands, "scan_bands", counting)
    monkeypatch.setattr(module, "scan_bands", counting)
    return calls


def test_bands_and_tune_scan_band_edges_once(tmp_path, capsys, monkeypatch):
    # the bands, their velocities and the tuning report share one edge scan
    calls = _counting_scans(monkeypatch, pcbs.cli)
    rc, _ = run(capsys, "bands", "--n-bands", "8", "--samples", "5", "--out-dir", str(tmp_path))
    assert rc == 0 and calls == [8]
    rc, _ = run(capsys, "tune", "--band", "4")
    assert rc == 0 and calls == [8, 4]
    rc, _ = run(capsys, "bands", "--n-bands", "2", "--samples", "5", "--band", "6",
                "--out-dir", str(tmp_path))
    assert rc == 0 and calls == [8, 4, 6]


def test_selftest_scans_the_default_crystal_once(monkeypatch):
    calls = _counting_scans(monkeypatch, pcbs.selftest)
    pcbs.selftest._working_bands.cache_clear()
    assert all(res.passed for res in pcbs.selftest.run_all())
    assert calls == [8]


@pytest.mark.parametrize("eps_rel_b, band, target", [
    (4.9284, 3, "4.59e-3"), (2.25, 4, "1e-6"), (12.25, 7, "0.3"),    # the last is refused
])
def test_bands_tunes_as_tune_does(tmp_path, capsys, eps_rel_b, band, target):
    # bands tunes on its scan of 8 bands, tune on a scan of the bands up to its own
    cfg = tmp_path / "crystal.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": eps_rel_b}}))
    flags = ["--band", str(band), "--target-vg-over-c", target]
    rc, out = run(capsys, "--config", str(cfg), "bands", "--n-bands", "8", "--samples", "2",
                  *flags, "--out-dir", str(tmp_path))
    assert rc == 0
    tuning = json.loads(out)["tuning"]
    rc = main(["--config", str(cfg), "tune", *flags])
    out, err = capsys.readouterr()
    if "error" in tuning:
        assert rc == 2 and err == f"error: {tuning['error']}\n"
    else:
        assert rc == 0 and json.loads(out) == tuning


@pytest.mark.parametrize("module", ["cli", "selftest"])
def test_front_ends_import_no_private_name(module):
    # cli and selftest reach the bands, and every other layer, through public names
    tree = ast.parse((Path(pcbs.__file__).parent / f"{module}.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "pcbs")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_bands_homogeneous_config(tmp_path, capsys):
    cfg = tmp_path / "uniform.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_a": 4.0, "eps_rel_b": 4.0}}))
    rc, out = run(capsys, "--config", str(cfg), "bands", "--n-bands", "3",
                  "--samples", "7", "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert "error" in payload["tuning"]
    assert "zeta_report" not in payload
    _, rows = read_csv(tmp_path / "bands.csv")
    v_gs = {row[3] for row in rows}
    assert len(v_gs) == 1
    assert np.isclose(float(v_gs.pop()), CODATA.c / 2.0, rtol=1e-12)


def test_bands_zero_target_reports_zeta_error(tmp_path, capsys):
    # v_g = 0 is the band edge: the tuning is served, zeta is singular there
    rc, out = run(capsys, "bands", "--n-bands", "1", "--samples", "3",
                  "--target-vg-over-c", "0", "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["tuning"]["k_star"] == 0.0
    assert "v_g = 0" in payload["zeta_report"]["error"]


def test_bands_zero_bands_exit(tmp_path, capsys):
    assert main(["bands", "--n-bands", "0", "--out-dir", str(tmp_path)]) == 2
    assert "n_bands" in capsys.readouterr().err
    assert not (tmp_path / "bands.csv").exists()


@pytest.mark.parametrize("flag, value, name", [
    ("--band", "0", "band_index"),
    ("--target-vg-over-c", "-1", "target_vg_over_c"),
    ("--target-vg-over-c", "nan", "target_vg_over_c"),
])
def test_bands_bad_tuning_input_exits_before_writing(tmp_path, capsys, flag, value, name):
    assert main(["bands", flag, value, "--out-dir", str(tmp_path)]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "bands.csv").exists()


@pytest.mark.parametrize("tree", [
    {"pump": {"radiant_flux": float("nan"), "beam_radius": 5e-6}},
    {"crystal": {"l_a": float("nan")}},
    {"crystal": {"eps_rel_b": float("inf")}},
])
def test_bands_non_finite_config_exit(tmp_path, capsys, tree):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(tree))    # json writes NaN / Infinity, and reads them back
    assert main(["--config", str(cfg), "bands", "--out-dir", str(tmp_path)]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("tree", [
    {"source": {"r": "1"}},
    {"truncation": {"tail_tolerance": "1e-8"}},
    {"source": {"alpha": True}},
])
def test_dist_non_number_config_exit(tmp_path, capsys, tree):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(tree))
    assert main(["--config", str(cfg), "dist", "--out-dir", str(tmp_path)]) == 2
    assert "must be a number" in capsys.readouterr().err


def test_n_max_above_ceiling_exit(tmp_path, capsys):
    assert main(["dist", *WORKING, "--n-max", "4001", "--out-dir", str(tmp_path)]) == 2
    assert "n_max must be in [1, 4000]" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sweep": {"n_max": 4001}}))
    assert main(["--config", str(cfg), "sweep", "--out-dir", str(tmp_path)]) == 2
    assert "n_max must be in [1, 4000]" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "dist.csv") and not os.path.exists(tmp_path / "sweep.csv")


@pytest.mark.parametrize("argv, tree, message", [
    (["bands", "--samples", "200000000"], {"bands": {"n_samples": 200000000}},
     f"n_bands * n_samples must be <= {ROWS_CEILING}"),
    (["bands", "--n-bands", "0", "--samples", "200000000"],
     {"bands": {"n_bands": 0, "n_samples": 200000000}},
     f"n_bands * n_samples must be <= {ROWS_CEILING}"),
    (["bands", "--n-bands", "3", "--samples", str(ROWS_CEILING // 2)],
     {"bands": {"n_bands": 3, "n_samples": ROWS_CEILING // 2}},
     f"n_bands * n_samples must be <= {ROWS_CEILING}"),
    (["sweep", "--steps", str(STEPS_CEILING + 1)], {"sweep": {"steps": STEPS_CEILING + 1}},
     f"steps must be <= {STEPS_CEILING}"),
])
def test_sizes_above_ceiling_exit_before_allocating(tmp_path, capsys, monkeypatch, argv, tree,
                                                    message):
    def refuse(*args, **kwargs):
        raise AssertionError("called with a size above its ceiling")

    for name in ("scan_bands", "sample_bands", "sweep_r"):
        monkeypatch.setattr(pcbs.cli, name, refuse)
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(tree))
    assert main(["--config", str(cfg), argv[0], "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.json"]


def test_sizes_at_ceiling_pass_validation():
    assert SweepSection(steps=STEPS_CEILING).steps == STEPS_CEILING
    assert BandsSection(n_bands=2, n_samples=ROWS_CEILING // 2).n_samples == ROWS_CEILING // 2


def test_tune_command(capsys):
    rc, out = run(capsys, "tune", "--band", "4",
                  "--target-vg-over-c", "4.59e-3")
    assert rc == 0
    payload = json.loads(out)
    assert np.isclose(payload["k_star"], 3936.9971717834214, rtol=1e-8)
    assert np.isclose(payload["delta_omega"],
                      2.0 * np.pi * payload["delta_nu"], rtol=1e-12)


def test_tune_unachievable_exit(capsys):
    assert main(["tune", "--target-vg-over-c", "0.9"]) == 2


def test_tune_nan_target_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["tune", "--target-vg-over-c", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: target_vg_over_c must be >= 0, got nan")
    assert not (tmp_path / "bands.csv").exists()


def test_tune_weak_contrast_served(tmp_path, capsys):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": 1.00000001}}))
    assert main(["--config", str(cfg), "tune"]) == 0
    report = json.loads(capsys.readouterr().out)
    # band 4's k = 0 edge lies on closed gap 4, already faster than the target
    assert report["k_star"] == 0.0 and report["nu_s"] > 0.0


@pytest.mark.parametrize("crystal, target", [
    ({}, "0.5808262671004204"),
    ({"l_b": 1.1e-7, "eps_rel_b": 9.010992040998248}, "0.6543968226601684"),
])
def test_tune_serves_band_1_at_its_own_edge_velocity(tmp_path, capsys, crystal, target):
    # band 1's v_g(0)/c as printed, whose product with c rounds one ulp above
    # v_g(0): the first was refused as degenerate (exit 4), the second ended
    # in an unconverged solve's RuntimeError
    cfg = tmp_path / "crystal.json"
    cfg.write_text(json.dumps({"crystal": crystal}))
    rc, out = run(capsys, "--config", str(cfg), "tune", "--band", "1",
                  "--target-vg-over-c", target)
    assert rc == 0
    report = json.loads(out)
    assert repr(report["target_vg_over_c"]) == target
    assert report["k_star"] == report["delta_omega"] == report["delta_nu"] == report["nu_s"] == 0.0


def test_degenerate_crystal_exits_without_a_warning(tmp_path, capsys):
    # eps_b 1e300 makes layer b 5e149 periods thick optically: the edge scan is
    # refused before it runs, where it once aliased into touching bands at w = 0
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": 1e300}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), "bands", "--out-dir", str(tmp_path)]) == 4
        assert "cannot resolve its band edges" in capsys.readouterr().err
        assert main(["--config", str(cfg), "tune"]) == 4
        assert "cannot resolve its band edges" in capsys.readouterr().err


@pytest.mark.parametrize("eps_rel_b", [1e16, 1e100])
def test_unresolvable_crystal_exit(tmp_path, capsys, eps_rel_b):
    # at 1e16 the aliased scan once exited 0, with v_g 2.5e-7 m/s beside 4.24 m/s
    cfg = tmp_path / "contrast.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": eps_rel_b}}))
    argv = ["--config", str(cfg), "bands", "--n-bands", "2", "--samples", "5",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 4
    assert "exceeds 1000 periods" in capsys.readouterr().err
    assert not (tmp_path / "bands.csv").exists()
    assert main(["--config", str(cfg), "tune"]) == 4


def test_gapless_crystal_needs_no_scan(tmp_path, capsys):
    # one medium of index 1e8: its bands are exact without the edge scan it would fail
    cfg = tmp_path / "uniform.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_a": 1e16, "eps_rel_b": 1e16}}))
    rc, _ = run(capsys, "--config", str(cfg), "bands", "--n-bands", "2", "--samples", "3",
                "--out-dir", str(tmp_path))
    assert rc == 0
    _, rows = read_csv(tmp_path / "bands.csv")
    assert {float(row[3]) for row in rows} == {CODATA.c / 1e8}


@pytest.mark.parametrize("eps_rel_b, digest", [
    (4.9284, "af17cacce7d4b5b007f76d1c994dcb8300da7c6ba46819a8e86747d370597dfe"),
    (12.25, "e401d2336acf26e47195a94819b72dae7a34ce6d9a57c04885b582aa9a021230"),
    (2.25, "721db8de937f90eb7e9d6d226c384a5f5959e9b8f94ee8bbea739c2f660761da"),
])
def test_bands_csv_bytes_are_pinned(tmp_path, capsys, eps_rel_b, digest):
    # the bands-tune inputs of perfbench; bytes as written by the per-band solver
    cfg = tmp_path / "crystal.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": eps_rel_b}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "bands", "--n-bands", "8", "--samples", "121",
                 "--out-dir", str(out)]) == 0
    assert hashlib.sha256((out / "bands.csv").read_bytes()).hexdigest() == digest


def one_format_bands_rows(bands, k, omega, v_g):
    # the bands.csv body as one % over a repeated format: every cell formatted
    # once per row, the earlier cmd_bands expression verbatim
    cells = np.stack(np.broadcast_arrays(bands[:, None], k, omega, v_g), axis=-1)
    return (f"%d,{_FMT},{_FMT},{_FMT}\n" * (cells.size // 4)) % tuple(cells.ravel().tolist())


@settings(max_examples=60, deadline=None)
@given(n_bands=st.integers(1, 12), n_samples=st.integers(2, 300),
       log10_period=st.floats(-280.0, 10.0),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=2 * 12 * 300))
@example(n_bands=1, n_samples=2, log10_period=math.log10(1.1e-6),
         values=[0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
def test_bands_rows_match_one_format(n_bands, n_samples, log10_period, values):
    # omega and v_g (the values, repeated to fill both) across every exponent,
    # with 0.0 and subnormals; k = np.linspace(0, pi / Lambda, n_samples)
    omega, v_g = np.resize(np.array(values), (2, n_bands, n_samples))
    bands = np.arange(1, n_bands + 1)
    k = np.linspace(0.0, math.pi / 10.0 ** log10_period, n_samples)
    assert (_bands_rows(bands, k, omega, v_g)
            == one_format_bands_rows(bands, k, omega, v_g))


@pytest.mark.parametrize("eps_rel_b, bands_digest, tune_digest", [
    (4.9284, "bce3c2304c96e1ae55fb0c1f5c37932f9c3715c036a4b63e4ae85f3120c41e34",
     "79d3c318b2747a6ed087086051d9810d6d09eda8d700506b421ea86545a91ee2"),
    (12.25, "42f2ec007f91d8bc8c5480a79e0e6ba90ca6e20c72e34d11ab8a380a5a04ed92",
     "39b0d70fc0c66763d4edd87abc4ce337b3087ec0252661ca808dce7a315b20e3"),
    (2.25, "d6c7989b22eb5de579cffc97d4c51c82ddf8b7bd95edb47a912e588f51bd59c0",
     "bf59fc36b0d9cca976f3fe676db75c466c1f84fb68a52368f8bac9039c220c98"),
])
def test_bands_and_tune_json_bytes_are_pinned(tmp_path, capsys, eps_rel_b, bands_digest,
                                              tune_digest):
    # the bands-tune inputs of perfbench; stdout as printed by the per-command edge scans
    cfg = tmp_path / "crystal.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": eps_rel_b}}))
    rc, out = run(capsys, "--config", str(cfg), "bands", "--n-bands", "8", "--samples", "121",
                  "--out-dir", str(tmp_path / "out"))
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == bands_digest
    rc, out = run(capsys, "--config", str(cfg), "tune", "--band", "4")
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == tune_digest


def test_wide_band_scans_are_pinned(tmp_path, capsys):
    # 12 bands of eps_rel_b 2.25 span many scan units and its closed gap 5, at
    # 2001 samples a band; band 7 of 12.25 is tuned to a slow target
    cfg = tmp_path / "closed.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": 2.25}}))
    rc, out = run(capsys, "--config", str(cfg), "bands", "--n-bands", "12", "--samples", "2001",
                  "--out-dir", str(tmp_path / "out"))
    assert rc == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "c09be79ad6e81e5d0977a0e3da097ea488e6a10d97341d62d74055a005107f06")
    assert (hashlib.sha256((tmp_path / "out" / "bands.csv").read_bytes()).hexdigest()
            == "0a42caa08b51d76c329276766bcddcbdf3265002e50334351131b3998259cebb")
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": 12.25}}))
    rc, out = run(capsys, "--config", str(cfg), "tune", "--band", "7", "--target-vg-over-c", "1e-5")
    assert rc == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "9ec1dd2ec29b06b14033dea1ed0d7b7e212485abb4878c91bf4c3cda5f3cf1db")


@pytest.mark.parametrize("flux, radius", [(0.03, 1e-200), (0.03, 1e200), (1e308, 1e-10)])
def test_pump_without_a_finite_amplitude_exit(tmp_path, capsys, flux, radius):
    # d**2 underflows to 0, overflows, or the amplitude itself overflows
    cfg = tmp_path / "pump.json"
    cfg.write_text(json.dumps({"pump": {"radiant_flux": flux, "beam_radius": radius}}))
    assert main(["--config", str(cfg), "bands", "--out-dir", str(tmp_path)]) == 2
    assert "no finite, positive field amplitude" in capsys.readouterr().err
    assert not (tmp_path / "bands.csv").exists()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# every finite magnitude; the non-negative half drawn twice as often, since a
# negative value is refused at once
PUMP_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300]),
                        st.floats(min_value=0.0, allow_infinity=False),
                        st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flux=PUMP_FLOATS, radius=PUMP_FLOATS, index=PUMP_FLOATS)
def test_any_pump_gives_strict_json_or_a_typed_exit(tmp_path, capsys, flux, radius, index):
    cfg = tmp_path / "pump.json"
    cfg.write_text(json.dumps({"pump": {"radiant_flux": flux, "beam_radius": radius,
                                        "refractive_index": index}}))
    for argv in (["bands", "--n-bands", "2", "--samples", "3", "--out-dir", str(tmp_path)],
                 ["tune"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(capsys, "--config", str(cfg), *argv)    # an exception fails the test
        assert rc in (0, 2, 3, 4)
        if rc == 0:
            json.loads(out, parse_constant=_refuse_constant)


def test_non_finite_payload_exit(tmp_path, capsys):
    # a finite crystal whose squeeze overflows: zeta is refused, not printed as Infinity
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"crystal": {"chi2_tilde": 1e308}}))
    assert main(["--config", str(cfg), "bands", "--n-bands", "1", "--samples", "3",
                 "--out-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "squeeze parameter zeta is not a finite number" in err


def test_emit_refuses_a_non_finite_payload(capsys):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _emit({"zeta": float("inf")})
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("source", ["flag", "config"])
def test_tail_tolerance_below_the_floor_exits_before_any_box(tmp_path, capsys, monkeypatch,
                                                             source):
    # 1e-20 once grew the box to n_max 4000 (about 600 MB) before exit 2
    def no_box(*args):
        raise AssertionError("suggest_n_max was called")

    monkeypatch.setattr("pcbs.fock.suggest_n_max", no_box)
    argv = ["dist", "--out-dir", str(tmp_path)]
    if source == "flag":
        argv += ["--tail-tolerance", "1e-20"]
    else:
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({"truncation": {"tail_tolerance": 1e-20}}))
        argv = ["--config", str(cfg)] + argv
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"tail_tolerance must be in [{TAIL_TOLERANCE_FLOOR:g}, 1)" in err
    assert not (tmp_path / "dist.csv").exists()


def test_tune_scan_ceiling_exit(capsys):
    assert main(["tune", "--band", "400"]) == 4
    assert "no band edge below dimensionless frequency 64" in capsys.readouterr().err


def test_closed_gap_crystal_served(tmp_path, capsys):
    cfg = tmp_path / "closed.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": 2.25}}))
    rc, _ = run(capsys, "--config", str(cfg), "bands", "--n-bands", "8",
                "--samples", "121", "--out-dir", str(tmp_path))
    assert rc == 0
    _, rows = read_csv(tmp_path / "bands.csv")
    assert len(rows) == 968
    rc, out = run(capsys, "--config", str(cfg), "tune", "--band", "8")
    assert rc == 0
    assert 0.0 < json.loads(out)["k_star"]


def test_bb84_command_deterministic(capsys):
    argv = ["bb84", *WORKING, "--n-pulses", "200000", "--seed", "11"]
    rc, out = run(capsys, *argv)
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "clean"
    assert payload["n_pulses"] == 200000
    assert payload["herald_count"] > 0
    assert payload["rng_algorithm"] == "pcg64"
    rc2, out2 = run(capsys, *argv)
    assert rc2 == 0 and out2 == out


def test_bb84_attack_flag(capsys):
    rc, out = run(capsys, "bb84", *WORKING, "--n-pulses", "100000",
                  "--attack", "balanced_beam_splitter", "--seed", "11")
    assert rc == 0
    assert json.loads(out)["verdict"] == "attack_suspected"


def test_bb84_z_threshold_flag(capsys):
    rc, out = run(capsys, "bb84", *WORKING, "--n-pulses", "100000",
                  "--attack", "balanced_beam_splitter", "--z-threshold", "1e6",
                  "--seed", "11")
    assert rc == 0
    assert json.loads(out)["verdict"] == "clean"


def test_bb84_empty_session_exit(capsys):
    assert main(["bb84", "--n-pulses", "0"]) == 2


@pytest.mark.parametrize("n_pulses", [1000.0, True])
def test_bb84_config_non_integer_pulses_exit(tmp_path, capsys, n_pulses):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bb84": {"n_pulses": n_pulses}}))
    assert main(["--config", str(cfg), "bb84"]) == 2
    assert "n_pulses" in capsys.readouterr().err


def test_bb84_pulses_beyond_int64_exit(capsys):
    # refused at config load: the cap is 10**15, below betaincc's first NaN
    for n_pulses in (10**20, 10**15 + 1):
        assert main(["bb84", "--n-pulses", str(n_pulses)]) == 2
        assert "10**15" in capsys.readouterr().err


def test_bb84_nan_cdf_exit(capsys, monkeypatch):
    import scipy.special

    real = scipy.special.betaincc

    def nan_at_first_probe(*args):
        values = np.array(real(*args))
        values.flat[0] = np.nan
        return values

    monkeypatch.setattr(scipy.special, "betaincc", nan_at_first_probe)
    rc = main(["bb84", *WORKING, "--n-pulses", str(10**7),
               "--attack", "balanced_beam_splitter"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "NaN" in captured.err


def test_bb84_terapulse_session(capsys):
    rc, out = run(capsys, "bb84", *WORKING, "--n-pulses", str(10**12), "--seed", "5")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n_pulses"] == 10**12 and payload["verdict"] == "clean"


def _fresh_interpreter(code: str) -> str:
    src = os.path.dirname(os.path.dirname(pcbs.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": src}).stdout


_SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_import_loads_no_scipy():
    # importing scipy.special or scipy.optimize costs about half a second per command
    out = _fresh_interpreter(f"import sys, pcbs.cli; print({_SCIPY_LOADED})")
    assert out.strip() == "[]"


def test_dist_sweep_and_unattacked_bb84_load_no_scipy(tmp_path):
    code = (
        "import contextlib, io, sys\n"
        "from pcbs.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['dist', '--oracle', '--r', '1.0', '--alpha', '0.5', '--out-dir', {str(tmp_path)!r}]) == 0\n"
        f"    assert main(['sweep', '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "    assert main(['bb84', '--n-pulses', '100000']) == 0\n"
        "    assert main(['tune', '--band', '4']) == 0\n"
        f"    assert main(['bands', '--n-bands', '8', '--out-dir', {str(tmp_path)!r}]) == 0\n"
        f"print({_SCIPY_LOADED})\n"
    )
    assert _fresh_interpreter(code).strip() == "[]"
    assert all((tmp_path / name).exists() for name in ("dist.csv", "sweep.csv", "bands.csv"))


def test_bands_brentq_is_a_module_global_before_and_after_tune():
    # perfbench's tracer reads and rebinds the name pcbs.bands.brentq; no pcbs code calls it
    code = (
        "import contextlib, io, sys\n"
        "import pcbs.bands\n"
        "from pcbs.cli import main\n"
        "before = 'brentq' in vars(pcbs.bands)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['tune', '--band', '4']) == 0\n"
        "print(before, 'brentq' in vars(pcbs.bands))\n"
    )
    assert _fresh_interpreter(code).split() == ["True", "True"]


def test_cli_module_runs_as_script():
    src = os.path.dirname(os.path.dirname(pcbs.__file__))
    proc = subprocess.run([sys.executable, "-m", "pcbs.cli", "tune", "--band", "4"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k_star"] > 0.0


def test_config_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"source": {"r": 0.5, "alpha": 0.25}}))
    rc, out = run(capsys, "--config", str(cfg), "dist", "--r", "1.0",
                  "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["r"] == 1.0       # flag wins
    assert payload["alpha"] == 0.25  # config fills the rest


def _subcommands():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _key_type(key):
    """The type a RunConfig field path holds (X of X | None), or None if no such field."""
    node, hint = RunConfig(), None
    for part in key.split("."):
        if not is_dataclass(node) or part not in {f.name for f in fields(node)}:
            return None
        hint = get_type_hints(type(node))[part]
        node = getattr(node, part)
    if is_dataclass(node):
        return None
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


SCHEMA_KEYS = ["seed"] + [f"{section}.{field.name}"
                          for section, cls in get_type_hints(RunConfig).items()
                          if is_dataclass(cls) for field in fields(cls)]
# each int key's ceiling, None where it has none
INT_CEILINGS = {"seed": None, "sweep.steps": STEPS_CEILING, "sweep.n_max": N_MAX_CEILING,
                "bands.n_bands": ROWS_CEILING, "bands.n_samples": ROWS_CEILING,
                "bands.band_index": None}
SMALL_INTS = st.integers(-2, 12)
# the values each drawn key takes; float keys take the pump property's magnitudes
KEY_VALUES = {
    "truncation.n_max": st.integers(1, 200),    # a box of (n_max + 1)^2 cells: never automatic
    "bb84.n_pulses": st.integers(),             # any int: above 10**15 is refused
    "bb84.attack": st.sampled_from(ATTACK_KINDS + ("eavesdrop",)),
    **{key: PUMP_FLOATS for key in SCHEMA_KEYS if _key_type(key) is float},
    **{key: SMALL_INTS if ceiling is None else
       st.one_of(SMALL_INTS, st.integers(ceiling + 1, ceiling + 3))
       for key, ceiling in INT_CEILINGS.items()},
}
# a few keys per tree, so that most trees load and their commands run
SCHEMA_TREES = st.lists(st.sampled_from(sorted(set(KEY_VALUES) - {"truncation.n_max"})),
                        max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: KEY_VALUES[key]
                                        for key in ("truncation.n_max", *keys)}))


def test_schema_property_draws_every_key():
    assert len(SCHEMA_KEYS) == 27
    assert set(KEY_VALUES) == set(SCHEMA_KEYS) - {"output.directory"}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=SCHEMA_TREES)
# a root of the band-edge scan near w = 0 (6.5e-33) once took more Newton steps than allowed
@example(values={"truncation.n_max": 1, "crystal.l_a": 4.569575166425668e-141,
                 "crystal.eps_rel_a": 2.8919565351406293e+197})
def test_any_config_gives_strict_json_or_a_typed_exit(tmp_path, capsys, values):
    tree = {"output": {"directory": str(tmp_path)}}
    for key, value in values.items():
        name, _, field = key.rpartition(".")
        (tree.setdefault(name, {}) if name else tree)[field] = value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(tree))
    for argv in (["dist"], ["sweep"], ["bands"], ["tune"], ["bb84", "--attack", "none"],
                 ["bb84", "--attack", "balanced_beam_splitter"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(capsys, "--config", str(cfg), *argv)    # an exception fails the test
        assert rc in (0, 2, 3, 4), argv
        if rc == 0:
            json.loads(out, parse_constant=_refuse_constant)


def test_every_flag_sets_a_config_key():
    seen = 0
    for name, parser in _subcommands().items():
        for action in parser._actions:
            if action.dest in ("help", "oracle"):
                continue
            seen += 1
            assert _key_type(action.dest) is not None, (name, action.option_strings)
            assert action.type is _key_type(action.dest), (name, action.dest)
            assert action.default is None and action.metavar is None   # --help shows KEY
    assert seen == 25


@pytest.mark.parametrize("command", ["dist", "sweep", "bands", "tune", "bb84", "selftest"])
def test_subcommand_help_shows_the_keys(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for action in _subcommands()[command]._actions:
        if "." in action.dest:
            assert f"{action.option_strings[0]} {action.dest.upper()}" in out


def test_cli_import_builds_no_parser():
    out = _fresh_interpreter("import pcbs.cli; print(pcbs.cli._build_parser.cache_info().currsize)")
    assert out.strip() == "0"


@pytest.mark.parametrize("argv, message", [
    (["bb84", "--n-pulses", "0"], "n_pulses must be positive"),
    (["bb84", "--ratio", "2"], "splitting_ratio must lie in [0, 1]"),
    (["bb84", "--attack", "intercept"], "kind must be one of"),
    (["bb84", "--z-threshold", "-1"], "z_threshold must be positive"),
    (["bb84", "--z-threshold", "nan"], "z_threshold must be positive"),
])
def test_flag_values_pass_section_validation(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_out_dir_flag_overrides_config_directory(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"output": {"directory": str(tmp_path / "from_file")}}))
    rc, _ = run(capsys, "--config", str(cfg), "dist", "--out-dir", str(tmp_path / "from_flag"))
    assert rc == 0
    assert (tmp_path / "from_flag" / "dist.csv").exists()
    assert not (tmp_path / "from_file").exists()


def test_config_non_string_directory_exit(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"output": {"directory": 5}}))
    assert main(["--config", str(cfg), "sweep"]) == 2
    assert "'output.directory' must be a string" in capsys.readouterr().err


def test_config_unknown_key_exit(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"sweep": {"stepss": 3}}))
    assert main(["--config", str(cfg), "dist"]) == 2


def test_config_missing_file_exit(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json"), "dist"]) == 2


def test_selftest_exit_codes(monkeypatch, capsys):
    import pcbs.cli as cli

    monkeypatch.setattr(cli, "run_all",
                        lambda: [CheckResult("alpha", True, ["x .. ok"])])
    assert main(["selftest"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out

    monkeypatch.setattr(cli, "run_all",
                        lambda: [CheckResult("alpha", True, []),
                                 CheckResult("beta", False, ["y .. FAIL"])])
    assert main(["selftest"]) == 1
    assert "1/2 checks passed" in capsys.readouterr().out


def _commands_replaced_by(monkeypatch, func):
    """Make every command call func(cfg, args), and every sampler it reaches refuse."""
    def refuse(*args, **kwargs):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(pcbs.cli, "_COMMANDS", tuple((name, text, func, flags)
                                                     for name, text, _, flags in pcbs.cli._COMMANDS))
    monkeypatch.setattr(pcbs.cli, "_build_parser",
                        functools.cache(pcbs.cli._build_parser.__wrapped__))
    for name in ("joint_distribution", "sweep_r", "locate_maximum", "sample_bands",
                 "scan_bands", "tune_to_group_velocity", "simulate_session",
                 "oracle_state", "run_all"):
        monkeypatch.setattr(pcbs.cli, name, refuse)


# a valid value other than its default for every flag's key
FLAG_VALUES = {
    "source.r": 0.75, "source.alpha": 0.25, "truncation.n_max": 30,
    "truncation.tail_tolerance": 1e-6, "sweep.r_min": 0.5, "sweep.r_max": 1.5,
    "sweep.steps": 7, "bands.n_bands": 3, "bands.n_samples": 9, "bands.band_index": 2,
    "bands.target_vg_over_c": 1e-3, "bb84.n_pulses": 1000,
    "bb84.attack": "balanced_beam_splitter", "bb84.splitting_ratio": 0.25, "seed": 9,
    "bb84.z_threshold": 3.0, "output.directory": "elsewhere",
}


def _tree(key, value):
    name, _, field = key.rpartition(".")
    return {name: {field: value}} if name else {field: value}


def _command_with(flag):
    return next(name for name, _, _, flags in pcbs.cli._COMMANDS if flag in flags)


def test_flag_and_file_set_the_same_config(tmp_path, monkeypatch):
    seen = []
    _commands_replaced_by(monkeypatch, lambda cfg, args: seen.append(cfg) or 0)
    assert set(FLAG_VALUES) == {key for key, _, _ in _FLAGS.values()}
    for flag, (key, _, _) in _FLAGS.items():
        value = FLAG_VALUES[key]
        command = _command_with(flag)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(_tree(key, value)))
        assert main([command, flag, str(value)]) == 0
        assert main(["--config", str(cfg), command]) == 0
        from_flag, from_file = seen[-2:]
        assert from_flag == from_file != RunConfig(), flag


@pytest.mark.parametrize("flag, value, message", [
    ("--r", "-1", "squeeze parameter r must be >= 0, got -1"),
    ("--alpha", "inf", "r and alpha must be finite"),
    ("--n-max", "4001", "n_max must be in [1, 4000], got 4001"),
    ("--tail-tolerance", "1e-20", "tail_tolerance must be in [1e-10, 1)"),
    ("--r-min", "-1", "need 0 <= r_min <= r_max < inf"),
    ("--r-max", "inf", "need 0 <= r_min <= r_max < inf"),
    ("--steps", "0", "steps must be >= 1, got 0"),
    ("--n-bands", "0", "n_bands must be >= 1, got 0"),
    ("--samples", "1", "n_samples must be >= 2, got 1"),
    ("--band", "0", "band_index must be >= 1, got 0"),
    ("--target-vg-over-c", "nan", "target_vg_over_c must be >= 0, got nan"),
    ("--n-pulses", "0", "n_pulses must be positive"),
    ("--ratio", "2", "splitting_ratio must lie in [0, 1]"),
    ("--z-threshold", "nan", "z_threshold must be positive"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_out_of_range_value_is_refused_alike_from_flag_and_file(tmp_path, capsys, monkeypatch,
                                                                flag, value, message):
    _commands_replaced_by(monkeypatch, lambda cfg, args: pytest.fail("a command ran"))
    key, kind, _ = _FLAGS[flag]
    command = _command_with(flag)
    assert main([command, flag, value]) == 2
    from_flag = capsys.readouterr()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_tree(key, kind(value))))
    assert main(["--config", str(cfg), command]) == 2
    from_file = capsys.readouterr()
    assert from_flag.out == from_file.out == ""
    assert from_flag.err == from_file.err
    assert from_flag.err.startswith(f"error: {message}") and from_flag.err.count("\n") == 1


@pytest.mark.parametrize("tree", [{"source": {"r": -1.0}}, {"bands": {"n_bands": 0}},
                                  {"bands": {"band_index": 0}}, {"sweep": {"steps": 0}},
                                  {"bands": {"target_vg_over_c": -1.0}},
                                  {"sweep": {"n_max": 0}}])
@pytest.mark.parametrize("command", ["dist", "sweep", "bands", "tune", "bb84", "selftest"])
def test_every_command_refuses_a_bad_section(tmp_path, capsys, monkeypatch, tree, command):
    _commands_replaced_by(monkeypatch, lambda cfg, args: pytest.fail("a command ran"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(tree))
    assert main(["--config", str(cfg), command]) == 2
    assert "invalid section" not in capsys.readouterr().err


EXIT_CODES = {
    ConfigError: 2, NoHeraldError: 2, UnachievableTargetError: 2,
    TruncationError: 3, DegeneratePointError: 4, InsufficientScanError: 4,
    UndefinedCdfError: 4,
}


@pytest.mark.parametrize("error", EXIT_CODES, ids=lambda error: error.__name__)
def test_each_error_type_exits_with_its_code(capsys, monkeypatch, error):
    assert set(PcbsError.__subclasses__()) == set(EXIT_CODES)
    exc = error(0.5, 40, 1e-8) if error is TruncationError else error("refused")

    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(pcbs.cli, "tune_to_group_velocity", raising)
    assert main(["tune"]) == EXIT_CODES[error] == error.exit_code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_dist_with_no_photon_behind_the_herald(tmp_path, capsys):
    # P(1, 0) = 5e-301 heralds, but P(1, 1) underflows: the conditional mean is 0
    rc, out = run(capsys, "dist", "--r", "0", "--alpha", "1e-150", "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["p1"] > 0.0 and payload["g2"] is None
    assert (tmp_path / "dist.csv").exists()
    # q1 and q2 were differences of near-equal sums here: q1 read 0.0 and q2 -5e-301
    assert payload["q1"] == payload["p1"] == payload["miss_no_attack"] == 5.000000000000001e-301
    assert payload["q2"] == payload["q3"] == 0.0


def test_crystal_of_tiny_period_exits_at_config_load(tmp_path, capsys, monkeypatch):
    _commands_replaced_by(monkeypatch, lambda cfg, args: pytest.fail("a command ran"))
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"crystal": {"l_a": 1e-300, "l_b": 1e-300}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), "bands", "--n-bands", "1", "--samples", "3",
                     "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: the period l_a + l_b must be >= 1e-280 m")
    assert os.listdir(tmp_path) == ["tiny.json"]
