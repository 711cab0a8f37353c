import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np
import pytest

import pcbs
from pcbs.cli import _build_parser, main
from pcbs.config import ROWS_CEILING, STEPS_CEILING, BandsSection, RunConfig, SweepSection
from pcbs.fock import SqueezedInput, TruncationPolicy
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
                           TruncationPolicy(n_max=n_max, tail_tolerance=1e-8)).p
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
        orc.entries[n_max, 0] += 1e-3
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


def test_bands_and_tune_scan_band_edges_once(tmp_path, capsys, monkeypatch):
    # the bands, their velocities and the tuning report share one edge scan
    scan, calls = pcbs.bands._band_intervals, []

    def counting(spec, n_bands):
        calls.append(n_bands)
        return scan(spec, n_bands)

    monkeypatch.setattr("pcbs.bands._band_intervals", counting)
    monkeypatch.setattr("pcbs.cli._band_intervals", counting)
    rc, _ = run(capsys, "bands", "--n-bands", "8", "--samples", "5", "--out-dir", str(tmp_path))
    assert rc == 0 and calls == [8]
    rc, _ = run(capsys, "tune", "--band", "4")
    assert rc == 0 and calls == [8, 4]


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

    for name in ("_band_intervals", "solve_band", "sweep_r"):
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
    assert capsys.readouterr().err.startswith("error: target_vg must be >= 0, got nan")
    assert not (tmp_path / "bands.csv").exists()


def test_tune_weak_contrast_served(tmp_path, capsys):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": 1.00000001}}))
    assert main(["--config", str(cfg), "tune"]) == 0
    report = json.loads(capsys.readouterr().out)
    # band 4's k = 0 edge lies on closed gap 4, already faster than the target
    assert report["k_star"] == 0.0 and report["nu_s"] > 0.0


def test_degenerate_crystal_exits_without_a_warning(tmp_path, capsys):
    # eps_b 1e300 puts both k = 0 and k = pi of band 1 at w = 0: every slope vanishes
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps({"crystal": {"eps_rel_b": 1e300}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfg), "bands", "--out-dir", str(tmp_path)]) == 4
        assert "touching bands" in capsys.readouterr().err
        assert main(["--config", str(cfg), "tune"]) == 2
        assert "exceeds band 4's maximum" in capsys.readouterr().err


@pytest.mark.parametrize("flux, radius", [(0.03, 1e-200), (0.03, 1e200), (1e308, 1e-10)])
def test_pump_without_a_finite_amplitude_exit(tmp_path, capsys, flux, radius):
    # d**2 underflows to 0, overflows, or the amplitude itself overflows
    cfg = tmp_path / "pump.json"
    cfg.write_text(json.dumps({"pump": {"radiant_flux": flux, "beam_radius": radius}}))
    assert main(["--config", str(cfg), "bands", "--out-dir", str(tmp_path)]) == 2
    assert "no finite, positive field amplitude" in capsys.readouterr().err
    assert not (tmp_path / "bands.csv").exists()


def test_non_finite_payload_exit(tmp_path, capsys):
    # a finite crystal whose squeeze overflows: the payload is refused, not printed as Infinity
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"crystal": {"chi2_tilde": 1e308}}))
    assert main(["--config", str(cfg), "bands", "--n-bands", "1", "--samples", "3",
                 "--out-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not JSON compliant" in err


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
    assert main(["bb84", "--n-pulses", str(10**20)]) == 2
    assert "2**63" in capsys.readouterr().err


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
