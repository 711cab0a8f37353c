"""End-to-end checks of every reference number the package models.

Each check compares computed values against the published reference data
at the study point, RunConfig()'s defaults, and reports one line per
quantity, so ``pcbs selftest`` can print a pass/fail table and the test
suite can assert on the same results.  Probabilities carry an absolute
tolerance of 0.002 (three-figure references); physical quantities carry
the stated relative tolerance.

The tuning check compares the frequency shift (delta_nu and delta_nu/nu_s)
with the value the reference (k_star, v_g) pair implies, not with the
printed shift.  Near a parabolic band edge delta_omega = int_0^k* v_g dk =
v_g k*/2 whatever the crystal, so the reference pair fixes
delta_nu = v_g k* / (4 pi) = 4.3104e8 Hz.  The printed 3.13e8 Hz (9.69e-7
of nu_s) would need delta_omega / (v_g k*) = 0.363 instead of 1/2, so it
cannot come from the same band as the pair; see the erratum in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bands import band_frequencies, scan_bands, tune_to_group_velocity
from .bb84 import Verdict, simulate_session
from .config import RunConfig
from .fock import SqueezedInput, output_amplitudes
from .oracle import oracle_state
from .source import (
    CODATA,
    PumpSpec,
    amplitude_for_target_squeeze,
    flux_to_amplitude,
    photon_number,
    pulse_volume,
    squeeze_parameter,
)
from .stats import heralded_stats, joint_distribution, locate_maximum, threshold_probs

__all__ = ["CheckResult", "run_all", "CHECKS"]

STUDY = RunConfig()     # the study point: the config's defaults, never a file's or the flags'
P_ATOL = 0.002          # absolute, for probabilities quoted to 3 figures

SEED = 20260813


@dataclass
class CheckResult:
    name: str
    passed: bool = True
    lines: list[str] = field(default_factory=list)

    def close(self, label: str, got: float, want: float, *, atol: float = None,
              rtol: float = None) -> None:
        if atol is not None:
            ok = abs(got - want) <= atol
            budget = f"{want:g} +/- {atol:g}"
        else:
            ok = abs(got - want) <= rtol * abs(want)
            budget = f"{want:g} +/- {100 * rtol:g}%"
        self._record(ok, f"{label} = {got:.6g} vs {budget}")

    def holds(self, label: str, ok: bool) -> None:
        self._record(bool(ok), label)

    def _record(self, ok: bool, text: str) -> None:
        self.passed &= ok
        self.lines.append(f"{text} .. {'ok' if ok else 'FAIL'}")


@lru_cache(maxsize=1)
def _working_p():
    return joint_distribution(STUDY.source, STUDY.truncation)


@lru_cache(maxsize=1)
def _working_bands():
    return scan_bands(STUDY.crystal, STUDY.bands.n_bands)


def check_joint_distribution() -> CheckResult:
    res = CheckResult("joint photon-number distribution")
    p = _working_p()
    res.close("P(0,0)", p[0, 0], 0.417, atol=P_ATOL)
    res.close("P(1,1)", p[1, 1], 0.0783, atol=P_ATOL)
    res.close("P(1,3)", p[1, 3], 0.0216, atol=P_ATOL)
    return res


def check_heralded_statistics() -> CheckResult:
    res = CheckResult("heralded statistics")
    hs = heralded_stats(_working_p())
    res.close("P1", hs.p1, 0.151, atol=P_ATOL)
    table = (0.145, 0.520, 0.104, 0.144, 0.0343, 0.0325, 0.00885)
    for n, want in enumerate(table):
        res.close(f"P({n})", hs.pn[n], want, atol=P_ATOL)
    res.close("g2(0)", hs.g2, 1.17, atol=0.02)
    return res


def check_threshold_probabilities() -> CheckResult:
    res = CheckResult("threshold detection probabilities")
    tp = threshold_probs(_working_p())
    res.close("Q1", tp.q1, 0.509, atol=P_ATOL)
    res.close("Q2", tp.q2, 0.435, atol=P_ATOL)
    res.close("Q3", tp.q3, 0.129, atol=P_ATOL)
    res.close("miss (no attack)", tp.baseline_miss, 0.074, atol=P_ATOL)
    res.close("miss (50-50 attack)", tp.attacked_miss, 0.139, atol=P_ATOL)
    return res


def check_sweep_maxima() -> CheckResult:
    res = CheckResult("sweep maxima over r")
    alpha, r_min, r_max = STUDY.source.alpha, STUDY.sweep.r_min, STUDY.sweep.r_max
    r11, v11 = locate_maximum(alpha, "p11", r_min, r_max)
    res.close("max P(1,1)", v11, 0.0799, atol=P_ATOL)
    res.close("argmax P(1,1)", r11, 0.85, atol=0.01)
    r1, v1 = locate_maximum(alpha, "p1", r_min, r_max)
    res.close("max P1", v1, 0.165, atol=P_ATOL)
    res.close("argmax P1", r1, 0.675, atol=0.01)
    return res


def check_band_structure() -> CheckResult:
    res = CheckResult("band structure")
    spec, signal, top = STUDY.crystal, STUDY.bands.band_index - 1, STUDY.bands.n_bands - 1
    scale = 2.0 * math.pi * CODATA.c / spec.period
    w0 = band_frequencies(_working_bands(), 0.0) / scale
    wpi = band_frequencies(_working_bands(), math.pi / spec.period) / scale
    res.close(f"band-{signal + 1} zone-center edge", w0[signal], 1.18, atol=0.01)
    pump = 2.0 * w0[signal]
    res.close("doubled signal frequency", pump, 2.36, atol=0.01)
    res.holds(f"pump inside band {top + 1} ({wpi[top]:.4f} < {pump:.4f} < {w0[top]:.4f})",
              wpi[top] < pump < w0[top])
    lam_s = spec.period / w0[signal]
    res.close("lambda_s", lam_s, 9.27e-7, rtol=0.01)
    res.close("lambda_p", lam_s / 2.0, 4.64e-7, rtol=0.01)
    return res


def check_tuning() -> CheckResult:
    res = CheckResult("group-velocity tuning")
    spec, ratio = STUDY.crystal, STUDY.bands.target_vg_over_c
    rep = tune_to_group_velocity(_working_bands(), STUDY.bands.band_index, ratio * CODATA.c)
    res.close("Lambda * k_star", rep.k_star * spec.period, 4.33e-3, rtol=0.02)
    res.close("nu_s [Hz]", rep.nu_s, 3.23e14, rtol=0.02)
    # band-edge identity delta_omega = v_g k*/2 over the reference pair
    delta_nu = ratio * CODATA.c * 4.33e-3 / (4.0 * math.pi * spec.period)
    res.close("delta_nu [Hz]", rep.delta_nu, delta_nu, rtol=0.02)
    res.close("delta_nu / nu_s", rep.delta_nu / rep.nu_s, delta_nu / 3.23e14, rtol=0.02)
    return res


def check_source_model() -> CheckResult:
    res = CheckResult("source model")
    spec = STUDY.crystal
    omega_s = float(band_frequencies(_working_bands(), 0.0)[STUDY.bands.band_index - 1])
    v_g = STUDY.bands.target_vg_over_c * CODATA.c

    a_unit = amplitude_for_target_squeeze(1.0, omega_s, spec.chi2_tilde, v_g, spec.l_nl)
    res.close("A(zeta=1) / (v_g/c)", a_unit / (v_g / CODATA.c), 1.17e8, rtol=0.01)

    pump = flux_to_amplitude(STUDY.pump)
    res.close("pump amplitude [V/m]", pump, 5.36e5, rtol=0.01)

    signal = flux_to_amplitude(PumpSpec(radiant_flux=2.0e-7, beam_radius=5.0e-6))
    res.close("signal amplitude [V/m]", signal, 1.39e3, rtol=0.01)

    n = photon_number(signal, 2.0 * math.pi * CODATA.c / 1.535e-6,
                      pulse_volume(3.7e-9, 5.0e-6))
    res.close("photon number", n, 7.28e3, rtol=0.01)

    zeta = squeeze_parameter(omega_s, pump, spec.chi2_tilde, v_g, spec.l_nl)
    res.close("end-to-end zeta", zeta, 1.000, atol=0.005)
    return res


_R_GRID = tuple(np.linspace(0.0, 1.5, 7))
_ALPHA_GRID = (0.0, 0.25, 0.5, 1.0)


def check_oracle_equivalence() -> CheckResult:
    res = CheckResult("closed form vs operator-exponential oracle")
    worst_entry = worst_square = worst_norm = worst_sym = 0.0
    parity_exact = True
    for r in _R_GRID:
        for alpha in _ALPHA_GRID:
            state = SqueezedInput(r=float(r), alpha=float(alpha))
            policy = STUDY.truncation.for_state(state)
            n_max = policy.n_max
            amp = output_amplitudes(state, policy)
            orc = oracle_state(state, n_max)
            # the oracle is exact on every shell that fits whole in the box
            total = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1))
            worst_entry = max(worst_entry, float(np.max(np.abs(amp - orc)[total <= n_max])))
            # the triangle n1 + n2 <= 2 n_max holds the whole box
            whole = oracle_state(state, 2 * n_max)[:n_max + 1, :n_max + 1]
            worst_square = max(worst_square, float(np.max(np.abs(amp - whole))))
            worst_sym = max(worst_sym, float(np.max(np.abs(amp - amp.T))))
            worst_norm = max(worst_norm, abs(float(np.sum(amp**2)) - 1.0))
            if alpha == 0.0:
                parity_exact &= bool(np.all(amp[total % 2 == 1] == 0.0))
    res.holds(f"entrywise |closed - oracle| on n1 + n2 <= n_max = {worst_entry:.3g} "
              f"<= 1e-12 ({len(_R_GRID) * len(_ALPHA_GRID)} grid points)",
              worst_entry <= 1e-12)
    res.holds(f"entrywise |closed - oracle| on the whole box = {worst_square:.3g} <= 1e-12 "
              f"(oracle on n1 + n2 <= 2 n_max)", worst_square <= 1e-12)
    res.holds(f"normalization |sum - 1| = {worst_norm:.3g} <= 1e-8", worst_norm <= 1e-8)
    res.holds(f"mode-swap symmetry = {worst_sym:.3g} <= 1e-12", worst_sym <= 1e-12)
    res.holds("parity selection at alpha=0 exact", parity_exact)
    return res


def check_monte_carlo() -> CheckResult:
    res = CheckResult("session simulation")
    p = _working_p()
    tp = threshold_probs(p)
    baseline = tp.baseline_miss / tp.q1

    clean = simulate_session(p, 10**6, seed=SEED)
    bound = 4.0 * math.sqrt(baseline * (1.0 - baseline) / clean.herald_count)
    res.holds(f"clean miss rate {clean.bob_miss_given_herald:.5f} within 4 sigma "
              f"of {baseline:.5f}",
              abs(clean.bob_miss_given_herald - baseline) < bound)
    res.holds("clean verdict", clean.verdict is Verdict.CLEAN)

    attacked = simulate_session(p, 10**5, 0.5, seed=SEED)
    res.holds("50-50 attack flagged at z=5", attacked.verdict is Verdict.ATTACK_SUSPECTED)
    # bb84 steals all k of Bob's photons with probability 2^-k
    expected = tp.simulated_attack_miss
    bound = 4.0 * math.sqrt(expected * (1.0 - expected) / attacked.n_pulses)
    res.holds(f"attacked joint miss {attacked.bob_miss_joint:.5f} within 4 sigma "
              f"of {expected:.5f}",
              abs(attacked.bob_miss_joint - expected) < bound)
    return res


CHECKS = (
    check_joint_distribution,
    check_heralded_statistics,
    check_threshold_probabilities,
    check_sweep_maxima,
    check_band_structure,
    check_tuning,
    check_source_model,
    check_oracle_equivalence,
    check_monte_carlo,
)


def run_all() -> list[CheckResult]:
    """Run every check; slow ones (the oracle grid) run last but one."""
    return [check() for check in CHECKS]
