"""An untruncated oracle: the input's photon-number generating function.

The splitter thins the input photon number T binomially, so the joint
distribution of the two ports has the generating function
sum P(n1, n2) x^n1 y^n2 = G((x + y) / 2), with G(z) = sum_T p_T z^T.  For
S(-r) D(alpha) |0> (vacuum variance 1/2: covariance diag(e^2r, e^-2r) / 2,
mean (sqrt(2) alpha e^r, 0)), G is the overlap of two Gaussian states
(Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012), sec. II):

    G(z) = exp(-alpha^2 e^2r / s_x) / ((1 - z) sqrt(s_x s_p)),
    s_x = e^2r / 2 + c,  s_p = e^-2r / 2 + c,  c = (1 + z) / (2 (1 - z)).

Threshold statistics are vacuum probabilities of the marginals (Quesada,
Arrazola & Killoran, PRA 98, 062322 (2018)): q1 = 1 - G(1/2),
miss_no_attack = G(1/2) - G(0), q3 = (G'(1/2) - G'(0)) / 2 and
P1 = G'(1/2) / 2.  pcbs.oracle checks the box cell by cell; this checks
what the box leaves out, and the closed-form P1 of the sweeps.
"""

import json
import math
import random
import sys

import numpy as np
import pytest

from pcbs.bb84 import simulate_session
from pcbs.cli import main
from pcbs.fock import SqueezedInput, TruncationPolicy, _single_mode_column
from pcbs.stats import _herald_probability, joint_distribution

mp = pytest.importorskip("mpmath")


def _g_and_slope(z, r, alpha):
    """(G(z), G'(z)) in the current mpmath precision."""
    c = (1 + z) / (2 * (1 - z))
    dc = 1 / (1 - z) ** 2
    e2r = mp.exp(2 * r)
    s_x, s_p = e2r / 2 + c, 1 / (2 * e2r) + c
    g = mp.exp(-alpha * alpha * e2r / s_x) / ((1 - z) * mp.sqrt(s_x * s_p))
    # the first three terms cancel to O(r^2) at small r; they are summed first
    log_slope = (1 / (1 - z) - dc / (2 * s_x) - dc / (2 * s_p)) + alpha * alpha * e2r * dc / s_x**2
    return g, g * log_slope


def _exact_p1(r, alpha):
    """P1 = G'(1/2) / 2 to 50 digits; the digits the small-r cancellation costs are added."""
    extra = 2 * math.ceil(-math.log10(r)) if 0.0 < r < 1.0 else 0
    with mp.workdps(50 + extra):
        return mp.mpf(_g_and_slope(mp.mpf(1) / 2, mp.mpf(r), mp.mpf(alpha))[1]) / 2


_rng = random.Random(20)
GRID_R = [0.0, 1e-300, 1e-10, 1e-3, 19.99, 20.01, 354.0, 355.0, 709.78] + [
    _rng.uniform(0.0, 709.78) for _ in range(80)]
GRID_ALPHA = [0.0, 1e-150] + [sign * a for a in (0.1, 0.5, 1.0, 2.0, 3.0, 4.0) for sign in (1, -1)]


def test_generating_function_is_the_state_of_the_single_mode_column():
    # G(1/2) = sum_T psi_T^2 / 2^T ties the oracle's G to the state pcbs builds
    for r, alpha in [(1.0, 0.5), (2.0, 1.0), (0.3, -2.0)]:
        psi = _single_mode_column(r, alpha, 400)
        column = math.fsum(np.ldexp(psi**2, -np.arange(psi.size)).tolist())
        with mp.workdps(40):
            g = _g_and_slope(mp.mpf(1) / 2, mp.mpf(r), mp.mpf(alpha))[0]
        assert abs(column - g) <= 1e-14 * g


def test_herald_probability_matches_50_digit_value():
    checked = 0
    for r in GRID_R:
        for alpha in GRID_ALPHA:
            exact = _exact_p1(r, alpha)
            got = _herald_probability(r, alpha)
            if exact < sys.float_info.min:    # subnormal: fewer than 53 bits to compare
                continue
            assert abs(got - exact) <= 1e-14 * exact, (r, alpha, got, exact)
            checked += 1
    assert checked >= 900


def test_herald_probability_is_exactly_zero_without_a_herald():
    # sweep_r's vacuum row is tested in test_stats.py
    assert _herald_probability(0.0, 0.0) == 0.0
    assert _herald_probability(1.0, 1e200) == 0.0       # G(1/2) underflows, alpha^2 overflows


def test_sweep_prints_every_digit_at_large_alpha(tmp_path, capsys):
    # the herald row up to n = 60 printed P1 = 3.98018300497e-10 at r = 1.05
    assert main(["sweep", "--alpha", "4", "--r-min", "1", "--r-max", "1.3", "--steps", "7",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 7 and rows[1][:3:2] == ["1.05", "3.98018300523e-10"]
    for row in rows:
        r = float(row[0])
        p1 = _exact_p1(r, 4.0)
        with mp.workdps(50):
            # P(1,1) = p_2 / 2, p_2 the z^2 coefficient of G
            p11 = mp.taylor(lambda z: _g_and_slope(z, mp.mpf(r), mp.mpf(4))[0], 0, 2)[2] / 2
            pn1 = p11 / p1
        for printed, exact in zip(row[1:4], (p11, p1, pn1)):
            unit = 10.0 ** (math.floor(math.log10(exact)) - 11)     # one in the 12th digit
            assert abs(float(printed) - exact) <= unit, (row, printed)


@pytest.mark.parametrize("r, alpha", [(1.0, 0.5), (2.0, 1.0), (1.0, 4.0)])
def test_dist_fields_sit_below_the_untruncated_values_by_at_most_the_tail(
        tmp_path, capsys, r, alpha):
    assert main(["dist", "--r", str(r), "--alpha", str(alpha), "--out-dir", str(tmp_path)]) == 0
    box = json.loads(capsys.readouterr().out)
    with mp.workdps(40):
        r_mp, alpha_mp = mp.mpf(r), mp.mpf(alpha)
        g0, slope0 = _g_and_slope(mp.mpf(0), r_mp, alpha_mp)
        g, slope = _g_and_slope(mp.mpf(1) / 2, r_mp, alpha_mp)
        q1, miss = 1 - g, g - g0
        # the joint miss bb84 simulates at ratio 1/2: sum_k m[k] 2^-k = G(3/4) - G(1/4)
        simulated = (_g_and_slope(mp.mpf(3) / 4, r_mp, alpha_mp)[0]
                     - _g_and_slope(mp.mpf(1) / 4, r_mp, alpha_mp)[0])
        exact = {"q1": q1, "miss_no_attack": miss, "q2": q1 - miss,
                 "q3": (slope - slope0) / 2, "p1": slope / 2,
                 "miss_5050_attack_simulated": simulated}
    tail = 1.0 - box["captured_mass"]
    assert 0.0 < tail <= box["tail_tolerance"]
    for key, value in exact.items():
        # a cell's binomial weight is good to 1.5e-12 relative at n_max 423
        rounding = 2e-12 * value
        assert value - tail - rounding <= box[key] <= value + rounding, key


@pytest.fixture(scope="module")
def working_jd():
    return joint_distribution(SqueezedInput(r=1.0, alpha=0.5), TruncationPolicy(49, 1e-8))


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9])
def test_attacked_session_miss_is_the_untruncated_expectation(working_jd, ratio):
    # bb84 steals all k of Bob's photons with probability t^k, so the joint miss
    # expects sum_k m[k] t^k = G((1 + t)/2) - G(t/2), m the herald marginal
    m = working_jd[1:, :].sum(axis=0)
    box = float(np.sum(m * ratio ** np.arange(m.size)))
    with mp.workdps(40):
        t = mp.mpf(ratio)
        exact = (_g_and_slope((1 + t) / 2, mp.mpf(1), mp.mpf(0.5))[0]
                 - _g_and_slope(t / 2, mp.mpf(1), mp.mpf(0.5))[0])
    tail = 1.0 - float(np.sum(working_jd))
    assert exact - tail - 2e-12 * exact <= box <= exact + 2e-12 * exact
    n_pulses = 10**7
    for seed in (7, 8, 9):
        rep = simulate_session(working_jd, n_pulses, ratio, seed=seed)
        assert abs(rep.bob_miss_joint - box) <= 4.0 * math.sqrt(box * (1.0 - box) / n_pulses)
