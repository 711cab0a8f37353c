import json
import math
from dataclasses import asdict

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbs.bb84 import (
    _MAX_PULSES,
    AttackModel,
    Verdict,
    _binom_ppf,
    detect_attack,
    sample_cells,
    simulate_session,
)
from pcbs.errors import EmptySessionError, NoHeraldError, UndefinedCdfError
from pcbs.fock import SqueezedInput, TruncationPolicy
from pcbs.stats import joint_distribution, threshold_probs

SEED = 20260813
N_PULSES = 10**6


@pytest.fixture(scope="module")
def jd():
    return joint_distribution(SqueezedInput(r=1.0, alpha=0.5), TruncationPolicy(49, 1e-8))


def four_sigma(p, n):
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_attack_model_validation():
    with pytest.raises(ValueError):
        AttackModel(kind="intercept_resend")
    with pytest.raises(ValueError):
        AttackModel(kind="balanced_beam_splitter", splitting_ratio=1.5)
    assert AttackModel().routed_fraction == 0.0
    assert AttackModel("balanced_beam_splitter", 0.3).routed_fraction == 0.3


def test_empty_session(jd):
    with pytest.raises(EmptySessionError):
        simulate_session(jd, 0)
    with pytest.raises(EmptySessionError):
        sample_cells(jd, -5, 0)


def test_session_longer_than_int64_rejected(jd):
    # betaincc turns NaN at scattered points from n ~ 7.8e15, so the cap is 10**15
    for n_pulses in (2**63, _MAX_PULSES + 1):
        with pytest.raises(ValueError, match="10\\*\\*15"):
            simulate_session(jd, n_pulses)


def test_undersampled_box_rejected():
    # the gate reads the mass off the array: a box holding 0.9 or 0.5 of it,
    # or a NaN, is refused before any draw
    for p in (np.array([[0.5, 0.0], [0.0, 0.4]]), np.array([[0.25, 0.0], [0.0, 0.25]]),
              np.array([[0.5, math.nan], [math.nan, 0.5]])):
        with pytest.raises(ValueError, match="captured_mass"):
            sample_cells(p, 100, 0)
        with pytest.raises(ValueError, match="captured_mass"):
            simulate_session(p, 10**6, AttackModel(), seed=1)


def test_overfull_box_rejected():
    # a mass above 1 + 1e-12, the excess numpy's multinomial allows, is refused
    # by the gate, not by numpy (simulate_session) or not at all (sample_cells)
    for p in (np.array([[0.5, 0.25], [0.25, 0.5]]), np.array([[0.5, 0.25], [0.25, 2e-12]])):
        with pytest.raises(ValueError, match="captured_mass"):
            sample_cells(p, 100, 0)
        with pytest.raises(ValueError, match="captured_mass"):
            simulate_session(p, 10**6, AttackModel(), seed=1)
    # an excess of 5e-13 is still drawn from, with the report it gave before the gate
    p = np.array([[0.75, 0.0], [0.0, 0.25 + 5e-13]])
    assert sample_cells(p, 100, 0)[0].shape == (100,)
    rep = simulate_session(p, 10**6, AttackModel(), seed=1)
    assert (rep.herald_count, rep.bob_detect_count, rep.sifted_key_bits,
            rep.verdict) == (249742, 249742, 124716, Verdict.CLEAN)


def test_deterministic(jd):
    a = simulate_session(jd, 5000, AttackModel(), seed=42)
    b = simulate_session(jd, 5000, AttackModel(), seed=42)
    assert a == b
    c = simulate_session(jd, 5000, AttackModel(), seed=43)
    assert c != a


def test_zero_ratio_attack_equals_no_attack(jd):
    clean = simulate_session(jd, 10**5, AttackModel(), seed=SEED)
    degenerate = simulate_session(
        jd, 10**5, AttackModel("balanced_beam_splitter", 0.0), seed=SEED)
    assert degenerate == clean


def test_clean_session_statistics(jd):
    tp = threshold_probs(jd)
    rep = simulate_session(jd, N_PULSES, AttackModel(), seed=SEED)
    assert rep.n_pulses == N_PULSES and rep.seed == SEED
    assert rep.herald_count <= N_PULSES
    assert rep.rng_algorithm == "pcg64"

    assert abs(rep.herald_count / N_PULSES - tp.q1) < four_sigma(tp.q1, N_PULSES)
    baseline = (tp.q1 - tp.q2) / tp.q1
    assert abs(rep.bob_miss_given_herald - baseline) < four_sigma(baseline, rep.herald_count)
    assert abs(rep.bob_miss_joint - tp.baseline_miss) < four_sigma(tp.baseline_miss, N_PULSES)
    assert rep.verdict is Verdict.CLEAN
    # bases agree half the time
    half = rep.bob_detect_count / 2.0
    assert abs(rep.sifted_key_bits - half) < 4.0 * math.sqrt(half / 2.0)


def test_attacked_session_statistics(jd):
    tp = threshold_probs(jd)
    rep = simulate_session(
        jd, N_PULSES, AttackModel("balanced_beam_splitter", 0.5), seed=SEED)
    # exact thinning model: a heralded pulse is missed iff all n2 photons stolen
    n2 = np.arange(jd.shape[1])
    miss_joint = float(np.sum(jd[1:, :] * 0.5 ** n2[None, :]))
    miss_cond = miss_joint / tp.q1
    assert abs(rep.bob_miss_joint - miss_joint) < four_sigma(miss_joint, N_PULSES)
    assert abs(rep.bob_miss_given_herald - miss_cond) < four_sigma(miss_cond, rep.herald_count)
    # the single-photon component of the increment is exactly q3 / 2
    increment_n2_1 = float(np.sum(jd[1:, 1])) * 0.5
    assert np.isclose(increment_n2_1, 0.5 * tp.q3, rtol=1e-12)
    assert miss_joint > tp.baseline_miss + 0.5 * tp.q3  # thinning adds n2 >= 2 losses
    assert rep.verdict is Verdict.ATTACK_SUSPECTED


def test_full_theft_misses_everything(jd):
    rep = simulate_session(
        jd, 10**4, AttackModel("balanced_beam_splitter", 1.0), seed=SEED)
    assert rep.bob_detect_count == 0
    assert rep.bob_miss_given_herald == 1.0


def test_miss_rate_monotone_in_ratio(jd):
    rates = [
        simulate_session(jd, 2 * 10**5,
                         AttackModel("balanced_beam_splitter", ratio),
                         seed=11).bob_miss_given_herald
        for ratio in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a <= b for a, b in zip(rates, rates[1:]))  # shared draws: exact
    assert rates[-1] == 1.0


@pytest.mark.parametrize("ratio", [0.0, 0.5])
def test_terapulse_session_matches_exact_rates(jd, ratio):
    n = 10**12
    tp = threshold_probs(jd)
    rep = simulate_session(jd, n, AttackModel("balanced_beam_splitter", ratio), seed=SEED)
    detect = tp.q1 - float(np.sum(jd[1:, :] * ratio ** np.arange(jd.shape[1])))
    for count, p in ((rep.herald_count, tp.q1), (rep.bob_detect_count, detect)):
        assert abs(count / n - p) < 5.0 * math.sqrt(p * (1.0 - p) / n)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_pulses=st.integers(1000, 10**9),
       ratios=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
def test_count_sampler_couples_ratios(jd, seed, n_pulses, ratios):
    def session(ratio):
        return simulate_session(
            jd, n_pulses, AttackModel("balanced_beam_splitter", ratio), seed=seed)

    rates = [session(ratio).bob_miss_given_herald for ratio in sorted(ratios)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    assert session(0.0) == simulate_session(jd, n_pulses, AttackModel(), seed=seed)
    assert session(1.0).bob_detect_count == 0


def test_binom_ppf_matches_scipy():
    from scipy.stats import binom   # kept out of the package: it slows `import pcbs.cli`

    # n = 12344, not 12345: at p = 1/2 an odd n puts the CDF exactly on 1/2,
    # a tie that rounding settles either way.
    u, n, p = (a.ravel() for a in np.meshgrid(
        [1e-12, 0.01, 0.3, 0.5, 0.77, 0.999, 1.0],
        [0, 1, 7, 100, 12344, 10**6, 10**9],
        [0.0, 1e-20, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0]))
    got = _binom_ppf(u, n, p)
    want = binom.ppf(u, n, p)
    # binom.ppf(1, n, 0) reports the top of the support, n; at p = 0 X is 0.
    want[(u == 1.0) & (p == 0.0)] = 0
    np.testing.assert_array_equal(got, want)


def bisected_ppf(u, n, p):
    """The plain bisection over [0, n] that _binom_ppf replaced: the reference."""
    n = np.asarray(n, dtype=np.int64)
    lo = np.where((p >= 1.0) | ((u >= 1.0) & (p > 0.0)), n, 0)
    hi = np.where(p > 0.0, n, 0)
    while np.any(open_ := lo < hi):
        a, b = lo[open_], hi[open_]
        mid = a + (b - a) // 2
        below = scipy.special.betaincc(mid + 1.0, (n[open_] - mid).astype(float),
                                       p[open_]) < u[open_]
        lo[open_] = np.where(below, mid + 1, a)
        hi[open_] = np.where(below, b, mid)
    return lo


PPF_CLASSES = st.lists(st.tuples(
    st.floats(0.0, 1.0, exclude_min=True),
    st.one_of(st.integers(0, 100), st.integers(0, _MAX_PULSES)),
    st.one_of(st.sampled_from([0.0, 1.0, 1e-20, 1.0 - 1e-9, 0.5]), st.floats(0.0, 1.0))),
    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(classes=PPF_CLASSES)
def test_binom_ppf_matches_bisection(classes):
    u, n, p = (np.array(column) for column in zip(*classes))
    n = n.astype(np.int64)
    got = _binom_ppf(u, n, p)
    np.testing.assert_array_equal(got, bisected_ppf(u, n, p))
    # the quantile's defining bracket F(s - 1) < u <= F(s), where the CDF is
    # a betaincc value; u = 1 reads the top of the support by convention
    for s, ui, ni, pi in zip(got, u, n, p):
        if ui < 1.0 and 0 < s:
            assert scipy.special.betaincc(float(s), float(ni - s + 1), pi) < ui
        if ui < 1.0 and s < ni:
            assert scipy.special.betaincc(s + 1.0, float(ni - s), pi) >= ui


def counting_betaincc(monkeypatch, nan_at=None):
    """Spy on scipy.special.betaincc: count its calls, and make the value at
    call number nan_at (from 0) NaN in its first element."""
    real, calls = scipy.special.betaincc, []

    def spy(*args):
        values = np.array(real(*args))
        if len(calls) == nan_at:
            values.flat[0] = np.nan
        calls.append(values.size)
        return values

    monkeypatch.setattr(scipy.special, "betaincc", spy)
    return calls


def test_attacked_session_finds_its_quantiles_in_few_rounds(jd, monkeypatch):
    # a count of rounds, not a time: bisection took 20-21 rounds at 1e7 pulses
    calls = counting_betaincc(monkeypatch)
    for seed in range(20):
        calls.clear()
        simulate_session(jd, 10**7, AttackModel("balanced_beam_splitter", 0.5), seed=seed)
        assert 1 <= len(calls) <= 4, seed


def test_nan_cdf_raises_instead_of_taking_a_side(jd, monkeypatch):
    attack = AttackModel("balanced_beam_splitter", 0.5)
    calls = counting_betaincc(monkeypatch)
    simulate_session(jd, 10**12, attack, seed=SEED)
    rounds = len(calls)
    assert rounds >= 2
    for nan_at in range(rounds):    # a NaN at any probe, the first or a later one
        counting_betaincc(monkeypatch, nan_at)
        with pytest.raises(UndefinedCdfError, match="NaN") as exc:
            simulate_session(jd, 10**12, attack, seed=SEED)
        assert exc.value.exit_code == 4


def test_cdf_is_nan_free_up_to_the_pulse_cap():
    # scipy's betaincc returns NaN at scattered points from n ~ 7.8e15 (p = 1/4);
    # the session cap must stay below them.  Each (n, p) is probed at s over
    # mean +- 6 sigma and at both ends of [0, n - 1].
    n, p = (a.ravel() for a in np.meshgrid(
        np.unique(np.floor(np.logspace(0.5, math.log10(_MAX_PULSES), 30))),
        2.0 ** -np.arange(1, 61)))
    spread = np.floor(n * p + np.outer(np.linspace(-6.0, 6.0, 41), np.sqrt(n * p * (1.0 - p))))
    s = np.clip(np.vstack((spread, np.zeros_like(n), n - 1)), 0, n - 1)
    cdf = scipy.special.betaincc(s + 1.0, n - s, p)
    assert not np.any(np.isnan(cdf)), np.column_stack((n, p))[np.isnan(cdf).any(axis=0)]


def test_small_session_inconclusive(jd):
    rep = simulate_session(jd, 120, AttackModel(), seed=3)
    assert rep.herald_count < 100
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_no_herald_source():
    vacuum = joint_distribution(SqueezedInput(r=0.0, alpha=0.0), TruncationPolicy(8, 1e-9))
    with pytest.raises(NoHeraldError):
        simulate_session(vacuum, 1000, AttackModel(), seed=0)


def test_detect_attack_rejudge(jd):
    tp = threshold_probs(jd)
    baseline = (tp.q1 - tp.q2) / tp.q1
    rep = simulate_session(jd, N_PULSES, AttackModel(), seed=SEED)
    assert detect_attack(rep, baseline) is Verdict.CLEAN
    miss = rep.bob_miss_given_herald
    assert detect_attack(rep, miss - 1e-6, z_threshold=1e-9) is Verdict.ATTACK_SUSPECTED
    assert detect_attack(rep, miss + 1e-6, z_threshold=1e-9) is Verdict.CLEAN
    with pytest.raises(ValueError):
        detect_attack(rep, 1.5)
    with pytest.raises(ValueError):
        detect_attack(rep, baseline, z_threshold=0.0)


@pytest.mark.parametrize("z_threshold", [0.0, -1.0, math.nan])
def test_session_rejects_a_threshold_that_clears_every_session(jd, z_threshold):
    # z > nan is never true, so a NaN threshold would report every attack as clean
    rep = simulate_session(jd, N_PULSES, AttackModel(), seed=SEED)
    with pytest.raises(ValueError, match="z_threshold"):
        simulate_session(jd, N_PULSES, AttackModel(), seed=SEED, z_threshold=z_threshold)
    with pytest.raises(ValueError, match="z_threshold"):
        detect_attack(rep, 0.5, z_threshold=z_threshold)


def test_cell_frequencies_match_distribution(jd):
    n1, n2 = sample_cells(jd, N_PULSES, SEED)
    counts = np.zeros(jd.shape)
    inside = n1 < jd.shape[0]
    np.add.at(counts, (n1[inside], n2[inside]), 1.0)
    freq = counts / N_PULSES
    check = jd > 1e-4
    bound = 4.0 * np.sqrt(jd[check] * (1.0 - jd[check]) / N_PULSES)
    assert np.all(np.abs(freq[check] - jd[check]) < bound)


def test_overflow_bucket_is_multiphoton():
    p = np.array([[0.3, 0.2], [0.25, 0.25 - 1e-6]])
    n1, n2 = sample_cells(p, 5 * 10**6, seed=0)
    over = n1 == 2
    assert np.count_nonzero(over) > 0
    assert np.all(n2[over] == 2)
    assert n1.max() == 2 and n2.max() == 2


def test_overflow_class_is_a_multiphoton_herald():
    # the 1e-6 outside the box is a herald with n2 = 2 photons toward Bob
    p = np.array([[0.3, 0.2], [0.25, 0.25 - 1e-6]])
    n = 10**15
    rep = simulate_session(p, n, AttackModel("balanced_beam_splitter", 0.5), seed=SEED)
    herald, detect = 0.5, (0.25 - 1e-6) * 0.5 + 1e-6 * 0.75
    for count, q in ((rep.herald_count, herald), (rep.bob_detect_count, detect)):
        assert abs(count / n - q) < 5.0 * math.sqrt(q * (1.0 - q) / n)


def test_report_json_round_trip(jd):
    rep = simulate_session(jd, 2000, AttackModel(), seed=1)
    data = json.loads(json.dumps(asdict(rep), allow_nan=False))    # as `pcbs bb84` prints it
    assert data["verdict"] in ("clean", "attack_suspected", "inconclusive")
    assert set(data) == {
        "n_pulses", "herald_count", "bob_detect_count", "bob_miss_given_herald",
        "bob_miss_joint", "sifted_key_bits", "verdict", "seed", "rng_algorithm",
    }
    assert data["n_pulses"] == 2000 and data["seed"] == 1
    assert data["herald_count"] >= data["bob_detect_count"] >= data["sifted_key_bits"]
