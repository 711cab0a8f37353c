import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcbs.errors import TruncationError
from pcbs.fock import (
    N_MAX_CEILING,
    SqueezedInput,
    TruncationPolicy,
    _log_factorials,
    _shell_amplitudes,
    _single_mode_column,
    box_probability,
    coherent_amplitudes,
    herald_row,
    output_amplitudes,
    squeeze_matrix,
    suggest_n_max,
)
from pcbs.oracle import oracle_state


def test_coherent_vacuum():
    c = coherent_amplitudes(0.0, 10)
    assert c[0] == 1.0
    assert np.all(c[1:] == 0.0)


def test_coherent_poisson_weights():
    beta = 0.7
    c = coherent_amplitudes(beta, 60)
    # |D_m|^2 is Poisson with mean beta^2
    assert np.isclose(np.sum(c**2), 1.0, atol=1e-12)
    assert np.isclose(c[0], math.exp(-beta**2 / 2), atol=1e-15)
    assert np.isclose(c[3]**2, math.exp(-beta**2) * beta**6 / 6, atol=1e-15)


def test_squeeze_matrix_identity_at_zero():
    s = squeeze_matrix(0.0, 12)
    assert np.array_equal(s, np.eye(13))
    # tanh(s)/2 underflows to 0 for the smallest subnormal s
    assert np.array_equal(squeeze_matrix(5e-324, 12), np.eye(13))


def test_squeeze_matrix_vacuum_entry():
    s = squeeze_matrix(0.5, 8)
    assert np.isclose(s[0, 0], 1.0 / math.sqrt(math.cosh(0.5)), atol=1e-12)


def test_squeeze_matrix_parity_zeros():
    s = squeeze_matrix(0.8, 15)
    n, m = np.indices(s.shape)
    assert np.all(s[(n - m) % 2 == 1] == 0.0)


def test_squeezed_vacuum_column_closed_form():
    # <2l|S(-s)|0> = tanh^l(s) sqrt((2l)!) / (2^l l! sqrt(cosh s))
    s = 0.65
    col = squeeze_matrix(s, 20)[:, 0]
    for l in range(10):
        expected = (math.tanh(s) ** l * math.sqrt(math.factorial(2 * l))
                    / (2**l * math.factorial(l) * math.sqrt(math.cosh(s))))
        assert abs(abs(col[2 * l]) - expected) < 1e-10
    assert np.isclose(np.sum(col**2), 1.0, atol=1e-10)


def _mp_column(r, alpha, n_top):
    # the same recurrence at 60 digits, from the exact float inputs
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        r, alpha = mpmath.mpf(r), mpmath.mpf(alpha)
        cosh_r = mpmath.cosh(r)
        prev, cur = mpmath.mpf(0), (mpmath.exp(-alpha**2 * mpmath.exp(r) / (2 * cosh_r))
                                    / mpmath.sqrt(cosh_r))
        out = [cur]
        for n in range(n_top):
            prev, cur = cur, ((alpha / cosh_r) * cur + mpmath.tanh(r) * mpmath.sqrt(n) * prev
                              ) / mpmath.sqrt(n + 1)
            out.append(cur)
        return np.array([float(x) for x in out])


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, 2.0), alpha=st.floats(-2.0, 2.0), n_top=st.integers(0, 160))
def test_column_matches_squeeze_matrix_product(r, alpha, n_top):
    # the product is sound here: the coherent column has no weight past 160,
    # and its cancellation error stays near 5e-15 (it reaches 2.6e-13 at
    # r = 1.5, alpha = 3 against a 60-digit reference, where the column has 3e-16)
    ref = (squeeze_matrix(r, 160) @ coherent_amplitudes(alpha, 160))[:n_top + 1]
    assert np.max(np.abs(_single_mode_column(r, alpha, n_top) - ref)) <= 1e-13


@pytest.mark.parametrize("r, alpha, n_top", [(1.0, 0.5, 60), (0.5, 40.0, 2500), (2.0, -3.0, 161)])
def test_column_is_a_prefix_of_longer_columns(r, alpha, n_top):
    short = _single_mode_column(r, alpha, n_top)
    assert np.array_equal(short, _single_mode_column(r, alpha, 2 * n_top)[:n_top + 1])


def test_column_survives_underflowing_vacuum_amplitude():
    # log psi_0 is about -1170 here: a plain recurrence returns all zeros
    col = _single_mode_column(0.5, 40.0, 5000)
    assert col[0] == 0.0 and np.any(col != 0.0)
    assert np.sum(col**2) >= 1.0 - 1e-8


@pytest.mark.parametrize("alpha", [1e9, 1e200])
def test_column_beyond_any_box_is_zero(alpha):
    # log psi_0 on either side of -2^60: every entry is below the smallest subnormal
    assert np.array_equal(_single_mode_column(0.5, alpha, 50), np.zeros(51))
    with pytest.raises(TruncationError):
        output_amplitudes(SqueezedInput(r=0.5, alpha=alpha), TruncationPolicy(n_max=25))


@pytest.mark.parametrize("r, alpha, n_top", [
    (0.5, 40.0, 5000), (0.0, 30.0, 2000), (1.0, -5.0, 1200), (2.5, 0.5, 1500),
])
def test_column_matches_high_precision_recurrence(r, alpha, n_top):
    expected = _mp_column(r, alpha, n_top)
    assert np.max(np.abs(_single_mode_column(r, alpha, n_top) - expected)) <= 1e-13


def test_log_factorials_match_50_digit_loggamma():
    mpmath = pytest.importorskip("mpmath")
    table = _log_factorials(8999)
    assert table[0] == table[1] == 0.0
    with mpmath.workdps(50):
        exact = [mpmath.loggamma(k + 1) for k in range(2, 9000)]
        worst = max(abs((mpmath.mpf(got) - want) / want) for got, want in zip(table[2:], exact))
    assert worst <= 6e-16


def test_output_vacuum_point():
    amp = output_amplitudes(SqueezedInput(r=0.0, alpha=0.0),
                            TruncationPolicy(n_max=8, tail_tolerance=1e-8))
    assert amp.entries[0, 0] == 1.0
    assert np.isclose(amp.captured_mass, 1.0, atol=1e-15)


def test_output_symmetry_and_normalization():
    amp = output_amplitudes(SqueezedInput(r=1.0, alpha=0.5),
                            TruncationPolicy(n_max=49, tail_tolerance=1e-8))
    assert np.array_equal(amp.entries, amp.entries.T)
    assert 1.0 - 1e-8 <= amp.captured_mass <= 1.0 + 1e-12


def test_output_parity_selection_without_displacement():
    amp = output_amplitudes(SqueezedInput(r=1.0, alpha=0.0),
                            TruncationPolicy(n_max=44, tail_tolerance=1e-8))
    n1, n2 = np.indices(amp.entries.shape)
    assert np.all(amp.entries[(n1 + n2) % 2 == 1] == 0.0)


def test_output_r_zero_factorizes_to_poisson():
    alpha = 0.8
    amp = output_amplitudes(SqueezedInput(r=0.0, alpha=alpha),
                            TruncationPolicy(n_max=40, tail_tolerance=1e-8))
    p = amp.entries**2
    lam = alpha**2 / 2
    n = np.arange(41)
    pois = np.exp(-lam) * lam**n / np.array([math.factorial(k) for k in n])
    assert np.max(np.abs(p - np.outer(pois, pois))) < 1e-10


def test_headline_joint_probabilities():
    amp = output_amplitudes(SqueezedInput(r=1.0, alpha=0.5),
                            TruncationPolicy(n_max=49, tail_tolerance=1e-8))
    p = amp.entries**2
    assert np.isclose(p[0, 0], 0.41720424978086246, atol=1e-9)
    assert np.isclose(p[1, 1], 0.0783274187644218, atol=1e-9)
    assert np.isclose(p[1, 3], 0.021628590143591045, atol=1e-9)


def test_default_policy_rejects_working_point():
    # the true tail at n_max=40 is 8.6e-8, above the default 1e-8 budget
    with pytest.raises(TruncationError):
        output_amplitudes(SqueezedInput(r=1.0, alpha=0.5), TruncationPolicy())


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_strong_squeeze_meets_strict_tail_and_matches_oracle(alpha):
    # r = 1.5 at a 1e-8 tail needs n_max 107-161: every cell whose shell
    # n1 + n2 fits whole in the box must still be oracle-exact
    state = SqueezedInput(r=1.5, alpha=alpha)
    nm = suggest_n_max(1.5, alpha, 1e-8)
    amp = output_amplitudes(state, TruncationPolicy(n_max=nm, tail_tolerance=1e-8))
    assert amp.captured_mass >= 1.0 - 1e-8
    assert np.array_equal(amp.entries, amp.entries.T)
    total = np.add.outer(np.arange(nm + 1), np.arange(nm + 1))
    err = np.abs(amp.entries - oracle_state(state, nm).entries)[total <= nm]
    assert np.max(err) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(r=st.floats(0.0, 2.0), alpha=st.floats(-12.0, 12.0), n_max=st.integers(1, 80))
@example(r=0.5, alpha=10.0, n_max=69)
@example(r=0.8323598777886922, alpha=9.990476052127061, n_max=60)
@example(r=0.5, alpha=2.2250738585e-313, n_max=40)
@example(r=1.4572094020061443, alpha=9.470007725862072e-159, n_max=1)
@example(r=8.990815584330558e-80, alpha=0.0, n_max=3)
def test_amplitude_invariants(r, alpha, n_max):
    # the invariants hold for any truncation; at large alpha the box may hold
    # less than the 1e-12 the loosest gate needs, so read the entries ungated
    entries = _shell_amplitudes(SqueezedInput(r=r, alpha=alpha), n_max)
    assert np.array_equal(entries, entries.T)
    assert np.sum(entries**2) <= 1.0 + 1e-12

    # a gate every squeezed-vacuum box passes
    policy = TruncationPolicy(n_max=n_max, tail_tolerance=1.0 - 1e-12)
    squeezed = output_amplitudes(SqueezedInput(r=r, alpha=0.0), policy).entries
    total = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    assert np.all(squeezed[total % 2 == 1] == 0.0)

    # once the box holds all the mass the two sums differ only by rounding
    # (e.g. r=0.25, alpha=0, n_max=23 gives 1 - 6e-16 after 1 - 3e-16)
    state = SqueezedInput(r=r, alpha=alpha)
    assert box_probability(state, n_max + 1) >= box_probability(state, n_max) - 1e-14

    # the herald row is the joint matrix's n1 = 1 row, zeros included.  Below
    # 2^-1022 a cell is subnormal, spaced 2^-1074 apart, where no relative
    # bound can hold: there both clauses allow two more spacings
    row = herald_row(state, n_max)
    joint = entries[1, :] ** 2
    spacings = 2.0 * 2.0**-1074
    assert np.all(((row == 0.0) == (joint == 0.0)) | (np.maximum(row, joint) <= spacings))
    assert np.all(np.abs(row - joint)
                  <= 1e-12 * joint + np.where(joint < 2.0**-1022, spacings, 0.0))
    # and the terms it leaves out of P1 sum to at most (n_max + 2) / 2^(n_max + 2)
    tail = float(np.sum(herald_row(state, n_max + 80)[n_max + 1:]))
    assert tail <= (n_max + 2) / 2.0 ** (n_max + 2)


def test_box_probability_at_most_one_at_large_displacement():
    # the squeeze-matrix product cancelled here and gave 9.44
    assert box_probability(SqueezedInput(0.5, 10.0), 69) <= 1.0 + 1e-12


def test_box_probability_vacuum_and_monotone():
    st = SqueezedInput(r=1.0, alpha=0.5)
    assert box_probability(SqueezedInput(r=0.0, alpha=0.0), 5) == 1.0
    masses = [box_probability(st, n) for n in (20, 30, 40, 60)]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert np.isclose(1.0 - masses[2], 8.588e-8, rtol=1e-3)  # tail at n_max=40


def test_captured_mass_matches_box_probability():
    st = SqueezedInput(r=1.2, alpha=0.5)
    amp = output_amplitudes(st, TruncationPolicy(n_max=70, tail_tolerance=1e-8))
    assert abs(amp.captured_mass - box_probability(st, 70)) < 1e-10


@pytest.mark.parametrize("r, alpha, expected", [
    (1.0, 0.5, 49), (1.5, 1.0, 161), (2.0, 0.5, 323), (0.0, 0.0, 4),
])
def test_suggest_n_max_working_point(r, alpha, expected):
    nm = suggest_n_max(r, alpha, 1e-8)
    assert nm == expected
    st = SqueezedInput(r=r, alpha=alpha)
    assert 1.0 - box_probability(st, nm - 2) <= 0.5e-8
    # minimal up to the +2 safety pad, above the floor N = 2
    if nm > 4:
        assert 1.0 - box_probability(st, nm - 3) > 0.5e-8


def test_suggest_n_max_vacuum_is_small():
    assert suggest_n_max(0.0, 0.0, 1e-8) <= 5


def test_suggest_n_max_validation():
    with pytest.raises(ValueError):
        suggest_n_max(-0.1, 0.5, 1e-8)
    with pytest.raises(ValueError):
        suggest_n_max(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        suggest_n_max(1.0, 0.5, 1.5)


def test_input_validation():
    with pytest.raises(ValueError):
        SqueezedInput(r=-1.0, alpha=0.5)
    with pytest.raises(ValueError):
        SqueezedInput(r=math.inf, alpha=0.5)
    with pytest.raises(ValueError):
        TruncationPolicy(n_max=0)
    with pytest.raises(ValueError):
        TruncationPolicy(tail_tolerance=0.0)


def test_n_max_ceiling():
    # above the ceiling every entry point refuses before building an array
    state = SqueezedInput(r=1.0, alpha=0.5)
    assert TruncationPolicy(n_max=N_MAX_CEILING).n_max == 4000
    with pytest.raises(ValueError, match="n_max must be in \\[1, 4000\\], got 4001"):
        TruncationPolicy(n_max=N_MAX_CEILING + 1)
    with pytest.raises(ValueError, match="got 4001"):
        herald_row(state, N_MAX_CEILING + 1)
    with pytest.raises(ValueError, match="got 4001"):
        box_probability(state, N_MAX_CEILING + 1)


@pytest.mark.parametrize("r", [709.9, 710.0, 800.0, 1e300])
def test_input_refuses_overflowing_squeeze(r):
    # e^r overflows above r = 709.78 and cosh r above 710.48; both build psi_0
    with pytest.raises(ValueError, match="overflows"):
        SqueezedInput(r=r, alpha=0.5)


def test_input_accepts_squeeze_just_below_overflow():
    SqueezedInput(r=709.0, alpha=0.5)


@pytest.mark.parametrize("scale, wording", [(1.0 + 1e-6, "not normalised"),
                                            (1.0 - 1e-6, "increase n_max")])
def test_mass_gate_is_two_sided(monkeypatch, scale, wording):
    monkeypatch.setattr("pcbs.fock._shell_amplitudes",
                        lambda state, n_max: _shell_amplitudes(state, n_max) * math.sqrt(scale))
    with pytest.raises(TruncationError, match=wording) as info:
        output_amplitudes(SqueezedInput(r=1.0, alpha=0.5), TruncationPolicy(49, 1e-8))
    assert abs(info.value.captured_mass - scale) < 1e-7
