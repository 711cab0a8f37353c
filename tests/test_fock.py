import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcbs.fock
from pcbs.errors import TruncationError
from pcbs.fock import (
    _WINDOW_HI,
    _WINDOW_LO,
    _WINDOW_MID,
    N_MAX_CEILING,
    TAIL_TOLERANCE_FLOOR,
    SqueezedInput,
    TruncationPolicy,
    _binomial_weights,
    _coincidence_11,
    _log_factorials,
    _run_recurrence,
    _shell_amplitudes,
    _single_mode_column,
    box_probability,
    output_amplitudes,
    squeeze_matrix,
    suggest_n_max,
)
from pcbs.oracle import oracle_state
from pcbs.stats import joint_distribution


def test_coherent_vacuum():
    # at r = 0 the column is the coherent state D(alpha)|0>
    c = _single_mode_column(0.0, 0.0, 10)
    assert c[0] == 1.0
    assert np.all(c[1:] == 0.0)


def test_coherent_poisson_weights():
    beta = 0.7
    c = _single_mode_column(0.0, beta, 60)
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


def fresh_single_mode_column(r, alpha, n_top):
    """_single_mode_column without the kept column: the recurrence from n = 0 at every call."""
    cosh_r = math.cosh(r)
    drive, pull = alpha / cosh_r, math.tanh(r)
    log_psi0 = -alpha * alpha * math.exp(r) / (2.0 * cosh_r) - 0.5 * math.log(cosh_r)
    if not log_psi0 > -2.0**60:
        return np.zeros(n_top + 1)
    # split a power of two off psi_0 only where exp(log_psi0) would underflow
    exp2 = 0 if log_psi0 > -700.0 else math.floor(log_psi0 / math.log(2.0))
    prev, cur = 0.0, math.exp(log_psi0 - exp2 * math.log(2.0))
    mant, exps = [cur], [exp2]
    roots = np.sqrt(np.arange(n_top + 1)).tolist()
    pulls = [pull * root for root in roots]
    for n in range(n_top):
        prev, cur = cur, (drive * cur + pulls[n] * prev) / roots[n + 1]
        # prev passed this test as cur: only cur can lift the pair above the window
        size = abs(cur)
        if size > _WINDOW_HI or (size < _WINDOW_LO and abs(prev) < _WINDOW_LO):
            shift = math.frexp(max(abs(prev), size))[1] - _WINDOW_MID
            prev, cur, exp2 = math.ldexp(prev, -shift), math.ldexp(cur, -shift), exp2 + shift
        mant.append(cur)
        exps.append(exp2)
    return np.ldexp(np.array(mant), np.array(exps, dtype=np.int64))


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, 2.0), alpha=st.floats(-2.0, 2.0), n_top=st.integers(0, 160))
def test_column_matches_squeeze_matrix_product(r, alpha, n_top):
    # the product is sound here: the coherent column has no weight past 160,
    # and its cancellation error stays near 5e-15 (it reaches 2.6e-13 at
    # r = 1.5, alpha = 3 against a 60-digit reference, where the column has 3e-16)
    ref = (squeeze_matrix(r, 160) @ _single_mode_column(0.0, alpha, 160))[:n_top + 1]
    assert np.max(np.abs(_single_mode_column(r, alpha, n_top) - ref)) <= 1e-13


@pytest.mark.parametrize("r, alpha, n_top", [(1.0, 0.5, 60), (0.5, 40.0, 2500), (2.0, -3.0, 161)])
def test_column_is_a_prefix_of_longer_columns(r, alpha, n_top):
    # no entry depends on the column's length: what lets the kept column serve
    short = fresh_single_mode_column(r, alpha, n_top)
    assert np.array_equal(short, fresh_single_mode_column(r, alpha, 2 * n_top)[:n_top + 1])


def _every_step_column(r, alpha, n_top):
    # the recurrence with its pair rescaled to [1/2, 1) at every step
    cosh_r = math.cosh(r)
    drive, pull = alpha / cosh_r, math.tanh(r)
    log_psi0 = -alpha * alpha * math.exp(r) / (2.0 * cosh_r) - 0.5 * math.log(cosh_r)
    if not log_psi0 > -2.0**60:
        return np.zeros(n_top + 1)
    exp2 = 0 if log_psi0 > -700.0 else math.floor(log_psi0 / math.log(2.0))
    prev, cur = 0.0, math.exp(log_psi0 - exp2 * math.log(2.0))
    mant, exps = [cur], [exp2]
    roots = np.sqrt(np.arange(n_top + 1)).tolist()
    for n in range(n_top):
        prev, cur = cur, (drive * cur + pull * roots[n] * prev) / roots[n + 1]
        shift = math.frexp(max(abs(prev), abs(cur)))[1]
        prev, cur, exp2 = math.ldexp(prev, -shift), math.ldexp(cur, -shift), exp2 + shift
        mant.append(cur)
        exps.append(exp2)
    return np.ldexp(np.array(mant), np.array(exps, dtype=np.int64))


# Above this every entry has the every-step loop's bits.  Below it that loop
# may round a term that is subnormal at its [1/2, 1) scale into an entry, and
# so into the chain after it; every such entry squares to 0 on both sides.
_SAME_BITS_ABOVE = 2.0**-960


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.0, 3.0) | st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-150]),
       alpha=st.floats(-60.0, 60.0) | st.sampled_from([0.0, 1e-300, -1e-300]),
       n_top=st.integers(0, 2000))
@example(r=0.3, alpha=40.0, n_top=5000)
@example(r=2.0, alpha=0.0, n_top=8000)
@example(r=0.0, alpha=0.5, n_top=8000)
@example(r=1.4633301828150627, alpha=-1e-300, n_top=924)
@example(r=2.251852036138062e-307, alpha=-1.5325607904462047e-157, n_top=33)
def test_windowed_rescale_keeps_the_every_step_bits(r, alpha, n_top):
    # the column rescales its pair only when it leaves [1, 2^400]; psi_0
    # underflows above alpha of about 38 at r = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _single_mode_column(r, alpha, n_top)
        want = _every_step_column(r, alpha, n_top)
    large = np.abs(want) >= _SAME_BITS_ABOVE
    assert np.array_equal(got[large], want[large])
    assert np.array_equal(np.abs(got) >= _SAME_BITS_ABOVE, large)
    assert np.array_equal(got**2, want**2)


def test_windowed_rescale_keeps_a_bit_the_every_step_loop_rounds():
    # at r = 0, psi_1 = alpha exactly; at its [1/2, 1) scale the every-step
    # loop holds it as the subnormal 1.5e-308 and loses its last bit
    assert _single_mode_column(0.0, 3e-308, 2)[1] == 3e-308
    assert _every_step_column(0.0, 3e-308, 2)[1] == 3.0000000000000007e-308


def _assert_coincidence_is_the_column_entry(r, alpha):
    # P(1,1) = C(2, 1) psi_2^2 / 2^2, the herald row's n = 1 entry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _coincidence_11(r, alpha)
        # square the array, as the column's squares are taken: a numpy scalar's
        # ** goes through libm pow, which can miss the nearest double by an ulp
        want = float(np.ldexp(2 * (_single_mode_column(r, alpha, 2) ** 2)[2], -2))
    assert got == want, (r, alpha, got, want)


_R_PINS = [0.0, 5e-324, 1e-300, 20.0, 709.7]
_ALPHA_PINS = [0.0, -0.0, 5e-324, 1e-150, 0.5, 27.2, 40.0, -1e5, 1e9, 1e154, -1e155]


@settings(max_examples=400, deadline=None)
@given(r=st.floats(0.0, 709.78, exclude_max=True) | st.floats(0.0, 3.0) | st.sampled_from(_R_PINS),
       alpha=st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e10, 1e10)
       | st.sampled_from(_ALPHA_PINS))
@example(r=0.09314398511500868, alpha=0.09314398511500868)
def test_coincidence_has_the_bits_of_the_column(r, alpha):
    _assert_coincidence_is_the_column_entry(r, alpha)


def test_coincidence_has_the_bits_of_the_column_at_pinned_points():
    for r in _R_PINS:
        for alpha in _ALPHA_PINS:
            _assert_coincidence_is_the_column_entry(r, alpha)
    # the pins reach the column's exponent split (log psi_0 < -700) and its
    # all-zero case (log psi_0 < -2^60), which _coincidence_11 goes without
    logs = [-alpha * alpha * math.exp(r) / (2.0 * math.cosh(r)) - 0.5 * math.log(math.cosh(r))
            for r in _R_PINS for alpha in _ALPHA_PINS]
    assert any(-2.0**60 < log < -700.0 for log in logs)
    assert any(log < -2.0**60 for log in logs)
    # and a subnormal P(1,1) (at alpha 27.2), where a square rounds differently
    assert any(0.0 < _coincidence_11(r, alpha) < 2.0**-1022
               for r in _R_PINS for alpha in _ALPHA_PINS)


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
    assert amp[0, 0] == 1.0
    assert np.isclose(np.sum(amp**2), 1.0, atol=1e-15)


def test_output_symmetry_and_normalization():
    amp = output_amplitudes(SqueezedInput(r=1.0, alpha=0.5),
                            TruncationPolicy(n_max=49, tail_tolerance=1e-8))
    assert np.array_equal(amp, amp.T)
    assert 1.0 - 1e-8 <= np.sum(amp**2) <= 1.0 + 1e-12


def test_output_parity_selection_without_displacement():
    amp = output_amplitudes(SqueezedInput(r=1.0, alpha=0.0),
                            TruncationPolicy(n_max=44, tail_tolerance=1e-8))
    n1, n2 = np.indices(amp.shape)
    assert np.all(amp[(n1 + n2) % 2 == 1] == 0.0)


def test_output_r_zero_factorizes_to_poisson():
    alpha = 0.8
    amp = output_amplitudes(SqueezedInput(r=0.0, alpha=alpha),
                            TruncationPolicy(n_max=40, tail_tolerance=1e-8))
    p = amp**2
    lam = alpha**2 / 2
    n = np.arange(41)
    pois = np.exp(-lam) * lam**n / np.array([math.factorial(k) for k in n])
    assert np.max(np.abs(p - np.outer(pois, pois))) < 1e-10


def test_headline_joint_probabilities():
    amp = output_amplitudes(SqueezedInput(r=1.0, alpha=0.5),
                            TruncationPolicy(n_max=49, tail_tolerance=1e-8))
    p = amp**2
    assert np.isclose(p[0, 0], 0.41720424978086246, atol=1e-9)
    assert np.isclose(p[1, 1], 0.0783274187644218, atol=1e-9)
    assert np.isclose(p[1, 3], 0.021628590143591045, atol=1e-9)


def test_default_policy_rejects_working_point():
    # the true tail at n_max=40 is 8.6e-8, above the default 1e-8 budget
    with pytest.raises(TruncationError):
        output_amplitudes(SqueezedInput(r=1.0, alpha=0.5), TruncationPolicy(n_max=40))


@pytest.mark.parametrize("r, alpha, tol", [(1.0, 0.5, 1e-8), (1.5, 1.0, 1e-8), (0.5, 2.0, 1e-4)])
def test_automatic_policy_is_suggest_n_max_box(r, alpha, tol):
    state = SqueezedInput(r=r, alpha=alpha)
    auto = TruncationPolicy(tail_tolerance=tol)
    n_max = suggest_n_max(r, alpha, tol)
    assert auto.n_max is None and auto.for_state(state).n_max == n_max
    assert TruncationPolicy(n_max=30, tail_tolerance=tol).for_state(state).n_max == 30
    explicit = joint_distribution(state, TruncationPolicy(n_max, tol))
    automatic = joint_distribution(state, auto)
    assert np.array_equal(automatic, explicit)
    assert automatic.sum() == explicit.sum()
    assert np.array_equal(output_amplitudes(state, auto),
                          output_amplitudes(state, TruncationPolicy(n_max, tol)))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_strong_squeeze_meets_strict_tail_and_matches_oracle(alpha):
    # r = 1.5 at a 1e-8 tail needs n_max 107-161: every cell whose shell
    # n1 + n2 fits whole in the box must still be oracle-exact
    state = SqueezedInput(r=1.5, alpha=alpha)
    nm = suggest_n_max(1.5, alpha, 1e-8)
    amp = output_amplitudes(state, TruncationPolicy(n_max=nm, tail_tolerance=1e-8))
    assert np.sum(amp**2) >= 1.0 - 1e-8
    assert np.array_equal(amp, amp.T)
    total = np.add.outer(np.arange(nm + 1), np.arange(nm + 1))
    err = np.abs(amp - oracle_state(state, nm))[total <= nm]
    assert np.max(err) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(r=st.floats(0.0, 2.0), alpha=st.floats(-3.0, 3.0), n_max=st.integers(1, 200))
def test_output_amplitudes_equal_their_transpose(r, alpha, n_max):
    # pcbs dist formats the n1 <= n2 half of dist.csv and mirrors it
    entries = output_amplitudes(SqueezedInput(r=r, alpha=alpha),
                                TruncationPolicy(n_max=n_max, tail_tolerance=1.0 - 1e-12))
    assert np.array_equal(entries, entries.T)


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
    squeezed = output_amplitudes(SqueezedInput(r=r, alpha=0.0), policy)
    total = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    assert np.all(squeezed[total % 2 == 1] == 0.0)

    # once the box holds all the mass the two sums differ only by rounding
    # (e.g. r=0.25, alpha=0, n_max=23 gives 1 - 6e-16 after 1 - 3e-16)
    state = SqueezedInput(r=r, alpha=alpha)
    assert box_probability(state, n_max + 1) >= box_probability(state, n_max) - 1e-14

    # the herald row is the joint matrix's n1 = 1 row, zeros included.  Below
    # 2^-1022 a cell is subnormal, spaced 2^-1074 apart, where no relative
    # bound can hold: there both clauses allow two more spacings
    t = np.arange(1, n_max + 2)
    row = np.ldexp(t * _single_mode_column(r, alpha, n_max + 1)[1:] ** 2, -t)
    joint = entries[1, :] ** 2
    spacings = 2.0 * 2.0**-1074
    assert np.all(((row == 0.0) == (joint == 0.0)) | (np.maximum(row, joint) <= spacings))
    assert np.all(np.abs(row - joint)
                  <= 1e-12 * joint + np.where(joint < 2.0**-1022, spacings, 0.0))
    # and the terms it leaves out of P1 sum to at most (n_max + 2) / 2^(n_max + 2)
    t = np.arange(n_max + 2, n_max + 82)
    psi = _single_mode_column(r, alpha, n_max + 81)
    tail = float(np.sum(np.ldexp(t * psi[n_max + 2:] ** 2, -t)))
    assert tail <= (n_max + 2) / 2.0 ** (n_max + 2)


def fresh_shell_amplitudes(state, n_max):
    """_shell_amplitudes as first written: the column and weights built afresh for each box."""
    psi = fresh_single_mode_column(state.r, state.alpha, 2 * n_max)
    n = np.arange(n_max + 1)
    lg = _log_factorials(2 * n_max)
    total = np.add.outer(n, n)
    log_binom = lg[total] - np.add.outer(lg[n], lg[n]) - total * math.log(2.0)
    return psi[total] * np.exp(0.5 * log_binom)


def same_bits(a, b):
    # stricter than np.array_equal: the sign of each zero counts too
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


grown = st.lists(st.integers(1, 300), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(up=grown.map(sorted), down=grown.map(lambda boxes: sorted(boxes, reverse=True)),
       again=grown.map(sorted),
       states=st.lists(st.builds(SqueezedInput, r=st.floats(0.0, 2.5),
                                 alpha=st.floats(-12.0, 12.0)), min_size=2, max_size=3))
@example(up=[5, 300], down=[299, 1], again=[1, 300], states=[SqueezedInput(1.0, 0.5),
                                                              SqueezedInput(0.0, 0.0)])
def test_kept_weights_give_the_fresh_bits(up, down, again, states):
    # from an empty table, boxes that grow, shrink and grow again, the state
    # switching at every call: each result has the bits of weights built afresh
    kept = pcbs.fock._weights
    pcbs.fock._weights = np.empty((0, 0))
    try:
        for step, n_max in enumerate(up + down + again):
            state = states[step % len(states)]
            assert same_bits(_shell_amplitudes(state, n_max),
                             fresh_shell_amplitudes(state, n_max)), (state, n_max)
        assert pcbs.fock._weights.shape[0] == max(up + down + again) + 1
    finally:
        pcbs.fock._weights = kept


EMPTY_COLUMN = (None, np.empty(0), None)    # pcbs.fock._column before any build


def log_psi0(r, alpha):
    return -alpha * alpha * math.exp(r) / (2.0 * math.cosh(r)) - 0.5 * math.log(math.cosh(r))


column_states = (st.sampled_from([(1.0, 0.5), (0.0, -0.0), (-0.0, -0.0), (0.5, 40.0), (0.5, 1e9),
                                (0.5, 1e200)])
                 | st.tuples(st.floats(0.0, 2.5), st.floats(-12.0, 12.0)))
lengths = st.lists(st.integers(0, 400), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(up=lengths.map(sorted), down=lengths.map(lambda tops: sorted(tops, reverse=True)),
       again=lengths.map(sorted), states=st.lists(column_states, min_size=1, max_size=3))
# equal under ==, but the zeros of the two columns differ in sign
@example(up=[0, 40], down=[80, 3], again=[6, 200], states=[(0.0, -0.0), (-0.0, -0.0)])
@example(up=[1, 40], down=[80, 3], again=[6, 200], states=[(0.0, -0.0), (0.0, -0.0), (-0.0, -0.0)])
# one entry past the kept column must build, and the kept length itself is a prefix
@example(up=[40, 41], down=[41, 40], again=[41], states=[(1.0, 0.5)])
# psi_0 underflows, and the pair is rescaled on the way
@example(up=[200, 5000], down=[4000, 10], again=[5000], states=[(0.5, 40.0)])
# the zero column keeps nothing, so the state before it still reads its prefix
@example(up=[20, 40], down=[30], again=[72, 144], states=[(1.0, 0.5), (1.0, 0.5), (0.5, 1e200)])
# a longer column goes on from the kept pair: past psi_0's split and the rescales
# at n = 188, 350, ..., 2898, past the one at 7406, and from a one-entry column
@example(up=[100, 200], down=[3], again=[3000, 5000], states=[(0.5, 40.0)])
@example(up=[0, 7400], down=[7000], again=[7410, 8000], states=[(2.0, 0.0)])
@example(up=[0, 61], down=[1], again=[62, 400], states=[(0.0, 0.5)])
def test_kept_column_gives_the_fresh_bits(up, down, again, states):
    # from an empty entry, lengths that grow, shrink and grow again, the state
    # switching at every call when more than one is drawn: every column has the
    # bits of a fresh build and is read-only
    kept = pcbs.fock._column
    pcbs.fock._column = EMPTY_COLUMN
    try:
        for step, n_top in enumerate(up + down + again):
            r, alpha = states[step % len(states)]
            before = pcbs.fock._column
            got = _single_mode_column(r, alpha, n_top)
            assert same_bits(got, fresh_single_mode_column(r, alpha, n_top)), (r, alpha, n_top)
            assert not got.flags.writeable
            if not log_psi0(r, alpha) > -2.0**60:
                assert pcbs.fock._column is before
            else:
                key, column, _ = pcbs.fock._column
                assert key == (r.hex(), alpha.hex()) and same_bits(column[:n_top + 1], got)
                assert not column.flags.writeable
    finally:
        pcbs.fock._column = kept


def test_final_box_reads_the_kept_column(monkeypatch):
    # suggest_n_max's box extends one column to 2 box + 1 entries, and the
    # final box, 49, reads a prefix of it: the kept array is not rebuilt
    monkeypatch.setattr("pcbs.fock._column", EMPTY_COLUMN)
    boxes, seen = [], []

    def box_spy(state, n_max):
        boxes.append(n_max)
        return _shell_amplitudes(state, n_max)

    def spy(state, policy):
        before = pcbs.fock._column
        amp = output_amplitudes(state, policy)
        seen.append((policy.n_max, before, pcbs.fock._column))
        return amp

    monkeypatch.setattr("pcbs.fock._shell_amplitudes", box_spy)
    monkeypatch.setattr("pcbs.stats.output_amplitudes", spy)
    joint_distribution(SqueezedInput(1.0, 0.5), TruncationPolicy())
    [(n_max, before, after)] = seen
    [search, final] = boxes
    assert n_max == final == 49 and before[1].size == 2 * search + 1
    assert after[1] is before[1]


@pytest.mark.parametrize("r", [0.5, 1.0, 1.25, 1.5])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_search_builds_one_box_from_one_recurrence(monkeypatch, r, alpha):
    # the dist-grid points, bb84's (1.0, 0.5) among them: the tail read and the
    # box share one run of the recurrence from n = 0, and the first box serves
    monkeypatch.setattr("pcbs.fock._column", EMPTY_COLUMN)
    boxes, runs = [], []

    def box_spy(state, n_max):
        boxes.append(n_max)
        return _shell_amplitudes(state, n_max)

    def run_spy(drive, pull, pair, first, n_top):
        runs.append((first, n_top))
        return _run_recurrence(drive, pull, pair, first, n_top)

    monkeypatch.setattr("pcbs.fock._shell_amplitudes", box_spy)
    monkeypatch.setattr("pcbs.fock._run_recurrence", run_spy)
    n_max = suggest_n_max(r, alpha, 1e-8)
    [box] = boxes
    assert n_max <= box                 # the final box reads the search's column and weights
    # each run goes on where the last one stopped: no step runs twice
    assert [first for first, _ in runs] == [0] + [n_top for _, n_top in runs[:-1]]
    assert runs[-1][1] >= 2 * box and pcbs.fock._column[1].size == runs[-1][1] + 1


def test_threads_get_the_fresh_column(monkeypatch):
    # four threads build interleaved states and lengths from one kept entry
    monkeypatch.setattr("pcbs.fock._column", EMPTY_COLUMN)
    states = [(1.0, 0.5), (1.0, -0.5), (0.5, 40.0), (2.0, 0.0)]
    tops = [40, 80, 144, 98, 300, 10]
    want = {(state, n_top): fresh_single_mode_column(*state, n_top)
            for state in states for n_top in tops}
    wrong, done = [], []
    start = threading.Barrier(4, timeout=60)

    def work(offset):
        start.wait()
        for rep in range(25):
            for step, n_top in enumerate(tops):
                state = states[(offset + step + rep) % len(states)]
                if not same_bits(_single_mode_column(*state, n_top), want[state, n_top]):
                    wrong.append((state, n_top))
        done.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1, 2, 3] and wrong == []


def test_kept_weights_are_read_only_and_bounded(monkeypatch):
    monkeypatch.setattr("pcbs.fock._weights", np.empty((0, 0)))
    weights = _binomial_weights(30)
    table = pcbs.fock._weights
    assert weights.base is table and table.shape == (31, 31)
    for view in (weights, weights.base):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 2.0
    assert _binomial_weights(10).base is table      # a smaller box keeps the table
    # a box above 1024 per side builds its own weights and keeps none
    big = _shell_amplitudes(SqueezedInput(r=1.0, alpha=0.5), 1100)
    assert big.shape == (1101, 1101) and big.flags.writeable
    assert pcbs.fock._weights is table
    assert _binomial_weights(1024).shape == (1025, 1025) and pcbs.fock._weights is table
    assert _binomial_weights(1023).base.shape == (1024, 1024)
    assert pcbs.fock._weights.shape == (1024, 1024)


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
    p = joint_distribution(st, TruncationPolicy(n_max=70, tail_tolerance=1e-8))
    assert abs(p.sum() - box_probability(st, 70)) < 1e-10


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


def test_suggest_n_max_tries_the_last_box_within_the_ceiling(monkeypatch):
    # under a ceiling of 100, a state that first passes at N = 73 is served and
    # one that needs n_max 161 is refused after a box of 98, the largest allowed
    assert suggest_n_max(1.23, 0.5, 1e-8) == 75
    monkeypatch.setattr("pcbs.fock.N_MAX_CEILING", 100)
    boxes = []

    def spy(state, n_max):
        boxes.append(n_max)
        return _shell_amplitudes(state, n_max)

    monkeypatch.setattr("pcbs.fock._shell_amplitudes", spy)
    assert suggest_n_max(1.23, 0.5, 1e-8) == 75
    assert len(boxes) == 1 and 73 <= boxes[0] <= 98
    boxes.clear()
    with pytest.raises(ValueError, match="no truncation below 100 reaches tail 1e-08"):
        suggest_n_max(1.5, 1.0, 1e-8)          # needs n_max 161
    assert boxes == [98]
    # a first box that falls short grows 20, 40, 72, then 123, past the
    # ceiling: that step is cut to 98, so N = 73 is served, not refused
    boxes.clear()
    monkeypatch.setattr("pcbs.fock._first_box", lambda r, alpha, target, top: 20)
    assert suggest_n_max(1.23, 0.5, 1e-8) == 75
    assert boxes == [20, 40, 72, 98]


def dense_suggest_n_max(r, alpha, tail_tolerance=1e-8):
    """suggest_n_max with its box grown 20, 40, 72, ... from the start, whatever the state."""
    pcbs.fock._check_tail_tolerance(tail_tolerance)
    target = 0.5 * tail_tolerance
    state = SqueezedInput(r=r, alpha=alpha)

    top = pcbs.fock.N_MAX_CEILING - 2     # the largest box whose N + 2 stays within the ceiling
    hi = 20
    while True:
        cells = _shell_amplitudes(state, hi) ** 2
        tail = 1.0 - np.diagonal(cells.cumsum(axis=0).cumsum(axis=1))
        passing = np.flatnonzero(tail[2:] <= target)
        if passing.size:
            return (2 + int(passing[0])) + 2
        if hi >= top:
            raise ValueError(
                f"no truncation below {pcbs.fock.N_MAX_CEILING} reaches tail {tail_tolerance:g} "
                f"for r={r}, alpha={alpha}"
            )
        hi = min(int(hi * 1.6) + 8, top)


def search_outcome(search, r, alpha, tail_tolerance):
    try:
        return search(r, alpha, tail_tolerance)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.0, 2.0), alpha=st.floats(-3.0, 3.0), log_tol=st.floats(-10.0, -2.0))
@example(r=0.0, alpha=0.0, log_tol=-8.0)
@example(r=0.0, alpha=-0.0, log_tol=-8.0)
@example(r=0.5, alpha=40.0, log_tol=-8.0)     # n_max 2562: psi_0 needs its exponent split
def test_suggest_n_max_is_the_dense_search(r, alpha, log_tol):
    # the first box comes from the state's tail, but every answer is the one
    # a box grown from 20 gives: a box's tail at N does not depend on its size
    tol = 10.0**log_tol
    assert (search_outcome(suggest_n_max, r, alpha, tol)
            == search_outcome(dense_suggest_n_max, r, alpha, tol))


@pytest.mark.parametrize("r, alpha", [(1.23, 0.5), (1.5, 1.0), (0.5, 1e200)])
def test_suggest_n_max_is_the_dense_search_under_a_lower_ceiling(monkeypatch, r, alpha):
    # N = 73 is served, n_max 161 is refused, and the zero column has no tail
    # to read: it starts at the last box and is refused there
    monkeypatch.setattr("pcbs.fock.N_MAX_CEILING", 100)
    got = search_outcome(suggest_n_max, r, alpha, 1e-8)
    assert got == search_outcome(dense_suggest_n_max, r, alpha, 1e-8)
    assert got == 75 if r == 1.23 else got.startswith("no truncation below 100 reaches tail 1e-08")


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


def test_tail_tolerance_floor():
    # the box mass carries rounding up to 1.5e-12 at the ceiling: a gate
    # below the floor is refused before any box is built
    assert TruncationPolicy(tail_tolerance=TAIL_TOLERANCE_FLOOR).tail_tolerance == 1e-10
    for tol in (1e-8, 1.0 - 1e-12):
        assert TruncationPolicy(tail_tolerance=tol).tail_tolerance == tol
    for tol in (1e-11, 1e-20, math.nan):
        with pytest.raises(ValueError, match="tail_tolerance must be in \\[1e-10, 1\\)"):
            TruncationPolicy(tail_tolerance=tol)
        with pytest.raises(ValueError, match="tail_tolerance must be in"):
            suggest_n_max(1.0, 0.5, tol)


def test_n_max_ceiling():
    # above the ceiling every entry point refuses before building an array
    state = SqueezedInput(r=1.0, alpha=0.5)
    assert TruncationPolicy(n_max=N_MAX_CEILING).n_max == 4000
    with pytest.raises(ValueError, match="n_max must be in \\[1, 4000\\], got 4001"):
        TruncationPolicy(n_max=N_MAX_CEILING + 1)
    with pytest.raises(ValueError, match="got 4001"):
        box_probability(state, N_MAX_CEILING + 1)


@pytest.mark.parametrize("n_max", [49.5, 20.0, np.float64(20.0), True])
def test_n_max_must_be_an_integer(n_max, monkeypatch):
    # refused with ValueError before any box is built; 49.5 and 20.0 once
    # raised TypeError from numpy, and True was read as 1
    monkeypatch.setattr(pcbs.fock, "_shell_amplitudes",
                        lambda *args: pytest.fail("a box was built"))
    message = f"^n_max must be an integer, got {re.escape(repr(n_max))}$"
    with pytest.raises(ValueError, match=message):
        TruncationPolicy(n_max=n_max)
    with pytest.raises(ValueError, match=message):
        box_probability(SqueezedInput(r=1.0, alpha=0.5), n_max)
    assert TruncationPolicy(n_max=np.int64(20)).n_max == 20


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
