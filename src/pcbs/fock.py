"""Closed-form Fock-basis amplitudes for squeezed-coherent light on a 50-50 splitter.

A single-mode squeezed coherent state enters one port of a balanced beam
splitter; vacuum enters the other.  Its number-basis column

    psi = S(-r) D(alpha) |0>

is a pure one-mode Gaussian state, built in O(N) from its three-term
recurrence (Yuen, PRA 13, 2226 (1976)).  The recurrence carries a binary
exponent, so that a column whose psi_0 underflows (alpha^2 e^r / (2 cosh r)
above about 745) keeps its entries.  The pair is rescaled exactly, by a power
of two, and only on the steps where it leaves a window of 400 binary orders.
No entry depends on the column's length, so the process keeps the last
state's column with the recurrence's last pair: a shorter column for the
same state is a prefix of it, and a longer one goes on from that pair.
:func:`suggest_n_max` reads the state's photon-number tail off the column,
which sets its first box, and that box and the final box of
:func:`output_amplitudes` read the same column: one run of the recurrence
serves all three, and a repeated state runs none.
The splitter conserves total photon number and spreads each shell |T, 0>
binomially over the outputs (n1, T - n1), so every output amplitude is one
entry of psi times a binomial weight, taken in log space from a table of
log-factorials (``math.lgamma``, within 6e-16 relative of the exact value).
A weight depends on (n1, n2) alone, never on r or alpha, so the process
keeps one read-only table of them for the largest box built so far, and
every box up to that size reads its weights as the table's top-left
corner: the same bits as building them afresh.  Only a larger box builds
a new table, and a box above 1024 per side (8 MB) builds its own and
keeps none.  Both kept arrays are read-only, and neither changes a bit of
any result.
Everything here is real because all interaction phases are pinned to zero.
The amplitudes agree with the operator-exponential oracle to rounding up to
r = 2 at a 1e-8 tail.

:func:`squeeze_matrix` is kept as an independent reference for tests: applied
to the r = 0 column D(alpha)|0>, it gives the same column, but its
alternating sums cancel at large alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import TruncationError, _is_index

__all__ = [
    "SqueezedInput",
    "TruncationPolicy",
    "squeeze_matrix",
    "output_amplitudes",
    "box_probability",
    "suggest_n_max",
    "N_MAX_CEILING",
    "TAIL_TOLERANCE_FLOOR",
]

N_MAX_CEILING = 4000    # largest n_max anywhere: one (n_max + 1)^2 float64 array is 128 MB


# Where the true tail is below 1e-20, the box mass read 1 to within 1.5e-12 at
# every n_max up to the ceiling (r 0-2.5, alpha 0-82): no tighter gate than
# about 70 times that rounding can be decided, at any n_max.
TAIL_TOLERANCE_FLOOR = 1e-10


def _check_n_max(n_max: int) -> None:
    if not _is_index(n_max):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if not 1 <= n_max <= N_MAX_CEILING:
        raise ValueError(f"n_max must be in [1, {N_MAX_CEILING}], got {n_max}")


def _check_tail_tolerance(tail_tolerance: float) -> None:
    if not TAIL_TOLERANCE_FLOOR <= tail_tolerance < 1.0:
        raise ValueError(f"tail_tolerance must be in [{TAIL_TOLERANCE_FLOOR:g}, 1), "
                         f"got {tail_tolerance}: the box mass carries rounding near 1e-12")


@dataclass(frozen=True)
class SqueezedInput:
    """Squeezed coherent state parameters at the splitter's input port.

    ``r`` is the (real, non-negative) squeeze parameter of the light leaving
    the nonlinear crystal and ``alpha`` the real coherent displacement.  The
    squeeze, displacement and splitter phases are all zero, which keeps the
    amplitude algebra below real.  ``r`` must leave e^r and cosh r finite
    in double precision (r below about 709.78), since psi_0 is built from
    both.
    """

    r: float
    alpha: float

    def __post_init__(self):
        if isinstance(self.r, complex) or isinstance(self.alpha, complex):
            raise ValueError("r and alpha must be real numbers")
        if not (self.r >= 0.0):
            raise ValueError(f"squeeze parameter r must be >= 0, got {self.r}")
        if not math.isfinite(self.r) or not math.isfinite(self.alpha):
            raise ValueError("r and alpha must be finite")
        try:
            math.exp(self.r)        # overflows first; cosh r = (e^r + e^-r) / 2
        except OverflowError:
            raise ValueError(
                f"squeeze parameter r = {self.r} is too large: e^r overflows "
                "(need r < 709.78)") from None


@dataclass(frozen=True)
class TruncationPolicy:
    """Fock-space truncation: keep photon numbers 0..n_max per mode.

    After computing a joint amplitude matrix, the captured probability mass
    must lie within ``tail_tolerance`` of 1; otherwise the computation raises
    :class:`~pcbs.errors.TruncationError`.  ``n_max = None`` means the box
    :func:`suggest_n_max` picks for the state and ``tail_tolerance``, which
    :meth:`for_state` resolves.  n_max may not exceed ``N_MAX_CEILING``,
    which bounds the memory of every box built from it, and
    ``tail_tolerance`` may not fall below ``TAIL_TOLERANCE_FLOOR``, the
    smallest gate the box mass's rounding lets it decide.
    """

    n_max: int | None = None
    tail_tolerance: float = 1e-8

    def __post_init__(self):
        if self.n_max is not None:
            _check_n_max(self.n_max)
        _check_tail_tolerance(self.tail_tolerance)    # before suggest_n_max grows a box

    def for_state(self, state: SqueezedInput) -> TruncationPolicy:
        """This policy with n_max set: kept if given, else suggest_n_max's box."""
        if self.n_max is not None:
            return self
        return replace(self, n_max=suggest_n_max(state.r, state.alpha, self.tail_tolerance))


def _log_factorials(n_top: int) -> np.ndarray:
    """log k! for k = 0..n_top, from ``math.lgamma``; 0! and 1! are exactly 0."""
    return np.array([math.lgamma(k + 1.0) for k in range(n_top + 1)])


def squeeze_matrix(s: float, n_max: int) -> np.ndarray:
    """Matrix ``S[n, m]`` of the single-mode squeeze S(-s) in the number basis.

    The element is a finite double sum over ladder powers applied on either
    side of the diagonal factor cosh(s)^-(j + 1/2); the Kronecker delta in
    the double sum pins the intermediate photon number to j = n - 2l = m - 2k,
    so the sum is organised here as a single pass over j with parity
    n == m (mod 2).  Signs come only from the annihilator side, (-1)^((m-j)/2).

    Reference only: ``squeeze_matrix(r, N) @ _single_mode_column(0.0, alpha, N)``,
    the squeeze applied to the coherent column D(alpha)|0>, is the column
    ``_single_mode_column`` builds at r, at O(N^2) memory and about
    O(N^3) time.  Its alternating sums cancel at large alpha: built on it,
    the box mass at r = 0.5, alpha = 10 and n_max = 69 reads 9.44, not <= 1.
    """
    if s < 0:
        raise ValueError("squeeze magnitude s must be >= 0")
    dim = n_max + 1
    half_t = 0.5 * math.tanh(s)
    if half_t == 0.0:           # s = 0, or so small that tanh(s)/2 underflows
        return np.eye(dim)
    log_half_t = math.log(half_t)
    log_cosh = math.log(math.cosh(s))
    lg = _log_factorials(n_max)

    out = np.zeros((dim, dim))
    for j in range(dim):
        idx = np.arange(j, dim, 2)          # photon numbers reachable from j
        steps = (idx - j) // 2              # ladder applications
        logs = steps * log_half_t - lg[steps] + 0.5 * lg[idx]
        w = -lg[j] - (j + 0.5) * log_cosh
        raise_col = np.exp(logs + 0.5 * w)          # bra side (creation)
        lower_col = np.exp(logs + 0.5 * w) * np.where(steps % 2 == 0, 1.0, -1.0)
        out[np.ix_(idx, idx)] += np.outer(raise_col, lower_col)
    return out


# the recurrence pair is rescaled when its larger member leaves [1, 2^400], to [2^199, 2^200)
_WINDOW_LO, _WINDOW_HI, _WINDOW_MID = 1.0, 2.0**400, 200


# (key, read-only psi, (prev, cur, exp2)): the last state's column and the scaled
# pair (psi_{n-1}, psi_n) after its last entry, with the pair's binary exponent
_column = (None, np.empty(0), None)


def _column_key(r: float, alpha: float) -> tuple:
    """The kept column's key: the exact bits of (r, alpha), signed zeros apart."""
    return (float(r).hex(), float(alpha).hex())


def _run_recurrence(drive: float, pull: float, pair: tuple, first: int, n_top: int) -> tuple:
    """Entries first + 1..n_top of the column, from the scaled pair (psi_{first-1}, psi_first).

    Returns their mantissas and binary exponents, as lists, and the pair
    (prev, cur, exp2) after psi_{n_top}, from which a longer column goes on.
    """
    prev, cur, exp2 = pair
    mant, exps = [], []
    roots = np.sqrt(np.arange(first, n_top + 1)).tolist()
    pulls = [pull * root for root in roots]
    for n in range(n_top - first):
        prev, cur = cur, (drive * cur + pulls[n] * prev) / roots[n + 1]
        # prev passed this test as cur: only cur can lift the pair above the window
        size = abs(cur)
        if size > _WINDOW_HI or (size < _WINDOW_LO and abs(prev) < _WINDOW_LO):
            shift = math.frexp(max(abs(prev), size))[1] - _WINDOW_MID
            prev, cur, exp2 = math.ldexp(prev, -shift), math.ldexp(cur, -shift), exp2 + shift
        mant.append(cur)
        exps.append(exp2)
    return mant, exps, (prev, cur, exp2)


def _single_mode_column(r: float, alpha: float, n_top: int) -> np.ndarray:
    """Read-only Fock amplitudes psi_0..psi_{n_top} of S(-r) D(alpha) |0>, from the recurrence

        log psi_0 = -alpha^2 e^r / (2 cosh r) - log(cosh r) / 2,
        sqrt(n + 1) psi_{n+1} = (alpha / cosh r) psi_n + tanh(r) sqrt(n) psi_{n-1}.

    psi_0 underflows once alpha^2 e^r / (2 cosh r) passes about 745, so the
    pair (psi_{n-1}, psi_n) carries a binary exponent, applied once at the
    end.  A step whose larger member leaves [1, 2^400] rescales the pair by a
    power of two, which is exact, to [2^199, 2^200); the other steps need no
    rescale.  Every |psi_n| <= 1, so the carried exponent stays <= 0 and each
    scaled value is at least its true value: no product underflows that
    would not underflow unscaled.  Against a pair rescaled to [1/2, 1) at
    every step, every entry above 2^-960 has the same bits and every square
    is the same; below that, the every-step pair can round a term that it
    holds as a subnormal, where this one keeps the bit.  A column whose
    log psi_0 lies below -2^60 holds no entry above the smallest subnormal at
    any length that fits in memory, and is returned as zeros.

    No entry depends on the column's length, so the process keeps the last
    column built, keyed on the exact bits of (r, alpha), signed zeros apart,
    with the scaled pair after its last entry.  A request for that state
    that it covers reads a prefix of it; a longer one goes on from the kept
    pair, so no step runs twice; any other state builds from n = 0 and
    replaces it.  A zero column keeps nothing.  The entry is one tuple, read
    once per call, so threads never mix two states' arrays.  Every caller
    in the package asks for at most 2 N_MAX_CEILING + 1 entries, so it
    holds at most 64 KB.
    """
    global _column
    r, alpha = float(r), float(alpha)
    key = _column_key(r, alpha)
    kept_key, kept, kept_pair = _column
    if kept_key == key and kept.size > n_top:
        return kept[:n_top + 1]
    cosh_r = math.cosh(r)
    drive, pull = alpha / cosh_r, math.tanh(r)
    if kept_key == key:
        mant, exps, pair = _run_recurrence(drive, pull, kept_pair, kept.size - 1, n_top)
        more = np.ldexp(np.array(mant), np.array(exps, dtype=np.int64))
        column = np.concatenate((kept, more))
    else:
        log_psi0 = -alpha * alpha * math.exp(r) / (2.0 * cosh_r) - 0.5 * math.log(cosh_r)
        if not log_psi0 > -2.0**60:
            zeros = np.zeros(n_top + 1)
            zeros.flags.writeable = False
            return zeros
        # split a power of two off psi_0 only where exp(log_psi0) would underflow
        exp2 = 0 if log_psi0 > -700.0 else math.floor(log_psi0 / math.log(2.0))
        psi0 = math.exp(log_psi0 - exp2 * math.log(2.0))
        mant, exps, pair = _run_recurrence(drive, pull, (0.0, psi0, exp2), 0, n_top)
        column = np.ldexp(np.array([psi0] + mant), np.array([exp2] + exps, dtype=np.int64))
    column.flags.writeable = False
    _column = (key, column, pair)
    return column


_WEIGHTS_KEPT = 1024            # rows of the largest table kept: 1024^2 float64 is 8 MB
_weights = np.empty((0, 0))     # read-only weights of the largest box built so far


def _binomial_weights(n_max: int) -> np.ndarray:
    """Read-only weights ``w[n1, n2] = sqrt(C(T, n1) / 2^T)``, T = n1 + n2, n1, n2 <= n_max.

    The top-left corner of the kept table, when it is large enough; else a
    new table, kept if it has at most _WEIGHTS_KEPT rows.  The log-binomial
    adds lg[n1] + lg[n2] before subtracting, which makes the table exactly
    symmetric under n1 <-> n2.
    """
    global _weights
    dim = n_max + 1
    table = _weights
    if dim > table.shape[0]:
        n = np.arange(dim)
        lg = _log_factorials(2 * n_max)
        total = np.add.outer(n, n)
        log_binom = lg[total] - np.add.outer(lg[n], lg[n]) - total * math.log(2.0)
        table = np.exp(0.5 * log_binom)
        table.flags.writeable = False
        if dim <= _WEIGHTS_KEPT:
            _weights = table
    return table[:dim, :dim]


def _shell_amplitudes(state: SqueezedInput, n_max: int) -> np.ndarray:
    """Output amplitudes ``amp[n1, n2]`` for n1, n2 <= n_max, one shell at a time.

    The splitter conserves total photon number T = n1 + n2 and spreads the
    input shell psi_T binomially over the outputs, so

        amp[n1, n2] = psi_T * sqrt(C(T, n1) / 2^T),   psi = S(-r) D(alpha) |0>,

    the column psi read along the anti-diagonals (``hankel[n1, n2] =
    psi[n1 + n2]``, a strided view of psi, no copy) times
    :func:`_binomial_weights`.
    """
    psi = _single_mode_column(state.r, state.alpha, 2 * n_max)
    step = psi.itemsize
    hankel = as_strided(psi, shape=(n_max + 1, n_max + 1), strides=(step, step))
    return hankel * _binomial_weights(n_max)


def output_amplitudes(state: SqueezedInput, policy: TruncationPolicy) -> np.ndarray:
    """Amplitudes ``amp[n1, n2]``, n1, n2 <= n_max, of the two splitter outputs.

    The box is ``policy.for_state(state)``'s; ``n1`` counts photons in the
    port carrying the transmitted input.  Every cell, the edge cells
    included, is an exact shell amplitude psi_T times a binomial weight, and
    ``amp`` equals its transpose exactly.  Raises TruncationError if the
    captured mass, the sum of ``amp ** 2``, lies more than
    ``policy.tail_tolerance`` from 1.
    """
    policy = policy.for_state(state)
    amp = _shell_amplitudes(state, policy.n_max)
    captured = float(np.sum(amp**2))
    if not abs(captured - 1.0) <= policy.tail_tolerance:
        raise TruncationError(captured, policy.n_max, policy.tail_tolerance)
    return amp


_ROOT_2 = math.sqrt(2.0)


def _coincidence_11(r: float, alpha: float) -> float:
    """Coincidence probability P(1,1) = psi_2^2 / 2 of S(-r) D(alpha) |0>.

    Both photons come from the shell T = 2, split into (1, 1) with weight
    C(2, 1) / 2^2.  psi_2 is two steps of :func:`_single_mode_column`'s
    recurrence in Python floats, without its exponent split or rescale,
    which cannot change a bit of P(1,1).  P(1,1) is 0 unless |psi_2| >
    2^-537.  Where psi_0 needs the split (L = log psi_0 < -700),
    |psi_2| <= e^L (2 |L| + 1) is far below that, so both give 0.
    Elsewhere each term rounds as its scaled copy does, except one that is
    subnormal unscaled, and such a term lies far below half an ulp of any
    psi_2 that counts.  So the value has the bits of ``ldexp(2 psi_2^2, -2)``
    from the column, at any length.
    """
    cosh_r = math.cosh(r)
    drive = alpha / cosh_r
    psi_0 = math.exp(-alpha * alpha * math.exp(r) / (2.0 * cosh_r) - 0.5 * math.log(cosh_r))
    psi_2 = (drive * (drive * psi_0) + math.tanh(r) * psi_0) / _ROOT_2
    return 0.5 * (psi_2 * psi_2)


def box_probability(state: SqueezedInput, n_max: int) -> float:
    """Probability that both output ports hold at most n_max photons.

    Shells with T > 2 n_max cannot reach the box, so the box mass is the
    squared sum of the same amplitudes :func:`output_amplitudes` returns.
    """
    _check_n_max(n_max)
    return float(np.sum(_shell_amplitudes(state, n_max) ** 2))


def _first_box(r: float, alpha: float, target: float, top: int) -> int:
    """The box suggest_n_max tries first, from the photon-number tail of psi.

    Box N holds every shell T <= N whole and no part of a shell T > 2 N, so
    its tail lies between P(T > 2 N) and P(T > N).  If M is the first T with
    P(T > M) = 1 - sum_{T' <= M} psi_T'^2 at most the target, the first
    passing N lies in [M / 2, M], and max(20, M // 2 + M // 20 + 8), capped
    at top, held it at every state tried.  A column kept for the state is
    read whole, so a repeated state takes one read; any other is read at
    lengths from 40 growing by half, and the box's own column, about 1.1 M
    long, goes on from the last read.  A state with no such M within
    2 top + 1 entries starts at top.
    """
    kept_key, kept, _ = _column
    n_top = max(40, kept.size - 1) if kept_key == _column_key(r, alpha) else 40
    while True:
        psi = _single_mode_column(r, alpha, n_top)
        shells = np.flatnonzero(1.0 - np.cumsum(psi**2) <= target)
        if shells.size:
            m = int(shells[0])
            return min(max(20, m // 2 + m // 20 + 8), top)
        if n_top >= 2 * top:
            return top
        n_top = min(n_top * 3 // 2, 2 * top)


def suggest_n_max(r: float, alpha: float, tail_tolerance: float = 1e-8) -> int:
    """Smallest truncation whose exact box tail is below half the tolerance, plus 2.

    Built on the exact box mass rather than a decay model.  Each box squares
    its shell amplitudes once and reads the box mass at every smaller N from
    cumulative sums, and no entry depends on the box size, so the
    suggestion is the smallest N >= 2 that passes, with a +2 safety margin.
    The first box comes from the state's photon-number tail
    (:func:`_first_box`), which sets where the first passing N can lie, and
    it holds that N at every state tried.  Only a box hi with no passing N
    grows, to int(1.6 hi) + 8, its last step cut to N_MAX_CEILING - 2, so
    every N within the ceiling is tried, and each answer and refusal is that
    of a box grown 20, 40, 72, ... from the start.
    """
    _check_tail_tolerance(tail_tolerance)
    target = 0.5 * tail_tolerance
    state = SqueezedInput(r=r, alpha=alpha)

    top = N_MAX_CEILING - 2     # the largest box whose N + 2 stays within the ceiling
    hi = _first_box(state.r, state.alpha, target, top)
    while True:
        cells = _shell_amplitudes(state, hi) ** 2
        tail = 1.0 - np.diagonal(cells.cumsum(axis=0).cumsum(axis=1))
        passing = np.flatnonzero(tail[2:] <= target)
        if passing.size:
            return (2 + int(passing[0])) + 2
        if hi >= top:
            raise ValueError(
                f"no truncation below {N_MAX_CEILING} reaches tail {tail_tolerance:g} "
                f"for r={r}, alpha={alpha}"
            )
        hi = min(int(hi * 1.6) + 8, top)
