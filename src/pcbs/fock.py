"""Closed-form Fock-basis amplitudes for squeezed-coherent light on a 50-50 splitter.

A single-mode squeezed coherent state enters one port of a balanced beam
splitter; vacuum enters the other.  Its number-basis column

    psi = S(-r) D(alpha) |0>

is a pure one-mode Gaussian state, built in O(N) from its three-term
recurrence (Yuen, PRA 13, 2226 (1976)).  The recurrence carries a binary
exponent, rescaled exactly at each step, so that a column whose psi_0
underflows (alpha^2 e^r / (2 cosh r) above about 745) keeps its entries.
The splitter conserves total photon number and spreads each shell |T, 0>
binomially over the outputs (n1, T - n1), so every output amplitude is one
entry of psi times a binomial weight, taken in log space from a table of
log-factorials (``math.lgamma``, within 6e-16 relative of the exact value).
Everything here is real because all interaction phases are pinned to zero.
The amplitudes agree with the operator-exponential oracle to rounding up to
r = 2 at a 1e-8 tail.

:func:`squeeze_matrix` and :func:`coherent_amplitudes` are kept as an
independent reference for tests: their product is the same column, but its
alternating sums cancel at large alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError

__all__ = [
    "SqueezedInput",
    "TruncationPolicy",
    "AmplitudeMatrix",
    "coherent_amplitudes",
    "squeeze_matrix",
    "output_amplitudes",
    "herald_row",
    "box_probability",
    "suggest_n_max",
    "N_MAX_CEILING",
]

N_MAX_CEILING = 4000    # largest n_max anywhere: one (n_max + 1)^2 float64 array is 128 MB


def _check_n_max(n_max: int) -> None:
    if not 1 <= n_max <= N_MAX_CEILING:
        raise ValueError(f"n_max must be in [1, {N_MAX_CEILING}], got {n_max}")


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
    :class:`~pcbs.errors.TruncationError`.  The default covers squeeze
    parameters up to about 0.9 with displacements up to 1; the working point
    r = 1, alpha = 1/2 has a true tail of 8.6e-8 at n_max = 40 and needs
    n_max of about 50 (see :func:`suggest_n_max`).  n_max may not exceed
    ``N_MAX_CEILING``, which bounds the memory of every box built from it.
    """

    n_max: int = 40
    tail_tolerance: float = 1e-8

    def __post_init__(self):
        _check_n_max(self.n_max)
        if not (0.0 < self.tail_tolerance < 1.0):
            raise ValueError(f"tail_tolerance must be in (0, 1), got {self.tail_tolerance}")


@dataclass(frozen=True, eq=False)
class AmplitudeMatrix:
    """Real amplitudes ``entries[n1, n2]`` of the two-port output state.

    ``entries`` has shape ``(n_max + 1, n_max + 1)``; index ``n1`` counts
    photons in the port carrying the transmitted input, ``n2`` the other port.
    Amplitudes are real because every interaction phase is zero.  Every cell,
    the edge cells included, is an exact shell amplitude psi_T times a
    binomial weight, and ``entries`` equals its transpose exactly.
    """

    entries: np.ndarray
    n_max: int

    @property
    def captured_mass(self) -> float:
        """Probability mass of the stored block, sum of entries squared.

        Equals :func:`box_probability` at the same state and ``n_max``.
        """
        return float(np.sum(self.entries**2))


def _log_factorials(n_top: int) -> np.ndarray:
    """log k! for k = 0..n_top, from ``math.lgamma``; 0! and 1! are exactly 0."""
    return np.array([math.lgamma(k + 1.0) for k in range(n_top + 1)])


def coherent_amplitudes(beta: float, n_max: int) -> np.ndarray:
    """Number-basis column of a coherent state: exp(-beta^2/2) beta^m / sqrt(m!).

    ``beta`` is the real displacement of the input port.  Reference only:
    the amplitudes are built from the recurrence in ``_single_mode_column``.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    m = np.arange(n_max + 1)
    if beta == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    logmag = -0.5 * beta * beta + m * math.log(abs(beta)) - 0.5 * _log_factorials(n_max)
    signs = np.where(m % 2 == 0, 1.0, math.copysign(1.0, beta))
    return signs * np.exp(logmag)


def squeeze_matrix(s: float, n_max: int) -> np.ndarray:
    """Matrix ``S[n, m]`` of the single-mode squeeze S(-s) in the number basis.

    The element is a finite double sum over ladder powers applied on either
    side of the diagonal factor cosh(s)^-(j + 1/2); the Kronecker delta in
    the double sum pins the intermediate photon number to j = n - 2l = m - 2k,
    so the sum is organised here as a single pass over j with parity
    n == m (mod 2).  Signs come only from the annihilator side, (-1)^((m-j)/2).

    Reference only: ``squeeze_matrix(r, N) @ coherent_amplitudes(alpha, N)``
    is the column ``_single_mode_column`` builds, at O(N^2) memory and about
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


def _single_mode_column(r: float, alpha: float, n_top: int) -> np.ndarray:
    """Fock amplitudes psi_0..psi_{n_top} of S(-r) D(alpha) |0>, from the recurrence

        log psi_0 = -alpha^2 e^r / (2 cosh r) - log(cosh r) / 2,
        sqrt(n + 1) psi_{n+1} = (alpha / cosh r) psi_n + tanh(r) sqrt(n) psi_{n-1}.

    psi_0 underflows once alpha^2 e^r / (2 cosh r) passes about 745, so the
    pair (psi_{n-1}, psi_n) carries a binary exponent: each step rescales it
    by the power of two of the larger of the two, which is exact, and the
    exponents are applied once at the end.  A column whose log psi_0 lies
    below -2^60 holds no entry above the smallest subnormal at any length
    that fits in memory, and is returned as zeros.
    """
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
    for n in range(n_top):
        prev, cur = cur, (drive * cur + pull * roots[n] * prev) / roots[n + 1]
        shift = math.frexp(max(abs(prev), abs(cur)))[1]
        prev, cur, exp2 = math.ldexp(prev, -shift), math.ldexp(cur, -shift), exp2 + shift
        mant.append(cur)
        exps.append(exp2)
    return np.ldexp(np.array(mant), np.array(exps, dtype=np.int64))


def _shell_amplitudes(state: SqueezedInput, n_max: int) -> np.ndarray:
    """Output amplitudes ``amp[n1, n2]`` for n1, n2 <= n_max, one shell at a time.

    The splitter conserves total photon number T = n1 + n2 and spreads the
    input shell psi_T binomially over the outputs, so

        amp[n1, n2] = psi_T * sqrt(C(T, n1) / 2^T),   psi = S(-r) D(alpha) |0>.

    The log-binomial adds lg[n1] + lg[n2] before subtracting, which makes the
    matrix exactly symmetric under n1 <-> n2.
    """
    psi = _single_mode_column(state.r, state.alpha, 2 * n_max)
    n = np.arange(n_max + 1)
    lg = _log_factorials(2 * n_max)
    total = np.add.outer(n, n)
    log_binom = lg[total] - np.add.outer(lg[n], lg[n]) - total * math.log(2.0)
    return psi[total] * np.exp(0.5 * log_binom)


def output_amplitudes(state: SqueezedInput, policy: TruncationPolicy) -> AmplitudeMatrix:
    """Joint number-basis amplitudes of the two splitter outputs.

    Raises TruncationError if the captured mass falls short of
    ``1 - policy.tail_tolerance`` or exceeds ``1 + policy.tail_tolerance``.
    """
    amp = AmplitudeMatrix(entries=_shell_amplitudes(state, policy.n_max), n_max=policy.n_max)
    captured = amp.captured_mass
    if not abs(captured - 1.0) <= policy.tail_tolerance:
        raise TruncationError(captured, policy.n_max, policy.tail_tolerance)
    return amp


def herald_row(state: SqueezedInput, n_max: int) -> np.ndarray:
    """Herald row P(1, n) = T psi_T^2 / 2^T, T = n + 1, for n = 0..n_max.

    The one herald photon and the n others come from the single shell
    T = n + 1, split into (1, n) with weight C(T, 1) / 2^T.  So P(1,1) is
    ``row[1]`` and the herald probability P1 is ``sum(row)``.  Because
    T / 2^T falls and psi is normalised, the terms beyond n_max add at most
    (n_max + 2) / 2^(n_max + 2) to P1 for any state (1.3e-17 at n_max 60).
    """
    _check_n_max(n_max)
    t = np.arange(1, n_max + 2)
    return np.ldexp(t * _single_mode_column(state.r, state.alpha, n_max + 1)[1:] ** 2, -t)


def box_probability(state: SqueezedInput, n_max: int) -> float:
    """Probability that both output ports hold at most n_max photons.

    Shells with T > 2 n_max cannot reach the box, so the box mass is the
    squared sum of the same amplitudes :func:`output_amplitudes` returns.
    """
    _check_n_max(n_max)
    return float(np.sum(_shell_amplitudes(state, n_max) ** 2))


def suggest_n_max(r: float, alpha: float, tail_tolerance: float = 1e-8) -> int:
    """Smallest truncation whose exact box tail is below half the tolerance, plus 2.

    Built on the exact box mass rather than a decay model.  Each step of a
    growing box squares its shell amplitudes once and reads the box mass at
    every smaller N from cumulative sums (no entry depends on the box size),
    so the suggestion is the smallest N >= 2 that passes, with a +2 safety
    margin.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if not (0.0 < tail_tolerance < 1.0):
        raise ValueError("tail_tolerance must be in (0, 1)")
    target = 0.5 * tail_tolerance
    state = SqueezedInput(r=r, alpha=alpha)

    hi = 20
    while hi <= N_MAX_CEILING:
        cells = _shell_amplitudes(state, hi) ** 2
        tail = 1.0 - np.diagonal(cells.cumsum(axis=0).cumsum(axis=1))
        passing = np.flatnonzero(tail[2:] <= target)
        if passing.size:
            return (2 + int(passing[0])) + 2
        hi = int(hi * 1.6) + 8
    raise ValueError(
        f"no truncation below {N_MAX_CEILING} reaches tail {tail_tolerance:g} "
        f"for r={r}, alpha={alpha}"
    )
