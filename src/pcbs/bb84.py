"""Monte Carlo BB84 sessions fed by the two-port photon source.

Alice heralds a pulse when her port fires (n1 >= 1); Bob's threshold
detector fires when at least one photon reaches him.  An eavesdropper on
the channel routes each of Bob's photons to herself independently with
probability routed_fraction (0 without an attack), the beam-splitting
attack of Brassard, Lutkenhaus, Mor & Sanders (PRL 85, 1330 (2000)); only
the detection indicator is observable, so the per-photon routing enters
through its exact marginal P(all stolen | n2) = routed_fraction**n2.

A session's observables depend on a pulse only through its class: no
herald (n1 = 0), herald with n2 = k for k = 0..n_max, or overflow (the
mass outside the box, a herald with n2 = n_max + 1).  simulate_session
therefore works on counts, in a fixed draw order: one multinomial over
the N + 2 classes (N = n_max + 1), one uniform in (0, 1] per herald class
(N + 1 of them) whose binomial inverse CDF is that class's all-stolen
count, and one Binomial(detected, 1/2) draw for the pulses whose bases
agree.  Its memory does not depend on n_pulses, and without an attack
neither does its time; with one, the classes' inverse CDFs are searched
together, from a normal-quantile start, in a few betaincc rounds (see
simulate_session).  n_pulses is capped at 10**15: scipy's betaincc returns
NaN at scattered points from n ~ 7.8e15, and a NaN met in the search
raises UndefinedCdfError instead of moving a count.  The same draws are
made whatever the routed fraction, so sessions with the same seed share
their randomness across fractions (common random numbers, per class), and
the miss rate never decreases in the fraction.

Detection is rate-based: sifting is counted, but bit values never
influence anything observable (no channel noise, QBER not modeled) and
are not drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoHeraldError, UndefinedCdfError, _is_index
from .stats import herald_marginal

__all__ = [
    "Verdict",
    "SessionReport",
    "sample_cells",
    "simulate_session",
    "detect_attack",
    "MIN_HERALDS_FOR_TEST",
]

MIN_HERALDS_FOR_TEST = 100      # below this the z-test is not trustworthy
_MAX_MISSING_MASS = 1e-6        # sampling precondition on 1 - sum(p)
_MAX_EXCESS_MASS = 1e-12        # and on sum(p) - 1: numpy's multinomial allows no more
# betaincc, which draws the stolen-photon counts, is NaN at scattered points
# from n ~ 7.8e15 (scipy 1.17); tests/test_bb84.py checks it NaN-free up to here
_MAX_PULSES = 10**15


class Verdict(str, Enum):
    CLEAN = "clean"
    ATTACK_SUSPECTED = "attack_suspected"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SessionReport:
    """Counts and rates of one simulated session.

    bob_detect_count counts heralded pulses in which Bob detected;
    bob_miss_given_herald is the herald-conditioned miss rate and
    bob_miss_joint the per-pulse (joint) one.  sifted_key_bits counts
    heralded, detected pulses where the bases agreed.
    """

    n_pulses: int
    herald_count: int
    bob_detect_count: int
    bob_miss_given_herald: float
    bob_miss_joint: float
    sifted_key_bits: int
    verdict: Verdict
    seed: int
    rng_algorithm: str = "pcg64"


def _check_n_pulses(n_pulses: int) -> None:
    if not _is_index(n_pulses):
        raise ValueError(f"n_pulses must be an integer, got {n_pulses!r}")
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be positive, got {n_pulses}")
    if n_pulses > _MAX_PULSES:
        raise ValueError(f"n_pulses must be at most 10**15, where the stolen-photon "
                         f"counts' binomial CDF is NaN-free, got {n_pulses}")


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:    # NaN too
        raise ValueError(f"{name} must lie in [0, 1]")


def _check_z_threshold(z_threshold: float) -> None:
    if not z_threshold > 0.0:    # z > nan is never true: a NaN threshold would clear every session
        raise ValueError(f"z_threshold must be positive, got {z_threshold}")


def _checked_pulses(p: np.ndarray, n_pulses: int) -> float:
    """Refuse a session whose n_pulses is not an integer, that is empty, longer
    than 10**15 pulses, or whose box mass sum(p) lies outside
    [1 - 1e-6, 1 + 1e-12]; return that mass."""
    _check_n_pulses(n_pulses)
    captured_mass = float(np.sum(p))
    if not captured_mass >= 1.0 - _MAX_MISSING_MASS:     # a NaN mass is refused too
        raise ValueError(
            f"captured_mass = {captured_mass:.9f} leaves more than "
            f"{_MAX_MISSING_MASS:.0e} unsampled; rerun with a larger box"
        )
    if captured_mass > 1.0 + _MAX_EXCESS_MASS:
        raise ValueError(f"captured_mass = {captured_mass:.15g} exceeds 1 by more than "
                         f"{_MAX_EXCESS_MASS:.0e}; p is not a probability distribution")
    return captured_mass


def sample_cells(p: np.ndarray, n_pulses: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw (n1, n2) photon numbers for n_pulses pulses from the joint distribution p.

    seed is an integer or a numpy Generator (consumes one uniform per
    pulse).  The residual mass 1 - sum(p) goes to an overflow bucket
    reported as n1 = n2 = p.shape[0], i.e. beyond the box: a
    multi-photon event on both ports.
    """
    _checked_pulses(p, n_pulses)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(p.ravel())
    idx = np.searchsorted(cum, rng.random(n_pulses), side="right")
    rows, cols = p.shape
    over = idx >= rows * cols
    n1 = np.where(over, rows, idx // cols)
    n2 = np.where(over, rows, idx % cols)
    return n1, n2


def _binom_ppf(u: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Smallest s in [0, n] with P(Binomial(n, p) <= s) >= u, elementwise, u in (0, 1].

    P(X <= s) = betaincc(s + 1, n - s, p) for 0 <= s < n.  The search starts
    every element at once from the normal quantile with its Cornish-Fisher
    skew term, floor(np + sigma z + (1 - 2p)(z^2 - 1)/6) with z = ndtri(u)
    (Johnson, Kemp & Kotz, Univariate Discrete Distributions, 3rd ed.,
    ch. 3), gallops away from it with doubling steps until the comparison
    flips, then bisects the bracket found.  Each round is one betaincc call;
    the start is usually within a count or two of the answer.  The answer
    does not depend on the path while the CDF is NaN-free and monotone; a
    NaN raises UndefinedCdfError rather than taking a side.  p = 0 gives 0;
    p = 1, or u = 1 with p > 0, gives n.  (scipy.special.bdtrik is not
    used: it loses accuracy from n ~ 1e7 and returns NaN above 2**31.)
    """
    n = np.asarray(n, dtype=np.int64)
    lo = np.where((p >= 1.0) | ((u >= 1.0) & (p > 0.0)), n, 0)
    hi = np.where(p > 0.0, n, 0)
    open_ = lo < hi
    if not np.any(open_):
        return lo
    # imported here, not at module level, because scipy.special takes about
    # 0.2 s to load; a session without an attack never searches
    from scipy.special import betaincc, ndtri

    u, n, p, a, b = u[open_], n[open_], p[open_], lo[open_], hi[open_]

    def below(s, live):
        cdf = betaincc(s + 1.0, (n[live] - s).astype(float), p[live])
        if (nan := np.isnan(cdf)).any():
            k = nan.argmax()
            raise UndefinedCdfError(
                f"the binomial CDF betaincc(s + 1, n - s, p) is NaN at n = {n[live][k]}, "
                f"p = {p[live][k]!r}, s = {s[k]}; no stolen-photon count is taken from it")
        return cdf < u[live]

    z = ndtri(u)
    start = np.floor(n * p + np.sqrt(n * p * (1.0 - p)) * z + (1.0 - 2.0 * p) * (z * z - 1.0) / 6.0)
    s = np.clip(start, a, b - 1).astype(np.int64)
    live = np.ones(a.shape, dtype=bool)
    up = below(s, live)                 # gallop toward the answer, bisect once it is passed
    a, b = np.where(up, s + 1, a), np.where(up, b, s)
    step = np.ones_like(a)              # 0 once bisecting
    while np.any(live := a < b):
        la, lb, lstep, lup = a[live], b[live], step[live], up[live]
        s = np.where(lstep == 0, la + (lb - la) // 2,
                     np.where(lup, np.minimum(la - 1 + lstep, lb - 1), np.maximum(lb - lstep, la)))
        flag = below(s, live)
        a[live] = np.where(flag, s + 1, la)
        b[live] = np.where(flag, lb, s)
        step[live] = np.where(flag == lup, 2 * lstep, 0)
    lo[open_] = a
    return lo


def _judge(miss_hat: float, herald_count: int, baseline: float, z_threshold: float) -> Verdict:
    if herald_count < MIN_HERALDS_FOR_TEST:
        return Verdict.INCONCLUSIVE
    spread = baseline * (1.0 - baseline)
    if spread == 0.0:
        return Verdict.ATTACK_SUSPECTED if miss_hat > baseline else Verdict.CLEAN
    z = (miss_hat - baseline) / math.sqrt(spread / herald_count)
    return Verdict.ATTACK_SUSPECTED if z > z_threshold else Verdict.CLEAN


def simulate_session(p: np.ndarray, n_pulses: int, routed_fraction: float = 0.0,
                     seed: int = 0, z_threshold: float = 5.0) -> SessionReport:
    """Run one session from the joint distribution p; deterministic given
    (p, n_pulses, routed_fraction, seed).

    routed_fraction, the probability that the eavesdropper takes each of
    Bob's photons, is 0 without an attack.  Before any draw, ValueError
    refuses a fraction outside [0, 1] (NaN too), a z_threshold that is not
    positive (NaN too), an n_pulses that is not an integer in [1, 10**15]
    (a float or a bool too) and a box mass sum(p) outside
    [1 - 1e-6, 1 + 1e-12].

    Draws, in order: one multinomial of n_pulses over the classes (no
    herald; herald with n2 = 0..n_max; overflow), one uniform in (0, 1]
    per herald class, whose binomial inverse CDF at probability
    routed_fraction**n2 is the class's all-stolen count, and one
    Binomial(detected, 1/2) for the agreeing bases.  Nothing has length
    n_pulses, so memory does not grow with the session, and without an
    attack neither does time.  With one, the inverse CDFs start from a
    normal quantile with a skew term and take 2 betaincc rounds at the
    working point from 1e7 to 1e15 pulses; each round is slower at large
    counts.  In-process after a warm-up, on a 2-core x86_64 host (scipy
    1.17), a ratio-0.5 session at r = 1, alpha = 1/2 took about 0.3 ms at
    1e7 pulses, 1.3 ms at 1e12 and 4 ms at 1e15 (a bisection took 1.2, 12
    to 18 and 57 to 68 ms); without an attack, 0.1 ms at every size.  A
    NaN CDF value raises UndefinedCdfError.

    The verdict is judged at ``z_threshold`` against the no-attack baseline
    m[0]/q1 of the same source, read from the herald marginal m[k]
    (:func:`~pcbs.stats.herald_marginal`) that also gives the herald
    classes (the baseline_miss and q1 of
    :func:`~pcbs.stats.threshold_probs`); detect_attack re-judges a report
    against any other baseline.
    """
    captured_mass = _checked_pulses(p, n_pulses)
    _check_fraction("routed_fraction", routed_fraction)
    _check_z_threshold(z_threshold)
    rng = np.random.default_rng(seed)
    rows, cols = p.shape
    marginal = herald_marginal(p)
    classes = np.concatenate((
        [p[0, :].sum()],
        marginal,
        [max(0.0, 1.0 - captured_mass)],
    ))
    counts = rng.multinomial(n_pulses, classes)
    heralded = counts[1:]
    u = 1.0 - rng.random(heralded.size)
    n2 = np.append(np.arange(cols), rows)
    stolen = _binom_ppf(u, heralded, np.power(routed_fraction, n2))

    herald_count = n_pulses - int(counts[0])
    if herald_count == 0:
        raise NoHeraldError("no pulse heralded; miss rate undefined")
    detect_count = int(np.sum(heralded - stolen))    # n2 = 0 is always all stolen
    sifted = int(rng.binomial(detect_count, 0.5))

    miss_given_herald = (herald_count - detect_count) / herald_count
    q1 = float(np.sum(marginal))
    baseline = float(marginal[0]) / q1 if q1 > 0.0 else 0.0
    return SessionReport(
        n_pulses=n_pulses,
        herald_count=herald_count,
        bob_detect_count=detect_count,
        bob_miss_given_herald=miss_given_herald,
        bob_miss_joint=(herald_count - detect_count) / n_pulses,
        sifted_key_bits=sifted,
        verdict=_judge(miss_given_herald, herald_count, baseline, z_threshold),
        seed=seed,
    )


def detect_attack(report: SessionReport, baseline_miss_given_herald: float,
                  z_threshold: float = 5.0) -> Verdict:
    """One-sided binomial z-test of the session's miss rate against a baseline.

    attack_suspected iff z > z_threshold; fewer than MIN_HERALDS_FOR_TEST
    heralds is inconclusive.
    """
    _check_fraction("baseline_miss_given_herald", baseline_miss_given_herald)
    _check_z_threshold(z_threshold)
    return _judge(report.bob_miss_given_herald, report.herald_count,
                  baseline_miss_given_herald, z_threshold)
