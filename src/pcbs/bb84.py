"""Monte Carlo BB84 sessions fed by the two-port photon source.

Alice heralds a pulse when her port fires (n1 >= 1); Bob's threshold
detector fires when at least one photon reaches him.  An eavesdropper on
the channel routes each of Bob's photons to herself independently with
probability splitting_ratio; only the detection indicator is observable,
so the per-photon routing enters through its exact marginal
P(all stolen | n2) = ratio**n2.

A session's observables depend on a pulse only through its class: no
herald (n1 = 0), herald with n2 = k for k = 0..n_max, or overflow (the
mass outside the box, a herald with n2 = n_max + 1).  simulate_session
therefore works on counts, in a fixed draw order: one multinomial over
the N + 2 classes (N = n_max + 1), one uniform in (0, 1] per herald class
(N + 1 of them) whose binomial inverse CDF is that class's all-stolen
count, and one Binomial(detected, 1/2) draw for the pulses whose bases
agree.  Its cost does not depend on n_pulses.  The same draws are made
whatever the attack settings, so sessions with the same seed share their
randomness across attack models (common random numbers, per class): the
no-attack session and a splitting_ratio = 0 session are bit-identical, and
the miss rate never decreases in the ratio.

Detection is rate-based: sifting is counted, but bit values never
influence anything observable (no channel noise, QBER not modeled) and
are not drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptySessionError, NoHeraldError
from .stats import JointDistribution, threshold_probs

__all__ = [
    "AttackModel",
    "Verdict",
    "SessionReport",
    "sample_cells",
    "simulate_session",
    "detect_attack",
    "MIN_HERALDS_FOR_TEST",
]

ATTACK_KINDS = ("none", "balanced_beam_splitter")
MIN_HERALDS_FOR_TEST = 100      # below this the z-test is not trustworthy
_MAX_MISSING_MASS = 1e-6        # sampling precondition on 1 - captured_mass
_MAX_PULSES = 2**63 - 1         # class counts are int64


@dataclass(frozen=True)
class AttackModel:
    """Beam-splitting eavesdropper on Bob's channel."""

    kind: str = "none"
    splitting_ratio: float = 0.5

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"kind must be one of {ATTACK_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.splitting_ratio <= 1.0:
            raise ValueError("splitting_ratio must lie in [0, 1]")

    @property
    def routed_fraction(self) -> float:
        """Per-photon probability of theft; zero when no attack is present."""
        return self.splitting_ratio if self.kind == "balanced_beam_splitter" else 0.0


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_pulses": self.n_pulses,
                "herald_count": self.herald_count,
                "bob_detect_count": self.bob_detect_count,
                "bob_miss_given_herald": self.bob_miss_given_herald,
                "bob_miss_joint": self.bob_miss_joint,
                "sifted_key_bits": self.sifted_key_bits,
                "verdict": self.verdict.value,
                "seed": self.seed,
                "rng_algorithm": self.rng_algorithm,
            },
            indent=2,
        )


def _checked_pulses(jd: JointDistribution, n_pulses: int) -> None:
    """Refuse a session that is empty, too long for int64 counts, or undersampled."""
    if n_pulses <= 0:
        raise EmptySessionError(f"n_pulses must be positive, got {n_pulses}")
    if n_pulses > _MAX_PULSES:
        raise ValueError(f"n_pulses must be at most 2**63 - 1, got {n_pulses}")
    if jd.captured_mass < 1.0 - _MAX_MISSING_MASS:
        raise ValueError(
            f"captured_mass = {jd.captured_mass:.9f} leaves more than "
            f"{_MAX_MISSING_MASS:.0e} unsampled; rerun with a larger box"
        )


def sample_cells(jd: JointDistribution, n_pulses: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw (n1, n2) photon numbers for n_pulses pulses.

    seed is an integer or a numpy Generator (consumes one uniform per
    pulse).  The residual mass 1 - captured_mass goes to an overflow bucket
    reported as n1 = n2 = jd.p.shape[0], i.e. beyond the box: a
    multi-photon event on both ports.
    """
    _checked_pulses(jd, n_pulses)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(jd.p.ravel())
    idx = np.searchsorted(cum, rng.random(n_pulses), side="right")
    rows, cols = jd.p.shape
    over = idx >= rows * cols
    n1 = np.where(over, rows, idx // cols)
    n2 = np.where(over, rows, idx % cols)
    return n1, n2


def _binom_ppf(u: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Smallest s in [0, n] with P(Binomial(n, p) <= s) >= u, elementwise, u in (0, 1].

    P(X <= s) = betaincc(s + 1, n - s, p) for 0 <= s < n, bisected over s
    for every element at once.  p = 0 gives 0; p = 1, or u = 1 with p > 0,
    gives n.  (scipy.special.bdtrik is not used: it loses accuracy from
    n ~ 1e7 and returns NaN above 2**31.)
    """
    n = np.asarray(n, dtype=np.int64)
    lo = np.where((p >= 1.0) | ((u >= 1.0) & (p > 0.0)), n, 0)
    hi = np.where(p > 0.0, n, 0)
    while np.any(open_ := lo < hi):
        # imported here, not at module level, because scipy.special takes about
        # 0.2 s to load; a session without an attack never bisects
        from scipy.special import betaincc
        a, b = lo[open_], hi[open_]
        mid = a + (b - a) // 2
        below = betaincc(mid + 1.0, (n[open_] - mid).astype(float), p[open_]) < u[open_]
        lo[open_] = np.where(below, mid + 1, a)
        hi[open_] = np.where(below, b, mid)
    return lo


def _judge(miss_hat: float, herald_count: int, baseline: float, z_threshold: float) -> Verdict:
    if herald_count < MIN_HERALDS_FOR_TEST:
        return Verdict.INCONCLUSIVE
    spread = baseline * (1.0 - baseline)
    if spread == 0.0:
        return Verdict.ATTACK_SUSPECTED if miss_hat > baseline else Verdict.CLEAN
    z = (miss_hat - baseline) / math.sqrt(spread / herald_count)
    return Verdict.ATTACK_SUSPECTED if z > z_threshold else Verdict.CLEAN


def simulate_session(jd: JointDistribution, n_pulses: int,
                     attack: AttackModel = AttackModel(), seed: int = 0,
                     z_threshold: float = 5.0) -> SessionReport:
    """Run one session; deterministic given (jd, n_pulses, attack, seed).

    Draws, in order: one multinomial of n_pulses over the classes (no
    herald; herald with n2 = 0..n_max; overflow), one uniform in (0, 1]
    per herald class, whose binomial inverse CDF at probability
    routed_fraction**n2 is the class's all-stolen count, and one
    Binomial(detected, 1/2) for the agreeing bases.  Nothing has length
    n_pulses, so the cost does not grow with the session.

    The verdict is judged against the closed-form no-attack baseline
    (q1 - q2)/q1 of the same source at ``z_threshold``; detect_attack
    re-judges a report against any other baseline.
    """
    _checked_pulses(jd, n_pulses)
    rng = np.random.default_rng(seed)
    rows, cols = jd.p.shape
    classes = np.concatenate((
        [jd.p[0, :].sum()],
        jd.p[1:, :].sum(axis=0),
        [max(0.0, 1.0 - jd.captured_mass)],
    ))
    counts = rng.multinomial(n_pulses, classes)
    heralded = counts[1:]
    u = 1.0 - rng.random(heralded.size)
    n2 = np.append(np.arange(cols), rows)
    stolen = _binom_ppf(u, heralded, np.power(attack.routed_fraction, n2))

    herald_count = n_pulses - int(counts[0])
    if herald_count == 0:
        raise NoHeraldError("no pulse heralded; miss rate undefined")
    detect_count = int(np.sum(heralded - stolen))    # n2 = 0 is always all stolen
    sifted = int(rng.binomial(detect_count, 0.5))

    miss_given_herald = (herald_count - detect_count) / herald_count
    tp = threshold_probs(jd)
    baseline = (tp.q1 - tp.q2) / tp.q1 if tp.q1 > 0.0 else 0.0
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
    if not 0.0 <= baseline_miss_given_herald <= 1.0:
        raise ValueError("baseline_miss_given_herald must lie in [0, 1]")
    if z_threshold <= 0.0:
        raise ValueError("z_threshold must be positive")
    return _judge(report.bob_miss_given_herald, report.herald_count,
                  baseline_miss_given_herald, z_threshold)
