"""Counting statistics of the two output ports.

Everything here is a pure function of the joint photon-number distribution
P(n1, n2): heralded single-photon statistics and g2(0), threshold-detector
probabilities for the eavesdropping analysis, and squeeze-parameter sweeps
with maximum location.  Sweeps and maxima need only the herald row
P(1, n), which :func:`pcbs.fock.herald_row` builds from the single-mode
column without the joint matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoHeraldError
from .fock import SqueezedInput, TruncationPolicy, herald_row, output_amplitudes

__all__ = [
    "JointDistribution",
    "HeraldedStats",
    "ThresholdProbs",
    "SweepPoint",
    "SweepResult",
    "joint_distribution",
    "heralded_stats",
    "threshold_probs",
    "sweep_r",
    "locate_maximum",
]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint probabilities ``p[n1, n2]`` of photon counts at the two ports.

    ``captured_mass`` is the total probability inside the truncated block;
    the residual tail is bounded by the policy used to produce it.
    """

    p: np.ndarray
    captured_mass: float
    input_echo: SqueezedInput


@dataclass(frozen=True, eq=False)
class HeraldedStats:
    """Statistics of port b conditioned on exactly one photon at port a.

    ``p1`` is the herald probability P1 = sum_n P(1, n); ``pn`` the
    renormalized conditional distribution P(1, n)/P1; ``g2`` the zero-delay
    second-order correlation <n(n-1)>/<n>^2 of ``pn``.
    """

    p1: float
    pn: np.ndarray
    g2: float


@dataclass(frozen=True)
class ThresholdProbs:
    """Threshold-detector probabilities for the beam-splitting-attack analysis.

    q1: at least one photon at port a (herald fires).
    q2: at least one photon at each port (coincidence).
    q3: at least one photon at port a and exactly one at port b.

    ``baseline_miss`` = q1 - q2 is the joint probability that the herald fires
    but the far detector sees nothing; an eavesdropper splitting off half of
    every photon raises it to ``attacked_miss`` = q1 - q2 + q3/2 (a lone
    photon is stolen outright with probability 1/2).
    """

    q1: float
    q2: float
    q3: float
    baseline_miss: float
    attacked_miss: float


@dataclass(frozen=True)
class SweepPoint:
    """One row of an r-sweep."""

    r: float
    p11: float
    p1: float
    pn1: float


@dataclass(frozen=True)
class SweepResult:
    alpha: float
    points: tuple[SweepPoint, ...]


def joint_distribution(state: SqueezedInput, policy: TruncationPolicy) -> JointDistribution:
    """Square the output amplitudes into the joint counting distribution."""
    amp = output_amplitudes(state, policy)
    return JointDistribution(p=amp.entries**2, captured_mass=amp.captured_mass,
                             input_echo=state)


def heralded_stats(jd: JointDistribution) -> HeraldedStats:
    """Condition port b on a single-photon herald at port a.

    g2 uses the full conditional vector up to the truncation; the neglected
    tail is bounded by the distribution's tail tolerance.
    """
    row = jd.p[1, :]
    p1 = float(np.sum(row))
    if p1 == 0.0:
        raise NoHeraldError(
            f"herald probability is exactly zero for r={jd.input_echo.r}, "
            f"alpha={jd.input_echo.alpha}"
        )
    pn = row / p1
    n = np.arange(pn.size)
    mean = float(np.sum(n * pn))
    fact2 = float(np.sum(n * (n - 1) * pn))     # <n(n-1)>
    return HeraldedStats(p1=p1, pn=pn, g2=fact2 / mean**2)


def threshold_probs(jd: JointDistribution) -> ThresholdProbs:
    """Probabilities seen by ideal threshold detectors (fire on >= 1 photon)."""
    q1 = float(jd.captured_mass - np.sum(jd.p[0, :]))
    q2 = float(q1 - np.sum(jd.p[1:, 0]))
    q3 = float(np.sum(jd.p[1:, 1]))
    baseline = q1 - q2
    return ThresholdProbs(q1=q1, q2=q2, q3=q3,
                          baseline_miss=baseline,
                          attacked_miss=baseline + 0.5 * q3)


def sweep_r(alpha: float, r_grid, n_max: int) -> SweepResult:
    """Evaluate (P(1,1), P1, pn(1)) across squeeze values.

    Each row reads the herald row P(1, n), n <= n_max: P(1,1) is its entry
    at n = 1 and P1 its sum, short of the exact value by at most
    (n_max + 2) / 2^(n_max + 2) (see :func:`pcbs.fock.herald_row`), so every
    squeeze is served.  pn(1) = P(1,1)/P1 is the heralded single-photon
    fraction, NaN when nothing heralds.
    """
    points = []
    for r in r_grid:
        if r < 0:
            raise ValueError(f"sweep r values must be >= 0, got {r}")
        row = herald_row(SqueezedInput(r=float(r), alpha=alpha), n_max)
        p11 = float(row[1])
        p1 = float(np.sum(row))
        pn1 = p11 / p1 if p1 > 0.0 else math.nan
        points.append(SweepPoint(r=float(r), p11=p11, p1=p1, pn1=pn1))
    return SweepResult(alpha=alpha, points=tuple(points))


def locate_maximum(alpha: float, quantity: str, r_lo: float, r_hi: float,
                   n_max: int, coarse: int = 33) -> tuple[float, float]:
    """Maximize P(1,1) or P1 over r in [r_lo, r_hi]; returns (r_star, value).

    Both are read from the herald row up to n_max, as in :func:`sweep_r`.
    A coarse grid brackets the maximum, and :func:`_golden_maximum` refines
    it to xtol 1e-6 from the three grid points around the coarse maximum.
    Raises ValueError when the coarse maximum sits on the interval boundary
    (no interior bracket exists) or ties with a neighbour.
    """
    if quantity not in ("p11", "p1"):
        raise ValueError(f"quantity must be 'p11' or 'p1', got {quantity!r}")
    if not (0.0 <= r_lo < r_hi):
        raise ValueError("need 0 <= r_lo < r_hi")

    def f(r: float) -> float:
        row = herald_row(SqueezedInput(r=float(r), alpha=alpha), n_max)
        return float(row[1]) if quantity == "p11" else float(np.sum(row))

    grid = np.linspace(r_lo, r_hi, coarse).tolist()
    vals = [f(r) for r in grid]
    i = int(np.argmax(vals))
    if i == 0 or i == coarse - 1:
        raise ValueError(
            f"maximum of {quantity} lies at the boundary of [{r_lo}, {r_hi}]"
        )
    return _golden_maximum(f, grid[i - 1:i + 2], vals[i - 1:i + 2])


_GOLD = 0.61803399      # golden-ratio conjugate, to the 8 digits scipy's golden search uses
_XTOL = 1e-6            # relative width at which the golden search stops


def _golden_maximum(f, xs, fs) -> tuple[float, float]:
    """Golden-section search for a maximum of f inside the bracket xs = (xa, xb, xc).

    ``fs`` holds f at the three points; the bracket must be strict,
    xa < xb < xc with f(xb) above f(xa) and f(xc), or ValueError.  The
    steps, start, stop rule |x3 - x0| <= 1e-6 (|x1| + |x2|) and 5000-step
    cap are those of ``scipy.optimize.minimize_scalar(method="golden",
    options={"xtol": 1e-6})`` on -f, so the result is the same (x, f(x))
    bit for bit.
    """
    (xa, xb, xc), (fa, fb, fc) = xs, fs
    if not (xa < xb < xc and fb > fa and fb > fc):
        raise ValueError(f"({xa}, {xb}, {xc}) does not bracket a strict maximum of f")
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + (1.0 - _GOLD) * (xc - xb)
    else:
        x1, x2 = xb - (1.0 - _GOLD) * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= _XTOL * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1, x2 = x1, x2, _GOLD * x2 + (1.0 - _GOLD) * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, _GOLD * x1 + (1.0 - _GOLD) * x0
            f2, f1 = f1, f(x1)
    return (x1, f1) if f1 > f2 else (x2, f2)
