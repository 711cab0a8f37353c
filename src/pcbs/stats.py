"""Counting statistics of the two output ports.

Everything here is a pure function of the joint photon-number distribution,
the (n_max + 1)^2 array p[n1, n2] that :func:`joint_distribution` returns:
heralded single-photon statistics and g2(0), threshold-detector
probabilities for the eavesdropping analysis, and squeeze-parameter sweeps
with maximum location.  Sweeps and maxima build no array and truncate
no row: P(1,1) = psi_2^2 / 2 is two scalar steps of the single-mode
recurrence (:func:`pcbs.fock._coincidence_11`), and the herald probability
P1 is exact, from the state's photon-number generating function
(:func:`_herald_probability`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoHeraldError
from .fock import SqueezedInput, TruncationPolicy, _coincidence_11, output_amplitudes

__all__ = [
    "HeraldedStats",
    "ThresholdProbs",
    "joint_distribution",
    "herald_marginal",
    "heralded_stats",
    "threshold_probs",
    "sweep_r",
    "locate_maximum",
]


@dataclass(frozen=True, eq=False)
class HeraldedStats:
    """Statistics of port b conditioned on exactly one photon at port a.

    ``p1`` is the herald probability P1 = sum_n P(1, n); ``pn`` the
    renormalized conditional distribution P(1, n)/P1; ``g2`` the zero-delay
    second-order correlation <n(n-1)>/<n>^2 of ``pn``, nan where <n>^2 is 0.
    """

    p1: float
    pn: np.ndarray
    g2: float


@dataclass(frozen=True)
class ThresholdProbs:
    """Threshold-detector probabilities for the beam-splitting-attack analysis.

    Each is a sum of the cells it counts, read from the herald marginal
    m[k] = sum_{n1 >= 1} P(n1, k) (:func:`herald_marginal`),
    so none is negative, and none exceeds q1 by more than the rounding of a
    sum:

    q1: at least one photon at port a (herald fires), sum of m.
    q2: at least one photon at each port (coincidence), sum of m[k >= 1].
    q3: at least one photon at port a and exactly one at port b, m[1].

    ``baseline_miss`` = m[0] is the joint probability that the herald fires
    but the far detector sees nothing (q1 - q2 up to rounding).
    ``attacked_miss`` = m[0] + m[1]/2 is the paper's single-photon-class
    approximation of that miss under a 50/50 beam-splitting attack: only a
    lone photon is counted as stolen outright, with probability 1/2
    (0.13823 at r = 1, alpha = 1/2).  :mod:`pcbs.bb84` simulates the full
    attack, which steals all k photons with probability 2^-k, so its
    expected joint miss is ``simulated_attack_miss`` = sum_k m[k] 2^-k
    (0.171759 at the same point).
    """

    q1: float
    q2: float
    q3: float
    baseline_miss: float
    attacked_miss: float
    simulated_attack_miss: float


def joint_distribution(state: SqueezedInput, policy: TruncationPolicy) -> np.ndarray:
    """Joint probabilities ``p[n1, n2]`` of photon counts at the two ports.

    The output amplitudes, in the box ``policy.for_state(state)``, squared
    (output_amplitudes never sees None).  The box holds mass ``sum(p)``;
    the residual tail is bounded by the policy's tail tolerance.
    """
    return output_amplitudes(state, policy.for_state(state)) ** 2


def herald_marginal(p: np.ndarray) -> np.ndarray:
    """m[k] = sum_{n1 >= 1} P(n1, k): the herald fires and port b holds k photons."""
    return np.sum(p[1:, :], axis=0)


def heralded_stats(p: np.ndarray) -> HeraldedStats:
    """Condition port b of the joint distribution p on a single-photon herald at port a.

    g2 uses the full conditional vector up to the truncation; the neglected
    tail is bounded by the distribution's tail tolerance.  g2 is nan where
    the conditional mean's square is 0 in float64: a herald row held all at
    n = 0 (r = 0, alpha = 1e-150) gives P1 > 0 but no photon at port b.
    """
    row = p[1, :]
    p1 = float(np.sum(row))
    if p1 == 0.0:
        raise NoHeraldError("herald probability is exactly zero")
    pn = row / p1
    n = np.arange(pn.size)
    mean = float(np.sum(n * pn))
    fact2 = float(np.sum(n * (n - 1) * pn))     # <n(n-1)>
    return HeraldedStats(p1=p1, pn=pn, g2=fact2 / mean**2 if mean**2 > 0.0 else math.nan)


def threshold_probs(p: np.ndarray) -> ThresholdProbs:
    """Probabilities seen by ideal threshold detectors (fire on >= 1 photon)."""
    m = herald_marginal(p)
    miss, q3 = float(m[0]), float(m[1])
    return ThresholdProbs(q1=float(np.sum(m)), q2=float(np.sum(m[1:])), q3=q3,
                          baseline_miss=miss, attacked_miss=miss + 0.5 * q3,
                          simulated_attack_miss=float(np.sum(np.ldexp(m, -np.arange(m.size)))))


def _herald_probability(r: float, alpha: float) -> float:
    """Exact herald probability P1 = sum_n P(1, n) of the state S(-r) D(alpha) |0>.

    The splitter thins the input photon number T binomially, so P1 =
    G'(1/2) / 2, where G(z) = sum_T p_T z^T is the input's generating
    function, the overlap of two Gaussian states (Weedbrook et al., Rev.
    Mod. Phys. 84, 621 (2012), sec. II).  With s = sinh^2 r and K = e^2r + 3,

        G(1/2) = exp(-2 alpha^2 e^2r / K) / sqrt(1 + 3 s / 4),
        P1 = G(1/2) (s / (4 + 3 s) + 8 alpha^2 e^2r / K^2).

    Every term is positive, so nothing cancels, and G is exponentiated
    directly, not through its logarithm, which would cost eps |log G|.
    Written in e = e^-2r, hypot and sinh r, no term overflows for any r that
    :class:`~pcbs.fock.SqueezedInput` accepts: e^2r / K = 1 / (1 + 3 e),
    sqrt(1 + 3 s / 4) = hypot(1, sqrt(3/4) sinh r) = h, and
    s / (4 + 3 s) = (sinh r / h)^2 / 4.  Within 2e-15 relative of a
    50-digit value wherever P1 is a normal float.
    """
    e = math.exp(-2.0 * r)
    sinh_r = math.sinh(r)
    h = math.hypot(1.0, math.sqrt(0.75) * sinh_r)
    g = math.exp(-2.0 * alpha * alpha / (1.0 + 3.0 * e)) / h     # G(1/2)
    if g == 0.0:    # underflowed; past |alpha| ~ 1e154 the second term below is inf
        return 0.0  # too, and 0 * inf would be NaN
    w = sinh_r / h
    return g * (0.25 * w * w + 8.0 * alpha * alpha * e / (1.0 + 3.0 * e) ** 2)


def sweep_r(alpha: float, r_grid) -> tuple[list[float], list[float], list[float], list[float]]:
    """The columns (r, p11, p1, pn1) of a sweep over squeeze values: four
    lists of floats, one entry per r of the grid.

    P(1,1) = psi_2^2 / 2 is read from psi_0..psi_2 alone
    (:func:`pcbs.fock._coincidence_11`) and P1 is exact
    (:func:`_herald_probability`); no row is truncated, so every squeeze is
    served.  pn1 = P(1,1)/P1 is the heralded single-photon fraction, NaN
    when nothing heralds.  The grid is checked once, before any point:
    every r must be >= 0 (NaN is not), and the largest must make a valid
    :class:`~pcbs.fock.SqueezedInput` with ``alpha``, or ValueError.
    """
    grid = [float(r) for r in r_grid]
    for r in grid:      # each r first: max() of a grid holding a NaN depends on its order
        if not r >= 0.0:
            raise ValueError(f"sweep r values must be >= 0, got {r}")
    if grid:
        SqueezedInput(r=max(grid), alpha=alpha)     # every r of the grid is a valid input
    p11, p1 = [], []
    for r in grid:
        p11.append(_coincidence_11(r, alpha))
        p1.append(_herald_probability(r, alpha))
    return grid, p11, p1, [a / b if b > 0.0 else math.nan for a, b in zip(p11, p1)]


_COARSE = 33            # points of the grid that brackets a maximum


def locate_maximum(alpha: float, quantity: str, r_lo: float, r_hi: float) -> tuple[float, float]:
    """Maximize P(1,1) or P1 over r in [r_lo, r_hi]; returns (r_star, value).

    P1 is exact and P(1,1) = psi_2^2 / 2 is read from psi_0..psi_2 alone,
    as in :func:`sweep_r`; neither builds an array or a
    :class:`~pcbs.fock.SqueezedInput`, so ``r_hi`` is checked once up front.
    A 33-point grid brackets the maximum, and :func:`_golden_maximum` refines it
    to xtol 1e-6 from the three grid points around the coarse maximum.
    Raises ValueError when the coarse maximum sits on the interval boundary
    (no interior bracket exists) or ties with a neighbour.
    """
    if quantity not in ("p11", "p1"):
        raise ValueError(f"quantity must be 'p11' or 'p1', got {quantity!r}")
    if not (0.0 <= r_lo < r_hi):
        raise ValueError("need 0 <= r_lo < r_hi")
    SqueezedInput(r=r_hi, alpha=alpha)      # every r of the search is a valid input

    probability = _herald_probability if quantity == "p1" else _coincidence_11

    def f(r: float) -> float:
        return probability(r, alpha)

    grid = np.linspace(r_lo, r_hi, _COARSE).tolist()
    vals = [f(r) for r in grid]
    i = int(np.argmax(vals))
    if i == 0 or i == _COARSE - 1:
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
