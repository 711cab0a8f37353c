"""Conduction bands of a 1D bilayer photonic crystal.

The unit cell is a layer of width l_a (permittivity eps_rel_a) followed by a
layer of width l_b (eps_rel_b); Bloch waves obey

    cos(Lambda k) = RHS(omega)
    RHS = cos(l_a K_a) cos(l_b K_b) - eta sin(l_a K_a) sin(l_b K_b)

with K_i = (omega/c) sqrt(eps_rel_i), Lambda = l_a + l_b, and
eta = (eps_rel_a + eps_rel_b) / (2 sqrt(eps_rel_a eps_rel_b)).  This is the
printed dispersion relation verbatim: its prefactor (K_a^2 + K_b^2) /
(2 K_a K_b) equals the transfer-matrix form (K_a/K_b + K_b/K_a)/2
identically, so there is no sign-convention ambiguity to correct for.

Bands are the omega ranges with |RHS| <= 1.  Their edges come from the
half-angle factors of the symmetric cell (Yeh, Yariv & Hong, JOSA 67, 423
(1977)).  With A = l_a K_a / 2, B = l_b K_b / 2 and x = sqrt(eps_rel_b / eps_rel_a),

    1 + RHS = 2 (cos A cos B - x sin A sin B) (cos A cos B - sin A sin B / x)
    1 - RHS = 2 (sin A cos B + x cos A sin B) (sin A cos B + cos A sin B / x)

Every band edge is a simple zero of one of these four factors, and a gap is
closed where two factors share a root: the bands on either side meet there
with a finite group velocity.  w = 0, a root of both odd factors, is the
zeroth closed gap.  Each pair of factors has a phase that rises strictly
with w, and whose quarter turns are that pair's roots (_phase), so the
phases count the edges below any w and place each one on the scan grid.
scan_bands finds the edges once and returns them as a frozen BandStructure
that holds one expansion of the factors by angle addition, about each band's
k = 0 edge (row n - 1 for band n) and about every scanned root after them;
sample_bands, band_frequencies and tune_to_group_velocity read that value
and never scan.  They work in the offset delta from the
k = 0 edge: P = f2 f3 = sin^2(q/2) is solved for all samples of all
requested bands at once, each on its own band's row, and
v_g = 2 pi c sqrt(P (1 - P)) / |dP/d delta|, with P and its derivatives
from one product rule (_product).  tune_to_group_velocity has one edge rule
for both kinds of crystal: a target at the k = 0 edge's v_g (to 1e-12), or
on a gapped band at or below it, is the edge itself, k* = 0.
A slow-light shift of ~1e-13 of the edge frequency keeps its full relative
precision there.  Edges, samples and the tuning point are all roots of one
Newton-with-bisection solve (_bracketed_newton) on an array of any shape:
window ends as two rows, samples as a (band, q) grid, the tuning point 0-d.
Internally everything is dimensionless (w = omega Lambda / (2 pi c),
q = k Lambda); the public functions take and return SI quantities.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .errors import (DegeneratePointError, InsufficientScanError, UnachievableTargetError,
                     _is_index)
from .source import CODATA

__all__ = [
    "CrystalSpec",
    "BandStructure",
    "TuningReport",
    "dispersion_residual",
    "scan_bands",
    "band_frequencies",
    "sample_bands",
    "solve_band",
    "tune_to_group_velocity",
    "SCAN_POINTS_PER_UNIT",
]

SCAN_POINTS_PER_UNIT = 4000   # omega-scan density per unit of omega*Lambda/(2 pi c)
_SCAN_CEILING = 64.0          # give up above this dimensionless frequency
_SCAN_STEP_LIMIT = 0.25       # refuse a scan whose half-angles advance more than this * pi a step
_CLOSED_GAP = (4e-12, 2e-14)  # (abs, rel): a gap narrower than abs + rel * w is closed
_STEP_TOL = 1e-14             # a root is done when its step is <= this * |x - anchor|
# Newton-or-bisection steps of a root solve: bisection from a unit bracket
# reaches adjacent doubles within 1075 halvings, even at a root near 0, where
# Newton from far off only halves its distance (a root at w = 6.5e-33 took 96)
_MAX_STEPS = 1100
_SHIFT_RTOL = 1e-8            # a tuning shift rounded by more than this (relative) is refused
_DEGENERACY_FLOOR = 1e-10     # |dRHS/dw| below floor * (a + b) counts as degenerate
# omega = w 2 pi c / Lambda must be finite at every w a band call reaches:
# gapped bands lie below _SCAN_CEILING, and band n of a gapless crystal below
# w = n / 2, under 2^62 for an int64 n.  At this period 2 pi c / Lambda is
# 1.9e289, so omega stays finite up to w = 9.5e18.
_PERIOD_FLOOR = 1e-280        # m
# the tuning scan's offsets from a k = 0 edge, as shares of the way to its k = pi edge
_TUNING_GRID = np.geomspace(1e-16, 1.0, 2048)
_TUNING_GRID.flags.writeable = False


def brentq(*args, **kwargs):
    """Unused: no pcbs code calls this name, and a call raises.

    perfbench's tracer reads and rebinds ``pcbs.bands.brentq`` to count root
    solves, so the name stays bound, and that count reads 0.  ROADMAP item 2
    removes this name, together with the perfbench edit that stops reading it.
    """
    raise NotImplementedError("pcbs.bands finds its roots with _bracketed_newton")


@dataclass(frozen=True)
class CrystalSpec:
    """Bilayer unit cell; defaults are the air / LiNbO3 crystal of the study.

    chi2_tilde is the reduced second-order susceptibility chi2/eps0 (m/V) of
    the nonlinear layers and l_nl their total length along the crystal; both
    ride along here so a single object describes the parametric source.
    """

    l_a: float = 5.5e-7
    l_b: float = 5.5e-7
    eps_rel_a: float = 1.0
    eps_rel_b: float = 4.9284      # n = 2.22
    chi2_tilde: float = 25.2e-12
    l_nl: float = 5.0e-5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.l_a <= 0 or self.l_b < 0:
            raise ValueError("l_a must be positive, l_b non-negative")
        if self.period < _PERIOD_FLOOR:
            raise ValueError(f"the period l_a + l_b must be >= {_PERIOD_FLOOR:g} m, "
                             f"got {self.period!r}: omega = w 2 pi c / period would overflow")
        if self.eps_rel_a < 1.0 or self.eps_rel_b < 1.0:
            raise ValueError("relative permittivities must be >= 1")
        if self.chi2_tilde < 0 or self.l_nl < 0:
            raise ValueError("chi2_tilde and l_nl must be non-negative")

    @property
    def period(self) -> float:
        return self.l_a + self.l_b


@dataclass(frozen=True)
class TuningReport:
    """How far from the band edge the signal must sit to reach a target v_g."""

    target_vg_over_c: float
    k_star: float          # 1/m
    delta_omega: float     # rad/s, shift from the k=0 band edge
    delta_nu: float        # Hz, delta_omega / 2 pi
    nu_s: float            # Hz, edge frequency omega(k=0) / 2 pi


@dataclass(frozen=True, eq=False)    # numpy fields: compared by identity
class BandStructure:
    """The lowest n_bands bands of one crystal, as scan_bands found them.

    edges[n - 1] is band n's (w, v_g [m/s]) at k = 0, then at k = pi/Lambda.
    expansion(delta, edge) is the scan's one _edge_expansion.  Its row n - 1
    is about band n's k = 0 edge, so edge = n - 1 reads band n; rows n_bands
    to 3 n_bands + 1 are about every scanned root in order (w = 0 twice, for
    the two odd factors, then the roots up to the top of gap n_bands).
    delta0[n - 1] is band n's edge as the root of its own odd factor's
    expansion.  A gapless stack holds None for all three: its bands are exact.
    """

    spec: CrystalSpec
    n_bands: int
    edges: np.ndarray | None
    delta0: np.ndarray | None
    expansion: Callable | None


def _coeffs(spec: CrystalSpec) -> tuple[float, float, float]:
    """(a, b, eta): l_i K_i = (a|b) * w in dimensionless frequency w."""
    lam = spec.period
    a = 2.0 * math.pi * spec.l_a * math.sqrt(spec.eps_rel_a) / lam
    b = 2.0 * math.pi * spec.l_b * math.sqrt(spec.eps_rel_b) / lam
    eta = (spec.eps_rel_a + spec.eps_rel_b) / (2.0 * math.sqrt(spec.eps_rel_a * spec.eps_rel_b))
    return a, b, eta


def _rhs(a: float, b: float, eta: float, w: float) -> float:
    return math.cos(a * w) * math.cos(b * w) - eta * math.sin(a * w) * math.sin(b * w)


def _factors(sa, ca, sb, cb, x):
    """The four edge factors from the half-angle sines and cosines (floats or arrays).

    1 + RHS = 2 f0 f1 and 1 - RHS = 2 f2 f3.
    """
    return (ca * cb - x * sa * sb, ca * cb - sa * sb / x,
            sa * cb + x * ca * sb, sa * cb + ca * sb / x)


def _phase(a: float, b: float, y, w, level=0.0) -> tuple:
    """(Theta_y - level, dTheta_y/dw) at w, Theta_y the phase of the factor pair y.

    With A = a w / 2 and B = b w / 2, f0 = Re[e^(iA) (cos B + i x sin B)] =
    rho cos Theta_x and f2 = rho sin Theta_x, and f1, f3 are the same with
    y = 1/x.  Theta_y = A + B + atan2((y - 1) sin B cos B, cos^2 B + y sin^2 B)
    is the Pruefer angle (Math. Ann. 95, 499 (1926)), within pi/2 of
    (a + b) w / 2; its slope a/2 + (b/2) / (cos^2 B / y + y sin^2 B) is
    positive, and in that form never overflows.  Rounding, with u = eps / 2
    and sin and cos within k ulps (e <= 2 k u): on the rounded half-angles
    that the factors use too, T = A' + arg(cos B' + i y sin B') never falls
    as w rises.  The phase is within u (2 T + pi/2 + 5.5) + 2e of T (two
    sums, atan2, 3u + 2e in each of its arguments, u/2 from y = fl(1/x)),
    and a computed factor has the sign of cos T (sin T) farther than 2e + 3u
    from a root (2e from sin and cos, 3u from its arithmetic).  tau =
    4 eps (m pi / 2 + 8) covers both at root m for any k <= 6.
    """
    hb = 0.5 * b * w
    s, c = np.sin(hb), np.cos(hb)
    return (0.5 * a * w + hb + np.arctan2((y - 1.0) * s * c, c * c + y * s * s) - level,
            0.5 * a + 0.5 * b / (c * c / y + y * s * s))


def _gap_velocity(lower: tuple[float, float], upper: tuple[float, float]) -> float:
    """v_g [m/s] at either band edge beside the gap between two (w, slope) roots,
    each slope that of its own factor in w.

    The one closed-gap rule: the two roots agree to within _CLOSED_GAP.  An
    open gap stops the wave, v_g = 0.0 exactly.  Across a closed gap the two
    factors F, G give 1 -+ RHS ~ 2 F'G' dw^2 against 1 -+ cos q ~ dq^2 / 2,
    so dw/dq = 1 / (2 sqrt(F'G')) and v_g = c pi / sqrt(F'G').  F' and G'
    share a sign; taking their roots apart gives the origin's c / sqrt(<eps>)
    to the last bit on the default crystal.
    """
    (w_f, f_slope), (w_g, g_slope) = lower, upper
    if w_g - w_f > _CLOSED_GAP[0] + _CLOSED_GAP[1] * w_g:
        return 0.0
    return CODATA.c * math.pi / math.sqrt(abs(f_slope)) / math.sqrt(abs(g_slope))


def _bands(structure: BandStructure, bands, q) -> tuple[np.ndarray, np.ndarray]:
    """(w, v_g [m/s]) arrays of shape (len(bands), q.size) along the bands at q = Lambda k.

    bands is a sequence of the structure's band indices, q an array in
    [0, pi].  A gapless stack is one medium of optical thickness
    s = (l_a n_a + l_b n_b) / Lambda folded at the zone edges: band n spans
    w in [(n - 1)/(2s), n/(2s)] and v_g = c/s.  On a gapped band cos q == +-1
    gives the scanned edge and the velocity beside its gap (0.0 when open);
    every other q of every band is solved in one batch, in the offset from
    its band's k = 0 edge (_solve_offsets, _offset_velocity).
    """
    spec, n = structure.spec, np.array(bands)[:, None]
    if structure.expansion is None:
        s = (spec.l_a * math.sqrt(spec.eps_rel_a)
             + spec.l_b * math.sqrt(spec.eps_rel_b)) / spec.period
        w = np.where(n % 2 == 1, (n - 1) * math.pi + q, n * math.pi - q) / (2.0 * math.pi * s)
        return w, np.full(w.shape, CODATA.c / s)

    w0, v0, w_pi, v_pi = structure.edges[n[:, 0] - 1].T[..., None]
    cos_q = np.cos(q)
    w = np.where(cos_q == 1.0, w0, w_pi)
    v = np.where(cos_q == 1.0, v0, v_pi)
    inside = np.abs(cos_q) != 1.0
    if inside.any():
        delta = _solve_offsets(structure, n - 1, w_pi - w0, q[inside])
        v_inside, _, dp = _offset_velocity(structure.expansion, delta, n - 1)
        _check_slope(spec, dp, bands)
        w[:, inside] = w0 + delta
        v[:, inside] = v_inside * CODATA.c
    return w, v


def _reduced_q(spec: CrystalSpec, k: float) -> float:
    """Lambda k, checked against the reduced zone [0, pi] and clamped into it."""
    q = k * spec.period
    if not (-1e-12 <= q <= math.pi * (1 + 1e-12)):
        raise ValueError(f"k must lie in the reduced zone [0, pi/Lambda], got Lambda*k = {q}")
    return min(max(q, 0.0), math.pi)


def dispersion_residual(spec: CrystalSpec, omega: float, k: float) -> float:
    """cos(Lambda k) - cos(l_a K_a) cos(l_b K_b) + eta sin(l_a K_a) sin(l_b K_b).

    Zero exactly on the band structure.  The omega -> 0 limit is
    cos(Lambda k) - 1 and is handled smoothly (eta is frequency independent).
    """
    if not 0.0 <= omega < math.inf:
        raise ValueError(f"omega must be finite and >= 0, got {omega!r}")
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k!r}")
    w = omega * spec.period / (2.0 * math.pi * CODATA.c)
    return math.cos(spec.period * k) - _rhs(*_coeffs(spec), w)


def scan_bands(spec: CrystalSpec, n_bands: int) -> BandStructure:
    """The lowest n_bands bands of spec.  A single medium (l_b = 0, or equal
    permittivities) needs no scan.  Otherwise each edge is bracketed by a
    sign change of its own factor between neighbouring points of a grid of
    SCAN_POINTS_PER_UNIT = N points per unit of w: point j of unit u is
    j (1/N) + u, np.linspace(u, u + 1, N + 1)[j] bit for bit.  The phases
    (_phase) say where to read it.  Their quarter turns alternate between
    the pairs (two apart, 1 + RHS and 1 - RHS would both be negative), so
    the roots up to the top of gap n_bands are Theta_y = m pi / 2 for
    m = 1 .. n_bands, of f0 or f1 at odd m and f2 or f3 at even m; their
    count below _SCAN_CEILING refuses a band above it before any work.  A root's
    window spans Theta_y = m pi / 2 -+ tau and one grid point more on each side;
    the ends of all windows are one solve, a (2, 2 n_bands) array with the lower
    ends as its first row.  That point gives two kinds of window their sign
    change: where a phase is steep, -+ tau spans less than one ulp of w and both
    ends solve to the same float, and where a phase is flat at the level,
    Theta_y - m pi / 2 reads exactly 0 at both ends, so an end can land on the
    wrong side of the root.  Outside the windows each factor has its phase's
    sign, so the sign changes of each root's factor in its window, once each,
    are the whole grid's brackets; a window without one is refused.  A crystal
    whose faster half-angle max(a, b) w / 2 advances more than _SCAN_STEP_LIMIT
    pi per scan step is refused first: a layer of optical thickness above 1000
    periods.  Every bracket starts at the linear interpolation of its two scan
    values, and all are polished at once (_bracketed_newton) on the factor and
    its slope in w, read from the coefficients of its expansion about w itself
    (_edge_terms), with no evaluation: the expansion's value at delta = 0, bit
    for bit.  With w = 0 prepended once per odd factor, the sorted roots
    alternate gap, band, gap, ...: gap g spans roots 2g and 2g + 1, band n spans
    roots 2n - 1 and 2n, and k = 0 is the lower edge of an odd band, so band n's
    k = 0 edge is root 2n - n mod 2.  After the polish one expansion is built,
    about each band's k = 0 edge (rows 0 to n_bands - 1) and then about every
    root (rows n_bands on): the structure's expansion.  Its root rows at
    delta = 0 give every factor and slope at every root, for _gap_velocity's
    velocity beside each gap.  Last, each k = 0 edge is polished as the root
    delta0 of its own odd factor's expansion about it (two Newton steps from 0,
    all edges at once, the first from the edge's root row, the second on its
    edge row).  A band's values do not depend on n_bands.
    """
    if not (_is_index(n_bands) and n_bands >= 1):
        raise ValueError(f"n_bands must be an integer >= 1, got {n_bands!r}")
    if spec.l_b == 0.0 or spec.eps_rel_a == spec.eps_rel_b:
        return BandStructure(spec, n_bands, None, None, None)
    a, b, _ = _coeffs(spec)
    if 0.5 * max(a, b) / SCAN_POINTS_PER_UNIT > _SCAN_STEP_LIMIT * math.pi:
        raise InsufficientScanError(
            f"a layer's optical thickness l sqrt(eps_rel) exceeds "
            f"{_SCAN_STEP_LIMIT * SCAN_POINTS_PER_UNIT:g} periods: the band-edge scan "
            f"({SCAN_POINTS_PER_UNIT} points per unit of dimensionless frequency) "
            "cannot resolve its band edges"
        )
    x = math.sqrt(spec.eps_rel_b / spec.eps_rel_a)
    need = 2 * n_bands    # scanned roots up to the top of gap n_bands
    found = sum(int(_phase(a, b, y, _SCAN_CEILING)[0] // (0.5 * math.pi)) for y in (x, 1.0 / x))
    if found < need:
        raise InsufficientScanError(
            f"no band edge below dimensionless frequency {_SCAN_CEILING:g} "
            f"beyond the first {found}; band {n_bands} needs {need}"
        )
    # root m = 1 .. n_bands of the pair y = x, then of y = 1/x, at Theta_y = m pi / 2
    m = np.tile(np.arange(1, n_bands + 1), 2)
    y = np.repeat([x, 1.0 / x], n_bands)
    own = np.repeat([0, 1], n_bands) + 2 * (1 - m % 2)    # f0 or f1 at odd m, f2 or f3 at even
    level = 0.5 * math.pi * m
    tau = 4.0 * np.finfo(float).eps * (level + 8.0)    # Theta's rounding (_phase)
    target = np.array([level - tau, level + tau])    # the window's two ends, as rows
    start, neg, pos = 2.0 / (a + b) * (target + np.array([0.0, -math.pi, math.pi])[:, None, None])
    ends = _bracketed_newton(lambda w: _phase(a, b, y, w, target), start, neg, pos, 0.0)
    first, last = np.floor(ends * SCAN_POINTS_PER_UNIT).astype(int)    # the grid points just below
    lo = np.maximum(first - 1, 0)
    size = last + 3 - lo    # the window's points, and one more on each side
    window = np.repeat(np.arange(need), size)
    j = np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)    # grid index
    unit = j // SCAN_POINTS_PER_UNIT
    w = (j - unit * SCAN_POINTS_PER_UNIT) * (1.0 / SCAN_POINTS_PER_UNIT) + unit
    ha, hb = 0.5 * a * w, 0.5 * b * w
    values = np.choose(own[window], _factors(np.sin(ha), np.cos(ha), np.sin(hb), np.cos(hb), x))
    negative = np.signbit(values)    # an exact 0.0 joins one side, so each root counts once
    k = np.flatnonzero((negative[:-1] != negative[1:]) & (window[:-1] == window[1:]))
    missed = np.flatnonzero(np.bincount(window[k], minlength=need) == 0)
    if missed.size:
        raise InsufficientScanError(
            f"the band-edge scan finds no sign change of factor {own[missed[0]]} near "
            f"w = {lo[missed[0]] / SCAN_POINTS_PER_UNIT:.6g}, where its phase places a root")
    k = k[np.unique(4 * j[k] + own[window[k]], return_index=True)[1]]    # windows may overlap
    w_0, f_0, w_1, f_1, factor = w[k], values[k], w[k + 1], values[k + 1], own[window[k]]

    def factor_at(w, which):    # (value, slope in w) of factor which[i] at w[i]
        terms = _edge_terms(a, b, x, w)[np.arange(w.size), :, which]
        # the expansion at delta = 0, bit for bit: its sum starts from int 0,
        # which the + 0.0 repeats (-0.0 reads 0.0)
        return terms[:, 0] + 0.0, 0.5 * a * terms[:, 1] + 0.5 * b * terms[:, 2] + 0.0

    first_negative = np.signbit(f_0)
    roots = _bracketed_newton(lambda w: factor_at(w, factor),
                              w_0 + f_0 / (f_0 - f_1) * (w_1 - w_0),
                              np.where(first_negative, w_0, w_1),
                              np.where(first_negative, w_1, w_0), 0.0)
    order = np.lexsort((factor, roots))[:need]    # by root, then factor
    w_edge = np.concatenate(([0.0, 0.0], roots[order]))
    each = np.arange(n_bands)
    root = 2 * each + 1 + each % 2    # band n = each + 1's k = 0 edge: root 2n - n mod 2
    expansion = _edge_expansion(a, b, x, np.concatenate((w_edge[root], w_edge)))
    f, df = expansion(0.0, slice(n_bands, None))    # every factor at every root
    slope = df[np.arange(w_edge.size), np.concatenate(([2, 3], factor[order]))]
    points = list(zip(w_edge.tolist(), slope.tolist()))
    v = [_gap_velocity(points[2 * g], points[2 * g + 1]) for g in range(n_bands + 1)]
    ends = [((points[2 * n - 1][0], v[n - 1]), (points[2 * n][0], v[n]))
            for n in range(1, n_bands + 1)]
    edges = np.array([lo + hi if n % 2 == 1 else hi + lo
                      for n, (lo, hi) in enumerate(ends, start=1)])
    f, df = f[root], df[root]
    i = np.where(np.abs(f[:, 3]) < np.abs(f[:, 2]), 3, 2)    # each edge's factor
    delta0 = -f[each, i] / df[each, i]
    f, df = expansion(delta0, each)
    return BandStructure(spec, n_bands, edges, delta0 - f[each, i] / df[each, i], expansion)


def band_frequencies(structure: BandStructure, k: float) -> np.ndarray:
    """Angular frequencies (rad/s) of the structure's bands at wavenumber k.

    k must lie in the reduced zone [0, pi/Lambda].  Frequencies are strictly
    increasing with band index; band 1 at k = 0 is the origin omega = 0.
    """
    q = np.array([_reduced_q(structure.spec, k)])
    w = _bands(structure, range(1, structure.n_bands + 1), q)[0][:, 0]
    return w * (2.0 * math.pi * CODATA.c / structure.spec.period)


def sample_bands(structure: BandStructure, bands,
                 n_samples: int = 121) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k [1/m], omega [rad/s], v_g [m/s]) of the given bands across the reduced zone.

    bands is a sequence of the structure's band indices.  k has shape
    (n_samples,), omega and v_g (len(bands), n_samples); every band is
    solved in the same batch.  v_g is |d omega / d k|; at a band edge it is
    the limit beside its gap: zero when the gap is open, c pi / sqrt(F'G')
    when it is closed.
    """
    if not (_is_index(n_samples) and n_samples >= 2 and len(bands) > 0
            and all(_is_index(n) for n in bands)
            and 1 <= min(bands) <= max(bands) <= structure.n_bands):
        raise ValueError(f"band indices must lie in [1, {structure.n_bands}] and n_samples >= 2")
    lam = structure.spec.period
    q = np.linspace(0.0, math.pi, n_samples)
    w, vg = _bands(structure, bands, q)
    return q / lam, w * (2.0 * math.pi * CODATA.c / lam), vg


def solve_band(spec: CrystalSpec, band_index: int,
               n_samples: int = 121) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k [1/m], omega [rad/s], v_g [m/s]) of one band, as :func:`sample_bands`
    gives them for that band alone; omega[0] and omega[-1] are its edges."""
    k, omega, vg = sample_bands(scan_bands(spec, band_index), [band_index], n_samples)
    return k, omega[0], vg[0]


def _edge_terms(a: float, b: float, x: float, w0) -> np.ndarray:
    """f, df/dA, df/dB and d2f/dAdB of the four edge factors at each of the
    edges w0, shape (edges, 4 terms, 4 factors): the coefficients of
    _edge_expansion."""
    sa, ca = np.sin(0.5 * a * w0), np.cos(0.5 * a * w0)
    sb, cb = np.sin(0.5 * b * w0), np.cos(0.5 * b * w0)
    # (sA, cA) -> (cA, -sA) and (sB, cB) -> (cB, -sB) for each derivative
    return np.array(_factors(np.array([sa, ca, sa, ca]), np.array([ca, -sa, ca, -sa]),
                             np.array([sb, sb, cb, cb]), np.array([cb, cb, -sb, -sb]),
                             x)).transpose(2, 1, 0)


def _edge_expansion(a: float, b: float, x: float, w0):
    """(edge, delta) -> (the four edge factors at w0[edge] + delta, their slopes in delta).

    w0 is an array of edges.  Each factor is bilinear in (sin A, cos A) and
    (sin B, cos B), so angle addition with u = a delta / 2, v = b delta / 2
    gives f(w0 + delta) = cu cv f + su cv f_A + cu sv f_B + su sv f_AB, where
    the terms are taken once at each edge (_edge_terms).  On the factor that
    vanishes at w0 every term is O(delta) or the polished residual f(w0), so
    it keeps its relative precision at a delta far below one ulp of w0.
    delta may be a float or an array, and edge an index, a slice, or an index
    array that broadcasts with it, so each delta takes its own edge's
    coefficients; the factors run along the last axis.  With curvature=True
    the second derivatives in delta follow as a third item.
    """
    ha, hb = 0.5 * a, 0.5 * b
    coeffs = _edge_terms(a, b, x, w0)

    def at(delta, edge, curvature=False):
        su, cu = np.sin(ha * delta), np.cos(ha * delta)
        sv, cv = np.sin(hb * delta), np.cos(hb * delta)
        rows = [(cu * cv, su * cv, cu * sv, su * sv),
                (-ha * su * cv - hb * cu * sv, ha * cu * cv - hb * su * sv,
                 hb * cu * cv - ha * su * sv, ha * cu * sv + hb * su * cv)]
        if curvature:
            square, cross = ha * ha + hb * hb, 2.0 * ha * hb
            rows.append((cross * su * sv - square * cu * cv, -cross * cu * sv - square * su * cv,
                         -cross * su * cv - square * cu * sv, cross * cu * cv - square * su * sv))
        k = coeffs[edge]
        return tuple(sum(t[..., None] * k[..., j, :] for j, t in enumerate(row)) for row in rows)

    return at


def _product(f, df, d2f=None) -> tuple:
    """(P, P', P'') of P = f2 f3 by the product rule, from the four factors
    (f, f', f'') along their first axis, so one row of them is four floats;
    P'' only when d2f is given."""
    f2, f3, df2, df3 = f[2], f[3], df[2], df[3]
    p, dp = f2 * f3, df2 * f3 + f2 * df3
    if d2f is None:
        return p, dp
    return p, dp, d2f[2] * f3 + 2.0 * df2 * df3 + f2 * d2f[3]


def _offset_velocity(expansion, delta, edge):
    """(v_g / c, P, dP/d delta) at offset delta from edge, with P = f2 f3 = sin^2(q/2).

    1 - P = f0 f1 on the same expansion, and dq/dw = |dP/dw| / sqrt(P (1 - P))
    gives v_g / c = 2 pi sqrt(P (1 - P)) / |dP/d delta|.  Where that slope is
    0 the velocity is undefined and reads nan; _check_slope refuses it.
    """
    f, df = (u.T for u in expansion(delta, edge))    # factors first, the other axes reversed
    p, dp = _product(f, df)
    slope = np.where(dp != 0.0, np.abs(dp), np.nan)
    v = 2.0 * math.pi * np.sqrt(np.maximum(p * f[0] * f[1], 0.0)) / slope
    return v.T, p.T, dp.T


def _bracketed_newton(residual, x, neg, pos, anchor) -> np.ndarray:
    """Roots of residual, one in each bracket between neg and pos, all solved at once.

    residual(x) gives (value, slope) at every root of the array x, of any
    shape; neg, pos and anchor broadcast with it.  Each value has its sign
    bit set at its neg end and clear at its pos end, and x starts inside.  A
    root takes Newton steps; a step off a zero slope, or one that leaves its
    bracket (tested inclusively), bisects instead.  It stops, keeping its
    value whatever else is solved with it, once its step is <= _STEP_TOL
    |x - anchor| or it lands on a bracket end (near a flat extremum Newton
    would cycle between two ends one ulp apart).  A stopped root is still
    evaluated with the rest, and its step discarded.
    """
    x = np.asarray(x, dtype=float)
    live = np.ones(x.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        f, df = residual(x)
        below = np.signbit(f)
        neg, pos = np.where(below, x, neg), np.where(below, pos, x)
        sloped = df != 0.0
        step = x - f / np.where(sloped, df, 1.0)
        inside = sloped & (np.minimum(neg, pos) <= step) & (step <= np.maximum(neg, pos))
        new = np.where(inside, step, 0.5 * (neg + pos))
        done = ((np.abs(new - x) <= _STEP_TOL * np.abs(new - anchor))
                | (new == neg) | (new == pos))
        x = np.where(live, new, x)
        live &= ~done
        if not live.any():
            return x
    raise RuntimeError(f"roots did not converge in {_MAX_STEPS} steps")


def _solve_offsets(structure: BandStructure, edge, delta_pi, q: np.ndarray) -> np.ndarray:
    """Offsets where P(delta) = sin^2(q/2), one row per band: edge and delta_pi are columns.

    P rises from 0 at the edge's delta0 to 1 at its delta_pi.  Each q starts
    a share q/pi of the way, bracketed by delta0 and a point just past the
    scanned edge delta_pi; the (band, q) grid is one solve.
    """
    targets = np.sin(0.5 * q) ** 2
    d0 = structure.delta0[edge]
    start = d0 + (delta_pi - d0) * q / math.pi

    def residual(delta):
        p, dp = _product(*(u.T for u in structure.expansion(delta, edge)))
        return p.T - targets, dp.T

    return _bracketed_newton(residual, start, d0, delta_pi + 1e-9 * (delta_pi - d0), d0)


def _check_slope(spec: CrystalSpec, dp, bands) -> None:
    """Raise DegeneratePointError where |dRHS/dw| = 2 |dP/d delta| vanishes (or is nan).

    dp holds one row per band of bands; the lowest failing band is named.
    """
    a, b, _ = _coeffs(spec)
    sloped = np.reshape(2.0 * np.abs(dp) >= _DEGENERACY_FLOOR * (a + b), (len(bands), -1))
    failed = ~sloped.all(axis=1)
    if failed.any():
        raise DegeneratePointError(f"dRHS/domega ~ 0 on band {bands[np.argmax(failed)]}: "
                                   "touching bands, group velocity undefined by implicit "
                                   "differentiation")


def tune_to_group_velocity(structure: BandStructure, band_index: int,
                           target_vg: float) -> TuningReport:
    """Smallest k in the band where v_g reaches target_vg, with the frequency shift.

    The shift is measured from the k = 0 band edge, whose frequency is also
    reported as nu_s.  Targets above the band's maximum group velocity raise
    UnachievableTargetError.

    One edge rule serves both kinds of crystal: (w0, v_g0) is read at q = 0
    (_bands), and a target within 1e-12 (relative) of v_g0, or on a gapped
    band at most v_g0, is the edge itself: k* = 0 and delta_omega = 0, bit
    for bit.  So is target_vg = 0 on a band beside an open gap.  A gapless
    crystal has one velocity and refuses every other target.

    A slow-light shift is ~1e-13 of the edge frequency, so no two band
    frequencies are subtracted: in the offset from the k = 0 edge, on the
    structure's expansion about it, v_g is scanned on a 2048-point geometric
    grid.  In the first step that reaches the target, delta* is the root of
    G = 4 pi^2 P Q - (v/c)^2 P'^2 with Q = 1 - P = f0 f1, which is negative
    at the near end and whose slope is P' (4 pi^2 (Q - P) - 2 (v/c)^2 P'')
    (_bracketed_newton).  delta_omega = |delta* - delta0| 2 pi c / Lambda and
    Lambda k* = 2 asin sqrt(P(delta*)).
    """
    c = CODATA.c
    if not target_vg >= 0:
        raise ValueError(f"target_vg must be >= 0, got {target_vg}")
    if not (_is_index(band_index) and 1 <= band_index <= structure.n_bands):
        raise ValueError(f"band_index must lie in [1, {structure.n_bands}], got {band_index}")
    spec, edge, expansion = structure.spec, band_index - 1, structure.expansion
    lam = spec.period
    scale, ratio = 2.0 * math.pi * c / lam, target_vg / c
    (w0, w_far), (vg0, _) = (u[0].tolist() for u in
                             _bands(structure, [band_index], np.array([0.0, math.pi])))
    # the edge itself: the target is its velocity, or on a gapped band at
    # most that (target 0 at an open gap; band 1 starts at c / sqrt(<eps>))
    at_edge = (math.isclose(target_vg, vg0, rel_tol=1e-12)
               or (expansion is not None and vg0 >= target_vg))
    if not (at_edge or expansion is not None):
        raise UnachievableTargetError(
            f"gapless crystal has constant group velocity {vg0:.6g} m/s; "
            f"target {target_vg:.6g} m/s is unreachable"
        )
    p = shift = 0.0
    if not at_edge:
        delta0 = structure.delta0[edge]
        deltas = delta0 + (w_far - w0 - delta0) * _TUNING_GRID
        vs = _offset_velocity(expansion, deltas, edge)[0]
        hit = np.flatnonzero(vs >= ratio)
        if hit.size == 0:
            raise UnachievableTargetError(
                f"target v_g = {target_vg:.6g} m/s exceeds band {band_index}'s maximum "
                f"(~{np.max(vs) * c:.6g} m/s)"
            )
        j = hit[0]
        near, v_near = (delta0, vg0 / c) if j == 0 else (deltas[j - 1], vs[j - 1])

        def gap(delta):    # one root: a row of four factors at a 0-d delta
            f, df, d2f = expansion(delta, edge, curvature=True)
            p, dp, d2p = _product(f, df, d2f)
            q = f[0] * f[1]
            return (4.0 * math.pi ** 2 * p * q - ratio ** 2 * dp ** 2,
                    dp * (4.0 * math.pi ** 2 * (q - p) - 2.0 * ratio ** 2 * d2p))

        start = near + (ratio**2 - v_near**2) / (vs[j]**2 - v_near**2) * (deltas[j] - near)
        delta = _bracketed_newton(gap, start, near, deltas[j], delta0)
        _, p, dp = _offset_velocity(expansion, delta, edge)
        _check_slope(spec, dp, [band_index])
        shift = float(abs(delta - delta0))
        # offsets next to delta0 are spaced, and the factors' residual at w0
        # (~ f' delta0) rounded, at eps |delta0|: the shift's relative error
        if not (p > 0.0 and np.finfo(float).eps * abs(delta0) <= _SHIFT_RTOL * shift):
            raise UnachievableTargetError(
                f"target v_g = {target_vg:.6g} m/s is too slow to resolve on band {band_index}: "
                f"its shift from the edge is not known to {_SHIFT_RTOL:g} in float64"
            )
    delta_omega = shift * scale
    return TuningReport(target_vg_over_c=ratio,
                        k_star=2.0 * math.asin(math.sqrt(p)) / lam,
                        delta_omega=delta_omega,
                        delta_nu=delta_omega / (2.0 * math.pi),
                        nu_s=w0 * scale / (2.0 * math.pi))
