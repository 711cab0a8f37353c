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
zeroth closed gap.  scan_bands finds the edges once and returns them as a
frozen BandStructure, with each k = 0 edge's factors expanded about it by
angle addition; sample_bands, band_frequencies and tune_to_group_velocity
read that value and never scan.  They work in the offset delta from the
k = 0 edge: P = f2 f3 = sin^2(q/2) is solved for all samples of all
requested bands at once, each on its own band's expansion, and
v_g = 2 pi c sqrt(P (1 - P)) / |dP/d delta|.
A slow-light shift of ~1e-13 of the edge frequency keeps its full relative
precision there.  Edges, samples and the tuning point are all roots of one
vectorised Newton-with-bisection solve (_bracketed_newton), on numpy
alone.  Internally everything is dimensionless
(w = omega Lambda / (2 pi c), q = k Lambda); the public functions take and
return SI quantities.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegeneratePointError, InsufficientScanError, UnachievableTargetError
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
    expansion(delta, edge) is _edge_expansion about the k = 0 edges, and
    delta0[n - 1] band n's edge as the root of its own odd factor's expansion.
    A gapless stack holds None for all three: its bands are exact.
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
        delta = _solve_offsets(structure, n[:, 0] - 1, (w_pi - w0)[:, 0], q[inside])
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
    permittivities) needs no scan.  Otherwise each edge factor is scanned for
    sign changes at SCAN_POINTS_PER_UNIT, one unit of w at a time, until the
    scan holds enough brackets.  A crystal whose faster half-angle
    max(a, b) w / 2 advances more than _SCAN_STEP_LIMIT pi per scan step is
    refused first: a layer of optical thickness above 1000 periods.  On 7000
    random crystals at 0.05 to 0.52 pi a step, a 4x finer scan found the same
    brackets on every one below 0.5 pi, and the first that differed lay just
    above it.  Every bracket starts at the linear interpolation of its two
    scan values, and all are polished at once (_bracketed_newton) on the
    factor and its slope in w, read from its expansion about w itself at
    delta = 0 (_edge_expansion).  With w = 0 prepended once per odd factor,
    the sorted roots alternate gap, band, gap, ...: gap g spans roots 2g and
    2g + 1, band n spans roots 2n - 1 and 2n, and k = 0 is the lower edge of
    an odd band.  One more call reads every edge's slope, from which
    _gap_velocity takes the velocity beside each gap.  Last, each k = 0 edge
    is polished as the root delta0 of its own odd factor's expansion about it
    (two Newton steps from 0, all edges at once).  A band's values do not
    depend on n_bands.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
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
    brackets = []         # per unit: (w, f(w)) at both scan points of each bracket, its factor
    found = 0
    w_hi = 0.0
    while found < need:
        w_lo, w_hi = w_hi, w_hi + 1.0
        if w_lo >= _SCAN_CEILING:
            raise InsufficientScanError(
                f"no band edge below dimensionless frequency {_SCAN_CEILING:g} "
                f"beyond the first {found}; band {n_bands} needs {need}"
            )
        grid = np.linspace(w_lo, w_hi, SCAN_POINTS_PER_UNIT + 1)
        ha, hb = 0.5 * a * grid, 0.5 * b * grid
        values = np.array(_factors(np.sin(ha), np.cos(ha), np.sin(hb), np.cos(hb), x))
        negative = np.signbit(values)    # an exact 0.0 joins one side, so each root counts once
        i, j = np.nonzero(negative[:, :-1] != negative[:, 1:])
        brackets.append((grid[j], values[i, j], grid[j + 1], values[i, j + 1], i))
        found += i.size
    w_0, f_0, w_1, f_1, factor = (np.concatenate(column) for column in zip(*brackets))

    def factor_at(w, which):    # (value, slope in w) of factor which[i] at w[i]
        f, df = _edge_expansion(a, b, x, w)(0.0, slice(None))
        each = np.arange(w.size)
        return f[each, which], df[each, which]

    first_negative = np.signbit(f_0)
    roots = _bracketed_newton(lambda w, todo: factor_at(w, factor[todo]),
                              w_0 + f_0 / (f_0 - f_1) * (w_1 - w_0),
                              np.where(first_negative, w_0, w_1),
                              np.where(first_negative, w_1, w_0), 0.0)
    order = np.lexsort((factor, roots))[:need]    # by root, then factor
    w_edge = np.concatenate(([0.0, 0.0], roots[order]))
    slope = factor_at(w_edge, np.concatenate(([2, 3], factor[order])))[1]
    points = list(zip(w_edge.tolist(), slope.tolist()))
    v = [_gap_velocity(points[2 * g], points[2 * g + 1]) for g in range(n_bands + 1)]
    ends = [((points[2 * n - 1][0], v[n - 1]), (points[2 * n][0], v[n]))
            for n in range(1, n_bands + 1)]
    edges = np.array([lo + hi if n % 2 == 1 else hi + lo
                      for n, (lo, hi) in enumerate(ends, start=1)])
    expansion = _edge_expansion(a, b, x, edges[:, 0])
    each = np.arange(n_bands)
    f, df = expansion(np.zeros(n_bands), each)
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
    if not (n_samples >= 2 and len(bands) > 0
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


def _edge_expansion(a: float, b: float, x: float, w0):
    """(edge, delta) -> (the four edge factors at w0[edge] + delta, their slopes in delta).

    w0 is an array of edges.  Each factor is bilinear in (sin A, cos A) and
    (sin B, cos B), so angle addition with u = a delta / 2, v = b delta / 2
    gives f(w0 + delta) = cu cv f + su cv f_A + cu sv f_B + su sv f_AB, where
    f, df/dA, df/dB and d2f/dAdB are taken once at each edge: coefficients of
    shape (edges, 4 terms, 4 factors).  On the factor that vanishes at w0
    every term is O(delta) or the polished residual f(w0), so it keeps its
    relative precision at a delta far below one ulp of w0.  delta may be a
    float or an array, and edge an index, a slice, or an index array that
    broadcasts with it, so each delta takes its own edge's coefficients; the
    factors run along the last axis.  With curvature=True the second
    derivatives in delta follow as a third item.
    """
    ha, hb = 0.5 * a, 0.5 * b
    sa, ca = np.sin(ha * w0), np.cos(ha * w0)
    sb, cb = np.sin(hb * w0), np.cos(hb * w0)
    # terms f, f_A, f_B, f_AB: (sA, cA) -> (cA, -sA) and (sB, cB) -> (cB, -sB)
    coeffs = np.array(_factors(np.array([sa, ca, sa, ca]), np.array([ca, -sa, ca, -sa]),
                               np.array([sb, sb, cb, cb]), np.array([cb, cb, -sb, -sb]),
                               x)).transpose(2, 1, 0)

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


def _offset_velocity(expansion, delta, edge):
    """(v_g / c, P, dP/d delta) at offset delta from edge, with P = f2 f3 = sin^2(q/2).

    1 - P = f0 f1 on the same expansion, and dq/dw = |dP/dw| / sqrt(P (1 - P))
    gives v_g / c = 2 pi sqrt(P (1 - P)) / |dP/d delta|.  Where that slope is
    0 the velocity is undefined and reads nan; _check_slope refuses it.
    """
    f, df = expansion(delta, edge)
    p = f[..., 2] * f[..., 3]
    dp = df[..., 2] * f[..., 3] + f[..., 2] * df[..., 3]
    slope = np.where(dp != 0.0, np.abs(dp), np.nan)
    v = 2.0 * math.pi * np.sqrt(np.maximum(p * f[..., 0] * f[..., 1], 0.0)) / slope
    return v, p, dp


def _bracketed_newton(residual, x, neg, pos, anchor) -> np.ndarray:
    """Roots of residual, one in each bracket between neg and pos, all solved at once.

    residual(x, todo) gives (value, slope) at the array x of the roots todo
    (indices into x).  Each value has its sign bit set at its neg end and
    clear at its pos end, and x starts inside.  A root takes Newton steps; a
    step off a zero slope, or one that leaves its bracket (tested
    inclusively), bisects instead.  It stops, keeping its value whatever else
    is solved with it, once its step is <= _STEP_TOL |x - anchor| or it lands
    on a bracket end (near a flat extremum Newton would cycle between two
    ends one ulp apart).  anchor is one value, or one per root.
    """
    x, neg, pos = (np.array(u, dtype=float) for u in (x, neg, pos))
    anchor = np.broadcast_to(anchor, x.shape)
    todo = np.arange(x.size)
    for _ in range(_MAX_STEPS):
        d = x[todo]
        f, df = residual(d, todo)
        below = np.signbit(f)
        neg[todo] = lo = np.where(below, d, neg[todo])
        pos[todo] = hi = np.where(below, pos[todo], d)
        sloped = df != 0.0
        step = d - f / np.where(sloped, df, 1.0)
        inside = sloped & (np.minimum(lo, hi) <= step) & (step <= np.maximum(lo, hi))
        x[todo] = new = np.where(inside, step, 0.5 * (lo + hi))
        done = ((np.abs(new - d) <= _STEP_TOL * np.abs(new - anchor[todo]))
                | (new == lo) | (new == hi))
        todo = todo[~done]
        if todo.size == 0:
            return x
    raise RuntimeError(f"roots did not converge in {_MAX_STEPS} steps")


def _solve_offsets(structure: BandStructure, edge, delta_pi, q: np.ndarray) -> np.ndarray:
    """Offsets, shape (edge.size, q.size), where P(delta) = sin^2(q/2) on each edge's band.

    P rises from 0 at the edge's delta0 to 1 at its delta_pi.  Each q starts
    a share q/pi of the way, bracketed by delta0 and a point just past the
    scanned edge delta_pi; every root is one of a single solve.
    """
    targets = np.sin(0.5 * q) ** 2
    d0, d_pi = structure.delta0[edge][:, None], delta_pi[:, None]
    start = d0 + (d_pi - d0) * q / math.pi

    def residual(delta, todo):
        f, df = structure.expansion(delta, edge[todo // q.size])
        return (f[..., 2] * f[..., 3] - targets[todo % q.size],
                df[..., 2] * f[..., 3] + f[..., 2] * df[..., 3])

    neg, pos = (np.broadcast_to(u, start.shape).ravel() for u in (d0, d_pi + 1e-9 * (d_pi - d0)))
    return _bracketed_newton(residual, start.ravel(), neg, pos, neg).reshape(start.shape)


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
    reported as nu_s.  target_vg = 0 is the edge itself.  Targets above the
    band's maximum group velocity raise UnachievableTargetError.

    A slow-light shift is ~1e-13 of the edge frequency, so no two band
    frequencies are subtracted: in the offset from the k = 0 edge, on the
    structure's expansion about it, v_g is scanned on a geometric grid.  In
    the first step that reaches the target, delta* is the root of
    G = 4 pi^2 P Q - (v/c)^2 P'^2 with Q = 1 - P = f0 f1, which is negative
    at the near end and whose slope is P' (4 pi^2 (Q - P) - 2 (v/c)^2 P'')
    (_bracketed_newton).  delta_omega = |delta* - delta0| 2 pi c / Lambda and
    Lambda k* = 2 asin sqrt(P(delta*)).
    """
    c = CODATA.c
    if not target_vg >= 0:
        raise ValueError(f"target_vg must be >= 0, got {target_vg}")
    if not 1 <= band_index <= structure.n_bands:
        raise ValueError(f"band_index must lie in [1, {structure.n_bands}], got {band_index}")
    spec, edge, expansion = structure.spec, band_index - 1, structure.expansion
    lam = spec.period
    scale = 2.0 * math.pi * c / lam
    if expansion is None:
        w0, vg0 = (float(u[0, 0]) for u in _bands(structure, [band_index], np.zeros(1)))
        if math.isclose(target_vg, vg0, rel_tol=1e-12):
            return TuningReport(target_vg_over_c=target_vg / c, k_star=0.0,
                                delta_omega=0.0, delta_nu=0.0,
                                nu_s=w0 * scale / (2.0 * math.pi))
        raise UnachievableTargetError(
            f"gapless crystal has constant group velocity {vg0:.6g} m/s; "
            f"target {target_vg:.6g} m/s is unreachable"
        )
    w0, vg0, w_far, _ = structure.edges[edge].tolist()
    nu_s = w0 * scale / (2.0 * math.pi)
    if vg0 >= target_vg:
        # the edge itself (target 0), or a k = 0 edge at a closed gap (band 1's
        # is the static medium at w = 0) that is already at least as fast
        return TuningReport(target_vg_over_c=target_vg / c, k_star=0.0,
                            delta_omega=0.0, delta_nu=0.0, nu_s=nu_s)

    delta0 = structure.delta0[edge]
    ratio = target_vg / c
    deltas = delta0 + (w_far - w0 - delta0) * np.geomspace(1e-16, 1.0, 2048)
    vs = _offset_velocity(expansion, deltas, edge)[0]
    hit = np.flatnonzero(vs >= ratio)
    if hit.size == 0:
        raise UnachievableTargetError(
            f"target v_g = {target_vg:.6g} m/s exceeds band {band_index}'s maximum "
            f"(~{np.max(vs) * c:.6g} m/s)"
        )
    j = hit[0]
    near, v_near = (delta0, vg0 / c) if j == 0 else (deltas[j - 1], vs[j - 1])

    def gap(delta, todo):    # one root, evaluated as a scalar: cheaper than a 1-element array
        f, df, d2f = expansion(delta[0], edge, curvature=True)
        p, q = f[2] * f[3], f[0] * f[1]
        dp = df[2] * f[3] + f[2] * df[3]
        d2p = d2f[2] * f[3] + 2.0 * df[2] * df[3] + f[2] * d2f[3]
        return (4.0 * math.pi ** 2 * p * q - ratio ** 2 * dp ** 2,
                dp * (4.0 * math.pi ** 2 * (q - p) - 2.0 * ratio ** 2 * d2p))

    start = near + (ratio**2 - v_near**2) / (vs[j]**2 - v_near**2) * (deltas[j] - near)
    delta = _bracketed_newton(gap, [start], [near], [deltas[j]], delta0)[0]
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
    return TuningReport(target_vg_over_c=target_vg / c,
                        k_star=2.0 * math.asin(math.sqrt(p)) / lam,
                        delta_omega=delta_omega,
                        delta_nu=delta_omega / (2.0 * math.pi),
                        nu_s=nu_s)
