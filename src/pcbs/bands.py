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
zeroth closed gap.  Band samples and group-velocity tuning both work in
the offset delta from the scanned k = 0 edge, on the factors expanded
about it by angle addition: P = f2 f3 = sin^2(q/2) is solved for all
samples of a band at once, and v_g = 2 pi c sqrt(P (1 - P)) / |dP/d delta|.
A slow-light shift of ~1e-13 of the edge frequency keeps its full relative
precision there.  Edges, samples and the tuning point are all roots of one
vectorised Newton-with-bisection solve (_bracketed_newton), on numpy
alone.  Internally everything is dimensionless
(w = omega Lambda / (2 pi c), q = k Lambda); the public functions take and
return SI quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegeneratePointError, InsufficientScanError, UnachievableTargetError
from .source import CODATA

__all__ = [
    "CrystalSpec",
    "BandSolution",
    "TuningReport",
    "dispersion_residual",
    "band_frequencies",
    "group_velocity",
    "solve_band",
    "tune_to_group_velocity",
    "SCAN_POINTS_PER_UNIT",
]

SCAN_POINTS_PER_UNIT = 4000   # omega-scan density per unit of omega*Lambda/(2 pi c)
_SCAN_CEILING = 64.0          # give up above this dimensionless frequency
_CLOSED_GAP = (4e-12, 2e-14)  # (abs, rel): a gap narrower than abs + rel * w is closed
_STEP_TOL = 1e-14             # a root is done when its step is <= this * |x - anchor|
_MAX_STEPS = 100              # Newton-or-bisection steps of a root solve
_SHIFT_RTOL = 1e-8            # a tuning shift rounded by more than this (relative) is refused
_DEGENERACY_FLOOR = 1e-10     # |dRHS/dw| below floor * (a + b) counts as degenerate


def brentq(*args, **kwargs):
    """Unused: no pcbs code calls this name, and a call raises.

    perfbench's tracer reads and rebinds ``pcbs.bands.brentq`` to count root
    solves, so the name stays bound, and that count reads 0.  ROADMAP item 4
    replaces the tracer's wrappers with stage spans and removes this name.
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
        if self.eps_rel_a < 1.0 or self.eps_rel_b < 1.0:
            raise ValueError("relative permittivities must be >= 1")
        if self.chi2_tilde < 0 or self.l_nl < 0:
            raise ValueError("chi2_tilde and l_nl must be non-negative")

    @property
    def period(self) -> float:
        return self.l_a + self.l_b


@dataclass(frozen=True)
class BandSolution:
    """Sampled dispersion of one band: (k [1/m], omega [rad/s], v_g [m/s])."""

    band_index: int
    samples: tuple[tuple[float, float, float], ...]
    edges: tuple[float, float]     # omega at k=0 and at k=pi/Lambda


@dataclass(frozen=True)
class TuningReport:
    """How far from the band edge the signal must sit to reach a target v_g."""

    target_vg_over_c: float
    k_star: float          # 1/m
    delta_omega: float     # rad/s, shift from the k=0 band edge
    delta_nu: float        # Hz, delta_omega / 2 pi
    nu_s: float            # Hz, edge frequency omega(k=0) / 2 pi


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


def _gap_velocity(a: float, b: float, x: float,
                  lower: tuple[float, int], upper: tuple[float, int]) -> float:
    """v_g [m/s] at either band edge beside the gap between two (w, factor) roots.

    The one closed-gap rule: the two roots agree to within _CLOSED_GAP.  An
    open gap stops the wave, v_g = 0.0 exactly.  Across a closed gap the two
    factors F, G give 1 -+ RHS ~ 2 F'G' dw^2 against 1 -+ cos q ~ dq^2 / 2,
    so dw/dq = 1 / (2 sqrt(F'G')) and v_g = c pi / sqrt(F'G').  F' and G'
    share a sign; taking their roots apart gives the origin's c / sqrt(<eps>)
    to the last bit on the default crystal.
    """
    (w_f, f), (w_g, g) = lower, upper
    if w_g - w_f > _CLOSED_GAP[0] + _CLOSED_GAP[1] * w_g:
        return 0.0
    f_slope, g_slope = (_edge_expansion(a, b, x, w)(0.0)[1][i] for w, i in (lower, upper))
    return CODATA.c * math.pi / math.sqrt(abs(f_slope)) / math.sqrt(abs(g_slope))


def _is_degenerate(spec: CrystalSpec) -> bool:
    # single effective medium: no gaps, bands touch at the zone edges
    return spec.l_b == 0.0 or spec.eps_rel_a == spec.eps_rel_b


def _band(spec: CrystalSpec, band_index: int, q, intervals=None) -> tuple[np.ndarray, np.ndarray]:
    """(w, v_g [m/s]) arrays along one band at the array q = Lambda k in [0, pi].

    A gapless stack is one medium of optical thickness s = (l_a n_a + l_b n_b)
    / Lambda folded at the zone edges: band n spans w in [(n - 1)/(2s),
    n/(2s)] and v_g = c/s.  On a gapped band cos q == +-1 gives the scanned
    edge and the velocity beside its gap (0.0 when open); every other q is
    solved in the offset from the k = 0 edge (_solve_offsets,
    _offset_velocity).  intervals is a _band_intervals scan covering the band.
    """
    if _is_degenerate(spec):
        s = (spec.l_a * math.sqrt(spec.eps_rel_a)
             + spec.l_b * math.sqrt(spec.eps_rel_b)) / spec.period
        n = band_index
        w = ((n - 1) * math.pi + q if n % 2 == 1 else n * math.pi - q) / (2.0 * math.pi * s)
        return w, np.full_like(q, CODATA.c / s)

    if intervals is None:
        intervals = _band_intervals(spec, band_index)
    w0, v0, w_pi, v_pi = intervals[band_index - 1]
    cos_q = np.cos(q)
    w = np.where(cos_q == 1.0, w0, w_pi)
    v = np.where(cos_q == 1.0, v0, v_pi)
    inside = np.abs(cos_q) != 1.0
    if inside.any():
        expansion, delta0 = _expanded_edge(spec, w0)
        delta = _solve_offsets(expansion, delta0, w_pi - w0, q[inside])
        v_inside, _, dp = _offset_velocity(expansion, delta)
        _check_slope(spec, dp, band_index)
        w[inside] = w0 + delta
        v[inside] = v_inside * CODATA.c
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
    if omega < 0:
        raise ValueError("omega must be >= 0")
    w = omega * spec.period / (2.0 * math.pi * CODATA.c)
    return math.cos(spec.period * k) - _rhs(*_coeffs(spec), w)


def _band_intervals(spec: CrystalSpec, n_bands: int) -> list[tuple[float, float, float, float]]:
    """(w, v_g at k = 0, w, v_g at k = pi/Lambda) of the first n_bands gapped bands.

    Each edge factor is scanned for sign changes at SCAN_POINTS_PER_UNIT, one
    unit of w at a time, until the scan holds enough brackets.  Every bracket
    starts at the linear interpolation of its two scan values, and all are
    polished at once (_bracketed_newton) on the factor's slope in w,
    (a/2) f[(sA, cA) -> (cA, -sA)] + (b/2) f[(sB, cB) -> (cB, -sB)].  With
    w = 0 prepended once per odd factor, the sorted roots alternate gap, band,
    gap, ...: gap g spans roots 2g and 2g + 1, band n spans roots 2n - 1 and
    2n, and k = 0 is the lower edge of an odd band.
    """
    a, b, _ = _coeffs(spec)
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

    def residual(w, todo):
        ha, hb = 0.5 * a * w, 0.5 * b * w
        sa, ca, sb, cb = np.sin(ha), np.cos(ha), np.sin(hb), np.cos(hb)
        # rows: the factors, and their (sA, cA) -> (cA, -sA) and (sB, cB) -> (cB, -sB) forms
        f = np.array(_factors(np.array([sa, ca, sa]), np.array([ca, -sa, ca]),
                              np.array([sb, sb, cb]), np.array([cb, cb, -sb]), x))
        f = f[factor[todo], :, np.arange(w.size)]
        return f[:, 0], 0.5 * a * f[:, 1] + 0.5 * b * f[:, 2]

    first_negative = np.signbit(f_0)
    roots = _bracketed_newton(residual, w_0 + f_0 / (f_0 - f_1) * (w_1 - w_0),
                              np.where(first_negative, w_0, w_1),
                              np.where(first_negative, w_1, w_0), 0.0)
    edges = [(0.0, 2), (0.0, 3)] + sorted(zip(roots.tolist(), factor.tolist()))[:need]
    v = [_gap_velocity(a, b, x, edges[2 * g], edges[2 * g + 1]) for g in range(n_bands + 1)]
    ends = [((edges[2 * n - 1][0], v[n - 1]), (edges[2 * n][0], v[n]))
            for n in range(1, n_bands + 1)]
    return [lo + hi if n % 2 == 1 else hi + lo for n, (lo, hi) in enumerate(ends, start=1)]


def band_frequencies(spec: CrystalSpec, k: float, n_bands: int) -> np.ndarray:
    """Angular frequencies (rad/s) of the lowest n_bands bands at wavenumber k.

    k must lie in the reduced zone [0, pi/Lambda].  Frequencies are strictly
    increasing with band index; band 1 at k = 0 is the origin omega = 0.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    q = np.array([_reduced_q(spec, k)])
    intervals = None if _is_degenerate(spec) else _band_intervals(spec, n_bands)
    ws = [_band(spec, n, q, intervals)[0][0] for n in range(1, n_bands + 1)]
    return np.array(ws) * (2.0 * math.pi * CODATA.c / spec.period)


def group_velocity(spec: CrystalSpec, band_index: int, k: float) -> float:
    """|d omega / d k| (m/s) at wavenumber k on one band.

    v_g / c = 2 pi sqrt(P (1 - P)) / |dP/d delta| with P = sin^2(Lambda k / 2)
    (_offset_velocity).  The band edges return the limit beside their gap:
    zero when it is open, c pi / sqrt(F'G') when it is closed.  Raises
    DegeneratePointError when dRHS/dw vanishes, which happens only when
    bands touch.
    """
    if band_index < 1:
        raise ValueError("band_index must be >= 1")
    q = np.array([_reduced_q(spec, k)])
    return float(_band(spec, band_index, q)[1][0])


def solve_band(spec: CrystalSpec, band_index: int, n_samples: int = 121, *,
               _intervals=None) -> BandSolution:
    """Sample one band across the reduced zone, with edges and velocities.

    _intervals is a _band_intervals scan covering the band, if the caller has one.
    """
    if band_index < 1 or n_samples < 2:
        raise ValueError("band_index must be >= 1 and n_samples >= 2")
    lam = spec.period
    q = np.linspace(0.0, math.pi, n_samples)
    w, vg = _band(spec, band_index, q, _intervals)
    samples = tuple(zip((q / lam).tolist(), (w * (2.0 * math.pi * CODATA.c / lam)).tolist(),
                        vg.tolist()))
    return BandSolution(band_index=band_index, samples=samples,
                        edges=(samples[0][1], samples[-1][1]))


def _edge_expansion(a: float, b: float, x: float, w0: float):
    """delta -> (the four edge factors at w0 + delta, their slopes in delta).

    Each factor is bilinear in (sin A, cos A) and (sin B, cos B), so angle
    addition with u = a delta / 2, v = b delta / 2 gives
    f(w0 + delta) = cu cv f + su cv f_A + cu sv f_B + su sv f_AB, where f,
    df/dA, df/dB and d2f/dAdB are taken once at w0.  On the factor that
    vanishes at w0 every term is O(delta) or the polished residual f(w0),
    so it keeps its relative precision at a delta far below one ulp of w0.
    delta may be a float or an array; the factors run along the last axis.
    With curvature=True the second derivatives in delta follow as a third item.
    """
    ha, hb = 0.5 * a, 0.5 * b
    sa, ca = math.sin(ha * w0), math.cos(ha * w0)
    sb, cb = math.sin(hb * w0), math.cos(hb * w0)
    coeffs = [np.array(_factors(*args, x)) for args in
              ((sa, ca, sb, cb), (ca, -sa, sb, cb), (sa, ca, cb, -sb), (ca, -sa, cb, -sb))]

    def at(delta, curvature=False):
        su, cu = np.sin(ha * delta), np.cos(ha * delta)
        sv, cv = np.sin(hb * delta), np.cos(hb * delta)
        rows = [(cu * cv, su * cv, cu * sv, su * sv),
                (-ha * su * cv - hb * cu * sv, ha * cu * cv - hb * su * sv,
                 hb * cu * cv - ha * su * sv, ha * cu * sv + hb * su * cv)]
        if curvature:
            square, cross = ha * ha + hb * hb, 2.0 * ha * hb
            rows.append((cross * su * sv - square * cu * cv, -cross * cu * sv - square * su * cv,
                         -cross * su * cv - square * cu * sv, cross * cu * cv - square * su * sv))
        return tuple(sum(np.multiply.outer(t, k) for t, k in zip(row, coeffs)) for row in rows)

    return at


def _offset_velocity(expansion, delta):
    """(v_g / c, P, dP/d delta) at offset delta, with P = f2 f3 = sin^2(q/2).

    1 - P = f0 f1 on the same expansion, and dq/dw = |dP/dw| / sqrt(P (1 - P))
    gives v_g / c = 2 pi sqrt(P (1 - P)) / |dP/d delta|.  Where that slope is
    0 the velocity is undefined and reads nan; _check_slope refuses it.
    """
    f, df = expansion(delta)
    p = f[..., 2] * f[..., 3]
    dp = df[..., 2] * f[..., 3] + f[..., 2] * df[..., 3]
    slope = np.where(dp != 0.0, np.abs(dp), np.nan)
    v = 2.0 * math.pi * np.sqrt(np.maximum(p * f[..., 0] * f[..., 1], 0.0)) / slope
    return v, p, dp


def _expanded_edge(spec: CrystalSpec, w0: float):
    """(expansion, delta0): the factors expanded about a scanned k = 0 edge w0,
    and the edge itself as the root delta0 of its own odd factor's expansion
    (two Newton steps from 0).
    """
    a, b, _ = _coeffs(spec)
    x = math.sqrt(spec.eps_rel_b / spec.eps_rel_a)
    expansion = _edge_expansion(a, b, x, w0)
    f, df = expansion(0.0)
    i = min((2, 3), key=lambda j: abs(f[j]))    # the edge's factor
    delta0 = -f[i] / df[i]
    f, df = expansion(delta0)
    return expansion, delta0 - f[i] / df[i]


def _bracketed_newton(residual, x, neg, pos, anchor: float) -> np.ndarray:
    """Roots of residual, one in each bracket between neg and pos, all solved at once.

    residual(x, todo) gives (value, slope) at the array x of the roots todo
    (indices into x).  Each value has its sign bit set at its neg end and
    clear at its pos end, and x starts inside.  A root takes Newton steps; a
    step off a zero slope, or one that leaves its bracket (tested
    inclusively), bisects instead.  It stops, keeping its value whatever else
    is solved with it, once its step is <= _STEP_TOL |x - anchor| or it lands
    on a bracket end (near a flat extremum Newton would cycle between two
    ends one ulp apart).
    """
    x, neg, pos = (np.array(u, dtype=float) for u in (x, neg, pos))
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
        done = (np.abs(new - d) <= _STEP_TOL * np.abs(new - anchor)) | (new == lo) | (new == hi)
        todo = todo[~done]
        if todo.size == 0:
            return x
    raise RuntimeError(f"roots did not converge in {_MAX_STEPS} steps")


def _solve_offsets(expansion, delta0: float, delta_pi: float, q: np.ndarray) -> np.ndarray:
    """Offsets where P(delta) = sin^2(q/2), P rising from 0 at delta0 to 1 at delta_pi.

    Each q starts a share q/pi of the way, bracketed by delta0 and a point
    just past the scanned edge delta_pi.
    """
    targets = np.sin(0.5 * q) ** 2

    def residual(delta, todo):
        f, df = expansion(delta)
        return (f[..., 2] * f[..., 3] - targets[todo],
                df[..., 2] * f[..., 3] + f[..., 2] * df[..., 3])

    return _bracketed_newton(residual, delta0 + (delta_pi - delta0) * q / math.pi,
                             np.full(q.shape, delta0),
                             np.full(q.shape, delta_pi + 1e-9 * (delta_pi - delta0)), delta0)


def _check_slope(spec: CrystalSpec, dp, band_index: int) -> None:
    """Raise DegeneratePointError where |dRHS/dw| = 2 |dP/d delta| vanishes (or is nan)."""
    a, b, _ = _coeffs(spec)
    if not np.all(2.0 * np.abs(dp) >= _DEGENERACY_FLOOR * (a + b)):
        raise DegeneratePointError(f"dRHS/domega ~ 0 on band {band_index}: touching bands, "
                                   "group velocity undefined by implicit differentiation")


def tune_to_group_velocity(spec: CrystalSpec, band_index: int, target_vg: float, *,
                           _intervals=None) -> TuningReport:
    """Smallest k in the band where v_g reaches target_vg, with the frequency shift.

    The shift is measured from the k = 0 band edge, whose frequency is also
    reported as nu_s.  target_vg = 0 is the edge itself.  Targets above the
    band's maximum group velocity raise UnachievableTargetError.

    A slow-light shift is ~1e-13 of the edge frequency, so no two band
    frequencies are subtracted: in the offset from the scanned k = 0 edge
    (_expanded_edge) v_g is scanned on a geometric grid.  In the first step
    that reaches the target, delta* is the root of
    G = 4 pi^2 P Q - (v/c)^2 P'^2 with Q = 1 - P = f0 f1, which is negative
    at the near end and whose slope is P' (4 pi^2 (Q - P) - 2 (v/c)^2 P'')
    (_bracketed_newton).  delta_omega = |delta* - delta0| 2 pi c / Lambda and
    Lambda k* = 2 asin sqrt(P(delta*)).  _intervals is a _band_intervals scan
    covering the band.
    """
    c = CODATA.c
    if not target_vg >= 0:
        raise ValueError(f"target_vg must be >= 0, got {target_vg}")
    if band_index < 1:
        raise ValueError("band_index must be >= 1")
    lam = spec.period
    scale = 2.0 * math.pi * c / lam
    if _is_degenerate(spec):
        w0, vg0 = (float(u[0]) for u in _band(spec, band_index, np.zeros(1)))
        if math.isclose(target_vg, vg0, rel_tol=1e-12):
            return TuningReport(target_vg_over_c=target_vg / c, k_star=0.0,
                                delta_omega=0.0, delta_nu=0.0,
                                nu_s=w0 * scale / (2.0 * math.pi))
        raise UnachievableTargetError(
            f"gapless crystal has constant group velocity {vg0:.6g} m/s; "
            f"target {target_vg:.6g} m/s is unreachable"
        )
    if _intervals is None:
        _intervals = _band_intervals(spec, band_index)
    w0, vg0, w_far, _ = _intervals[band_index - 1]
    nu_s = w0 * scale / (2.0 * math.pi)
    if vg0 >= target_vg:
        # the edge itself (target 0), or a k = 0 edge at a closed gap (band 1's
        # is the static medium at w = 0) that is already at least as fast
        return TuningReport(target_vg_over_c=target_vg / c, k_star=0.0,
                            delta_omega=0.0, delta_nu=0.0, nu_s=nu_s)

    expansion, delta0 = _expanded_edge(spec, w0)
    ratio = target_vg / c
    deltas = delta0 + (w_far - w0 - delta0) * np.geomspace(1e-16, 1.0, 2048)
    vs = _offset_velocity(expansion, deltas)[0]
    hit = np.flatnonzero(vs >= ratio)
    if hit.size == 0:
        raise UnachievableTargetError(
            f"target v_g = {target_vg:.6g} m/s exceeds band {band_index}'s maximum "
            f"(~{np.max(vs) * c:.6g} m/s)"
        )
    j = hit[0]
    near, v_near = (delta0, vg0 / c) if j == 0 else (deltas[j - 1], vs[j - 1])

    def gap(delta, todo):    # one root, evaluated as a scalar: cheaper than a 1-element array
        f, df, d2f = expansion(delta[0], curvature=True)
        p, q = f[2] * f[3], f[0] * f[1]
        dp = df[2] * f[3] + f[2] * df[3]
        d2p = d2f[2] * f[3] + 2.0 * df[2] * df[3] + f[2] * d2f[3]
        return (4.0 * math.pi ** 2 * p * q - ratio ** 2 * dp ** 2,
                dp * (4.0 * math.pi ** 2 * (q - p) - 2.0 * ratio ** 2 * d2p))

    start = near + (ratio**2 - v_near**2) / (vs[j]**2 - v_near**2) * (deltas[j] - near)
    delta = _bracketed_newton(gap, [start], [near], [deltas[j]], delta0)[0]
    _, p, dp = _offset_velocity(expansion, delta)
    _check_slope(spec, dp, band_index)
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
