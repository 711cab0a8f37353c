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
precision there.  Internally everything is dimensionless
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
_TIGHT = {"xtol": 1e-300, "rtol": 4.0 * np.finfo(float).eps}   # brentq's tightest
_CLOSED_GAP = (4e-12, 2e-14)  # (abs, rel): a gap narrower than abs + rel * w is closed
_STEP_TOL = 1e-14             # a band sample is done when its step is <= this * |delta - delta0|
_MAX_STEPS = 100              # Newton-or-bisection steps of a band solve
_DEGENERACY_FLOOR = 1e-10     # |dRHS/dw| below floor * (a + b) counts as degenerate


def brentq(*args, **kwargs):
    """``scipy.optimize.brentq``, imported on the first call, which rebinds this name to it.

    Importing scipy.optimize takes about 0.4 s, which only the band
    solvers should pay.  The root finder stays the module global
    ``pcbs.bands.brentq``, which perfbench's tracer wraps to count calls.
    """
    global brentq
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


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


def _factor(w: float, a: float, b: float, x: float, i: int) -> float:
    ha, hb = 0.5 * a * w, 0.5 * b * w
    return _factors(math.sin(ha), math.cos(ha), math.sin(hb), math.cos(hb), x)[i]


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

    Each edge factor is scanned for sign changes at SCAN_POINTS_PER_UNIT and
    every change is polished with brentq at its tightest tolerance.  With
    w = 0 prepended once per odd factor, the sorted roots alternate gap, band,
    gap, ...: gap g spans roots 2g and 2g + 1, band n spans roots 2n - 1 and
    2n, and k = 0 is the lower edge of an odd band.
    """
    a, b, _ = _coeffs(spec)
    x = math.sqrt(spec.eps_rel_b / spec.eps_rel_a)
    need = 2 * n_bands    # scanned roots up to the top of gap n_bands
    roots: list[tuple[float, int]] = []
    w_hi = 0.0
    while len(roots) < need:
        w_lo, w_hi = w_hi, w_hi + 1.0
        if w_lo >= _SCAN_CEILING:
            raise InsufficientScanError(
                f"no band edge below dimensionless frequency {_SCAN_CEILING:g} "
                f"beyond the first {len(roots)}; band {n_bands} needs {need}"
            )
        grid = np.linspace(w_lo, w_hi, SCAN_POINTS_PER_UNIT + 1)
        ha, hb = 0.5 * a * grid, 0.5 * b * grid
        values = _factors(np.sin(ha), np.cos(ha), np.sin(hb), np.cos(hb), x)
        for i, f in enumerate(values):
            negative = np.signbit(f)    # an exact 0.0 joins one side, so each root counts once
            for j in np.nonzero(negative[:-1] != negative[1:])[0]:
                root = brentq(_factor, grid[j], grid[j + 1], args=(a, b, x, i),
                              maxiter=200, **_TIGHT)
                roots.append((float(root), i))
    roots.sort()
    edges = [(0.0, 2), (0.0, 3)] + roots[:need]
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
    """
    ha, hb = 0.5 * a, 0.5 * b
    sa, ca = math.sin(ha * w0), math.cos(ha * w0)
    sb, cb = math.sin(hb * w0), math.cos(hb * w0)
    coeffs = [np.array(_factors(*args, x)) for args in
              ((sa, ca, sb, cb), (ca, -sa, sb, cb), (sa, ca, cb, -sb), (ca, -sa, cb, -sb))]

    def at(delta):
        su, cu = np.sin(ha * delta), np.cos(ha * delta)
        sv, cv = np.sin(hb * delta), np.cos(hb * delta)
        terms = (cu * cv, su * cv, cu * sv, su * sv)
        slopes = (-ha * su * cv - hb * cu * sv, ha * cu * cv - hb * su * sv,
                  hb * cu * cv - ha * su * sv, ha * cu * sv + hb * su * cv)
        return (sum(np.multiply.outer(t, k) for t, k in zip(terms, coeffs)),
                sum(np.multiply.outer(t, k) for t, k in zip(slopes, coeffs)))

    return at


def _offset_velocity(expansion, delta):
    """(v_g / c, P, dP/d delta) at offset delta, with P = f2 f3 = sin^2(q/2).

    1 - P = f0 f1 on the same expansion, and dq/dw = |dP/dw| / sqrt(P (1 - P))
    gives v_g / c = 2 pi sqrt(P (1 - P)) / |dP/d delta|.
    """
    f, df = expansion(delta)
    p = f[..., 2] * f[..., 3]
    dp = df[..., 2] * f[..., 3] + f[..., 2] * df[..., 3]
    v = 2.0 * math.pi * np.sqrt(np.maximum(p * f[..., 0] * f[..., 1], 0.0)) / np.abs(dp)
    return v, p, dp


def _expanded_edge(spec: CrystalSpec, w0: float):
    """(expansion, delta0): the factors expanded about a scanned k = 0 edge w0,
    and the edge itself as the root delta0 of its own odd factor's expansion
    (two Newton steps from 0).
    """
    a, b, _ = _coeffs(spec)
    x = math.sqrt(spec.eps_rel_b / spec.eps_rel_a)
    i = min((2, 3), key=lambda j: abs(_factor(w0, a, b, x, j)))    # the edge's factor
    expansion = _edge_expansion(a, b, x, w0)
    delta0 = 0.0
    for _ in range(2):
        f, df = expansion(delta0)
        delta0 -= f[i] / df[i]
    return expansion, delta0


def _solve_offsets(expansion, delta0: float, delta_pi: float, q: np.ndarray) -> np.ndarray:
    """Offsets where P(delta) = sin^2(q/2), P rising from 0 at delta0 to 1 at delta_pi.

    Each q starts a share q/pi of the way and takes Newton steps inside its
    own bracket; a step that leaves it (tested inclusively) bisects instead.
    It stops, keeping its value whatever else is solved with it, once its
    step is <= _STEP_TOL |delta - delta0| or it lands on a bracket end (near
    a flat zone edge Newton would cycle between two ends one ulp of P apart).
    """
    targets = np.sin(0.5 * q) ** 2
    near = np.full(q.shape, delta0)
    far = np.full(q.shape, delta_pi + 1e-9 * (delta_pi - delta0))   # past the scanned edge
    delta = delta0 + (delta_pi - delta0) * q / math.pi
    todo = np.arange(q.size)
    for _ in range(_MAX_STEPS):
        d, t = delta[todo], targets[todo]
        _, p, dp = _offset_velocity(expansion, d)
        below = p < t
        near[todo] = lo = np.where(below, d, near[todo])
        far[todo] = hi = np.where(below, far[todo], d)
        step = d - (p - t) / dp
        inside = (np.minimum(lo, hi) <= step) & (step <= np.maximum(lo, hi))
        delta[todo] = new = np.where(inside, step, 0.5 * (lo + hi))
        done = (np.abs(new - d) <= _STEP_TOL * np.abs(new - delta0)) | (new == lo) | (new == hi)
        todo = todo[~done]
        if todo.size == 0:
            return delta
    raise RuntimeError(f"band offsets did not converge in {_MAX_STEPS} steps")


def _check_slope(spec: CrystalSpec, dp, band_index: int) -> None:
    """Raise DegeneratePointError where |dRHS/dw| = 2 |dP/d delta| vanishes."""
    a, b, _ = _coeffs(spec)
    if np.any(2.0 * np.abs(dp) < _DEGENERACY_FLOOR * (a + b)):
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
    (_expanded_edge) v_g is scanned on a geometric grid, one brentq gives
    delta*, delta_omega = |delta* - delta0| 2 pi c / Lambda and Lambda k* =
    2 asin sqrt(P(delta*)).  _intervals is a _band_intervals scan covering the band.
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
    delta = brentq(lambda d: _offset_velocity(expansion, d)[0] - ratio,
                   delta0 if j == 0 else deltas[j - 1], deltas[j], maxiter=200, **_TIGHT)
    _, p, dp = _offset_velocity(expansion, delta)
    _check_slope(spec, dp, band_index)
    delta_omega = float(abs(delta - delta0)) * scale
    return TuningReport(target_vg_over_c=target_vg / c,
                        k_star=2.0 * math.asin(math.sqrt(p)) / lam,
                        delta_omega=delta_omega,
                        delta_nu=delta_omega / (2.0 * math.pi),
                        nu_s=nu_s)
