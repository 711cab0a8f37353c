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

Bands are the omega ranges with |RHS| <= 1.  Internally everything is
dimensionless (w = omega Lambda / (2 pi c), q = k Lambda); the public
functions take and return SI quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import brentq

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
_MAX_DOUBLINGS = 3            # automatic rescans on a missed boundary pair
_DEGENERACY_FLOOR = 1e-10     # |dRHS/dw| below floor * (a + b) counts as degenerate


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


def _rhs(spec: CrystalSpec, w):
    a, b, eta = _coeffs(spec)
    return np.cos(a * w) * np.cos(b * w) - eta * np.sin(a * w) * np.sin(b * w)


def _rhs_prime(spec: CrystalSpec, w):
    a, b, eta = _coeffs(spec)
    sa, ca = np.sin(a * w), np.cos(a * w)
    sb, cb = np.sin(b * w), np.cos(b * w)
    return -(a * sa * cb + b * ca * sb) - eta * (a * ca * sb + b * sa * cb)


def _is_degenerate(spec: CrystalSpec) -> bool:
    # single effective medium: no gaps, bands touch at the zone edges
    return spec.l_b == 0.0 or spec.eps_rel_a == spec.eps_rel_b


def _band(spec: CrystalSpec, band_index: int):
    """q -> (w, v_g [m/s]) along one band, q = Lambda k in [0, pi].

    A gapless stack is one medium of optical thickness s = (l_a n_a + l_b n_b)
    / Lambda, its bands folded at the zone edges: band n spans w in
    [(n - 1)/(2s), n/(2s)] and v_g = c/s.  On a gapped band w is the root in
    the band's interval and v_g comes from implicit differentiation of the
    residual, v_g / c = 2 pi |sin q| / |RHS'(w)|; the band edges return the
    one-sided limit.  Raises DegeneratePointError when dRHS/dw vanishes at
    the solution, which happens only when bands touch.
    """
    if _is_degenerate(spec):
        s = (spec.l_a * math.sqrt(spec.eps_rel_a)
             + spec.l_b * math.sqrt(spec.eps_rel_b)) / spec.period
        n = band_index

        def gapless(q: float) -> tuple[float, float]:
            w = ((n - 1) * math.pi + q if n % 2 == 1 else n * math.pi - q) / (2.0 * math.pi * s)
            return w, CODATA.c / s

        return gapless

    iv = _intervals(spec, band_index)[band_index - 1]
    a, b, _ = _coeffs(spec)
    floor = _DEGENERACY_FLOOR * (a + b)

    def gapped(q: float) -> tuple[float, float]:
        w = _band_root(spec, iv, q)
        c_q = math.cos(q)
        if band_index == 1 and c_q == 1.0:
            # sin(q)/RHS' is 0/0 at the origin (and below float resolution of
            # cos the root snaps to w = 0); the limit is the velocity of the
            # volume-averaged-permittivity medium, c/sqrt(<eps>)
            eps_mean = (spec.l_a * spec.eps_rel_a + spec.l_b * spec.eps_rel_b) / spec.period
            return w, CODATA.c / math.sqrt(eps_mean)
        if abs(c_q) == 1.0:
            return w, 0.0    # gapped zone edge: the one-sided limit, exactly
        rp = abs(float(_rhs_prime(spec, w)))
        if rp < floor:
            raise DegeneratePointError(
                f"dRHS/domega ~ 0 at band {band_index}, Lambda*k = {q:.6g}: "
                "touching bands, group velocity undefined by implicit differentiation"
            )
        return w, CODATA.c * 2.0 * math.pi * abs(math.sin(q)) / rp

    return gapped


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
    return float(math.cos(spec.period * k) - _rhs(spec, w))


def _band_intervals(spec: CrystalSpec, n_bands: int, points_per_unit: int) -> list[tuple[float, float]]:
    """First n_bands dimensionless intervals where |RHS| <= 1.

    Boundaries are roots of RHS = +1 or RHS = -1; starting from the w = 0
    boundary the types must follow the pattern +, --, ++, --, ... (each gap
    is entered and left through the same value of cos(Lambda k)).  A missed
    root pair breaks the pattern and raises InsufficientScanError.
    """
    need = 2 * n_bands
    boundaries: list[tuple[float, int]] = [(0.0, +1)]
    w_hi = 0.0
    chunk = 1.0
    while len(boundaries) < need:
        w_lo, w_hi = w_hi, w_hi + chunk
        if w_lo > _SCAN_CEILING:
            raise InsufficientScanError(
                f"found only {len(boundaries)} band boundaries below "
                f"dimensionless frequency {_SCAN_CEILING}"
            )
        grid = np.linspace(w_lo, w_hi, int(chunk * points_per_unit) + 1)
        vals = _rhs(spec, grid)
        for sign in (+1, -1):
            g = vals - sign
            idx = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
            for i in idx:
                root = brentq(lambda w: float(_rhs(spec, w)) - sign,
                              grid[i], grid[i + 1], rtol=1e-14, maxiter=200)
                boundaries.append((float(root), sign))
        boundaries.sort()

    expected = lambda i: +1 if i == 0 or ((i - 1) // 2) % 2 == 1 else -1
    for i, (_, sign) in enumerate(boundaries[:need]):
        if sign != expected(i):
            raise InsufficientScanError(
                "band-boundary pattern broken (a narrow gap fell between scan "
                "points); rescan at higher resolution"
            )
    pts = [w for w, _ in boundaries[:need]]
    return [(pts[2 * n], pts[2 * n + 1]) for n in range(n_bands)]


def _intervals(spec: CrystalSpec, n_bands: int) -> list[tuple[float, float]]:
    for attempt in range(_MAX_DOUBLINGS):
        try:
            return _band_intervals(spec, n_bands, SCAN_POINTS_PER_UNIT << attempt)
        except InsufficientScanError:
            pass
    return _band_intervals(spec, n_bands, SCAN_POINTS_PER_UNIT << _MAX_DOUBLINGS)


def _band_root(spec: CrystalSpec, interval: tuple[float, float], q: float) -> float:
    """Dimensionless frequency of one band at dimensionless wavenumber q."""
    lo, hi = interval
    target = math.cos(q)
    g = lambda w: float(_rhs(spec, w)) - target
    # the zone edges coincide with the interval endpoints (RHS = +/-1 there)
    if target == 1.0:
        return lo if lo == 0.0 or abs(g(lo)) < abs(g(hi)) else hi
    if target == -1.0:
        return lo if abs(g(lo)) < abs(g(hi)) else hi
    pad = (hi - lo) * 1e-9
    lo_pad = lo - pad if lo > 0.0 else lo
    return float(brentq(g, lo_pad, hi + pad, rtol=1e-14, maxiter=200))


def band_frequencies(spec: CrystalSpec, k: float, n_bands: int) -> np.ndarray:
    """Angular frequencies (rad/s) of the lowest n_bands bands at wavenumber k.

    k must lie in the reduced zone [0, pi/Lambda].  Frequencies are strictly
    increasing with band index; band 1 at k = 0 is the origin omega = 0.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    q = _reduced_q(spec, k)
    if _is_degenerate(spec):
        ws = [_band(spec, n)(q)[0] for n in range(1, n_bands + 1)]
    else:
        ws = [_band_root(spec, iv, q) for iv in _intervals(spec, n_bands)]
    return np.array(ws) * (2.0 * math.pi * CODATA.c / spec.period)


def group_velocity(spec: CrystalSpec, band_index: int, k: float) -> float:
    """|d omega / d k| (m/s) by implicit differentiation of the residual.

    v_g / c = 2 pi |sin(Lambda k)| / |RHS'(w)| at the band's frequency; the
    band edges return the one-sided limit (zero for a gapped crystal).
    Raises DegeneratePointError when dRHS/dw vanishes at the solution, which
    happens only when bands touch.
    """
    if band_index < 1:
        raise ValueError("band_index must be >= 1")
    q = _reduced_q(spec, k)
    return _band(spec, band_index)(q)[1]


def solve_band(spec: CrystalSpec, band_index: int, n_samples: int = 121) -> BandSolution:
    """Sample one band across the reduced zone, with edges and velocities."""
    if band_index < 1 or n_samples < 2:
        raise ValueError("band_index must be >= 1 and n_samples >= 2")
    lam = spec.period
    scale = 2.0 * math.pi * CODATA.c / lam
    point = _band(spec, band_index)
    samples = []
    for q in np.linspace(0.0, math.pi, n_samples):
        q = float(q)
        w, vg = point(q)
        samples.append((q / lam, w * scale, vg))
    edges = (samples[0][1], samples[-1][1])
    return BandSolution(band_index=band_index, samples=tuple(samples), edges=edges)


def tune_to_group_velocity(spec: CrystalSpec, band_index: int, target_vg: float) -> TuningReport:
    """Smallest k in the band where v_g reaches target_vg, with the frequency shift.

    The shift is measured from the k = 0 band edge, whose frequency is also
    reported as nu_s.  target_vg = 0 is the edge itself.  Targets above the
    band's maximum group velocity raise UnachievableTargetError.
    """
    c = CODATA.c
    if not target_vg >= 0:
        raise ValueError(f"target_vg must be >= 0, got {target_vg}")
    if band_index < 1:
        raise ValueError("band_index must be >= 1")
    lam = spec.period
    scale = 2.0 * math.pi * c / lam
    point = _band(spec, band_index)
    w0, vg0 = point(0.0)
    if _is_degenerate(spec):
        if math.isclose(target_vg, vg0, rel_tol=1e-12):
            return TuningReport(target_vg_over_c=target_vg / c, k_star=0.0,
                                delta_omega=0.0, delta_nu=0.0,
                                nu_s=w0 * scale / (2.0 * math.pi))
        raise UnachievableTargetError(
            f"gapless crystal has constant group velocity {vg0:.6g} m/s; "
            f"target {target_vg:.6g} m/s is unreachable"
        )
    edge0 = w0 * scale
    nu_s = edge0 / (2.0 * math.pi)
    if target_vg == 0.0:
        return TuningReport(target_vg_over_c=0.0, k_star=0.0, delta_omega=0.0,
                            delta_nu=0.0, nu_s=nu_s)
    if vg0 >= target_vg:
        # only band 1 can get here: its zone-center end is the static medium,
        # already at least as fast as the target
        return TuningReport(target_vg_over_c=target_vg / c, k_star=0.0,
                            delta_omega=0.0, delta_nu=0.0, nu_s=nu_s)

    # band 1's root solve is ill-conditioned below ~1e-5 of the zone (the
    # dispersion rounds onto the origin); every other band edge is clean
    q_first = 1e-5 * math.pi if band_index == 1 else 1e-8 * math.pi
    qs = np.geomspace(q_first, math.pi, 2048)
    prev_q = 0.0    # v_g(0) < target here, a valid left bracket
    for q in qs:
        v = point(float(q))[1]
        if v >= target_vg:
            q_star = brentq(lambda x: point(x)[1] - target_vg, prev_q,
                            float(q), rtol=1e-13, maxiter=200)
            omega_star = point(float(q_star))[0] * scale
            delta_omega = abs(omega_star - edge0)
            return TuningReport(target_vg_over_c=target_vg / c,
                                k_star=float(q_star) / lam,
                                delta_omega=delta_omega,
                                delta_nu=delta_omega / (2.0 * math.pi),
                                nu_s=nu_s)
        prev_q = float(q)
    vmax = max(point(float(q))[1] for q in np.linspace(0.05, math.pi - 0.05, 64))
    raise UnachievableTargetError(
        f"target v_g = {target_vg:.6g} m/s exceeds band {band_index}'s maximum "
        f"(~{vmax:.6g} m/s)"
    )
