import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbs.bands import (
    CrystalSpec,
    _band_intervals,
    band_frequencies,
    dispersion_residual,
    group_velocity,
    solve_band,
    tune_to_group_velocity,
)
from pcbs.errors import InsufficientScanError, UnachievableTargetError
from pcbs.source import CODATA

SPEC = CrystalSpec()
LAM = SPEC.period
SCALE = 2.0 * math.pi * CODATA.c / LAM   # rad/s per unit dimensionless frequency

# zone-center edges of bands 4 and 8 (dimensionless omega * Lambda / (2 pi c))
BAND4_EDGE_ZC = 1.1840200989104475
BAND4_EDGE_ZB = 0.9502546322323061
BAND8_EDGE_ZC = 2.408031012714462
BAND8_EDGE_ZB = 2.2086669290571783

# optical thicknesses 2:3, so gap 5 closes at w = 2.0, where both even factors vanish
CLOSED = CrystalSpec(eps_rel_b=2.25)


def test_crystal_spec_validation():
    with pytest.raises(ValueError):
        CrystalSpec(l_a=0.0)
    with pytest.raises(ValueError):
        CrystalSpec(l_b=-1e-9)
    with pytest.raises(ValueError):
        CrystalSpec(eps_rel_b=0.5)
    assert SPEC.period == pytest.approx(1.1e-6, rel=1e-15)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["l_a", "l_b", "eps_rel_a", "eps_rel_b", "chi2_tilde", "l_nl"])
def test_crystal_spec_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        CrystalSpec(**{field: value})


def test_residual_zero_at_origin():
    assert dispersion_residual(SPEC, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        dispersion_residual(SPEC, -1.0, 0.0)


def test_band_edges_frozen():
    w = band_frequencies(SPEC, 0.0, 8) / SCALE
    assert np.isclose(w[3], BAND4_EDGE_ZC, rtol=1e-12)
    assert np.isclose(w[7], BAND8_EDGE_ZC, rtol=1e-12)
    wpi = band_frequencies(SPEC, math.pi / LAM, 8) / SCALE
    assert np.isclose(wpi[3], BAND4_EDGE_ZB, rtol=1e-12)
    assert np.isclose(wpi[7], BAND8_EDGE_ZB, rtol=1e-12)
    assert np.all(np.diff(w) > 0) and np.all(np.diff(wpi) > 0)


def test_signal_wavelength_near_927nm():
    lam_s = 2.0 * math.pi * CODATA.c / (BAND4_EDGE_ZC * SCALE)
    assert abs(lam_s - 9.27e-7) / 9.27e-7 < 0.005


def test_doubled_signal_frequency_inside_band_8():
    # the pump at twice the band-4 zone-center frequency propagates in band 8
    w_pump = 2.0 * BAND4_EDGE_ZC
    assert BAND8_EDGE_ZB < w_pump < BAND8_EDGE_ZC
    assert np.isclose(w_pump, 2.368040197820895, rtol=1e-12)


def test_group_velocity_frozen_point():
    vg = group_velocity(SPEC, 4, 4.33e-3 / LAM)
    assert np.isclose(vg / CODATA.c, 0.0045892614283261695, rtol=1e-10)
    assert abs(vg / CODATA.c - 4.59e-3) / 4.59e-3 < 0.001


def test_group_velocity_zero_at_zone_center():
    assert group_velocity(SPEC, 4, 0.0) == 0.0


def test_band_one_origin_is_static_medium():
    # omega -> 0: velocity of the volume-averaged permittivity
    static = CODATA.c / math.sqrt(
        (SPEC.l_a * SPEC.eps_rel_a + SPEC.l_b * SPEC.eps_rel_b) / LAM)
    assert group_velocity(SPEC, 1, 0.0) == static
    assert np.isclose(group_velocity(SPEC, 1, 1e-4 / LAM), static, rtol=1e-8)
    sol = solve_band(SPEC, 1, n_samples=9)
    assert sol.samples[0][2] == static
    vgs = [s[2] for s in sol.samples]
    assert np.all(np.diff(vgs) < 0) and vgs[-1] == 0.0


def test_tune_band_one():
    rep = tune_to_group_velocity(SPEC, 1, 0.3 * CODATA.c)
    assert rep.k_star == 0.0     # zone center is already faster
    with pytest.raises(UnachievableTargetError):
        tune_to_group_velocity(SPEC, 1, 0.59 * CODATA.c)


def test_tune_deep_slow_light():
    rep = tune_to_group_velocity(SPEC, 4, 1e-6 * CODATA.c)
    assert np.isclose(group_velocity(SPEC, 4, rep.k_star) / CODATA.c, 1e-6, rtol=1e-9)


@pytest.mark.parametrize("band", [1, 2, 4, 8])
@pytest.mark.parametrize("q", [0.3, 1.0, 2.0, 3.0])
def test_group_velocity_matches_finite_differences(band, q):
    k = q / LAM
    h = 1e-6 * math.pi / LAM
    vg = group_velocity(SPEC, band, k)
    om = band_frequencies(SPEC, k + h, band)[band - 1], band_frequencies(SPEC, k - h, band)[band - 1]
    vg_fd = abs(om[0] - om[1]) / (2.0 * h)
    assert abs(vg - vg_fd) / vg_fd < 1e-6


def test_solve_band_samples_on_dispersion():
    sol = solve_band(SPEC, 4, n_samples=25)
    assert sol.band_index == 4
    assert len(sol.samples) == 25
    assert np.isclose(sol.edges[0] / SCALE, BAND4_EDGE_ZC, rtol=1e-12)
    assert np.isclose(sol.edges[1] / SCALE, BAND4_EDGE_ZB, rtol=1e-12)
    omegas = [s[1] for s in sol.samples]
    assert np.all(np.diff(omegas) < 0)          # band 4 bends downward
    for k, omega, _ in sol.samples:
        assert abs(dispersion_residual(SPEC, omega, k)) < 1e-9


@pytest.mark.parametrize("band", [1, 2, 4, 8])
@pytest.mark.parametrize("spec", [SPEC, CrystalSpec(eps_rel_b=12.25), CLOSED,
                                  CrystalSpec(eps_rel_a=4.0, eps_rel_b=4.0)],
                         ids=["default", "eps_b=12.25", "eps_b=2.25", "homogeneous"])
def test_solve_band_agrees_with_pointwise_functions(spec, band):
    # one frequency rule and one velocity rule serve all three entry points
    for k, omega, v_g in solve_band(spec, band, n_samples=25).samples:
        np.testing.assert_allclose(band_frequencies(spec, k, band)[band - 1], omega,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(group_velocity(spec, band, k), v_g, rtol=1e-13, atol=0.0)


def test_band_gap_has_no_solutions():
    # no (omega, k) root between band 4's upper and band 5's lower edge
    w5 = band_frequencies(SPEC, 0.0, 5)[4] / SCALE
    grid = np.linspace(BAND4_EDGE_ZC * 1.0001, w5 * 0.9999, 400) * SCALE
    for k in (0.0, math.pi / LAM):
        res = np.array([dispersion_residual(SPEC, w, k) for w in grid])
        assert np.all(res < 0.0) or np.all(res > 0.0)


def test_tune_frozen_report():
    rep = tune_to_group_velocity(SPEC, 4, 4.59e-3 * CODATA.c)
    assert np.isclose(rep.k_star * LAM, 0.004330696888961764, rtol=1e-8)
    assert np.isclose(rep.delta_nu, 431116939.70807433, rtol=1e-8)
    assert np.isclose(rep.nu_s, 322691177976151.0, rtol=1e-12)
    assert np.isclose(rep.delta_omega, 2.0 * math.pi * rep.delta_nu, rtol=1e-12)
    assert rep.target_vg_over_c == 4.59e-3
    # shift from the edge is a ppm-scale detuning
    assert 1e-7 < rep.delta_nu / rep.nu_s < 1e-5


@pytest.mark.parametrize("eps_rel_b, band, vg_over_c", [
    (4.9284, 4, 1e-3),
    (4.9284, 4, 4.59e-3),
    (4.9284, 4, 2e-2),
    (4.9284, 3, 4.59e-3),
    (12.25, 2, 4.59e-3),
])
def test_tune_shift_is_integral_of_group_velocity(eps_rel_b, band, vg_over_c):
    # delta_omega = int_0^k* v_g dk, which at a parabolic band edge is v_g k*/2
    spec = CrystalSpec(eps_rel_b=eps_rel_b)
    target = vg_over_c * CODATA.c
    rep = tune_to_group_velocity(spec, band, target)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = rep.k_star / 2.0
    integral = half * sum(w * group_velocity(spec, band, half * (x + 1.0))
                          for x, w in zip(nodes, weights))
    assert np.isclose(rep.delta_omega, integral, rtol=1e-6, atol=0.0)
    assert np.isclose(rep.delta_omega, target * rep.k_star / 2.0, rtol=1e-3, atol=0.0)


@pytest.mark.parametrize("band", range(2, 9))
@pytest.mark.parametrize("vg_over_c", [1e-10, 1e-6, 1e-5])
def test_tune_slow_light_shift(band, vg_over_c):
    # the shift is a few hundred rad/s at 1e-6 c, about 1e-13 of the edge
    # frequency; the band's own departure from v_g k*/2 is at most 2e-10 at
    # 1e-5 c
    target = vg_over_c * CODATA.c
    for eps_rel_b in (4.9284, 12.25, 2.25):
        rep = tune_to_group_velocity(CrystalSpec(eps_rel_b=eps_rel_b), band, target)
        assert abs(rep.delta_omega / (target * rep.k_star / 2.0) - 1.0) <= 1e-8

def _mp_tuning(spec, band, vg_over_c):
    # (Lambda k*, shift in dimensionless w) from the printed dispersion at 60
    # digits: the k = 0 edge is a root of 1 - RHS, and the band is walked from
    # it by doubling until v_g / c = 2 pi |sin q| / |RHS'| reaches the target
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        mpf = mpmath.mpf
        lam = mpf(spec.l_a) + mpf(spec.l_b)
        ea, eb = mpf(spec.eps_rel_a), mpf(spec.eps_rel_b)
        a = 2 * mpmath.pi * mpf(spec.l_a) * mpmath.sqrt(ea) / lam
        b = 2 * mpmath.pi * mpf(spec.l_b) * mpmath.sqrt(eb) / lam
        eta = (ea + eb) / (2 * mpmath.sqrt(ea * eb))

        def rhs(w):
            return mpmath.cos(a * w) * mpmath.cos(b * w) - eta * mpmath.sin(a * w) * mpmath.sin(b * w)

        def velocity(w):
            rp = (-(a * mpmath.sin(a * w) * mpmath.cos(b * w) + b * mpmath.cos(a * w) * mpmath.sin(b * w))
                  - eta * (a * mpmath.cos(a * w) * mpmath.sin(b * w) + b * mpmath.sin(a * w) * mpmath.cos(b * w)))
            return 2 * mpmath.pi * mpmath.sqrt(1 - rhs(w) ** 2) / abs(rp)

        w0 = band_frequencies(spec, 0.0, band)[band - 1] / (2.0 * math.pi * CODATA.c / spec.period)
        w0 = mpmath.findroot(lambda w: 1 - rhs(w), mpf(w0)) if w0 > 0 else mpf(0)    # band 1: RHS(0) = 1
        side = 1 if band % 2 == 1 else -1     # k = 0 is the lower edge of an odd band
        target = mpf(vg_over_c)
        d = mpf(10) ** -20
        if velocity(w0 + side * d) >= target:
            return 0.0, 0.0      # a closed gap's edge, already fast enough
        while velocity(w0 + side * d) < target:
            d *= 2
        d = mpmath.findroot(lambda t: velocity(w0 + side * t) - target, (d / 2, d), solver="anderson")
        return float(mpmath.acos(rhs(w0 + side * d))), float(d)


@pytest.mark.parametrize("eps_rel_b", [4.9284, 12.25, 2.25])
@pytest.mark.parametrize("band", range(1, 9))
@pytest.mark.parametrize("vg_over_c", [1e-6, 1e-5, 4.59e-3])
def test_tune_matches_60_digit_dispersion(eps_rel_b, band, vg_over_c):
    # the shift at 1e-6 c is ~1e-13 of the edge frequency: the difference of
    # two float64 band roots missed it by up to 1e-2 on band 8 of eps_rel_b 2.25
    spec = CrystalSpec(eps_rel_b=eps_rel_b)
    rep = tune_to_group_velocity(spec, band, vg_over_c * CODATA.c)
    q_ref, shift_ref = _mp_tuning(spec, band, vg_over_c)
    scale = 2.0 * math.pi * CODATA.c / spec.period
    np.testing.assert_allclose(rep.k_star * spec.period, q_ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rep.delta_omega, shift_ref * scale, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("band", [2, 4, 7])
def test_tune_refuses_an_unresolved_shift(band):
    # at 1e-13 c the shift is ~1e-27 of the edge frequency, and offsets next
    # to the edge's sub-ulp offset delta0 are spaced and rounded at
    # eps |delta0| ~ 1e-32: served, k* and the shift were off by 1e-7 to 6e-5
    # against a 90-digit solve (up to 0.5 at 1e-15 c)
    with pytest.raises(UnachievableTargetError, match="too slow to resolve"):
        tune_to_group_velocity(SPEC, band, 1e-13 * CODATA.c)


def test_tune_zero_target_is_the_edge():
    rep = tune_to_group_velocity(SPEC, 4, 0.0)
    assert rep.k_star == 0.0 and rep.delta_omega == 0.0 and rep.delta_nu == 0.0
    assert np.isclose(rep.nu_s, 322691177976151.0, rtol=1e-12)


def test_tune_unreachable_target():
    with pytest.raises(UnachievableTargetError):
        tune_to_group_velocity(SPEC, 4, 0.9 * CODATA.c)


def test_zone_and_index_validation():
    with pytest.raises(ValueError):
        band_frequencies(SPEC, 1.5 * math.pi / LAM, 2)
    with pytest.raises(ValueError):
        band_frequencies(SPEC, 0.0, 0)
    with pytest.raises(ValueError):
        group_velocity(SPEC, 0, 0.1 / LAM)
    with pytest.raises(ValueError):
        tune_to_group_velocity(SPEC, 4, -1.0)


def test_vacuum_crystal_is_free_space():
    vac = CrystalSpec(eps_rel_a=1.0, eps_rel_b=1.0)
    k = 0.7 * math.pi / LAM
    assert np.isclose(band_frequencies(vac, k, 1)[0], CODATA.c * k, rtol=1e-14)
    assert group_velocity(vac, 1, k) == CODATA.c
    empty = CrystalSpec(l_b=0.0)
    assert group_velocity(empty, 3, k) == CODATA.c


def test_homogeneous_medium_velocity():
    med = CrystalSpec(eps_rel_a=4.0, eps_rel_b=4.0)
    k = 0.3 * math.pi / LAM
    assert np.isclose(group_velocity(med, 2, k), CODATA.c / 2.0, rtol=1e-14)
    rep = tune_to_group_velocity(med, 1, CODATA.c / 2.0)
    assert rep.k_star == 0.0
    with pytest.raises(UnachievableTargetError):
        tune_to_group_velocity(med, 1, 0.3 * CODATA.c)


@pytest.mark.parametrize("delta", [0.2, 0.05, 0.01])
def test_weak_contrast_approaches_free_space(delta):
    sp = CrystalSpec(eps_rel_b=1.0 + delta)
    k = 1.0 / LAM
    om = band_frequencies(sp, k, 1)[0]
    assert abs(om - CODATA.c * k) / (CODATA.c * k) < delta / 3.0


def test_weak_contrast_gaps_are_open_edges():
    # gap 1 is ~1.6e-9 wide in w: far wider than the root tolerance, so it is
    # open, and both bands stop at their own edge
    sp = CrystalSpec(eps_rel_b=1.0 + 1e-8)
    k_pi = math.pi / LAM
    w1, w2 = band_frequencies(sp, k_pi, 2) / SCALE
    assert 1e-9 < w2 - w1 < 3e-9
    assert group_velocity(sp, 1, k_pi) == 0.0
    assert group_velocity(sp, 2, k_pi) == 0.0


def test_scan_ceiling_raises():
    with pytest.raises(InsufficientScanError, match="no band edge below dimensionless frequency 64"):
        band_frequencies(SPEC, 0.0, 400)


def test_closed_gap_shares_its_edge():
    k_pi = math.pi / LAM
    omega = band_frequencies(CLOSED, k_pi, 6)
    assert abs(omega[4] / SCALE - 2.0) < 1e-12 and abs(omega[5] / SCALE - 2.0) < 1e-12
    assert solve_band(CLOSED, 5, n_samples=5).edges[1] == omega[4]
    assert solve_band(CLOSED, 6, n_samples=5).edges[1] == omega[5]


def test_closed_gap_velocity_is_the_crossing_limit():
    k_pi = math.pi / LAM
    vg5, vg6 = group_velocity(CLOSED, 5, k_pi), group_velocity(CLOSED, 6, k_pi)
    assert vg5 == vg6 and 0.5 * CODATA.c < vg5 < CODATA.c
    # implicit differentiation just inside the zone edge, on both bands
    for band in (5, 6):
        near = group_velocity(CLOSED, band, (math.pi - 1e-3) / LAM)
        assert abs(near - vg5) / vg5 < 1e-6


def _mp_band_point(spec, q, w_guess):
    # (omega, v_g) at Lambda k = q from the printed dispersion at 40 digits:
    # the root of RHS(w) = cos q next to w_guess, v_g / c = 2 pi |sin q| / |RHS'(w)|
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        lam = mpf(spec.l_a) + mpf(spec.l_b)
        ea, eb = mpf(spec.eps_rel_a), mpf(spec.eps_rel_b)
        a = 2 * mpmath.pi * mpf(spec.l_a) * mpmath.sqrt(ea) / lam
        b = 2 * mpmath.pi * mpf(spec.l_b) * mpmath.sqrt(eb) / lam
        eta = (ea + eb) / (2 * mpmath.sqrt(ea * eb))

        def rhs(w):
            return mpmath.cos(a * w) * mpmath.cos(b * w) - eta * mpmath.sin(a * w) * mpmath.sin(b * w)

        w = mpmath.findroot(lambda w: rhs(w) - mpmath.cos(mpf(q)), mpf(w_guess))
        c = mpf(CODATA.c)
        omega = w * 2 * mpmath.pi * c / lam
        v_g = 2 * mpmath.pi * c * abs(mpmath.sin(mpf(q))) / abs(mpmath.diff(rhs, w))
        return float(omega), float(v_g)


@pytest.mark.parametrize("eps_rel_b", [4.9284, 12.25, 2.25])
def test_band_samples_match_40_digit_dispersion(eps_rel_b):
    # the per-sample brentq roots these replace were off by up to 6.4e-11 in
    # both omega and v_g; the edge-offset solve is good to ~1e-15 and ~1e-12
    spec = CrystalSpec(eps_rel_b=eps_rel_b)
    scale = 2.0 * math.pi * CODATA.c / spec.period
    picks = sorted({1, 2, 118, 119} | set(range(5, 120, 10)))
    for band in range(1, 9):
        samples = solve_band(spec, band, n_samples=121).samples
        for j in picks:
            k, omega, v_g = samples[j]
            omega_ref, v_ref = _mp_band_point(spec, k * spec.period, omega / scale)
            assert abs(omega - omega_ref) <= 1e-13 * omega_ref, (band, j)
            assert abs(v_g - v_ref) <= 1e-11 * v_ref, (band, j)


@pytest.mark.parametrize("eps_rel_b", [4.9284, 12.25, 2.25])
def test_scanned_edges_match_40_digit_roots(eps_rel_b):
    # each edge is one brentq root at its tightest tolerance; a looser scan
    # polished again only at k = 0 left edges up to 8.9e-13 off
    mpmath = pytest.importorskip("mpmath")
    spec = CrystalSpec(eps_rel_b=eps_rel_b)
    edges = [w for w0, _, w_pi, _ in _band_intervals(spec, 8) for w in (w0, w_pi) if w > 0.0]
    assert len(edges) == 15
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        lam = mpf(spec.l_a) + mpf(spec.l_b)
        ea, eb = mpf(spec.eps_rel_a), mpf(spec.eps_rel_b)
        ha = mpmath.pi * mpf(spec.l_a) * mpmath.sqrt(ea) / lam
        hb = mpmath.pi * mpf(spec.l_b) * mpmath.sqrt(eb) / lam
        x = mpmath.sqrt(eb / ea)

        def factors(w):    # the half-angle factors of 1 + RHS and 1 - RHS
            sa, ca, sb, cb = mpmath.sin(ha * w), mpmath.cos(ha * w), mpmath.sin(hb * w), mpmath.cos(hb * w)
            return (ca * cb - x * sa * sb, ca * cb - sa * sb / x,
                    sa * cb + x * ca * sb, sa * cb + ca * sb / x)

        for w in edges:
            i = min(range(4), key=lambda j: abs(factors(mpf(w))[j]))
            root = mpmath.findroot(lambda t: factors(t)[i], mpf(w))
            assert abs(w - root) <= 1e-15 * root, (w, float(abs(w - root) / root))


@settings(max_examples=25, deadline=None)
@given(eps_rel_b=st.floats(1.2, 16.0), thickness_ratio=st.floats(0.2, 5.0),
       band=st.integers(1, 6))
def test_band_samples_on_random_crystals(eps_rel_b, thickness_ratio, band):
    spec = CrystalSpec(l_b=SPEC.l_a * thickness_ratio, eps_rel_b=eps_rel_b)
    samples = solve_band(spec, band, n_samples=17).samples
    omegas = np.array([s[1] for s in samples])
    steps = np.diff(omegas) if band % 2 == 1 else -np.diff(omegas)   # k = 0 is an odd band's floor
    assert np.all(steps > 0.0)
    for k, omega, v_g in samples:
        assert abs(dispersion_residual(spec, omega, k)) < 1e-10
        assert math.isfinite(v_g) and v_g >= 0.0
        np.testing.assert_allclose(band_frequencies(spec, k, band)[band - 1], omega,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(group_velocity(spec, band, k), v_g, rtol=1e-13, atol=0.0)
