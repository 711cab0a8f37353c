import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcbs.bands
from pcbs.bands import (
    _CLOSED_GAP,
    _SCAN_CEILING,
    _SCAN_STEP_LIMIT,
    _SHIFT_RTOL,
    _STEP_TOL,
    BandStructure,
    CrystalSpec,
    TuningReport,
    _bands,
    _bracketed_newton,
    _check_slope,
    _coeffs,
    _edge_expansion,
    _factors,
    _gap_velocity,
    _offset_velocity,
    _reduced_q,
    band_frequencies,
    dispersion_residual,
    sample_bands,
    scan_bands,
    solve_band,
    tune_to_group_velocity,
)
from pcbs.errors import DegeneratePointError, InsufficientScanError, UnachievableTargetError
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
# 1/x ~ 2.4e98: the phase of f1 and f3 stays within 1e-35 of pi/2 over most
# of gap 1, and bands 2 to 4 are narrower than one ulp of w
EXTREME = CrystalSpec(l_a=4.57e-141, eps_rel_a=2.89e197)


def test_crystal_spec_validation():
    with pytest.raises(ValueError):
        CrystalSpec(l_a=0.0)
    with pytest.raises(ValueError):
        CrystalSpec(l_b=-1e-9)
    with pytest.raises(ValueError):
        CrystalSpec(eps_rel_b=0.5)
    assert SPEC.period == pytest.approx(1.1e-6, rel=1e-15)


def test_period_floor_keeps_every_frequency_finite():
    with pytest.raises(ValueError, match="period l_a \\+ l_b must be >= 1e-280 m"):
        CrystalSpec(l_a=1e-300, l_b=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # just above the floor, the top of the edge scan and band 2^63 - 1 of a
        # gapless crystal (w below 2^62) both keep omega finite
        spec = CrystalSpec(l_a=1e-280, l_b=1e-280)
        k, omega, v_g = sample_bands(scan_bands(spec, 8), range(1, 9), 5)
        assert np.isfinite(k).all() and np.isfinite(omega).all() and np.isfinite(v_g).all()
        rep = tune_to_group_velocity(
            scan_bands(CrystalSpec(l_a=1e-280, l_b=1e-280, eps_rel_b=1.0), 2**63 - 1),
            2**63 - 1, CODATA.c)
        assert 0.0 < rep.nu_s < math.inf


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["l_a", "l_b", "eps_rel_a", "eps_rel_b", "chi2_tilde", "l_nl"])
def test_crystal_spec_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        CrystalSpec(**{field: value})


def test_residual_zero_at_origin():
    assert dispersion_residual(SPEC, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        dispersion_residual(SPEC, -1.0, 0.0)


@pytest.mark.parametrize("omega, k, name", [
    (math.nan, 0.0, "omega"), (math.inf, 0.0, "omega"), (1e15, math.nan, "k"), (1e15, math.inf, "k"),
])
def test_residual_refuses_non_finite_arguments(omega, k, name):
    # nan once came back as the residual, and an infinite omega as a bare math domain error
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        dispersion_residual(SPEC, omega, k)


def test_band_edges_frozen():
    w = band_frequencies(scan_bands(SPEC, 8), 0.0) / SCALE
    assert np.isclose(w[3], BAND4_EDGE_ZC, rtol=1e-12)
    assert np.isclose(w[7], BAND8_EDGE_ZC, rtol=1e-12)
    wpi = band_frequencies(scan_bands(SPEC, 8), math.pi / LAM) / SCALE
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


def _velocity(spec, band, k):
    # v_g [m/s] of one band at wavenumber k: one sample of a scan of the bands up to it
    return float(_bands(scan_bands(spec, band), [band], np.array([_reduced_q(spec, k)]))[1][0, 0])


def test_group_velocity_frozen_point():
    vg = _velocity(SPEC, 4, 4.33e-3 / LAM)
    assert np.isclose(vg / CODATA.c, 0.0045892614283261695, rtol=1e-10)
    assert abs(vg / CODATA.c - 4.59e-3) / 4.59e-3 < 0.001


def test_group_velocity_zero_at_zone_center():
    assert _velocity(SPEC, 4, 0.0) == 0.0


def test_band_one_origin_is_static_medium():
    # omega -> 0: velocity of the volume-averaged permittivity
    static = CODATA.c / math.sqrt(
        (SPEC.l_a * SPEC.eps_rel_a + SPEC.l_b * SPEC.eps_rel_b) / LAM)
    assert _velocity(SPEC, 1, 0.0) == static
    assert np.isclose(_velocity(SPEC, 1, 1e-4 / LAM), static, rtol=1e-8)
    _, _, vgs = solve_band(SPEC, 1, n_samples=9)
    assert vgs[0] == static
    assert np.all(np.diff(vgs) < 0) and vgs[-1] == 0.0


def test_tune_band_one():
    rep = tune_to_group_velocity(scan_bands(SPEC, 1), 1, 0.3 * CODATA.c)
    assert rep.k_star == 0.0     # zone center is already faster
    with pytest.raises(UnachievableTargetError):
        tune_to_group_velocity(scan_bands(SPEC, 1), 1, 0.59 * CODATA.c)


def test_tune_deep_slow_light():
    rep = tune_to_group_velocity(scan_bands(SPEC, 4), 4, 1e-6 * CODATA.c)
    assert np.isclose(_velocity(SPEC, 4, rep.k_star) / CODATA.c, 1e-6, rtol=1e-9)


@pytest.mark.parametrize("band", [1, 2, 4, 8])
@pytest.mark.parametrize("q", [0.3, 1.0, 2.0, 3.0])
def test_group_velocity_matches_finite_differences(band, q):
    k = q / LAM
    h = 1e-6 * math.pi / LAM
    vg = _velocity(SPEC, band, k)
    structure = scan_bands(SPEC, band)
    om = band_frequencies(structure, k + h)[band - 1], band_frequencies(structure, k - h)[band - 1]
    vg_fd = abs(om[0] - om[1]) / (2.0 * h)
    assert abs(vg - vg_fd) / vg_fd < 1e-6


def test_solve_band_samples_on_dispersion():
    ks, omegas, _ = solve_band(SPEC, 4, n_samples=25)
    assert len(ks) == len(omegas) == 25
    assert np.isclose(omegas[0] / SCALE, BAND4_EDGE_ZC, rtol=1e-12)
    assert np.isclose(omegas[-1] / SCALE, BAND4_EDGE_ZB, rtol=1e-12)
    assert np.all(np.diff(omegas) < 0)          # band 4 bends downward
    for k, omega in zip(ks, omegas):
        assert abs(dispersion_residual(SPEC, omega, k)) < 1e-9


@pytest.mark.parametrize("band", [1, 2, 4, 8])
@pytest.mark.parametrize("spec", [SPEC, CrystalSpec(eps_rel_b=12.25), CLOSED,
                                  CrystalSpec(eps_rel_a=4.0, eps_rel_b=4.0)],
                         ids=["default", "eps_b=12.25", "eps_b=2.25", "homogeneous"])
def test_solve_band_agrees_with_pointwise_functions(spec, band):
    # one frequency rule and one velocity rule serve all three entry points
    for k, omega, v_g in zip(*solve_band(spec, band, n_samples=25)):
        np.testing.assert_allclose(band_frequencies(scan_bands(spec, band), k)[band - 1], omega,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(_velocity(spec, band, k), v_g, rtol=1e-13, atol=0.0)


def test_band_gap_has_no_solutions():
    # no (omega, k) root between band 4's upper and band 5's lower edge
    w5 = band_frequencies(scan_bands(SPEC, 5), 0.0)[4] / SCALE
    grid = np.linspace(BAND4_EDGE_ZC * 1.0001, w5 * 0.9999, 400) * SCALE
    for k in (0.0, math.pi / LAM):
        res = np.array([dispersion_residual(SPEC, w, k) for w in grid])
        assert np.all(res < 0.0) or np.all(res > 0.0)


def test_tune_frozen_report():
    rep = tune_to_group_velocity(scan_bands(SPEC, 4), 4, 4.59e-3 * CODATA.c)
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
    rep = tune_to_group_velocity(scan_bands(spec, band), band, target)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = rep.k_star / 2.0
    integral = half * sum(w * _velocity(spec, band, half * (x + 1.0))
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
        rep = tune_to_group_velocity(scan_bands(CrystalSpec(eps_rel_b=eps_rel_b), band), band, target)
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

        w0 = (band_frequencies(scan_bands(spec, band), 0.0)[band - 1]
              / (2.0 * math.pi * CODATA.c / spec.period))
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
    rep = tune_to_group_velocity(scan_bands(spec, band), band, vg_over_c * CODATA.c)
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
        tune_to_group_velocity(scan_bands(SPEC, band), band, 1e-13 * CODATA.c)


def test_tune_zero_target_is_the_edge():
    rep = tune_to_group_velocity(scan_bands(SPEC, 4), 4, 0.0)
    assert rep.k_star == 0.0 and rep.delta_omega == 0.0 and rep.delta_nu == 0.0
    assert np.isclose(rep.nu_s, 322691177976151.0, rtol=1e-12)


@pytest.mark.parametrize("eps_rel_b", [4.9284, 12.25, 2.25])
def test_a_target_at_the_edge_velocity_is_the_edge(eps_rel_b):
    # v_g0 and the float above it: one ulp above, band 1 was refused as
    # degenerate, or its solve divided 0 by 0 or never converged
    structure = scan_bands(CrystalSpec(eps_rel_b=eps_rel_b), 8)
    fast = [band for band in range(1, 9) if structure.edges[band - 1, 1] > 0.0]
    assert fast[0] == 1
    for band in fast:
        w0, vg0 = structure.edges[band - 1, :2].tolist()
        for target in (vg0, math.nextafter(vg0, math.inf)):
            rep = tune_to_group_velocity(structure, band, target)
            assert rep.k_star == 0.0 and rep.delta_omega == 0.0 and rep.delta_nu == 0.0
            assert rep.nu_s == w0 * SCALE / (2.0 * math.pi)


def test_tune_unreachable_target():
    with pytest.raises(UnachievableTargetError):
        tune_to_group_velocity(scan_bands(SPEC, 4), 4, 0.9 * CODATA.c)


def test_zone_and_index_validation():
    with pytest.raises(ValueError):
        band_frequencies(scan_bands(SPEC, 2), 1.5 * math.pi / LAM)
    with pytest.raises(ValueError):
        band_frequencies(scan_bands(SPEC, 0), 0.0)
    with pytest.raises(ValueError):
        tune_to_group_velocity(scan_bands(SPEC, 4), 4, -1.0)


@pytest.mark.parametrize("n_bands", [2.5, 4.0, np.float64(4.0), True])
def test_scan_refuses_a_band_count_that_is_not_an_integer(n_bands, monkeypatch):
    # before any work: a gapped crystal once scanned and polished its edges
    # before a TypeError, a gapless one kept 2.5 bands, and True was 1 band
    monkeypatch.setattr(pcbs.bands, "_coeffs", lambda spec: pytest.fail("the scan began"))
    for spec in (SPEC, CrystalSpec(eps_rel_b=1.0)):
        with pytest.raises(ValueError,
                           match=f"^n_bands must be an integer >= 1, got {re.escape(repr(n_bands))}$"):
            scan_bands(spec, n_bands)
    assert scan_bands(CrystalSpec(eps_rel_b=1.0), np.int64(4)).n_bands == 4


def test_the_expansion_holds_each_k0_edge_then_every_root():
    # row n - 1 is band n's k = 0 edge, root 2n - n mod 2 of the rows after
    # the first n_bands, which hold w = 0 twice and every root up to gap 8
    structure = scan_bands(SPEC, 8)
    f, df = structure.expansion(0.0, slice(None))
    assert f.shape == df.shape == (8 + 2 + 2 * 8, 4)
    each = np.arange(8)
    root = 8 + 2 * each + 1 + each % 2
    assert f[:8].tobytes() == f[root].tobytes() and df[:8].tobytes() == df[root].tobytes()
    assert np.all(np.min(np.abs(f[8:]), axis=1) < 1e-14)    # a factor vanishes at each root


@pytest.mark.parametrize("spec", [SPEC, CrystalSpec(eps_rel_b=1.0)], ids=["gapped", "gapless"])
def test_a_band_above_the_scan_is_refused(spec):
    structure = scan_bands(spec, 4)
    with pytest.raises(ValueError, match=r"\[1, 4\]"):
        sample_bands(structure, [2, 5], 5)
    with pytest.raises(ValueError, match=r"\[1, 4\]"):
        tune_to_group_velocity(structure, 5, 0.0)
    with pytest.raises(ValueError, match=r"\[1, 4\]"):
        sample_bands(structure, [0, 1], 5)


@pytest.mark.parametrize("spec", [SPEC, CrystalSpec(eps_rel_b=1.0)], ids=["gapped", "gapless"])
def test_a_non_integer_band_or_sample_count_is_refused(spec):
    # a float index once reached numpy as a bare IndexError or TypeError
    structure = scan_bands(spec, 4)
    for bands, n_samples in (([1.5], 5), ([2, np.float64(3.0)], 5), ([1], 3.0), ([True], 5)):
        with pytest.raises(ValueError, match=r"\[1, 4\] and n_samples >= 2"):
            sample_bands(structure, bands, n_samples)
    for band in (4.0, np.float64(2.0), True):
        with pytest.raises(ValueError, match=r"band_index must lie in \[1, 4\]"):
            tune_to_group_velocity(structure, band, 0.1 * CODATA.c)
    assert sample_bands(structure, np.arange(1, 3), np.int64(5))[1].shape == (2, 5)


@settings(max_examples=150, deadline=None)
@given(eps_rel_b=st.floats(1.2, 16.0), thickness_ratio=st.floats(0.2, 5.0),
       n_bands=st.integers(2, 8), data=st.data())
def test_a_larger_scan_serves_a_lower_band_with_the_same_bits(eps_rel_b, thickness_ratio,
                                                              n_bands, data):
    # bands tunes band b on a scan of max(n_bands, b) bands and tune on one of
    # b: the two commands agree because a band's values do not depend on the
    # size of the scan that holds it
    band = data.draw(st.integers(1, n_bands - 1), label="band")
    vg_over_c = data.draw(st.sampled_from([0.0, 1e-10, 1e-6, 4.59e-3]) | st.floats(0.0, 1.0),
                          label="vg_over_c")
    spec = CrystalSpec(l_b=SPEC.l_a * thickness_ratio, eps_rel_b=eps_rel_b)
    large, small = scan_bands(spec, n_bands), scan_bands(spec, band)
    assert large.edges[:band].tobytes() == small.edges.tobytes()
    assert large.delta0[:band].tobytes() == small.delta0.tobytes()
    reports = []
    for structure in (large, small):
        try:
            reports.append(tune_to_group_velocity(structure, band, vg_over_c * CODATA.c))
        except (UnachievableTargetError, DegeneratePointError) as exc:
            reports.append(str(exc))
    assert reports[0] == reports[1]


def test_vacuum_crystal_is_free_space():
    vac = CrystalSpec(eps_rel_a=1.0, eps_rel_b=1.0)
    k = 0.7 * math.pi / LAM
    assert np.isclose(band_frequencies(scan_bands(vac, 1), k)[0], CODATA.c * k, rtol=1e-14)
    assert _velocity(vac, 1, k) == CODATA.c
    empty = CrystalSpec(l_b=0.0)
    assert _velocity(empty, 3, k) == CODATA.c


def test_homogeneous_medium_velocity():
    med = CrystalSpec(eps_rel_a=4.0, eps_rel_b=4.0)
    k = 0.3 * math.pi / LAM
    assert np.isclose(_velocity(med, 2, k), CODATA.c / 2.0, rtol=1e-14)
    rep = tune_to_group_velocity(scan_bands(med, 1), 1, CODATA.c / 2.0)
    assert rep.k_star == 0.0
    with pytest.raises(UnachievableTargetError):
        tune_to_group_velocity(scan_bands(med, 1), 1, 0.3 * CODATA.c)


@pytest.mark.parametrize("delta", [0.2, 0.05, 0.01])
def test_weak_contrast_approaches_free_space(delta):
    sp = CrystalSpec(eps_rel_b=1.0 + delta)
    k = 1.0 / LAM
    om = band_frequencies(scan_bands(sp, 1), k)[0]
    assert abs(om - CODATA.c * k) / (CODATA.c * k) < delta / 3.0


def test_weak_contrast_gaps_are_open_edges():
    # gap 1 is ~1.6e-9 wide in w: far wider than the root tolerance, so it is
    # open, and both bands stop at their own edge
    sp = CrystalSpec(eps_rel_b=1.0 + 1e-8)
    k_pi = math.pi / LAM
    w1, w2 = band_frequencies(scan_bands(sp, 2), k_pi) / SCALE
    assert 1e-9 < w2 - w1 < 3e-9
    assert _velocity(sp, 1, k_pi) == 0.0
    assert _velocity(sp, 2, k_pi) == 0.0


def test_scan_ceiling_raises():
    # 10**12 bands are refused by the phase count, before any array of that size
    for n_bands in (400, 10**12):
        with pytest.raises(InsufficientScanError,
                           match="no band edge below dimensionless frequency 64"):
            band_frequencies(scan_bands(SPEC, n_bands), 0.0)


def test_an_edge_the_grid_cannot_resolve_is_refused(monkeypatch):
    # two roots of f0 lie between neighbouring points of the 4000-point grid,
    # which shows no sign change for either, so the scan refuses rather than
    # return band 2 as (5.595e-4, 6.254e-4); a 4x finer grid resolves them
    spec = CrystalSpec(l_a=4.4e-10, eps_rel_a=1e12, eps_rel_b=8e5)
    with pytest.raises(InsufficientScanError, match="no sign change of factor 0 near w = 0.00025"):
        scan_bands(spec, 4)
    monkeypatch.setattr(pcbs.bands, "SCAN_POINTS_PER_UNIT", 4 * pcbs.bands.SCAN_POINTS_PER_UNIT)
    np.testing.assert_allclose(scan_bands(spec, 4).edges[1, [2, 0]], [5.5761e-4, 5.5952e-4],
                               rtol=1e-4)


@pytest.mark.parametrize("thickness", [999.0, 1001.0])
def test_scan_resolves_layers_up_to_1000_periods(monkeypatch, thickness):
    # layer b of optical thickness l_b sqrt(eps_b) = thickness periods: at 999
    # the scan finds the brackets a 4x finer one finds, above 1000 it is refused
    spec = CrystalSpec(eps_rel_b=(2.0 * thickness) ** 2)
    if thickness > 1000.0:
        with pytest.raises(InsufficientScanError, match="exceeds 1000 periods"):
            scan_bands(spec, 8)
        return
    coarse = scan_bands(spec, 8).edges
    monkeypatch.setattr(pcbs.bands, "SCAN_POINTS_PER_UNIT", 4 * pcbs.bands.SCAN_POINTS_PER_UNIT)
    np.testing.assert_allclose(coarse, scan_bands(spec, 8).edges, rtol=1e-12, atol=0.0)


def test_slope_check_names_the_lowest_failing_band():
    dp = np.array([[1.0, 1.0], [1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(DegeneratePointError, match="on band 5: touching bands"):
        _check_slope(SPEC, dp, [2, 5, 7])
    _check_slope(SPEC, dp[:1], [2])


@settings(max_examples=40, deadline=None)
@given(eps_rel_b=st.just(1.0) | st.floats(1.2, 16.0), thickness_ratio=st.floats(0.2, 5.0),
       n_bands=st.integers(1, 8), n_samples=st.integers(2, 50))
def test_batched_bands_equal_each_band_alone(eps_rel_b, thickness_ratio, n_bands, n_samples):
    # eps_rel_b = 1.0 is the gapless stack; every band's samples are bit-identical
    spec = CrystalSpec(l_b=SPEC.l_a * thickness_ratio, eps_rel_b=eps_rel_b)
    k, omega, v_g = sample_bands(scan_bands(spec, n_bands), range(1, n_bands + 1), n_samples)
    for band in range(1, n_bands + 1):
        alone = np.array(solve_band(spec, band, n_samples))
        assert alone.tobytes() == np.array([k, omega[band - 1], v_g[band - 1]]).tobytes()


def test_closed_gap_shares_its_edge():
    k_pi = math.pi / LAM
    omega = band_frequencies(scan_bands(CLOSED, 6), k_pi)
    assert abs(omega[4] / SCALE - 2.0) < 1e-12 and abs(omega[5] / SCALE - 2.0) < 1e-12
    assert solve_band(CLOSED, 5, n_samples=5)[1][-1] == omega[4]
    assert solve_band(CLOSED, 6, n_samples=5)[1][-1] == omega[5]


def test_closed_gap_velocity_is_the_crossing_limit():
    k_pi = math.pi / LAM
    vg5, vg6 = _velocity(CLOSED, 5, k_pi), _velocity(CLOSED, 6, k_pi)
    assert vg5 == vg6 and 0.5 * CODATA.c < vg5 < CODATA.c
    # implicit differentiation just inside the zone edge, on both bands
    for band in (5, 6):
        near = _velocity(CLOSED, band, (math.pi - 1e-3) / LAM)
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
        samples = list(zip(*solve_band(spec, band, n_samples=121)))
        for j in picks:
            k, omega, v_g = samples[j]
            omega_ref, v_ref = _mp_band_point(spec, k * spec.period, omega / scale)
            assert abs(omega - omega_ref) <= 1e-13 * omega_ref, (band, j)
            assert abs(v_g - v_ref) <= 1e-11 * v_ref, (band, j)


@pytest.mark.parametrize("eps_rel_b", [4.9284, 12.25, 2.25])
def test_scanned_edges_match_40_digit_roots(eps_rel_b):
    # each edge is one root of the batched Newton-with-bisection solve
    # (_bracketed_newton); a looser scan polished again only at k = 0 left
    # edges up to 8.9e-13 off
    mpmath = pytest.importorskip("mpmath")
    spec = CrystalSpec(eps_rel_b=eps_rel_b)
    edges = [w for w0, _, w_pi, _ in scan_bands(spec, 8).edges.tolist() for w in (w0, w_pi) if w > 0.0]
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
    samples = list(zip(*solve_band(spec, band, n_samples=17)))
    omegas = np.array([s[1] for s in samples])
    steps = np.diff(omegas) if band % 2 == 1 else -np.diff(omegas)   # k = 0 is an odd band's floor
    assert np.all(steps > 0.0)
    for k, omega, v_g in samples:
        assert abs(dispersion_residual(spec, omega, k)) < 1e-10
        assert math.isfinite(v_g) and v_g >= 0.0
        np.testing.assert_allclose(band_frequencies(scan_bands(spec, band), k)[band - 1], omega,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(_velocity(spec, band, k), v_g, rtol=1e-13, atol=0.0)


# -- the dense scans ----------------------------------------------------------
# scan_bands reads its grid only in a window about each phase root.  These two
# bodies evaluate every point of each grid, as both functions once did, and
# are the references they must match bit for bit.


def dense_scan_bands(spec: CrystalSpec, n_bands: int) -> BandStructure:
    # every one of SCAN_POINTS_PER_UNIT + 1 points of each unit of w
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    if spec.l_b == 0.0 or spec.eps_rel_a == spec.eps_rel_b:
        return BandStructure(spec, n_bands, None, None, None)
    a, b, _ = _coeffs(spec)
    if 0.5 * max(a, b) / pcbs.bands.SCAN_POINTS_PER_UNIT > _SCAN_STEP_LIMIT * math.pi:
        raise InsufficientScanError(
            f"a layer's optical thickness l sqrt(eps_rel) exceeds "
            f"{_SCAN_STEP_LIMIT * pcbs.bands.SCAN_POINTS_PER_UNIT:g} periods: the band-edge scan "
            f"({pcbs.bands.SCAN_POINTS_PER_UNIT} points per unit of dimensionless frequency) "
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
        grid = np.linspace(w_lo, w_hi, pcbs.bands.SCAN_POINTS_PER_UNIT + 1)
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
    roots = _bracketed_newton(lambda w: factor_at(w, factor),
                              w_0 + f_0 / (f_0 - f_1) * (w_1 - w_0),
                              np.where(first_negative, w_0, w_1),
                              np.where(first_negative, w_1, w_0), 0.0)
    order = np.lexsort((factor, roots))[:need]    # by root, then factor
    w_edge = np.concatenate(([0.0, 0.0], roots[order]))
    f, df = _edge_expansion(a, b, x, w_edge)(0.0, slice(None))    # every factor at every root
    slope = df[np.arange(w_edge.size), np.concatenate(([2, 3], factor[order]))]
    points = list(zip(w_edge.tolist(), slope.tolist()))
    v = [_gap_velocity(points[2 * g], points[2 * g + 1]) for g in range(n_bands + 1)]
    ends = [((points[2 * n - 1][0], v[n - 1]), (points[2 * n][0], v[n]))
            for n in range(1, n_bands + 1)]
    edges = np.array([lo + hi if n % 2 == 1 else hi + lo
                      for n, (lo, hi) in enumerate(ends, start=1)])
    expansion = _edge_expansion(a, b, x, edges[:, 0])
    each = np.arange(n_bands)
    root = 2 * each + 1 + each % 2    # band n = each + 1's k = 0 edge: root 2n - n mod 2
    f, df = f[root], df[root]
    i = np.where(np.abs(f[:, 3]) < np.abs(f[:, 2]), 3, 2)    # each edge's factor
    delta0 = -f[each, i] / df[each, i]
    f, df = expansion(delta0, each)
    return BandStructure(spec, n_bands, edges, delta0 - f[each, i] / df[each, i], expansion)


def dense_tune_to_group_velocity(structure: BandStructure, band_index: int,
                                 target_vg: float) -> TuningReport:
    # every one of the 2048 offsets of the v_g scan
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
    if vg0 >= target_vg or math.isclose(target_vg, vg0, rel_tol=1e-12):
        # the edge itself (target 0), or a k = 0 edge at a closed gap (band 1's
        # is the static medium at w = 0) that is already at least as fast, or
        # within 1e-12 of as fast, the gapless rule
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

    def gap(delta):    # one root, evaluated as a scalar: cheaper than a 1-element array
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


CRYSTALS = st.builds(lambda eps_rel_a, eps_rel_b, thickness_ratio: CrystalSpec(
                         l_b=SPEC.l_a * thickness_ratio, eps_rel_a=eps_rel_a, eps_rel_b=eps_rel_b),
                     st.just(1.0) | st.floats(1.0, 16.0), st.floats(1.0, 16.0), st.floats(0.2, 5.0))


def _outcome(call, *args):
    # repr of the result (exact for every float), or the error's type and message
    with warnings.catch_warnings():
        # a 0/0 Newton start or an unconverged solve (RuntimeError) is an
        # outcome that both sides must share; a band-1 target one ulp above
        # its edge's own velocity gave both before the shared edge rule
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return repr(call(*args))
        except (InsufficientScanError, UnachievableTargetError, DegeneratePointError,
                RuntimeError) as exc:
            return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60, deadline=None)
@given(spec=CRYSTALS, n_bands=st.integers(1, 8), finer=st.booleans())
@example(spec=SPEC, n_bands=8, finer=False)
@example(spec=CrystalSpec(eps_rel_b=12.25), n_bands=8, finer=False)
@example(spec=CLOSED, n_bands=12, finer=False)
@example(spec=EXTREME, n_bands=4, finer=False)
@example(spec=CrystalSpec(eps_rel_b=(2.0 * 999.0) ** 2), n_bands=8, finer=True)
def test_edge_scan_gives_the_dense_scans_bits(spec, n_bands, finer):
    # finer: SCAN_POINTS_PER_UNIT patched to 4x, read by both at call time
    def scan_or_refusal(scan):
        try:
            return scan(spec, n_bands)
        except InsufficientScanError as exc:
            return str(exc)

    with pytest.MonkeyPatch.context() as patch:
        if finer:
            patch.setattr(pcbs.bands, "SCAN_POINTS_PER_UNIT", 4 * pcbs.bands.SCAN_POINTS_PER_UNIT)
        got, want = scan_or_refusal(scan_bands), scan_or_refusal(dense_scan_bands)
    if isinstance(want, str):
        assert got == want
        return
    if want.expansion is None:
        assert got.edges is got.delta0 is got.expansion is None
        return
    assert got.edges.tobytes() == want.edges.tobytes()
    assert got.delta0.tobytes() == want.delta0.tobytes()
    each = np.arange(n_bands)
    for delta in (want.delta0, 0.0, 1e-12, -3e-2, 0.2):
        assert (np.array(got.expansion(delta, each, curvature=True)).tobytes()
                == np.array(want.expansion(delta, each, curvature=True)).tobytes())


@settings(max_examples=80, deadline=None)
@given(spec=CRYSTALS, n_bands=st.integers(1, 8), data=st.data())
@example(spec=SPEC, n_bands=4, data=None)
@example(spec=CrystalSpec(eps_rel_b=(2.0 * 999.0) ** 2), n_bands=8, data=None)
def test_tuning_scan_gives_the_dense_scans_bits(spec, n_bands, data):
    # targets from 1e-12 c to above the band's maximum, inf, and the v_g of a
    # grid point of the dense scan with its two neighbouring floats; an example
    # (data None) tunes every band to the selftest's target and to inf
    structure = scan_bands(spec, n_bands)
    if data is None:
        cases = [(band, ratio) for band in range(1, n_bands + 1) for ratio in (4.59e-3, math.inf)]
    else:
        band = data.draw(st.integers(1, n_bands), label="band")
        targets = [math.inf, 10.0 ** data.draw(st.floats(-12.0, 0.3), label="log10 target")]
        if structure.expansion is not None:
            w0, _, w_far, _ = structure.edges[band - 1].tolist()
            delta0 = structure.delta0[band - 1]
            deltas = delta0 + (w_far - w0 - delta0) * np.geomspace(1e-16, 1.0, 2048)
            v = float(_offset_velocity(structure.expansion, deltas, band - 1)[0][
                data.draw(st.integers(0, 2047), label="grid point")])
            if math.isfinite(v):
                targets += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
        cases = [(band, ratio) for ratio in targets]
    for band, ratio in cases:
        assert (_outcome(tune_to_group_velocity, structure, band, ratio * CODATA.c)
                == _outcome(dense_tune_to_group_velocity, structure, band, ratio * CODATA.c))


@settings(max_examples=60, deadline=None)
@given(spec=CRYSTALS, n_bands=st.integers(1, 8))
@example(spec=EXTREME, n_bands=4)
def test_the_phase_count_below_each_edge_is_its_index(spec, n_bands):
    # Theta_y = A + B + atan2((y - 1) sin B cos B, cos^2 B + y sin^2 B) passes
    # m pi / 2 at root m of the pair y.  At 60 digits, the roots it counts
    # below a point between two of the scan's edges are the edges below that
    # point; edges within the closed-gap tolerance of each other share a place
    mpmath = pytest.importorskip("mpmath")
    structure = scan_bands(spec, n_bands)
    if structure.expansion is None:
        return
    edges = np.sort(structure.edges[:, [0, 2]].ravel())    # w = 0, then the roots above it
    apart = np.flatnonzero(np.diff(edges) > _CLOSED_GAP[0] + _CLOSED_GAP[1] * edges[1:])
    with mpmath.workdps(60):
        mpf = mpmath.mpf
        lam = mpf(spec.l_a) + mpf(spec.l_b)
        ha = mpmath.pi * mpf(spec.l_a) * mpmath.sqrt(mpf(spec.eps_rel_a)) / lam
        hb = mpmath.pi * mpf(spec.l_b) * mpmath.sqrt(mpf(spec.eps_rel_b)) / lam
        x = mpmath.sqrt(mpf(spec.eps_rel_b) / mpf(spec.eps_rel_a))

        def count(w):    # phase roots below w, of both pairs
            s, c = mpmath.sin(hb * w), mpmath.cos(hb * w)
            return sum(int(mpmath.floor((ha * w + hb * w + mpmath.atan2((y - 1) * s * c,
                                                                       c * c + y * s * s))
                                        / (mpmath.pi / 2)))
                       for y in (x, 1 / x))

        for i in apart:
            assert count((mpf(edges[i]) + mpf(edges[i + 1])) / 2) == i, (i, edges[i:i + 2])


# -- the root solver ----------------------------------------------------------
# _bracketed_newton once took residual(x, todo) on the flattened live roots
# and gathered and scattered them through todo.  That body is the reference:
# the masked solve must give its roots, bit for bit, from as many calls.


def indexed_bracketed_newton(residual, x, neg, pos, anchor) -> np.ndarray:
    x, neg, pos = (np.array(u, dtype=float) for u in (x, neg, pos))
    anchor = np.broadcast_to(anchor, x.shape)
    todo = np.arange(x.size)
    for _ in range(pcbs.bands._MAX_STEPS):
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
    raise RuntimeError(f"roots did not converge in {pcbs.bands._MAX_STEPS} steps")


def _test_residual(kind, sign, root, c):
    # kind 0 is linear, 1 a cubic u^3 + c u (flat at its root when c = 0), and
    # 2 linear with a zero slope, so that every one of its steps bisects
    def residual(x, i=...):
        u = x - root[i]
        f = sign[i] * np.where(kind[i] == 1, u ** 3 + c[i] * u, u)
        df = sign[i] * np.where(kind[i] == 0, 1.0, np.where(kind[i] == 1, 3.0 * u * u + c[i], 0.0))
        return f, df
    return residual


SHAPES = [(), (1,), (5,), (2, 3), (3, 1), (1, 4)]
# (kind, sign, lo, width, root's share, start's share, root at, c, anchored at neg)
ROOTS = st.tuples(st.integers(0, 2), st.sampled_from([1.0, -1.0]), st.floats(-10.0, 10.0),
                  st.floats(1e-12, 10.0), st.floats(0.0, 1.0), st.floats(0.01, 0.99),
                  st.sampled_from(["inside", "lo", "hi"]), st.sampled_from([0.0, 1e-3, 1.0]),
                  st.booleans())
SOLVES = st.sampled_from(SHAPES).flatmap(lambda shape: st.tuples(
    st.just(shape), st.lists(ROOTS, min_size=math.prod(shape), max_size=math.prod(shape))))


@settings(max_examples=200, deadline=None)
@given(solve=SOLVES)
# bisections (kind 2), roots on a bracket end, a flat cubic, a 1e-12 bracket
@example(solve=((2, 3), [(2, 1.0, 0.0, 1.0, 0.3, 0.5, "inside", 0.0, False),
                         (0, -1.0, -2.0, 3.0, 0.0, 0.2, "hi", 0.0, True),
                         (0, 1.0, 1.0, 2.0, 0.0, 0.7, "lo", 0.0, False),
                         (1, 1.0, -5.0, 10.0, 0.5, 0.9, "inside", 0.0, True),
                         (1, -1.0, 3.0, 1e-12, 0.5, 0.5, "inside", 1.0, False),
                         (2, -1.0, 0.5, 4.0, 0.0, 0.5, "hi", 0.0, True)]))
@example(solve=((), [(2, -1.0, -1.0, 2.0, 0.25, 0.6, "inside", 0.0, True)]))
# a flat cubic whose root is its lower end and its anchor: 620 steps, beside two short solves
@example(solve=((3, 1), [(1, 1.0, 0.0, 10.0, 0.0, 0.99, "lo", 0.0, False),
                         (0, 1.0, 0.0, 1.0, 0.5, 0.5, "inside", 0.0, False),
                         (2, 1.0, 0.0, 1.0, 0.5, 0.5, "inside", 0.0, False)]))
def test_the_masked_solve_is_the_indexed_solve(solve):
    shape, roots = solve
    kind, sign, lo, width, share, start, end, c, anchored = (
        np.array(column).reshape(shape) for column in zip(*roots))
    hi = lo + width
    root = np.where(end == "lo", lo, np.where(end == "hi", hi, np.clip(lo + share * width, lo, hi)))
    neg, pos = np.where(sign > 0, lo, hi), np.where(sign > 0, hi, lo)
    x = lo + start * width
    anchor = np.where(anchored, neg, 0.0)
    shaped = _test_residual(kind, sign, root, c)
    flat = _test_residual(*(u.ravel() for u in (kind, sign, root, c)))
    calls = []

    def masked(x):
        calls.append("masked")
        return shaped(x)

    def indexed(x, todo):
        calls.append("indexed")
        return flat(x, todo)

    def outcome(solver, *args):    # the roots' shape and bytes, or the refusal
        try:
            roots = solver(*args)
        except RuntimeError as exc:
            return str(exc)
        return np.shape(roots), roots.tobytes()

    got = outcome(_bracketed_newton, masked, x, neg, pos, anchor)
    want = outcome(indexed_bracketed_newton, indexed, *(u.ravel() for u in (x, neg, pos, anchor)))
    assert got == (want if isinstance(want, str) else (shape, want[1]))
    assert calls.count("masked") == calls.count("indexed")


def test_a_solve_that_runs_out_of_steps_is_refused(monkeypatch):
    # a zero slope bisects: 3 halvings of [0, 1] cannot reach the root 1/3
    monkeypatch.setattr(pcbs.bands, "_MAX_STEPS", 3)
    with pytest.raises(RuntimeError, match="roots did not converge in 3 steps"):
        _bracketed_newton(lambda x: (x - 1.0 / 3.0, 0.0 * x), np.array([0.5, 0.25]), 0.0, 1.0, 0.0)
