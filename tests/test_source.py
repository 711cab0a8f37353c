import math

import numpy as np
import pytest

from pcbs.fock import SqueezedInput, squeeze_matrix
from pcbs.source import (
    CODATA,
    PumpSpec,
    amplitude_for_target_squeeze,
    flux_to_amplitude,
    photon_number,
    pulse_volume,
    squeeze_parameter,
)
from pcbs.stats import locate_maximum


def test_constants():
    assert CODATA.c == 299792458.0
    assert CODATA.eps0 == 8.8541878128e-12
    assert CODATA.hbar == 1.054571817e-34


def test_flux_to_amplitude_pump_laser():
    a = flux_to_amplitude(PumpSpec(radiant_flux=0.03, beam_radius=5.0e-6))
    assert np.isclose(a, 536470.6514215705, rtol=1e-12)
    assert abs(a - 5.36e5) / 5.36e5 < 0.01


def test_flux_to_amplitude_signal_case():
    a = flux_to_amplitude(PumpSpec(radiant_flux=2.0e-7, beam_radius=5.0e-6))
    assert np.isclose(a, 1385.161265789858, rtol=1e-12)
    assert abs(a - 1.39e3) / 1.39e3 < 0.01


def test_flux_scaling():
    a1 = flux_to_amplitude(PumpSpec(radiant_flux=0.01, beam_radius=5.0e-6))
    a4 = flux_to_amplitude(PumpSpec(radiant_flux=0.04, beam_radius=5.0e-6))
    assert np.isclose(a4, 2.0 * a1, rtol=1e-14)


def test_pump_amplitude_consistency_check():
    with pytest.raises(ValueError):
        PumpSpec(radiant_flux=-1.0, beam_radius=5.0e-6)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["radiant_flux", "beam_radius", "refractive_index"])
def test_pump_spec_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        PumpSpec(**{"radiant_flux": 0.03, "beam_radius": 5.0e-6, field: value})


def test_squeeze_parameter_linear():
    z = squeeze_parameter(2.0e15, 5.0e5, 25.2e-12, 1.3e6, 5.0e-5)
    assert np.isclose(squeeze_parameter(2.0e15, 5.0e5, 25.2e-12, 1.3e6, 1.0e-4),
                      2.0 * z, rtol=1e-14)
    assert squeeze_parameter(2.0e15, 0.0, 25.2e-12, 1.3e6, 5.0e-5) == 0.0
    with pytest.raises(ValueError):
        squeeze_parameter(2.0e15, 5.0e5, 25.2e-12, 0.0, 5.0e-5)


def test_amplitude_round_trip():
    omega, chi, vg, lnl = 2.0275e15, 25.2e-12, 1.376e6, 5.0e-5
    a = amplitude_for_target_squeeze(1.0, omega, chi, vg, lnl)
    assert np.isclose(squeeze_parameter(omega, a, chi, vg, lnl), 1.0, rtol=1e-12)


def test_amplitude_for_unit_squeeze_coefficient():
    # A = coeff * (v_g/c) with coeff ~ 1.17e8 V/m for the crystal's omega_s
    omega_s = 2027528468216224.8
    vg = 4.59e-3 * CODATA.c
    a = amplitude_for_target_squeeze(1.0, omega_s, 25.2e-12, vg, 5.0e-5)
    assert abs(a / (vg / CODATA.c) - 1.17e8) / 1.17e8 < 0.005
    assert abs(a - 5.36e5) / 5.36e5 < 0.005


def test_pulse_volume_geometries():
    box = pulse_volume(3.7e-9, 5.0e-6)
    assert np.isclose(box, CODATA.c * 3.7e-9 * 25.0e-12, rtol=1e-14)


def test_photon_number_weak_signal():
    a = flux_to_amplitude(PumpSpec(radiant_flux=2.0e-7, beam_radius=5.0e-6))
    omega = 2.0 * math.pi * CODATA.c / 1.535e-6
    n = photon_number(a, omega, pulse_volume(3.7e-9, 5.0e-6))
    assert np.isclose(n, 7280.705862412036, rtol=1e-12)
    assert abs(n - 7.28e3) / 7.28e3 < 0.01
    assert photon_number(0.0, omega, 1.0e-11) == 0.0


def test_photon_number_volume_linearity():
    omega = 1.2e15
    n1 = photon_number(1.0e3, omega, 1.0e-11)
    n3 = photon_number(1.0e3, omega, 3.0e-11)
    assert np.isclose(n3, 3.0 * n1, rtol=1e-14)


# each helper gives a finite number or raises ValueError, never inf, nan or OverflowError
@pytest.mark.parametrize("args", [(1e300, 1e300, 1e300, 1.0, 1.0), (2.0e15, 5.0e5, 25.2e-12, 5e-324, 1.0),
                                  (math.nan, 5.0e5, 25.2e-12, 1.3e6, 5.0e-5)])
def test_squeeze_parameter_refuses_a_non_finite_zeta(args):
    with pytest.raises(ValueError, match="squeeze parameter zeta is not a finite number"):
        squeeze_parameter(*args)


@pytest.mark.parametrize("args", [(1e300, 1e300, 1e300), (1.0e3, 1e-320, 1.0e-11),
                                  (math.nan, 1.2e15, 1.0e-11)])
def test_photon_number_refuses_a_non_finite_count(args):
    # amplitude**2 overflows, or hbar * omega underflows to a zero divisor
    with pytest.raises(ValueError, match="photon number is not a finite number"):
        photon_number(*args)


@pytest.mark.parametrize("args", [(1e300, 1e300), (1e300, 1e10), (math.inf, 5.0e-6)])
def test_pulse_volume_refuses_a_non_finite_volume(args):
    # beam_radius**2 overflows, or c * tau * d^2 does
    with pytest.raises(ValueError, match="pulse volume is not a finite number"):
        pulse_volume(*args)


def test_amplitude_for_target_squeeze_refuses_a_non_finite_amplitude():
    with pytest.raises(ValueError, match="field amplitude is not a finite number"):
        amplitude_for_target_squeeze(1e300, 2.0e15, 25.2e-12, 1e300, 5.0e-5)


@pytest.mark.parametrize("call, message", [
    (lambda: locate_maximum(0.5, "p11", 1.0, 1.0), "need 0 <= r_lo < r_hi"),
    (lambda: SqueezedInput(1j, 0.5), "r and alpha must be real numbers"),
    (lambda: squeeze_matrix(-0.1, 3), "squeeze magnitude s must be >= 0"),
    (lambda: amplitude_for_target_squeeze(1.0, 2.0e15, 25.2e-12, 1.0e6, 0.0),
     "omega_s, chi2_tilde and l_nl must all be positive"),
    (lambda: pulse_volume(0.0, 5.0e-6), "duration and beam radius must be positive"),
    (lambda: photon_number(1.0, 0.0, 1.0),
     "omega must be positive; amplitude and volume non-negative"),
], ids=["empty r range", "complex r", "negative squeeze", "no nonlinear length",
        "zero duration", "zero frequency"])
def test_refusals_name_the_bad_input(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
