"""Pump and material parameters mapped to the abstract squeeze magnitude.

The nonlinear interaction strength is zeta = omega_s * A * chi2_tilde * l_nl
/ v_g: slow light (small group velocity) and long nonlinear path both boost
the squeeze a given pump amplitude can reach.  The remaining helpers convert
among radiant flux, field amplitude, and photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = [
    "PhysicalConstants",
    "CODATA",
    "PumpSpec",
    "squeeze_parameter",
    "amplitude_for_target_squeeze",
    "flux_to_amplitude",
    "pulse_volume",
    "photon_number",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants (CODATA 2018); c is exact by definition."""

    c: float = 299792458.0
    eps0: float = 8.8541878128e-12
    hbar: float = 1.054571817e-34


CODATA = PhysicalConstants()

# relative mismatch allowed between a supplied amplitude and the one implied
# by the supplied flux
_AMPLITUDE_CONSISTENCY = 1e-3


@dataclass(frozen=True)
class PumpSpec:
    """Continuous pump beam: radiant flux through a disc of given radius.

    ``amplitude`` may be supplied directly; when both flux and amplitude are
    given they must agree through the intensity relation to 0.1%.
    """

    radiant_flux: float
    beam_radius: float
    refractive_index: float = 1.0
    amplitude: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.radiant_flux <= 0 or self.beam_radius <= 0 or self.refractive_index <= 0:
            raise ValueError("flux, beam radius and refractive index must all be positive")
        try:
            implied = flux_to_amplitude(self)
        except (OverflowError, ZeroDivisionError):    # d**2 out of float range
            implied = math.nan
        if not 0.0 < implied < math.inf:
            raise ValueError(
                f"flux {self.radiant_flux:.6g} W through beam radius {self.beam_radius:.6g} m "
                "implies no finite, positive field amplitude"
            )
        if self.amplitude is not None:
            if self.amplitude <= 0:
                raise ValueError("amplitude must be positive when given")
            if abs(self.amplitude - implied) > _AMPLITUDE_CONSISTENCY * implied:
                raise ValueError(
                    f"amplitude {self.amplitude:.6g} V/m inconsistent with flux "
                    f"{self.radiant_flux:.6g} W (implies {implied:.6g} V/m)"
                )

    def field_amplitude(self) -> float:
        """The supplied amplitude, or the one implied by the flux."""
        if self.amplitude is not None:
            return self.amplitude
        return flux_to_amplitude(self)


def _check_group_velocity(v_g: float) -> None:
    if v_g <= 0.0:
        raise ValueError(f"group velocity must be positive (got {v_g}); "
                         "the band edge v_g = 0 is singular")


def squeeze_parameter(omega_s: float, amplitude: float, chi2_tilde: float,
                      v_g: float, l_nl: float) -> float:
    """zeta = omega_s * A * chi2_tilde * l_nl / v_g (all SI).

    ``chi2_tilde`` is the reduced susceptibility chi2 / eps0 in m/V; the
    eps0 bookkeeping is absorbed into that convention.
    """
    _check_group_velocity(v_g)
    return omega_s * amplitude * chi2_tilde * l_nl / v_g


def amplitude_for_target_squeeze(zeta_target: float, omega_s: float,
                                 chi2_tilde: float, v_g: float, l_nl: float) -> float:
    """Invert squeeze_parameter for the field amplitude, V/m."""
    _check_group_velocity(v_g)
    denom = omega_s * chi2_tilde * l_nl
    if denom <= 0.0:
        raise ValueError("omega_s, chi2_tilde and l_nl must all be positive")
    return zeta_target * v_g / denom


def flux_to_amplitude(pump: PumpSpec) -> float:
    """Field amplitude from radiant flux: A = sqrt(2 W / (pi d^2 eps0 c n)).

    The beam cross section is taken as pi d^2 with d the radius, matching the
    intensity convention the printed numbers follow.
    """
    w, d, n = pump.radiant_flux, pump.beam_radius, pump.refractive_index
    return math.sqrt(2.0 * w / (math.pi * d**2 * CODATA.eps0 * CODATA.c * n))


def pulse_volume(duration: float, beam_radius: float) -> float:
    """Volume (c tau) * d * d occupied by a pulse of the given duration, cubic
    meters: the rectangular convention the photon number estimate uses."""
    if duration <= 0 or beam_radius <= 0:
        raise ValueError("duration and beam radius must be positive")
    return CODATA.c * duration * beam_radius**2


def photon_number(amplitude: float, omega: float, volume: float) -> float:
    """Photons in a field of given amplitude filling a volume: 2 eps0 V A^2 / (hbar omega)."""
    if omega <= 0 or volume < 0 or amplitude < 0:
        raise ValueError("omega must be positive; amplitude and volume non-negative")
    return 2.0 * CODATA.eps0 * volume * amplitude**2 / (CODATA.hbar * omega)
