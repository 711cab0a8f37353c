"""Exception types shared across the package.

The Fock layer has one numerical refusal, :class:`TruncationError`: the
requested box holds too little probability mass, or more than 1.  Its
amplitudes carry no precision limit of their own.

Each error carries the exit code the command line returns for it: 2 for a
refused input unless a subclass sets its own, 3 for a truncation failure
and 4 for a numerical degeneracy, a NaN binomial CDF among them.
"""

__all__ = [
    "PcbsError", "TruncationError", "NoHeraldError", "InsufficientScanError",
    "DegeneratePointError", "UnachievableTargetError", "EmptySessionError",
    "ConfigError", "UndefinedCdfError",
]


class PcbsError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class TruncationError(PcbsError):
    """Raised when a truncated Fock computation fails its captured-mass check.

    The mass must lie within ``tail_tolerance`` of 1: below it the box is
    too small, above it the amplitudes are not normalised.

    Attributes
    ----------
    captured_mass : float
        Probability mass actually captured inside the truncated space.
    n_max : int
        Truncation that was used.
    tail_tolerance : float
        Tolerance the computation was required to meet.
    """

    exit_code = 3

    def __init__(self, captured_mass, n_max, tail_tolerance):
        self.captured_mass = captured_mass
        self.n_max = n_max
        self.tail_tolerance = tail_tolerance
        if captured_mass > 1.0:
            message = (
                f"truncated state captured {captured_mass:.12g} of the "
                f"probability mass at n_max={n_max} "
                f"(required <= 1 + {tail_tolerance:g}); the amplitudes are "
                f"not normalised"
            )
        else:
            message = (
                f"truncated state captured only {captured_mass:.12g} of the "
                f"probability mass at n_max={n_max} "
                f"(required >= 1 - {tail_tolerance:g}); increase n_max"
            )
        super().__init__(message)


class NoHeraldError(PcbsError):
    """Raised when heralded statistics are requested but the herald never fires."""


class InsufficientScanError(PcbsError):
    """Raised when a requested band has no band edge below dimensionless frequency 64,
    or when a layer is too thick optically for the band-edge scan to resolve."""

    exit_code = 4


class DegeneratePointError(PcbsError):
    """Raised when a group velocity is requested at a band degeneracy."""

    exit_code = 4


class UnachievableTargetError(PcbsError):
    """Raised when a requested group velocity is not reached anywhere in a band."""


class UndefinedCdfError(PcbsError):
    """Raised when a binomial CDF that an attacked BB84 session searches
    evaluates to NaN: no stolen-photon count is taken from it."""

    exit_code = 4


class EmptySessionError(PcbsError):
    """Raised when a Monte Carlo session is configured with zero pulses."""


class ConfigError(PcbsError):
    """Raised for malformed or unknown configuration input."""
