"""Entangled-photon source toolkit.

Photon-number statistics of a squeezed-plus-coherent input split on a
balanced beam splitter, the 1D photonic-crystal band structure that slows
the pump to build the squeezing, the SI parameter chain from pump power to
squeeze magnitude, and a Monte Carlo BB84 session with a beam-splitting
eavesdropper.
"""

from . import bands, bb84, config, errors, fock, oracle, source, stats
from .bands import *
from .bb84 import *
from .config import *
from .errors import *
from .fock import *
from .oracle import *
from .source import *
from .stats import *

__version__ = "0.1.0"

# each module's __all__ is the one list of what pcbs exports from it
__all__ = ["__version__", *fock.__all__, *oracle.__all__, *stats.__all__, *bands.__all__,
           *source.__all__, *bb84.__all__, *config.__all__, *errors.__all__]
