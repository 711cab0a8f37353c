"""Brute-force reference pipeline built from truncated ladder operators.

Instead of closed-form matrix elements, this module prepares the two-port
output state by exponentiating the generators directly in a truncated Fock
space, in physical order:

    state = B_dagger(0) . S_a(-r) . D_a(alpha) |0, 0>

with D the displacement, S the single-mode squeeze acting on the occupied
port, and B the balanced splitter with generator (pi/4)(a^dag b - a b^dag).

Truncation strategy: the squeeze couples n -> n +/- 2, so chopping the
single-mode space contaminates amplitudes well inside the edge.  The
single-mode stages therefore run with generous photon-number headroom and
the state is cropped to ``n_max`` only afterwards.  The splitter conserves
total photon number exactly, and every total-number block with
n1 + n2 <= n_max lies entirely inside the cropped two-mode space, so those
entries come out exact (up to the exponential's working precision).  Entries
with n1 + n2 > n_max sit in clipped blocks and are NOT oracle quality;
compare on the triangle n1 + n2 <= n_max.

This pipeline shares no algebra with :mod:`pcbs.fock` - no tanh/cosh matrix
elements appear anywhere - which makes it a genuinely independent check.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .fock import AmplitudeMatrix, SqueezedInput

__all__ = ["oracle_state"]


def _single_mode_headroom(r: float) -> int:
    # Edge contamination of the truncated squeeze exponential decays inward
    # by a factor smaller than tanh(r) per photon; 60 + 120 r keeps the
    # kept block clean far below 1e-10 for r up to about 1.5.
    return 60 + math.ceil(120.0 * r)


def oracle_state(state: SqueezedInput, n_max: int) -> AmplitudeMatrix:
    """Output amplitudes via matrix exponentials of truncated generators.

    The single-mode stages use dense Pade scaling-and-squaring with photon
    headroom beyond ``n_max``; the splitter stage exponentiates its sparse,
    number-conserving generator onto the state vector.  See the module
    docstring for which entries are trustworthy.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dim = n_max + 1
    big = dim + _single_mode_headroom(state.r)

    a = np.diag(np.sqrt(np.arange(1.0, big)), k=1)
    ad = a.T
    vac_big = np.zeros(big)
    vac_big[0] = 1.0

    # port a before the splitter: displace, then squeeze
    displaced = expm(state.alpha * (ad - a)) @ vac_big
    squeezed = expm(0.5 * state.r * (ad @ ad - a @ a)) @ displaced

    vac = np.zeros(dim)
    vac[0] = 1.0
    joint = np.kron(squeezed[:dim], vac)

    a_sp = sp.diags(np.sqrt(np.arange(1.0, dim)), offsets=1, format="csr")
    ad_sp = a_sp.T.tocsr()
    # B(0) = exp[(pi/4)(a^dag b - a b^dag)]; we apply its adjoint
    gen_dagger = (math.pi / 4.0) * (sp.kron(a_sp, ad_sp) - sp.kron(ad_sp, a_sp))
    out = expm_multiply(gen_dagger.tocsc(), joint)

    return AmplitudeMatrix(entries=out.reshape(dim, dim), n_max=n_max)
