"""Brute-force reference pipeline built from truncated ladder operators.

Instead of closed-form matrix elements, this module prepares the two-port
output state by exponentiating the generators directly in a truncated Fock
space, in physical order:

    state = B_dagger(0) . S_a(-r) . D_a(alpha) |0, 0>

with D the displacement, S the single-mode squeeze acting on the occupied
port, and B the balanced splitter with generator (pi/4)(a^dag b - a b^dag).
Each stage applies its exponential to the state vector with
``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)) on a sparse generator: tridiagonal for the
displacement, pentadiagonal for the squeeze.  No dense matrix is formed.

Truncation strategy: the squeeze couples n -> n +/- 2, so chopping the
single-mode space contaminates amplitudes well inside the edge.  The
single-mode stages therefore run with photon-number headroom beyond
``n_max``, and the headroom follows the state's tail: the space starts at
2.5 (n_max + 1) photons and grows by a quarter at a time until two
successive sizes agree on the kept amplitudes psi_0..psi_{n_max} to 1e-13.
The larger of the two is kept.

The splitter conserves total photon number, so the shells T = n1 + n2 <=
n_max span an invariant subspace, and the splitter runs on that triangle
alone, indexed shell by shell as T(T+1)/2 + n1.  Inside a shell, the
coupling |n1, n2> -> |n1 - 1, n2 + 1> links neighbouring indices, so its
generator is tridiagonal too.  Every triangle entry is exact up to the
exponential's working precision.  Entries with n1 + n2 > n_max belong to
shells the box cuts off; they are returned as exactly 0 and are no
reference.

This pipeline shares no algebra with :mod:`pcbs.fock` - no tanh/cosh matrix
elements appear anywhere - which makes it a genuinely independent check.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .fock import AmplitudeMatrix, SqueezedInput

__all__ = ["oracle_state"]

_SETTLED = 1e-13        # kept-block agreement between two single-mode sizes
_MAX_SIZE = 1 << 14     # single-mode photon numbers the headroom may grow to


def _single_mode(state: SqueezedInput, size: int) -> np.ndarray:
    """S(-r) D(alpha) |0> on photon numbers 0..size-1, as two sparse exponentials."""
    root = np.sqrt(np.arange(1.0, size))        # a[n-1, n] = sqrt(n)
    pair = root[:-1] * root[1:]                 # a^2[n-2, n] = sqrt(n (n-1))
    shape = (size, size)
    # alpha (a^dag - a) and (r/2) (a^dag^2 - a^2): creation sits below the diagonal
    displace = state.alpha * sp.diags([root, -root], [-1, 1], shape=shape, format="csr")
    squeeze = 0.5 * state.r * sp.diags([pair, -pair], [-2, 2], shape=shape, format="csr")
    vac = np.zeros(size)
    vac[0] = 1.0
    return expm_multiply(squeeze, expm_multiply(displace, vac, traceA=0.0), traceA=0.0)


def _kept_column(state: SqueezedInput, dim: int) -> np.ndarray:
    """psi_0..psi_{dim-1}, grown until two single-mode sizes agree on them."""
    size = dim + math.ceil(1.5 * dim)
    kept = _single_mode(state, size)[:dim]
    while True:
        size += math.ceil(size / 4)
        if size > _MAX_SIZE:
            raise ValueError(
                f"oracle: psi_0..psi_{dim - 1} did not settle to {_SETTLED:g} "
                f"within {_MAX_SIZE} single-mode photons at r={state.r}, "
                f"alpha={state.alpha}")
        grown = _single_mode(state, size)[:dim]
        if np.max(np.abs(grown - kept)) <= _SETTLED:
            return grown
        kept = grown


def oracle_state(state: SqueezedInput, n_max: int) -> AmplitudeMatrix:
    """Output amplitudes via sparse exponentials of truncated generators.

    The displacement and the squeeze act on the vacuum in a single-mode
    space whose headroom grows until the kept amplitudes psi_0..psi_{n_max}
    settle (see the module docstring).  The splitter then acts on the
    triangle n1 + n2 <= n_max only, which it maps into itself, so every
    entry there is exact; every entry with n1 + n2 > n_max is exactly 0.
    Raises ValueError if the kept amplitudes have not settled within
    2^14 single-mode photons.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dim = n_max + 1
    total = np.repeat(np.arange(dim), np.arange(1, dim + 1))    # shell T of each index
    n1 = np.arange(total.size) - total * (total + 1) // 2
    n2 = total - n1

    joint = np.zeros(total.size)
    joint[n1 == total] = _kept_column(state, dim)               # |T, 0> carries psi_T

    # B(0) = exp[(pi/4)(a^dag b - a b^dag)]; we apply its adjoint, whose
    # a b^dag term sends index i = |n1, n2> to i - 1 = |n1 - 1, n2 + 1>
    # (weight 0 across a shell boundary, where n1 = 0)
    hop = (math.pi / 4.0) * np.sqrt(n1[1:] * (n2[1:] + 1.0))
    gen_dagger = sp.diags([-hop, hop], [-1, 1], format="csr")
    out = expm_multiply(gen_dagger, joint, traceA=0.0)

    entries = np.zeros((dim, dim))
    entries[n1, n2] = out
    return AmplitudeMatrix(entries=entries, n_max=n_max)
