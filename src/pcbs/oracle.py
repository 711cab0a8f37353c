"""Brute-force reference pipeline built from truncated ladder operators.

Instead of closed-form matrix elements, this module prepares the two-port
output state by exponentiating the generators directly in a truncated Fock
space, in physical order:

    state = B_dagger(0) . S_a(-r) . D_a(alpha) |0, 0>

with D the displacement, S the single-mode squeeze acting on the occupied
port, and B the balanced splitter with generator (pi/4)(a^dag b - a b^dag).
Every generator is a real skew band pair, A[i + k, i] = c_i = -A[i, i + k]:
k = 1 for the displacement, k = 2 for the squeeze, k = 1 again for the
splitter on the photon-number triangle.  One propagator applies exp(A) to
the state vector, with no sparse matrix and no dense exponential: the
truncated Taylor series with substeps of Al-Mohy & Higham (SIAM J. Sci.
Comput. 33, 488 (2011)).  The exact 1-norm, read off the band, splits the
exponent into ceil(||A||_1 / 8) substeps; each substep's series is summed
with numpy slice products until two successive terms fall below 2^-53 of
the running sum, as AMH stop theirs.

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

from .fock import AmplitudeMatrix, SqueezedInput

__all__ = ["oracle_state"]

_SETTLED = 1e-13        # kept-block agreement between two single-mode sizes
_MAX_SIZE = 1 << 14     # single-mode photon numbers the headroom may grow to
_THETA = 8.0            # largest 1-norm of one Taylor substep
_MAX_TERMS = 100        # Taylor terms per substep; the bound 8^k / k! is 2^-53 by k = 47
_TAYLOR_TOL = 2.0 ** -53


def _expm_apply(offset: int, coeffs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(A) v for the real skew band pair A[i + offset, i] = coeffs[i] = -A[i, i + offset].

    The exponent is split into ceil(||A||_1 / _THETA) substeps.  Each
    substep's Taylor series stops once two successive terms have max-norm
    below 2^-53 of the running sum's.  Raises ValueError if a substep has
    not converged within _MAX_TERMS terms, which with substeps of 1-norm
    at most 8 only a non-finite vector does.
    """
    out = np.array(v, dtype=float)
    column = np.zeros(out.size)         # |A| column sums: the exact 1-norm is their max
    column[:-offset] = np.abs(coeffs)
    column[offset:] += np.abs(coeffs)
    norm = column.max(initial=0.0)
    steps = math.ceil(norm / _THETA)
    if steps == 0:
        return out
    c = coeffs / steps
    last, term, lower = np.empty_like(out), np.empty_like(out), np.empty(out.size - offset)
    for _ in range(steps):
        last[:] = out
        prev = bound = max(out.max(), -out.min())
        for k in range(1, _MAX_TERMS + 1):
            # term = (A / steps) last / k, as two slice products
            np.multiply(c, last[:-offset], out=term[offset:])
            term[:offset] = 0.0
            np.multiply(c, last[offset:], out=lower)
            term[:-offset] -= lower
            term *= 1.0 / k
            out += term
            size = max(term.max(), -term.min())
            bound += size               # >= max|out|: the exact norm is needed only near the end
            if (prev + size <= _TAYLOR_TOL * bound
                    and prev + size <= _TAYLOR_TOL * max(out.max(), -out.min())):
                break
            prev = size
            last, term = term, last
        else:
            raise ValueError(
                f"oracle: a Taylor substep did not converge within {_MAX_TERMS} terms "
                f"(1-norm {norm:g} in {steps} substeps)")
    return out


def _single_mode(state: SqueezedInput, size: int) -> np.ndarray:
    """S(-r) D(alpha) |0> on photon numbers 0..size-1, as two band exponentials."""
    root = np.sqrt(np.arange(1.0, size))        # a[n-1, n] = sqrt(n)
    pair = root[:-1] * root[1:]                 # a^2[n-2, n] = sqrt(n (n-1))
    vac = np.zeros(size)
    vac[0] = 1.0
    # alpha (a^dag - a) and (r/2) (a^dag^2 - a^2): creation sits below the diagonal
    return _expm_apply(2, 0.5 * state.r * pair, _expm_apply(1, state.alpha * root, vac))


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
    """Output amplitudes via band exponentials of truncated generators.

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
    out = _expm_apply(1, -hop, joint)

    entries = np.zeros((dim, dim))
    entries[n1, n2] = out
    return AmplitudeMatrix(entries=entries, n_max=n_max)
