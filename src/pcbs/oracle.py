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
Chebyshev expansion of Tal-Ezer & Kosloff (J. Chem. Phys. 81, 3967
(1984)), whose coefficients are Bessel values J_k(rho) at the exact
1-norm rho, read off the band.  A skew-symmetric A has its spectrum in
[-i rho, i rho], so every term stays within the norm of the vector, and
the expansion stops after the last |J_k| >= 2^-60: a little over rho
terms (2146 at rho = 2000) of two slice products each.  The Bessel values
come from Miller's backward recurrence, with numpy and math alone.

Truncation strategy: the squeeze couples n -> n +/- 2, so chopping the
single-mode space contaminates amplitudes well inside the edge.  The
single-mode stages therefore run with photon-number headroom beyond
``n_max``, and the headroom follows the state's tail: the space starts at
2.5 (n_max + 1) photons and grows by a quarter at a time until two
successive sizes agree on the kept amplitudes psi_0..psi_{n_max} to 1e-13.
The larger of the two is kept.  The first two sizes run in one pair of
exponentials, as two blocks of one vector with zero couplings at the seam.
A zero coupling splits the vector into independent blocks, and the 1-norm
rho is then the largest block norm, which bounds every block's spectrum, so
every block's expansion stays exact.  The larger block sets rho, so it gets
the same terms, and the same bits, as it would alone.

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

from .errors import _is_index
from .fock import SqueezedInput

__all__ = ["oracle_state"]

_SETTLED = 1e-13        # kept-block agreement between two single-mode sizes
_MAX_SIZE = 1 << 14     # single-mode photon numbers the headroom may grow to
_SMALL = 2.0 ** -60     # the expansion stops after the last |J_k(rho)| at or above this
_NORMAL = 2.0 ** -1022  # the smallest normal double: below it, 2 / rho can overflow


def _bessel_j(rho: float) -> np.ndarray:
    """J_0(rho)..J_K(rho) for rho > 0, K >= 1 the last order with |J_K| >= 2^-60.

    Miller's backward recurrence, in two parts that cannot overflow.  Above
    the turning order m = floor(rho) it runs on the ratios
    J_k / J_{k-1} = rho / (2k - rho J_{k+1} / J_k), each in (0, 1) since
    k > rho, down from the order m + 20 rho^(1/3) + 30 or so, where J has
    fallen to about 2^-120 of J_m (its Airy tail).  At and below m it runs
    on the values, J_{k-1} = (2k / rho) J_k - J_{k+1} with J_m = 1; rho < m + 1
    lies before the first zero of J_m, so no value exceeds a few rho^(1/3).
    J_0 + 2 sum J_2k = 1 fixes the scale.
    """
    m = math.floor(rho)
    top = math.ceil(rho + 20.0 * rho ** (1.0 / 3.0)) + 30
    ratios, ratio = [], 0.0
    for k in range(top, m, -1):
        ratio = rho / (2 * k - rho * ratio)
        ratios.append(ratio)
    up = np.cumprod(ratios[::-1])               # J_{m+1}..J_top over J_m
    down = [up[0], 1.0]                         # J_{m+1}, J_m, then J_{m-1}..J_0
    for k in range(m, 0, -1):
        down.append(2.0 * k / rho * down[-1] - down[-2])
    j = np.concatenate((down[:0:-1], up))
    j /= 2.0 * math.fsum(j[::2].tolist()) - j[0]
    keep = m + np.count_nonzero(np.abs(j[m + 1:]) >= _SMALL)
    return j[:max(keep, 1) + 1]


def _expm_apply(offset: int, coeffs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(A) v for the real skew band pair A[i + offset, i] = coeffs[i] = -A[i, i + offset].

    A Chebyshev expansion in B = A / rho, with rho the exact 1-norm of A,
    which bounds the spectral radius of the skew-symmetric A:

        exp(A) v = J_0(rho) W_0 + 2 sum_k J_k(rho) W_k,
        W_0 = v,  W_1 = B v,  W_{k+1} = 2 B W_k + W_{k-1},

    where W_k = i^k T_k(-iB) v keeps the norm of v at most.  Each term is
    six ufunc calls, all written into buffers made before the loop: two
    slice products on the band, the two slice updates they feed, and the
    weighted term added to the sum.  The views of the two recurrence
    buffers are cut once and swap with them, so a term allocates nothing.
    The Bessel coefficients say up front where the sum stops.  Zero
    couplings that cut every link across a seam split v into blocks that
    evolve independently; rho is then the largest block norm, which bounds
    every block's spectrum, so every block's expansion stays exact, and the
    block that sets rho gets the bits it would get alone.  Raises
    ValueError if A or the result is not finite.
    """
    out = np.array(v, dtype=float)
    column = np.zeros(out.size)         # |A| column sums: the exact 1-norm is their max
    column[:-offset] = np.abs(coeffs)
    column[offset:] += np.abs(coeffs)
    rho = column.max(initial=0.0)
    if not math.isfinite(rho):
        raise ValueError(f"oracle: the generator's 1-norm is {rho}")
    if rho > 0.0:
        weights = (2.0 * _bessel_j(rho)).tolist()
        if rho >= _NORMAL:
            c = coeffs * (2.0 / rho)    # 2B, as a band pair
        else:                           # 2 / rho overflows at a subnormal norm
            c = (2.0 * coeffs) / rho
        lower, term = np.empty(out.size - offset), np.empty_like(out)
        prev, cur = out, np.zeros_like(out)
        prev_lo, prev_hi = prev[:-offset], prev[offset:]     # band slices, cut once
        cur_lo, cur_hi = cur[:-offset], cur[offset:]
        mul, add, sub = np.multiply, np.add, np.subtract

        mul(c, prev_lo, out=lower)      # W_1 = (2B W_0) / 2
        add(cur_hi, lower, out=cur_hi)
        mul(c, prev_hi, out=lower)
        sub(cur_lo, lower, out=cur_lo)
        cur *= 0.5
        out = prev * (0.5 * weights[0]) + cur * weights[1]
        for weight in weights[2:]:      # W_{k-1} += 2B W_k becomes W_{k+1}
            mul(c, cur_lo, out=lower)
            add(prev_hi, lower, out=prev_hi)
            mul(c, cur_hi, out=lower)
            sub(prev_lo, lower, out=prev_lo)
            mul(prev, weight, out=term)
            add(out, term, out=out)
            prev, prev_lo, prev_hi, cur, cur_lo, cur_hi = (
                cur, cur_lo, cur_hi, prev, prev_lo, prev_hi)
    if not np.isfinite(out).all():
        raise ValueError(f"oracle: exp(A) v is not finite (1-norm {rho:g})")
    return out


def _seamed(band: np.ndarray, offset: int, sizes) -> np.ndarray:
    """Each size's couplings band[:size - offset] in turn, ``offset`` zeros between them."""
    gap = np.zeros(offset)
    parts = [part for size in sizes for part in (band[:size - offset], gap)]
    return np.concatenate(parts)[:-offset]


def _single_mode(state: SqueezedInput, sizes) -> list[np.ndarray]:
    """S(-r) D(alpha) |0> on photon numbers 0..size-1, one block per size.

    The blocks sit side by side in one vector, uncoupled at each seam, so one
    pair of band exponentials serves every size.
    """
    root = np.sqrt(np.arange(1.0, max(sizes)))  # a[n-1, n] = sqrt(n)
    pair = root[:-1] * root[1:]                 # a^2[n-2, n] = sqrt(n (n-1))
    seams = np.cumsum(sizes)[:-1]
    vac = np.zeros(sum(sizes))
    vac[np.r_[0, seams]] = 1.0
    # alpha (a^dag - a) and (r/2) (a^dag^2 - a^2): creation sits below the diagonal
    with np.errstate(over="ignore"):    # an overflow is refused by _expm_apply's finiteness checks
        out = _expm_apply(2, 0.5 * state.r * _seamed(pair, 2, sizes),
                          _expm_apply(1, state.alpha * _seamed(root, 1, sizes), vac))
    return np.split(out, seams)


def _kept_column(state: SqueezedInput, dim: int) -> np.ndarray:
    """psi_0..psi_{dim-1}, grown until two single-mode sizes agree on them.

    The first two sizes are solved together, as two blocks; each later size
    alone.  No size above _MAX_SIZE is ever built.
    """
    size = dim + math.ceil(1.5 * dim)
    sizes = [size]                      # the smaller size still to solve with the next
    while True:
        size += math.ceil(size / 4)
        if size > _MAX_SIZE:
            raise ValueError(
                f"oracle: psi_0..psi_{dim - 1} did not settle to {_SETTLED:g} "
                f"within {_MAX_SIZE} single-mode photons at r={state.r}, "
                f"alpha={state.alpha}")
        blocks = [block[:dim] for block in _single_mode(state, sizes + [size])]
        kept, grown = (blocks[0] if sizes else kept), blocks[-1]
        if np.max(np.abs(grown - kept)) <= _SETTLED:
            return grown
        kept, sizes = grown, []


def oracle_state(state: SqueezedInput, n_max: int) -> np.ndarray:
    """Output amplitudes ``amp[n1, n2]``, n1, n2 <= n_max, via band exponentials
    of truncated generators, indexed as :func:`pcbs.fock.output_amplitudes`'s.

    The displacement and the squeeze act on the vacuum in a single-mode
    space whose headroom grows until the kept amplitudes psi_0..psi_{n_max}
    settle (see the module docstring).  The splitter then acts on the
    triangle n1 + n2 <= n_max only, which it maps into itself, so every
    entry there is exact; every entry with n1 + n2 > n_max is exactly 0.
    Raises ValueError if the kept amplitudes have not settled within
    2^14 single-mode photons.
    """
    if not (_is_index(n_max) and n_max >= 1):
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    dim = n_max + 1
    column = _kept_column(state, dim)       # first: it may refuse, and the triangle is O(dim^2)
    total = np.repeat(np.arange(dim), np.arange(1, dim + 1))    # shell T of each index
    n1 = np.arange(total.size) - total * (total + 1) // 2
    n2 = total - n1

    joint = np.zeros(total.size)
    joint[n1 == total] = column                                 # |T, 0> carries psi_T

    # B(0) = exp[(pi/4)(a^dag b - a b^dag)]; we apply its adjoint, whose
    # a b^dag term sends index i = |n1, n2> to i - 1 = |n1 - 1, n2 + 1>
    # (weight 0 across a shell boundary, where n1 = 0)
    hop = (math.pi / 4.0) * np.sqrt(n1[1:] * (n2[1:] + 1.0))
    out = _expm_apply(1, -hop, joint)

    amp = np.zeros((dim, dim))
    amp[n1, n2] = out
    return amp
