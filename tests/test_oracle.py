import ast
import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcbs.oracle
from pcbs.fock import SqueezedInput, TruncationPolicy, output_amplitudes, suggest_n_max
from pcbs.oracle import _bessel_j, _expm_apply, _single_mode, oracle_state
from pcbs.selftest import _ALPHA_GRID, _R_GRID


def triangle(n_max):
    total = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    return total <= n_max


def triangle_error(state, n_max, tail_tolerance=1e-4):
    """Max |closed form - matrix exponential| over the triangle n1 + n2 <= n_max.

    The splitter conserves photon number, so every shell on the triangle is
    exact in the oracle.  The tail gate is kept loose on purpose: entry
    accuracy is what is under test, not the captured mass.
    """
    policy = TruncationPolicy(n_max=n_max, tail_tolerance=tail_tolerance)
    cf = output_amplitudes(state, policy)
    orc = oracle_state(state, n_max)
    return float(np.max(np.abs(cf - orc)[triangle(n_max)]))


def test_oracle_vacuum():
    orc = oracle_state(SqueezedInput(r=0.0, alpha=0.0), 6)
    assert np.isclose(orc[0, 0], 1.0, atol=1e-12)
    assert np.max(np.abs(orc)[1:, :]) < 1e-12


def test_oracle_matches_closed_form_at_working_point():
    err = triangle_error(SqueezedInput(r=1.0, alpha=0.5), 40)
    assert err < 1e-12


@pytest.mark.parametrize("r,alpha,n_max", [(0.5, 0.25, 40), (0.0, 1.0, 40), (1.25, 1.0, 64)])
def test_oracle_matches_closed_form_elsewhere(r, alpha, n_max):
    err = triangle_error(SqueezedInput(r=r, alpha=alpha), n_max)
    assert err < 1e-12


def test_oracle_parity_selection():
    orc = oracle_state(SqueezedInput(r=0.8, alpha=0.0), 24)
    n1, n2 = np.indices(orc.shape)
    assert np.max(np.abs(orc[(n1 + n2) % 2 == 1])) < 1e-13


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_oracle_headroom_follows_strong_squeeze(alpha):
    # r = 2 needs n_max 323 and 423; a fixed 60 + 120 r headroom left
    # the triangle off by 1.6e-9 and 4.5e-8 there
    n_max = suggest_n_max(2.0, alpha, 1e-8)
    assert triangle_error(SqueezedInput(r=2.0, alpha=alpha), n_max, 1e-8) <= 1e-12


def test_oracle_headroom_grows_for_a_small_box():
    # psi_0..psi_5 at r = 2 lean on photon numbers far beyond n_max = 5
    assert triangle_error(SqueezedInput(r=2.0, alpha=0.5), 5, 0.9) <= 1e-12


@pytest.mark.parametrize("r,alpha,tail_tolerance", [
    (1.0, 0.5, 1e-8), (0.5, 1.0, 1e-8), (1.5, 0.5, 1e-8), (1.0, 3.0, 1e-8),
    # at 1e-8 this box is n_max 323, where the doubled oracle takes about 0.8 s
    (2.0, 0.5, 1e-3),
])
def test_doubled_oracle_matches_the_whole_square(r, alpha, tail_tolerance):
    # the triangle n1 + n2 <= 2 n_max covers the whole (n_max + 1)^2 box
    state = SqueezedInput(r=r, alpha=alpha)
    policy = TruncationPolicy(tail_tolerance=tail_tolerance).for_state(state)
    assert policy.n_max <= 140
    orc = oracle_state(state, 2 * policy.n_max)[:policy.n_max + 1, :policy.n_max + 1]
    assert np.max(np.abs(output_amplitudes(state, policy) - orc)) <= 1e-13


def test_oracle_is_zero_outside_triangle():
    orc = oracle_state(SqueezedInput(r=1.0, alpha=1.0), 12)
    assert np.all(orc[~triangle(12)] == 0.0)


def test_oracle_refuses_unsettled_headroom(monkeypatch):
    monkeypatch.setattr(pcbs.oracle, "_MAX_SIZE", 64)
    with pytest.raises(ValueError, match="did not settle"):
        oracle_state(SqueezedInput(r=2.0, alpha=0.5), 5)


@pytest.mark.parametrize("n_max", [20.0, 49.5, np.float64(20.0), True, 0])
def test_oracle_refuses_a_box_that_is_not_an_integer(n_max, monkeypatch):
    # before the single-mode column is solved; 20.0 once solved it and then
    # raised TypeError in np.repeat, and True was read as 1
    monkeypatch.setattr(pcbs.oracle, "_kept_column",
                        lambda *args: pytest.fail("a column was solved"))
    with pytest.raises(ValueError,
                       match=f"^n_max must be an integer >= 1, got {re.escape(repr(n_max))}$"):
        oracle_state(SqueezedInput(r=0.5, alpha=0.5), n_max)


def test_oracle_refuses_an_unservable_box_before_building_its_triangle():
    # n_max 5300 needs sizes above 2^14 at once; the parent built the
    # 14-million-entry triangle first and peaked near 429 MB before refusing
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="did not settle"):
            oracle_state(SqueezedInput(r=1.0, alpha=0.5), 5300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def serial_kept_column(state, dim):
    """The headroom loop with one size per _single_mode call, each a quarter above the last."""
    size = dim + math.ceil(1.5 * dim)
    kept = _single_mode(state, [size])[0][:dim]
    while True:
        size += math.ceil(size / 4)
        assert size <= pcbs.oracle._MAX_SIZE
        grown = _single_mode(state, [size])[0][:dim]
        if np.max(np.abs(grown - kept)) <= 1e-13:
            return grown
        kept = grown


def _bit_identity_cases():
    for r in _R_GRID:
        for alpha in _ALPHA_GRID:
            state = SqueezedInput(r=float(r), alpha=float(alpha))
            yield state, TruncationPolicy(tail_tolerance=1e-8).for_state(state).n_max
    for alpha in (0.5, 1.0):
        yield SqueezedInput(r=2.0, alpha=alpha), suggest_n_max(2.0, alpha, 1e-8)
        # the loop grows past the first pair of sizes here
        for n_max in (5, 12):
            yield SqueezedInput(r=2.0, alpha=alpha), n_max


def test_paired_headroom_keeps_the_serial_bits(monkeypatch):
    cases = list(_bit_identity_cases())
    got = [oracle_state(state, n_max) for state, n_max in cases]
    monkeypatch.setattr(pcbs.oracle, "_kept_column", serial_kept_column)
    for (state, n_max), amp in zip(cases, got):
        assert np.array_equal(amp, oracle_state(state, n_max)), (state, n_max)


@pytest.mark.parametrize("r,alpha,dim", [(1.0, 0.5, 50), (2.0, 1.0, 13), (0.5, 0.0, 6)])
def test_seam_leaves_each_block_its_own_state(r, alpha, dim):
    state = SqueezedInput(r=r, alpha=alpha)
    small = dim + math.ceil(1.5 * dim)
    large = small + math.ceil(small / 4)
    pair = _single_mode(state, [small, large])
    assert [block.size for block in pair] == [small, large]
    # the larger block sets the 1-norm, so it gets the terms it gets alone
    assert np.array_equal(pair[1], _single_mode(state, [large])[0])
    # the smaller runs on the larger 1-norm: more terms, the same exponential
    assert np.max(np.abs(pair[0] - _single_mode(state, [small])[0])) <= 1e-15


@pytest.mark.parametrize("ceiling", [16, 64])
def test_headroom_never_builds_a_size_above_the_ceiling(monkeypatch, ceiling):
    # at dim 6 the sizes run 15, 19, 24, ..., 60, 75: 16 sits inside the first pair
    requested = []

    def spy(state, sizes):
        requested.append(list(sizes))
        return _single_mode(state, sizes)

    monkeypatch.setattr(pcbs.oracle, "_MAX_SIZE", ceiling)
    monkeypatch.setattr(pcbs.oracle, "_single_mode", spy)
    with pytest.raises(ValueError, match="did not settle"):
        oracle_state(SqueezedInput(r=2.0, alpha=0.5), 5)
    assert all(size <= ceiling for sizes in requested for size in sizes)
    assert requested == ([] if ceiling == 16 else [[15, 19], [24], [30], [38], [48], [60]])


def test_settled_first_pair_takes_three_exponentials(monkeypatch):
    # displacement and squeeze on both sizes at once, then the splitter
    calls = []

    def spy(offset, coeffs, v):
        calls.append(offset)
        return _expm_apply(offset, coeffs, v)

    monkeypatch.setattr(pcbs.oracle, "_expm_apply", spy)
    oracle_state(SqueezedInput(r=1.0, alpha=0.5), 49)
    assert calls == [1, 2, 1]


def band_generator(offset, coeffs, size):
    """The sparse matrix A[i + offset, i] = coeffs[i] = -A[i, i + offset]."""
    from scipy.sparse import diags   # kept out of the package: the oracle needs no sparse matrix

    return diags([coeffs, -coeffs], [-offset, offset], shape=(size, size), format="csr")


def band_couplings(offset, size, norm, ladder, rng, seams=()):
    """The couplings of a band pair on ``size`` entries, scaled to 1-norm ``norm``.

    ladder: sqrt(n) couplings as in the oracle's generators; else random signs
    and sizes.  At each seam, ``offset`` zero couplings cut every link across it.
    """
    coeffs = np.sqrt(np.arange(1.0, size - offset + 1)) if ladder else rng.normal(size=size - offset)
    for seam in seams:
        start = seam % max(coeffs.size, 1)
        coeffs[start:start + offset] = 0.0
    column = np.zeros(size)
    column[:-offset] = np.abs(coeffs)
    column[offset:] += np.abs(coeffs)
    if column.max(initial=0.0) > 0.0:
        coeffs *= norm / column.max()
    return coeffs


@settings(max_examples=60, deadline=None)
@given(offset=st.sampled_from([1, 2]), size=st.integers(2, 400),
       # expm_multiply divides by zero at subnormal norms
       norm=st.floats(0.0, 300.0, allow_subnormal=False),
       ladder=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_expm_apply_matches_scipy(offset, size, norm, ladder, seed):
    from scipy.sparse.linalg import expm_multiply

    rng = np.random.default_rng(seed)
    coeffs = band_couplings(offset, size, norm, ladder, rng)
    v = rng.normal(size=size)
    scale = np.linalg.norm(v)
    # The reference sets the bound: each of expm_multiply's Taylor substeps (1-norm
    # theta up to 9.9) rounds by up to e^theta 2^-53 of |v| when v sits on the extreme
    # eigenvalues, as on a 2 x 2 rotation, and the errors add over its norm / theta
    # substeps.  The Chebyshev sum stays below 0.16 norm 2^-53 |v| on 2 x 2 rotations
    # of norm 8 to 2e4 against a 30-digit rotation.
    tol = 1e-12 * max(1.0, norm / 8.0) * scale

    got = _expm_apply(offset, coeffs, v)
    want = expm_multiply(band_generator(offset, coeffs, size), v, traceA=0.0)
    assert np.max(np.abs(got - want)) <= tol
    assert np.max(np.abs(_expm_apply(offset, -coeffs, got) - v)) <= tol
    assert abs(np.linalg.norm(got) - scale) <= tol
    np.testing.assert_array_equal(_expm_apply(offset, np.zeros(size - offset), v), v)


def add_2b_expm_apply(offset, coeffs, v):
    """_expm_apply with its term loop as first written: a nested add_2b that
    cuts the band slices of its buffers afresh at every term."""
    out = np.array(v, dtype=float)
    column = np.zeros(out.size)
    column[:-offset] = np.abs(coeffs)
    column[offset:] += np.abs(coeffs)
    rho = column.max(initial=0.0)
    if not math.isfinite(rho):
        raise ValueError(f"oracle: the generator's 1-norm is {rho}")
    if rho > 0.0:
        weights = (2.0 * _bessel_j(rho)).tolist()
        c = coeffs * (2.0 / rho)
        lower, term = np.empty(out.size - offset), np.empty_like(out)
        prev, cur = out, np.zeros_like(out)

        def add_2b(into, w):
            np.multiply(c, w[:-offset], out=lower)
            into[offset:] += lower
            np.multiply(c, w[offset:], out=lower)
            into[:-offset] -= lower

        add_2b(cur, prev)
        cur *= 0.5
        out = prev * (0.5 * weights[0]) + cur * weights[1]
        for weight in weights[2:]:
            add_2b(prev, cur)
            prev, cur = cur, prev
            np.multiply(cur, weight, out=term)
            out += term
    if not np.isfinite(out).all():
        raise ValueError(f"oracle: exp(A) v is not finite (1-norm {rho:g})")
    return out


def same_bits(a, b):
    # stricter than np.array_equal: the sign of each zero counts too
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(offset=st.sampled_from([1, 2]), size=st.integers(2, 400),
       # 2 / rho overflows at a subnormal 1-norm, on either loop
       norm=st.floats(0.0, 300.0, allow_subnormal=False), ladder=st.booleans(),
       seams=st.lists(st.integers(0, 399), max_size=4), seed=st.integers(0, 2**32 - 1))
def test_expm_apply_keeps_the_add_2b_bits(offset, size, norm, ladder, seams, seed):
    rng = np.random.default_rng(seed)
    coeffs = band_couplings(offset, size, norm, ladder, rng, seams)
    v = rng.normal(size=size)
    assert same_bits(_expm_apply(offset, coeffs, v), add_2b_expm_apply(offset, coeffs, v))


def test_oracle_keeps_the_add_2b_bits(monkeypatch):
    cases = list(_bit_identity_cases())
    got = [oracle_state(state, n_max) for state, n_max in cases]
    monkeypatch.setattr(pcbs.oracle, "_expm_apply", add_2b_expm_apply)
    for (state, n_max), amp in zip(cases, got):
        assert same_bits(amp, oracle_state(state, n_max)), (state, n_max)


def test_expm_apply_refuses_a_non_finite_vector(monkeypatch):
    v = np.array([np.nan, 0.0, 0.0, 0.0])
    for coeffs in (np.ones(3), np.zeros(3)):
        with pytest.raises(ValueError, match="not finite"):
            _expm_apply(1, coeffs, v)
    # a NaN column reaches the splitter's exponential, which refuses it
    monkeypatch.setattr(pcbs.oracle, "_kept_column", lambda state, dim: np.full(dim, np.nan))
    with pytest.raises(ValueError, match="not finite"):
        oracle_state(SqueezedInput(r=1.0, alpha=0.5), 5)


@pytest.mark.parametrize("r, alpha", [(0.0, 1e308), (0.0, -1e308), (700.0, 1e308)])
def test_an_overflowing_generator_is_refused_without_a_warning(r, alpha):
    # alpha sqrt(n) and its 1-norm's column sums pass the largest float: the
    # documented refusal, not numpy's overflow warning, reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the generator's 1-norm is inf"):
            oracle_state(SqueezedInput(r=r, alpha=alpha), 1)


@pytest.mark.parametrize("alpha", [5e-324, 1e-310, 2.2e-308])
def test_oracle_serves_a_subnormal_norm(alpha):
    # the displacement's 1-norm, a few times alpha, is subnormal at the first
    # two, where 2 / rho overflows; at 2.2e-308 it is normal
    state = SqueezedInput(r=0.0, alpha=alpha)
    amp = output_amplitudes(state, TruncationPolicy(n_max=4))
    assert np.max(np.abs(oracle_state(state, 4) - amp)[triangle(4)]) <= 1e-12
    v = np.array([1.0, -0.5, 0.25])
    assert same_bits(_expm_apply(1, np.array([alpha, -alpha]), v), v)


def besselj_reference(rho, count):
    """J_0(rho)..J_{count-1}(rho) to better than 50 digits, as mpmath numbers.

    mpmath.besselj slows with order and rho (about 30 ms an order at rho = 2000),
    so from rho = 100 on it gives J_0, J_1 and the last order, and the upward
    recurrence J_{k+1} = (2k / rho) J_k - J_{k-1} at 80 digits gives the rest; the
    upward run loses fewer than 25 digits by the last order, whose direct value
    checks it.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        x = mpmath.mpf(rho)
        if rho < 100:
            return [mpmath.besselj(k, x) for k in range(count)]
        j = [mpmath.besselj(0, x), mpmath.besselj(1, x)]
        for k in range(1, count - 1):
            j.append(2 * k / x * j[k] - j[k - 1])
        assert abs(j[-1] - mpmath.besselj(count - 1, x)) < mpmath.mpf(10) ** -45
        return j


@pytest.mark.parametrize("rho", [1e-300, 1e-10, 0.3, 2.404825557695773, 8.0, 127.0, 760.0,
                                 2000.0])
def test_bessel_coefficients_match_50_digit_besselj(rho):
    # 2.404825557695773 is a zero of J_0; the sum stops after the last |J_k| >= 2^-60,
    # but keeps J_0 and J_1 however small rho is
    got = _bessel_j(rho)
    want = besselj_reference(rho, got.size + 1)
    assert got.size >= 2
    assert np.max(np.abs(got - np.array(want[:-1], dtype=float))) <= 4e-16
    assert abs(want[-1]) < 2.0 ** -60
    assert got.size == 2 or abs(want[-2]) >= 2.0 ** -60


def test_oracle_shares_no_algebra_with_fock():
    tree = ast.parse(inspect.getsource(pcbs.oracle))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module != "__future__"}
    assert imported == {"math", "numpy", ".errors", ".fock"}
    from_fock, from_errors = ({alias.name for node in ast.walk(tree)
                               if isinstance(node, ast.ImportFrom) and node.module == module
                               for alias in node.names} for module in ("fock", "errors"))
    assert from_fock == {"SqueezedInput"}
    assert from_errors == {"_is_index"}    # the package's integer rule for n_max, no algebra
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"tanh", "cosh", "gammaln", "lgamma", "_log_factorials", "comb", "binom",
                    "_single_mode_column"}
