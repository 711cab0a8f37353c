import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcbs.oracle
from pcbs.fock import SqueezedInput, TruncationPolicy, output_amplitudes, suggest_n_max
from pcbs.oracle import _expm_apply, oracle_state


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
    cf = output_amplitudes(state, policy).entries
    orc = oracle_state(state, n_max).entries
    return float(np.max(np.abs(cf - orc)[triangle(n_max)]))


def test_oracle_vacuum():
    orc = oracle_state(SqueezedInput(r=0.0, alpha=0.0), 6).entries
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
    orc = oracle_state(SqueezedInput(r=0.8, alpha=0.0), 24).entries
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


def test_oracle_is_zero_outside_triangle():
    orc = oracle_state(SqueezedInput(r=1.0, alpha=1.0), 12).entries
    assert np.all(orc[~triangle(12)] == 0.0)


def test_oracle_refuses_unsettled_headroom(monkeypatch):
    monkeypatch.setattr(pcbs.oracle, "_MAX_SIZE", 64)
    with pytest.raises(ValueError, match="did not settle"):
        oracle_state(SqueezedInput(r=2.0, alpha=0.5), 5)


def band_generator(offset, coeffs, size):
    """The sparse matrix A[i + offset, i] = coeffs[i] = -A[i, i + offset]."""
    from scipy.sparse import diags   # kept out of the package: the oracle needs no sparse matrix

    return diags([coeffs, -coeffs], [-offset, offset], shape=(size, size), format="csr")


@settings(max_examples=60, deadline=None)
@given(offset=st.sampled_from([1, 2]), size=st.integers(2, 400),
       # expm_multiply divides by zero at subnormal norms
       norm=st.floats(0.0, 300.0, allow_subnormal=False),
       ladder=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_expm_apply_matches_scipy(offset, size, norm, ladder, seed):
    from scipy.sparse.linalg import expm_multiply

    rng = np.random.default_rng(seed)
    # ladder: sqrt(n) couplings as in the oracle's generators; else random signs and sizes
    coeffs = np.sqrt(np.arange(1.0, size - offset + 1)) if ladder else rng.normal(size=size - offset)
    column = np.zeros(size)
    column[:-offset] = np.abs(coeffs)
    column[offset:] += np.abs(coeffs)
    if column.max(initial=0.0) > 0.0:
        coeffs *= norm / column.max()
    v = rng.normal(size=size)
    scale = np.linalg.norm(v)
    # A Taylor substep of 1-norm theta rounds by up to e^theta 2^-53 of |v| (3.3e-13
    # at theta = 8) when v sits on the extreme eigenvalues, as on a 2 x 2 rotation;
    # the errors add over substeps, in expm_multiply (theta up to 9.9) as here.
    tol = 1e-12 * max(1.0, norm / 8.0) * scale

    got = _expm_apply(offset, coeffs, v)
    want = expm_multiply(band_generator(offset, coeffs, size), v, traceA=0.0)
    assert np.max(np.abs(got - want)) <= tol
    assert np.max(np.abs(_expm_apply(offset, -coeffs, got) - v)) <= tol
    assert abs(np.linalg.norm(got) - scale) <= tol
    np.testing.assert_array_equal(_expm_apply(offset, np.zeros(size - offset), v), v)


def test_expm_apply_refuses_unconverged_series(monkeypatch):
    monkeypatch.setattr(pcbs.oracle, "_MAX_TERMS", 3)
    with pytest.raises(ValueError, match="did not converge within 3 terms"):
        oracle_state(SqueezedInput(r=1.0, alpha=0.5), 5)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="did not converge"):
        _expm_apply(1, np.ones(3), np.array([np.nan, 0.0, 0.0, 0.0]))


def test_oracle_shares_no_algebra_with_fock():
    tree = ast.parse(inspect.getsource(pcbs.oracle))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module != "__future__"}
    assert imported == {"math", "numpy", ".fock"}
    from_fock = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "fock"
                 for alias in node.names}
    assert from_fock == {"SqueezedInput", "AmplitudeMatrix"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"tanh", "cosh", "gammaln", "comb", "binom", "_single_mode_column"}
