import ast
import inspect

import numpy as np
import pytest

import pcbs.oracle
from pcbs.fock import SqueezedInput, TruncationPolicy, output_amplitudes, suggest_n_max
from pcbs.oracle import oracle_state


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


def test_oracle_shares_no_algebra_with_fock():
    tree = ast.parse(inspect.getsource(pcbs.oracle))
    from_fock = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "fock"
                 for alias in node.names}
    assert from_fock == {"SqueezedInput", "AmplitudeMatrix"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"tanh", "cosh", "gammaln", "comb", "binom", "_single_mode_column"}
