import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcbs.errors import NoHeraldError, TruncationError
from pcbs.fock import (
    SqueezedInput,
    TruncationPolicy,
    _coincidence_11,
    _single_mode_column,
    suggest_n_max,
)
from pcbs.stats import (
    _golden_maximum,
    _herald_probability,
    herald_marginal,
    heralded_stats,
    joint_distribution,
    locate_maximum,
    sweep_r,
    threshold_probs,
)

WORKING_POINT = SqueezedInput(r=1.0, alpha=0.5)
WORKING_POLICY = TruncationPolicy(n_max=49, tail_tolerance=1e-8)

# published conditional distribution P(n) = P(1,n)/P1 at r=1, alpha=1/2
TABLE_PN = [0.145, 0.520, 0.104, 0.144, 0.0343, 0.0325, 0.00885]


@pytest.fixture(scope="module")
def working_jd():
    return joint_distribution(WORKING_POINT, WORKING_POLICY)


def test_joint_mass_and_shape(working_jd):
    assert isinstance(working_jd, np.ndarray)
    assert 1.0 - 1e-8 <= working_jd.sum() <= 1.0 + 1e-12
    assert working_jd.shape == (50, 50)


def test_joint_transpose_invariance(working_jd):
    assert np.array_equal(working_jd, working_jd.T)


def test_herald_probability(working_jd):
    hs = heralded_stats(working_jd)
    assert np.isclose(hs.p1, 0.15053769523034966, atol=1e-9)
    assert abs(hs.p1 - 0.151) < 0.002


@pytest.mark.parametrize("n", range(7))
def test_conditional_distribution_table(working_jd, n):
    hs = heralded_stats(working_jd)
    assert abs(hs.pn[n] - TABLE_PN[n]) < 0.002


def test_conditional_distribution_frozen_digits(working_jd):
    hs = heralded_stats(working_jd)
    frozen = [0.145491034531402, 0.5203176429967711, 0.10386295031625507,
              0.14367557647601437, 0.034273656037406335, 0.03252474240783452,
              0.008853960432660258]
    assert np.allclose(hs.pn[:7], frozen, atol=1e-9)
    assert np.isclose(np.sum(hs.pn), 1.0, atol=1e-12)


def test_odd_photon_enhancement(working_jd):
    hs = heralded_stats(working_jd)
    assert hs.pn[1] > hs.pn[0]
    assert hs.pn[3] > hs.pn[2]


def test_heralded_beats_coherent_bound(working_jd):
    hs = heralded_stats(working_jd)
    assert hs.pn[1] > 1.0 / math.e


def test_g2(working_jd):
    hs = heralded_stats(working_jd)
    assert np.isclose(hs.g2, 1.170340763124887, atol=1e-9)
    assert abs(hs.g2 - 1.17) < 0.02


def test_no_herald_raises():
    jd = joint_distribution(SqueezedInput(r=0.0, alpha=0.0),
                            TruncationPolicy(n_max=8, tail_tolerance=1e-8))
    with pytest.raises(NoHeraldError):
        heralded_stats(jd)


def test_threshold_probs(working_jd):
    tp = threshold_probs(working_jd)
    assert np.isclose(tp.q1, 0.508880336772906, atol=1e-9)
    assert np.isclose(tp.q2, 0.43496492516672197, atol=1e-9)
    assert np.isclose(tp.q3, 0.1286358102153132, atol=1e-9)
    assert abs(tp.q1 - 0.509) < 0.002
    assert abs(tp.q2 - 0.435) < 0.002
    assert abs(tp.q3 - 0.129) < 0.002
    assert abs(tp.baseline_miss - 0.074) < 0.002
    assert abs(tp.attacked_miss - 0.139) < 0.002
    assert np.isclose(tp.simulated_attack_miss, 0.171759, atol=1e-6)


def test_threshold_identities(working_jd):
    tp = threshold_probs(working_jd)
    assert tp.attacked_miss == tp.baseline_miss + 0.5 * tp.q3
    # q1 is the herald marginal summed over n1 >= 1
    marg = float(np.sum(working_jd[1:, :]))
    assert abs(tp.q1 - marg) < 1e-10


def test_herald_marginal_is_the_column_sum_below_row_0(working_jd):
    p = working_jd
    m = herald_marginal(p)
    assert m.shape == (p.shape[1],)
    assert np.allclose(m, [sum(p[n1, k] for n1 in range(1, p.shape[0])) for k in range(p.shape[1])],
                       rtol=1e-14, atol=0.0)
    tp = threshold_probs(working_jd)
    assert (tp.baseline_miss, tp.q3, tp.q1) == (m[0], m[1], float(np.sum(m)))
    assert np.isclose(tp.simulated_attack_miss, sum(m[k] / 2**k for k in range(m.size)),
                      rtol=1e-14, atol=0.0)


EPS = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(r=st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(0.0, 2.0)),
       alpha=st.one_of(st.sampled_from([0.0, 1e-150, -1e-150, 5e-324]), st.floats(-4.0, 4.0)))
@example(r=2.227e-37, alpha=0.0)    # q2 once came out below 0 here
@example(r=0.0, alpha=1e-150)       # and q1 read 0 below p1 = 5e-301
def test_threshold_probs_are_ordered_probabilities(r, alpha):
    jd = joint_distribution(SqueezedInput(r=r, alpha=alpha),
                            TruncationPolicy(n_max=suggest_n_max(r, alpha)))
    tp = threshold_probs(jd)
    assert min(tp.q1, tp.q2, tp.q3, tp.baseline_miss, tp.attacked_miss,
               tp.simulated_attack_miss) >= 0.0
    try:
        p1 = heralded_stats(jd).p1
    except NoHeraldError:
        p1 = 0.0
    bound = tp.q1 * (1.0 + 4.0 * EPS)
    assert tp.q2 <= bound and tp.baseline_miss <= bound and p1 <= bound
    assert tp.simulated_attack_miss <= bound


def test_sweep_values_and_monotone_pn1():
    _, _, _, pn1 = sweep_r(0.5, [0.0, 0.5, 1.0, 1.5, 1.8, 2.0])
    assert np.allclose(pn1, [0.110312113, 0.417130842, 0.520317643,
                             0.580237852, 0.605890982, 0.618424030], atol=1e-8)
    assert all(b >= a for a, b in zip(pn1, pn1[1:]))
    # r=0 rows are coherent light: pn(1) collapses to the Poisson weight
    lam = 0.5**2 / 2
    assert np.isclose(pn1[0], lam * math.exp(-lam), atol=1e-12)


@pytest.mark.parametrize("r, n_max", [(2.0, 40), (3.0, 60)])
def test_sweep_serves_strong_squeeze(r, n_max):
    # the box at n_max holds 0.91 and 0.50 of the mass here, yet P1 is
    # exact: a herald row long enough to drop nothing agrees with it
    state = SqueezedInput(r=r, alpha=0.5)
    with pytest.raises(TruncationError):
        joint_distribution(state, TruncationPolicy(n_max=n_max))
    _, (p11,), (p1,), (pn1,) = sweep_r(0.5, [r])
    t = np.arange(1, 402)     # the herald row P(1, n) = T psi_T^2 / 2^T, T = n + 1, n <= 400
    exact = float(np.sum(np.ldexp(t * _single_mode_column(r, 0.5, 401)[1:] ** 2, -t)))
    assert abs(p1 - exact) <= 1e-14 * exact
    assert math.isfinite(p11) and math.isfinite(pn1)


def test_sweep_vacuum_row_has_no_herald():
    _, _, (p1,), (pn1,) = sweep_r(0.0, [0.0])
    assert p1 == 0.0 and math.isnan(pn1)


def test_sweep_returns_its_four_columns():
    grid = np.linspace(0.0, 2.0, 5)
    r, p11, p1, pn1 = sweep_r(0.5, grid)
    assert r == grid.tolist()
    assert p11 == [_coincidence_11(x, 0.5) for x in r]
    assert p1 == [_herald_probability(x, 0.5) for x in r]
    assert pn1 == [a / b for a, b in zip(p11, p1)]
    assert all(type(x) is float for column in (r, p11, p1, pn1) for x in column)
    assert sweep_r(0.5, []) == ([], [], [], [])


def test_sweep_rejects_negative_r():
    with pytest.raises(ValueError):
        sweep_r(0.5, [-0.5])


@pytest.mark.parametrize("bad", [math.nan, -0.5, math.inf, 711.0])
def test_sweep_checks_every_r_of_its_grid(bad):
    # one check before any point; a NaN first or last must not hide from max()
    match = "too large" if bad == 711.0 else None
    for grid in ([bad], [0.5, bad], [bad, 0.5], [711.0, bad], [bad, 711.0]):
        with pytest.raises(ValueError, match=match):
            sweep_r(0.5, np.array(grid))


def test_locate_maximum_p11():
    r_star, val = locate_maximum(0.5, "p11", 0.3, 1.3)
    assert abs(val - 0.0799) < 0.002
    assert abs(r_star - 0.85) < 0.01


def test_locate_maximum_p1():
    r_star, val = locate_maximum(0.5, "p1", 0.3, 1.3)
    assert abs(val - 0.165) < 0.002
    assert abs(r_star - 0.675) < 0.01


def test_locate_maximum_rejects_boundary_and_bad_quantity():
    with pytest.raises(ValueError):
        locate_maximum(0.5, "p11", 0.0, 0.3)
    with pytest.raises(ValueError):
        locate_maximum(0.5, "flux", 0.0, 2.0)


def test_locate_maximum_refuses_r_beyond_the_state():
    # P1 is computed without a SqueezedInput, so the range is checked once up front
    for quantity in ("p11", "p1"):
        with pytest.raises(ValueError, match="too large"):
            locate_maximum(0.5, quantity, 0.0, 711.0)


def _scipy_golden_maximum(f, xs):
    from scipy.optimize import minimize_scalar   # kept out of the package: it slows `import pcbs.cli`

    res = minimize_scalar(lambda x: -f(x), bracket=tuple(xs), method="golden",
                          options={"xtol": 1e-6})
    return float(res.x), float(-res.fun)


@pytest.mark.parametrize("quantity", ["p11", "p1"])
def test_golden_search_matches_scipy_on_the_default_sweep(quantity):
    # the brackets `pcbs sweep` refines: alpha 0.5, r in [0, 2]
    def f(r):
        if quantity == "p1":
            return _herald_probability(r, 0.5)
        return float(np.ldexp(2 * _single_mode_column(r, 0.5, 2)[2] ** 2, -2))

    grid = np.linspace(0.0, 2.0, 33).tolist()
    vals = [f(r) for r in grid]
    i = int(np.argmax(vals))
    want = _scipy_golden_maximum(f, grid[i - 1:i + 2])
    assert _golden_maximum(f, grid[i - 1:i + 2], vals[i - 1:i + 2]) == want
    assert locate_maximum(0.5, quantity, 0.0, 2.0) == want


def test_golden_search_matches_scipy_on_random_brackets():
    def f(x):
        return math.exp(-(x - 0.7) ** 2) * (1.0 + 0.1 * math.sin(3.0 * x))

    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(300):
        xb = 0.7 + rng.normal(scale=0.05)
        xs = [xb - rng.uniform(1e-4, 0.5), xb, xb + rng.uniform(1e-4, 0.5)]
        fs = [f(x) for x in xs]
        if not (fs[1] > fs[0] and fs[1] > fs[2]):
            continue
        assert _golden_maximum(f, xs, fs) == _scipy_golden_maximum(f, xs)
        checked += 1
    assert checked >= 200


def test_golden_search_rejects_a_tied_bracket_like_scipy():
    def f(x):
        return -abs(x - 1.0) if x < 1.0 else 0.0     # flat from 1 on: xb ties with xc

    xs = [0.5, 1.0, 1.5]
    with pytest.raises(ValueError):
        _golden_maximum(f, xs, [f(x) for x in xs])
    with pytest.raises(ValueError):
        _scipy_golden_maximum(f, xs)


def test_g2_is_nan_without_a_photon_behind_the_herald():
    # P(1, 0) = 5e-301 heralds, while P(1, 1) underflows to 0: <n> = 0
    jd = joint_distribution(SqueezedInput(r=0.0, alpha=1e-150), TruncationPolicy(n_max=4))
    hs = heralded_stats(jd)
    assert hs.p1 > 0.0 and hs.pn[0] == 1.0 and math.isnan(hs.g2)
