import math

import numpy as np
import pytest

from pcbs.errors import NoHeraldError
from pcbs.fock import SqueezedInput, TruncationPolicy, herald_row
from pcbs.stats import (
    _golden_maximum,
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


def test_joint_echoes_input_and_mass(working_jd):
    assert working_jd.input_echo == WORKING_POINT
    assert 1.0 - 1e-8 <= working_jd.captured_mass <= 1.0 + 1e-12
    assert working_jd.p.shape == (50, 50)


def test_joint_transpose_invariance(working_jd):
    assert np.array_equal(working_jd.p, working_jd.p.T)


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


def test_threshold_identities(working_jd):
    tp = threshold_probs(working_jd)
    assert tp.attacked_miss == tp.baseline_miss + 0.5 * tp.q3
    # q1 is the herald marginal summed over n1 >= 1
    marg = float(np.sum(working_jd.p[1:, :]))
    assert abs(tp.q1 - marg) < 1e-10


def test_sweep_values_and_monotone_pn1():
    res = sweep_r(0.5, [0.0, 0.5, 1.0, 1.5, 1.8, 2.0], 60)
    assert res.alpha == 0.5
    pn1 = [pt.pn1 for pt in res.points]
    assert np.allclose(pn1, [0.110312113, 0.417130842, 0.520317643,
                             0.580237852, 0.605890982, 0.618424030], atol=1e-8)
    assert all(b >= a for a, b in zip(pn1, pn1[1:]))
    # r=0 rows are coherent light: pn(1) collapses to the Poisson weight
    lam = 0.5**2 / 2
    assert np.isclose(res.points[0].pn1, lam * math.exp(-lam), atol=1e-12)


@pytest.mark.parametrize("r, n_max", [(2.0, 40), (3.0, 60)])
def test_sweep_serves_strong_squeeze(r, n_max):
    # the box at n_max holds 0.91 and 0.50 of the mass here, yet P1 misses
    # only its herald-row tail, at most (n_max + 2) / 2^(n_max + 2)
    pt = sweep_r(0.5, [r], n_max).points[0]
    exact = float(np.sum(herald_row(SqueezedInput(r=r, alpha=0.5), 400)))
    assert abs(pt.p1 - exact) <= (n_max + 2) / 2.0 ** (n_max + 2)
    assert math.isfinite(pt.p11) and math.isfinite(pt.pn1)


def test_sweep_vacuum_row_has_no_herald():
    res = sweep_r(0.0, [0.0], 8)
    pt = res.points[0]
    assert pt.p1 == 0.0 and math.isnan(pt.pn1)


def test_sweep_rejects_negative_r():
    with pytest.raises(ValueError):
        sweep_r(0.5, [-0.5], 8)


def test_locate_maximum_p11():
    r_star, val = locate_maximum(0.5, "p11", 0.3, 1.3, 60, coarse=15)
    assert abs(val - 0.0799) < 0.002
    assert abs(r_star - 0.85) < 0.01


def test_locate_maximum_p1():
    r_star, val = locate_maximum(0.5, "p1", 0.3, 1.3, 60, coarse=15)
    assert abs(val - 0.165) < 0.002
    assert abs(r_star - 0.675) < 0.01


def test_locate_maximum_rejects_boundary_and_bad_quantity():
    with pytest.raises(ValueError):
        locate_maximum(0.5, "p11", 0.0, 0.3, 40, coarse=9)
    with pytest.raises(ValueError):
        locate_maximum(0.5, "flux", 0.0, 2.0, 40)


def _scipy_golden_maximum(f, xs):
    from scipy.optimize import minimize_scalar   # kept out of the package: it slows `import pcbs.cli`

    res = minimize_scalar(lambda x: -f(x), bracket=tuple(xs), method="golden",
                          options={"xtol": 1e-6})
    return float(res.x), float(-res.fun)


@pytest.mark.parametrize("quantity", ["p11", "p1"])
def test_golden_search_matches_scipy_on_the_default_sweep(quantity):
    # the brackets `pcbs sweep` refines: alpha 0.5, r in [0, 2], n_max 60
    def f(r):
        row = herald_row(SqueezedInput(r=float(r), alpha=0.5), 60)
        return float(row[1]) if quantity == "p11" else float(np.sum(row))

    grid = np.linspace(0.0, 2.0, 33).tolist()
    vals = [f(r) for r in grid]
    i = int(np.argmax(vals))
    want = _scipy_golden_maximum(f, grid[i - 1:i + 2])
    assert _golden_maximum(f, grid[i - 1:i + 2], vals[i - 1:i + 2]) == want
    assert locate_maximum(0.5, quantity, 0.0, 2.0, 60) == want


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
