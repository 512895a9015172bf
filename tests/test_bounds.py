import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mutegossip.bounds import (
    MeanDynamics,
    PrivacyReport,
    mean_fixed_point,
    optimal_c,
    optimal_delta,
    param_c,
    param_delta_bound,
    param_delta_exact,
    source_disclosure_prob,
    spreading_round_bound,
    strong_adversary_bounds,
)

TOL = 1e-12


def delta_series(s, f, n, terms=10_000):
    """Direct partial sum of 1 - (1-s) * sum s^k (1-f/n)^(k+1)."""
    q = 1 - f / n
    acc = sum((1 - s) * s**k * q ** (k + 1) for k in range(terms))
    return 1 - acc


def disclosure_series(s, f, n, terms=10_000):
    """Direct partial sum of sum (1-s) s^k (1 - (1-f/n)^(k+1))."""
    q = 1 - f / n
    return sum((1 - s) * s**k * (1 - q ** (k + 1)) for k in range(terms))


# ---------------------------------------------------------------------------
# Optimal bounds


def test_optimal_delta_at_zero_epsilon():
    assert abs(optimal_delta(0.0, 100, 1000) - 0.1) < TOL


def test_optimal_delta_vanishes_at_log_f_plus_one():
    for f, n in [(1, 4), (5, 50), (100, 1000), (317, 5000)]:
        assert optimal_delta(math.log(f + 1), f, n) < TOL
        # clamped at zero beyond the pure-DP point
        assert optimal_delta(math.log(f + 1) + 0.5, f, n) == 0.0


def test_optimal_delta_quarter():
    assert abs(optimal_delta(0.0, 1, 4) - 0.25) < TOL


def test_optimal_delta_no_curious_nodes():
    assert optimal_delta(0.7, 0, 10) == 0.0


@given(eps=st.floats(0, 8), eps2=st.floats(0, 8))
@settings(max_examples=50, deadline=None)
def test_optimal_delta_monotone_in_epsilon(eps, eps2):
    lo, hi = sorted([eps, eps2])
    assert optimal_delta(hi, 100, 1000) <= optimal_delta(lo, 100, 1000) + TOL


def test_optimal_c_values():
    assert abs(optimal_c(100, 1000) - (1000 / 101 - 1)) < TOL
    assert f"{optimal_c(100, 1000):.10f}" == "8.9009900990"
    assert optimal_c(0, 10) == 9.0


def test_optimal_c_attack_success_cap():
    report = PrivacyReport(0.0, 0.1, optimal_c(100, 1000), "optimal")
    assert abs(report.attack_success_cap - 101 / 1000) < TOL


# ---------------------------------------------------------------------------
# Parameterized protocol formulas


def test_param_delta_exact_endpoints():
    for f, n in [(1, 10), (100, 1000), (25, 256)]:
        assert abs(param_delta_exact(0.0, f, n) - f / n) < TOL
        assert abs(param_delta_exact(0.0, f, n) - optimal_delta(0.0, f, n)) < TOL
        assert param_delta_exact(1.0, f, n) == 1.0
        assert param_delta_exact(1.0 - 1e-9, f, n) > 0.99


def test_param_delta_exact_closed_value():
    assert abs(param_delta_exact(0.5, 100, 1000) - (1 - 0.45 / 0.55)) < TOL
    assert abs(param_delta_exact(0.5, 100, 1000) - 0.18181818181818181) < 1e-12


@pytest.mark.parametrize("s", [0.1, 0.33, 0.5, 0.9])
@pytest.mark.parametrize("fn", [(10, 1000), (100, 1000), (77, 256)])
def test_param_delta_exact_matches_partial_sum(s, fn):
    f, n = fn
    assert abs(param_delta_exact(s, f, n) - delta_series(s, f, n)) < 1e-10


def test_param_delta_exact_monotone():
    grid = np.linspace(0, 0.999, 40)
    vals = [param_delta_exact(s, 100, 1000) for s in grid]
    assert all(a <= b + TOL for a, b in zip(vals, vals[1:]))
    fr = [param_delta_exact(0.3, f, 1000) for f in (10, 50, 100, 300, 600)]
    assert all(a <= b + TOL for a, b in zip(fr, fr[1:]))


def test_param_delta_bound_r1_form():
    for s in (0.0, 0.2, 0.7, 1.0):
        f, n = 100, 1000
        assert abs(param_delta_bound(s, f, n, 1) - (s + (1 - s) * f / n)) < TOL


def test_param_delta_bound_dominates_exact_on_grid():
    svals = np.linspace(0, 1, 20)
    fvals = np.linspace(0.02, 0.8, 20)
    n = 1000
    for s in svals:
        for fv in fvals:
            f = int(fv * n)
            for r in (1, 2, 5):
                assert param_delta_bound(s, f, n, r) >= param_delta_exact(s, f, n) - TOL


def test_param_delta_ratio_below_two_for_small_s():
    # At s <= f/n the certified delta is within a factor 2 of optimal.
    for f, n in [(100, 1000), (50, 500), (25, 256)]:
        for s in np.linspace(1e-6, f / n, 15):
            ratio = param_delta_bound(s, f, n, 1) / optimal_delta(0.0, f, n)
            assert ratio <= 2.0 + 1e-9


def test_param_c_values():
    assert param_c(1.0, 100, 1000) == 0.0
    assert abs(param_c(0.0, 100, 1000) - 0.899) < TOL
    assert abs(param_c(0.5, 100, 1000) - 0.4495) < TOL


def test_source_disclosure_prob_matches_exact_delta():
    for s in (0.1, 0.33, 0.5, 0.77):
        assert abs(source_disclosure_prob(s, 100, 1000) - param_delta_exact(s, 100, 1000)) < TOL
        assert abs(source_disclosure_prob(s, 100, 1000) - disclosure_series(s, 100, 1000)) < 1e-10
    assert source_disclosure_prob(0.0, 100, 1000) == 0.1
    assert source_disclosure_prob(1.0, 100, 1000) == 1.0
    assert source_disclosure_prob is param_delta_exact


@pytest.mark.parametrize("fn, args", [
    (source_disclosure_prob, (5.0, 100, 1000)),
    (source_disclosure_prob, (-0.5, 100, 1000)),
    (spreading_round_bound, (1000, 7.0)),
], ids=["disclosure-s5", "disclosure-s-0.5", "round_bound-s7"])
def test_s_outside_unit_interval_rejected(fn, args):
    # The closed forms check (n, f, s) by GossipConfig's rule.
    with pytest.raises(ValueError, match="s must be in"):
        fn(*args)


def test_strong_adversary_bounds():
    report = strong_adversary_bounds(100, 1000)
    assert report.delta == 0.1 and report.c == 0.0
    assert strong_adversary_bounds(0, 10).delta == 0.0
    assert report.regime == "strong-adversary"


# ---------------------------------------------------------------------------
# Mean dynamics


def test_mean_step_endpoints():
    dyn = MeanDynamics(s=0.5, n=2**16)
    assert dyn.step(0.0) == 0.0
    big = MeanDynamics(s=1.0, n=2**16)
    assert big.step(1.0) > 1 - 1e-4  # everyone active, nobody deactivates


def test_mean_step_growth_inequality():
    # step(alpha) >= (1 + s/2) alpha for alpha below the growth threshold.
    for s in (0.05, 0.1, 0.33, 0.5, 1.0):
        dyn = MeanDynamics(s=s, n=2**16)
        for alpha in np.linspace(1e-6, dyn.growth_threshold, 25):
            assert dyn.step(alpha) >= (1 + s / 2) * alpha - 1e-12


def test_fixed_point_self_consistency():
    for s in (0.05, 0.1, 0.33, 0.5, 1.0):
        dyn = MeanDynamics(s=s, n=2**16)
        a = dyn.fixed_point()
        assert abs(dyn.step(a) - a) < 1e-9


def test_fixed_point_monotone_in_s():
    vals = [mean_fixed_point(s, 2**16) for s in (0.05, 0.1, 0.33, 0.5, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0  # s=1: nobody ever deactivates


def test_fixed_point_unique_sign_change():
    # g = step(alpha) - alpha changes sign exactly once on (0, 1].
    for s in (0.1, 0.33, 0.5, 1.0):
        for n in (2**8, 2**12, 2**16):
            dyn = MeanDynamics(s=s, n=n)
            grid = np.linspace(1e-4, 1.0, 2000)
            signs = np.sign([dyn.step(a) - a for a in grid])
            signs = signs[signs != 0]
            flips = int(np.sum(signs[1:] != signs[:-1]))
            assert flips <= 1


def test_fixed_point_requires_positive_s():
    with pytest.raises(ValueError):
        MeanDynamics(s=0.0, n=1000).fixed_point()


def test_round_bound_values():
    assert abs(spreading_round_bound(2**16, 1.0) - 6 * math.log(2**16)) < TOL
    assert abs(spreading_round_bound(2**16, 1.0) - 66.542) < 1e-2
    assert abs(spreading_round_bound(1000, 0.25) - 2 * spreading_round_bound(1000, 0.5)) < TOL


@pytest.mark.parametrize("call", [
    lambda: optimal_delta(math.nan, 10, 100),
    lambda: param_delta_bound(0.5, 10, 100, math.nan),
])
def test_closed_forms_refuse_nan(call):
    # NaN fails every comparison, so a guard written as `x < lo` let it
    # through: optimal_delta returned 0.0, the others NaN.
    with pytest.raises(ValueError):
        call()


def test_privacy_report_validation():
    with pytest.raises(ValueError):
        PrivacyReport(0.0, 1.5, 0.0, "x")
    with pytest.raises(ValueError):
        PrivacyReport(0.0, 0.5, -1.0, "x")
