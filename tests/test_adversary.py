import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mutegossip.adversary import (
    FirstGoesQuiet,
    FirstKDistinct,
    feed_all,
    map_attack,
    multi_rumor_attack,
    observe,
    observe_timed,
    silence_attack,
    silence_window,
)
from mutegossip.core import ExecutionTrace, GossipConfig, ObservedSequence, spawn_stream
from mutegossip.protocols import run_trace


def _obs(senders, receivers=None):
    senders = list(senders)
    if receivers is None:
        receivers = [10**6] * len(senders)
    return ObservedSequence(np.array(senders), np.array(receivers))


def test_observe_empty_when_no_curious_receiver():
    cfg = GossipConfig(n=6, f=1, s=0.0)
    trace = ExecutionTrace(cfg, senders=[0, 1], receivers=[1, 2], complete=False)
    assert len(observe(trace)) == 0


def test_observe_keeps_all_when_almost_all_curious():
    n = 8
    cfg = GossipConfig(n=n, f=n - 2, s=0.0, source=0)
    trace = run_trace(cfg, spawn_stream(1, 1))
    obs = observe(trace)
    mask = trace.receivers >= cfg.curious_lo
    assert np.array_equal(obs.senders, trace.senders[mask])
    assert np.array_equal(obs.receivers, trace.receivers[mask])


def test_observe_is_order_preserving_subsequence():
    cfg = GossipConfig(n=100, f=10, s=1.0)
    trace = run_trace(cfg, spawn_stream(2, 2))
    obs = observe(trace)
    assert np.all(np.isin(obs.receivers, np.arange(cfg.curious_lo, cfg.n)))
    # indices of retained events strictly increase (subsequence order)
    times = observe_timed(trace).times
    assert np.all(np.diff(times) > 0)


def test_observe_keep_fraction_matches_binomial():
    # Receivers are uniform, so the kept fraction concentrates at f/n.
    cfg = GossipConfig(n=100, f=10, s=1.0)
    rng = spawn_stream(3, 3)
    kept = total = 0
    while total < 10_000:
        trace = run_trace(cfg, rng)
        kept += len(observe(trace))
        total += len(trace)
    p = cfg.f / cfg.n
    sigma = math.sqrt(p * (1 - p) / total)
    assert abs(kept / total - p) < 4 * sigma


def test_observe_timed_matches_untimed():
    cfg = GossipConfig(n=64, f=8, s=0.5)
    trace = run_trace(cfg, spawn_stream(4, 4))
    timed = observe_timed(trace)
    plain = observe(trace)
    assert np.array_equal(timed.senders, plain.senders)
    assert np.array_equal(timed.receivers, plain.receivers)
    assert plain.times is None


def test_observe_timed_first_event_index_zero():
    cfg = GossipConfig(n=6, f=2, s=0.0)
    trace = ExecutionTrace(cfg, senders=[0, 1], receivers=[5, 1], complete=False)
    timed = observe_timed(trace)
    assert timed.times[0] == 0


# ---------------------------------------------------------------------------
# MAP attack


def test_map_attack_picks_first_in_prior():
    out = map_attack(_obs([5, 3, 8]), prior={3, 9}, rng=spawn_stream(0, 0))
    assert out.predicted == 3


def test_map_attack_singleton_prior_correct_when_source_discloses():
    cfg = GossipConfig(n=64, f=8, s=0.5)
    rng = spawn_stream(5, 5)
    checked = 0
    for _ in range(50):
        trace = run_trace(cfg, rng)
        obs = observe(trace)
        if cfg.source not in obs.senders:
            continue
        out = map_attack(obs, prior={cfg.source}, rng=rng, true_source=cfg.source)
        assert out.correct
        checked += 1
    assert checked > 10


def test_map_attack_fallback_is_uniform():
    # No prior member ever appears: long-run correctness is 1/|prior|.
    rng = spawn_stream(6, 6)
    prior = (11, 12, 13, 14)
    hits = sum(
        map_attack(_obs([]), prior=prior, rng=rng).predicted == 11 for _ in range(8000)
    )
    sigma = math.sqrt(0.25 * 0.75 / 8000)
    assert abs(hits / 8000 - 0.25) < 4 * sigma


@pytest.mark.parametrize("call", [
    lambda: silence_attack(_obs([1, 2]), math.nan),
    lambda: multi_rumor_attack([_obs([1, 2])], math.nan, spawn_stream(0, 0)),
    lambda: FirstGoesQuiet(0),
    lambda: FirstKDistinct(0),
])
def test_rules_refuse_a_window_or_k_below_one(call):
    # NaN fails every comparison, so a guard written as `r < 1` let it run
    # and predict; each rule checks its own parameter.
    with pytest.raises(ValueError, match="must be >= 1"):
        call()


def test_map_attack_requires_nonempty_prior():
    with pytest.raises(ValueError):
        map_attack(_obs([1]), prior=(), rng=spawn_stream(0, 0))


def test_map_attack_outcome_fields():
    out = map_attack(_obs([5, 3, 8]), prior={3}, rng=spawn_stream(0, 0), true_source=8)
    assert out.predicted == 3 and out.correct is False


# ---------------------------------------------------------------------------
# Multi-rumor attack


def test_first_k_distinct():
    assert feed_all(FirstKDistinct(3), [7, 7, 2, 7, 5, 2, 9]).leads == [7, 2, 5]
    assert feed_all(FirstKDistinct(3), [7, 7]).leads == [7]
    rule = FirstKDistinct(2)
    assert [rule.feed(x) for x in (7, 7, 2)] == [False, False, True]  # decided at the 2nd lead


def test_multi_rumor_single_instance_prediction():
    out = multi_rumor_attack([_obs([7, 7, 2, 5])], k=10, rng=spawn_stream(0, 1))
    assert out.predicted == 7  # everyone ties at one instance; 7 has rank 0


def test_multi_rumor_majority_wins():
    instances = [_obs([4, 1, 2]), _obs([3, 4, 5]), _obs([9, 8, 4]), _obs([1, 5, 9])]
    out = multi_rumor_attack(instances, k=3, rng=spawn_stream(0, 2))
    assert out.predicted == 4  # appears in 3 of 4 instances


def test_multi_rumor_tie_break_by_earliest_rank():
    instances = [_obs([4, 1]), _obs([1, 4]), _obs([2, 3])]
    # 4 and 1 both appear twice; both reach rank 0 somewhere -> random among
    # them, never 2 or 3.
    seen = set()
    for i in range(40):
        out = multi_rumor_attack(instances, k=2, rng=spawn_stream(i, 3))
        assert out.predicted in (1, 4)
        seen.add(out.predicted)
    assert seen == {1, 4}

    out = multi_rumor_attack([_obs([4, 1]), _obs([4, 9]), _obs([8, 1])], k=2, rng=spawn_stream(0, 4))
    assert out.predicted == 4  # tie on count, 4's earliest rank is lower


# ---------------------------------------------------------------------------
# Silence attack


def test_silence_attack_flags_quiet_first_sender():
    out = silence_attack(_obs([4, 9, 9, 1]), r=3, true_source=4)
    assert out.predicted == 4 and out.correct


def test_silence_attack_abstains_on_reappearance():
    assert silence_attack(_obs([4, 9, 4, 1]), r=3).abstained
    # reappearance outside the window does not trigger abstention
    assert silence_attack(_obs([4, 9, 1, 2, 4]), r=2).predicted == 4


def test_silence_attack_abstains_on_empty():
    assert silence_attack(_obs([]), r=3).abstained


@given(view=st.lists(st.integers(0, 5), max_size=12), r=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_silence_attack_predicts_first_sender_absent_from_window(view, r):
    # x = entry 0 is predicted exactly when x is absent from entries 1..r.
    out = silence_attack(_obs(view), r=r)
    quiet = bool(view) and view[0] not in view[1 : r + 1]
    assert out.predicted == (view[0] if quiet else None)


def test_first_goes_quiet_stops_at_first_repeat():
    # Decided at the first repeat of x, or after r entries that follow x.
    rule = FirstGoesQuiet(3)
    assert [rule.feed(x) for x in (4, 9)] == [False, False]
    assert rule.feed(4) and rule.predict() is None
    rule = FirstGoesQuiet(2)
    assert [rule.feed(x) for x in (4, -1, -1)] == [False, False, True]
    assert rule.predict() == 4


def test_silence_window_default():
    assert silence_window(2**12) == math.ceil(math.log(2**12) ** 2) == 70
