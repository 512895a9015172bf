import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from mutegossip import protocols
from mutegossip.adversary import FirstGoesQuiet, ObservedPrefix, observe
from mutegossip.core import ExecutionTrace, GossipConfig, RoundTrace, spawn_stream
from mutegossip.exact import _moves
from mutegossip.protocols import run_sync, run_trace


def test_tell_gossip_target_uniformity():
    # Chi-square goodness of fit on 1e5 receivers of step-capped runs: 20
    # steps cannot inform 50 nodes, so no run completes and every receiver
    # is an independent uniform draw.
    n = 50
    cfg = GossipConfig(n=n, f=5, s=1.0, step_cap=20)
    rng = spawn_stream(17, 0)
    traces = [run_trace(cfg, rng) for _ in range(5000)]
    assert not any(t.complete for t in traces)
    counts = np.bincount(np.concatenate([t.receivers for t in traces]), minlength=n)
    draws = 100_000
    assert counts.sum() == draws
    chi2, p = stats.chisquare(counts)
    assert p > 1e-4, f"receiver histogram not uniform (p={p})"
    # every per-bin deviation within 4 sigma of Binomial(draws, 1/n)
    sigma = np.sqrt(draws * (1 / n) * (1 - 1 / n))
    assert np.all(np.abs(counts - draws / n) < 4 * sigma)


def test_self_send_recorded():
    cfg = GossipConfig(n=4, f=1, s=1.0)
    rng = spawn_stream(5, 1)
    pairs = []
    for _ in range(20):
        trace = run_trace(cfg, rng)
        trace.validate()
        pairs.extend(zip(trace.senders.tolist(), trace.receivers.tolist()))
    assert any(x == y for x, y in pairs)  # self-sends happen and are ordinary events


def test_s0_trace_is_a_walk():
    # With s=0 there is exactly one active node: each event's sender is the
    # previous event's receiver.
    cfg = GossipConfig(n=128, f=12, s=0.0)
    trace = run_trace(cfg, spawn_stream(21, 3))
    assert trace.complete
    assert np.array_equal(trace.senders[1:], trace.receivers[:-1])


@given(s=st.sampled_from([0.0, 0.25, 0.5, 1.0]), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_async_completes_and_validates(s, seed):
    cfg = GossipConfig(n=80, f=8, s=s)
    trace = run_trace(cfg, spawn_stream(seed, 0))
    trace.validate()
    assert trace.complete


def test_async_coupon_collector_at_s0():
    # One message per step: total messages concentrate near n * ln(n).
    n = 2**10
    cfg = GossipConfig(n=n, f=102, s=0.0)
    rng = spawn_stream(23, 0)
    totals = [len(run_trace(cfg, rng)) for _ in range(100)]
    median = np.median(totals)
    assert abs(median - n * np.log(n)) / (n * np.log(n)) < 0.15


def test_async_determinism():
    cfg = GossipConfig(n=200, f=20, s=0.4)
    t1 = run_trace(cfg, spawn_stream(9, 9))
    t2 = run_trace(cfg, spawn_stream(9, 9))
    assert np.array_equal(t1.senders, t2.senders)
    assert np.array_equal(t1.receivers, t2.receivers)


# sha256 of the senders, receivers and completion of 20 run_trace runs at
# n=64 per case, one fixed stream each.  They pin the draw order of the
# per-node loop ("s01") and of the array engine (the other cases); the other
# run_trace tests check only the law.  A change that moves a draw order on
# purpose updates these digests and says so in CHANGES.md.
GOLDEN_TRACES = {
    "s0": (0.0, "parameterized", "71b617c3dcb2079f50b5aacc4c7e2ff9325e3e2df27623bd9eee9140588352cc"),
    "s01": (0.1, "parameterized", "7f72c38bd8321c9a58c6d473950c9722ebe04ddb6a01465e9d4fcb3087e4a40a"),
    "s1": (1.0, "parameterized", "1a1144af4920ddcaaa1d6b930bce1dcf00773ad2b09d1a0aad85a921480581bf"),
    "delayed": (1.0, "delayed_start", "681fa785983bec9bf179134050b592a6ba7c76bdee87b6b171b95ea7e9336e89"),
}


@pytest.mark.parametrize("name", GOLDEN_TRACES)
def test_run_trace_golden_digest(name):
    s, variant, digest = GOLDEN_TRACES[name]
    cfg = GossipConfig(n=64, f=6, s=s, variant=variant)
    rng = spawn_stream(47, list(GOLDEN_TRACES).index(name))
    h = hashlib.sha256()
    for _ in range(20):
        trace = run_trace(cfg, rng)
        h.update(trace.senders.tobytes())
        h.update(trace.receivers.tobytes())
        h.update(bytes([trace.complete]))
    assert h.hexdigest() == digest


LAW_CASES = [(0.0, "parameterized"), (1.0, "parameterized"), (1.0, "delayed_start")]


@pytest.mark.parametrize("s, variant", LAW_CASES)
def test_array_run_matches_the_loop_in_law(s, variant):
    # Two-sample tests of the array engine against the per-node loop, 400
    # runs each on disjoint streams: the trace-length law (chi-square over
    # the pooled sample's decile bins), each run's share of steps whose
    # sender is the previous receiver, and the share of runs completed.
    # The caps 3, 20, 200 and 1,500 stop runs inside the array engine's
    # blocks that start at steps 0, 16, 80 and 1,360.
    for i, (n, cap) in enumerate([(3, None), (3, 3), (8, None), (8, 20), (64, None), (64, 200),
                                  (300, None), (300, 1500)]):
        cfg = GossipConfig(n=n, f=0, s=s, variant=variant, step_cap=cap)
        runs = [[engine(cfg, rng) for _ in range(400)]
                for engine, rng in ((lambda cfg, rng: next(protocols._array_lanes(cfg, rng)), spawn_stream(83, 2 * i)),
                                    (protocols._sequential_run, spawn_stream(83, 2 * i + 1)))]
        lengths = [[r.steps for r in rs] for rs in runs]
        edges = np.unique(np.quantile(np.concatenate(lengths), np.linspace(0, 1, 11)))
        table = np.array([np.histogram(x, np.append(edges[:-1], edges[-1] + 1))[0] for x in lengths])
        table = table[:, table.sum(0) > 0]
        if table.shape[1] > 1:
            assert stats.chi2_contingency(table)[1] > 1e-4, (n, cap, table)
        echo = [[np.mean(r.senders[1:] == r.receivers[:-1]) for r in rs if r.steps > 1] for rs in runs]
        if s == 0.0:
            assert echo == [[1.0] * len(echo[0]), [1.0] * len(echo[1])]
        else:
            assert stats.mannwhitneyu(*echo).pvalue > 1e-4, (n, cap)
        done = [sum(r.complete(cfg) for r in rs) for rs in runs]
        assert stats.fisher_exact([[d, 400 - d] for d in done])[1] > 1e-4, (n, cap, done)


@pytest.mark.parametrize("s, variant", LAW_CASES)
def test_array_run_caps_at_block_edges(s, variant):
    # Caps just before, at and just after each block edge of the array
    # engine (16, 80, 336, 1,360 and 5,456 steps): every trace validates and
    # a capped run has exactly `cap` steps.
    rng = spawn_stream(89, int(s) + (variant == "delayed_start"))
    for n in (2, 5, 300, 5000):
        for edge in (16, 80, 336, 1360, 5456):
            for cap in (edge - 1, edge, edge + 1):
                cfg = GossipConfig(n=n, f=0, s=s, variant=variant, step_cap=cap)
                run = next(protocols._array_lanes(cfg, rng))
                ExecutionTrace(cfg, run.senders, run.receivers, run.complete(cfg)).validate()
                assert run.steps == len(run.senders) == len(run.receivers)
                assert run.steps == cap if not run.complete(cfg) else run.steps <= cap


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_loop_first_two_steps_match_the_exact_step_rule(s):
    # The per-node loop (run_trace at 0 < s < 1) against exact._moves, the
    # oracle's one-step rule: a chi-square test of the first two steps'
    # (sender, receiver) pairs at n = 4 over 20,000 runs.  The second sender
    # depends on the first sender's mute coin and on the pick from A, which
    # the observed-sender laws at f = 1 and n = 4 barely see.
    n, trials = 4, 20_000
    law = Counter()
    for p, i, j, active in _moves(n, Fraction(s), 1):
        for q, i2, j2, _ in _moves(n, Fraction(s), active):
            law[i, j, i2, j2] += p * q
    cfg, rng, runs = GossipConfig(n=n, f=0, s=s), spawn_stream(111, int(4 * s)), Counter()
    for _ in range(trials):
        trace = run_trace(cfg, rng)
        (i, i2), (j, j2) = trace.senders[:2].tolist(), trace.receivers[:2].tolist()
        runs[i, j, i2, j2] += 1
    cells = sorted(law)
    assert sum(law.values()) == 1 and set(runs) <= set(cells)
    observed = [runs[cell] for cell in cells]
    assert stats.chisquare(observed, [float(law[cell]) * trials for cell in cells]).pvalue > 1e-4


def test_loop_continues_a_run_from_its_state():
    # A run continued from (informed ids, active ids, steps taken) counts the
    # given informed nodes and steps: from all nodes but one informed, it
    # ends complete at the step that informs the last, its steps counted on
    # from the start's.
    cfg, rng = GossipConfig(n=8, f=1, s=0.5, step_cap=10_000), spawn_stream(112, 0)
    for _ in range(200):
        run = protocols._sequential_run(cfg, rng, (list(range(7)), [0, 3], 40))
        assert run.complete(cfg) and run.receivers[-1] == 7
        assert run.steps == 40 + len(run.receivers) == 40 + len(run.senders)


def test_run_trace_at_s0_and_s1_never_runs_the_loop(monkeypatch):
    run_loop, calls = protocols._sequential_run, []

    def loop(*args, **kwargs):
        calls.append(args[0].s)
        return run_loop(*args, **kwargs)

    monkeypatch.setattr(protocols, "_sequential_run", loop)
    for n in (2, 64, 5000):
        for s, variant in LAW_CASES + [(0.5, "parameterized")]:
            run_trace(GossipConfig(n=n, f=0, s=s, variant=variant), spawn_stream(97, n))
    assert calls == [0.5, 0.5, 0.5]


@pytest.mark.parametrize("s, variant", LAW_CASES)
def test_fed_lane_is_fed_the_recorded_view(s, variant):
    # One lane fed a rule that never decides draws what the recorded run
    # draws: it is fed exactly the observed senders of run_trace's run on the
    # same stream, is capped iff that run is, and leaves the same state.
    for i, (n, f, cap) in enumerate([(2, 0, None), (3, 1, None), (64, 6, None), (64, 6, 40), (300, 30, None),
                                     (300, 30, 1000), (5000, 500, None)]):
        cfg = GossipConfig(n=n, f=f, s=s, variant=variant, step_cap=cap)
        recorded, fed = spawn_stream(101, i), spawn_stream(101, i)
        trace = run_trace(cfg, recorded)
        [(index, prefix, capped)] = protocols._array_lanes(cfg, fed, [ObservedPrefix(10**9)])
        assert index == 0 and prefix.senders == observe(trace).senders.tolist()
        assert capped == (not trace.complete)
        assert recorded.random() == fed.random()


@pytest.mark.parametrize("s, variant", LAW_CASES)
def test_fed_lane_caps_at_block_edges(s, variant):
    # A lane capped just before, at and just after each block edge (16, 80,
    # 336, 1,360 and 5,456 steps), fed a rule that decides at its k-th
    # observed sender: it is fed the first k observed senders of the
    # recorded run on the same stream (all of them if fewer), and is capped
    # exactly when it was neither decided nor complete.
    stream = 0
    for n in (3, 50, 300, 5000):
        for edge in (16, 80, 336, 1360, 5456):
            for cap in (edge - 1, edge, edge + 1):
                for k in (1, 4, 10**9):
                    cfg = GossipConfig(n=n, f=max(n // 10, 1), s=s, variant=variant, step_cap=cap)
                    stream += 1
                    trace = run_trace(cfg, spawn_stream(103, stream))
                    [(_, prefix, capped)] = protocols._array_lanes(cfg, spawn_stream(103, stream),
                                                                   [ObservedPrefix(k)])
                    view = observe(trace).senders.tolist()
                    assert prefix.senders == view[:k]
                    assert capped == (len(view) < k and not trace.complete), (n, cap, k)


# sha256 of run_trace runs at n=4096 and of the generator's next draws,
# rng.random(4) after each run.  The caps stop a run inside the loop's
# 1024- and 4096-entry receiver blocks, where the loop cuts its chunks.
GOLDEN_TRACE_STATES = {
    "s01_cap1000": (0.1, 1000, "5147c3b3d289d043c7852e204bc23e2a13c5bb86f99caea7628d3cbd3c9b65b4"),
    "s01_cap5000": (0.1, 5000, "b257fabab41c2d03a829488e189f8bd2d74dbfb4d3819bbdb28765bcd4d85f8f"),
    "s05_cap1000": (0.5, 1000, "2a19fe031b4ff32ee95e2b98444732b4d32a602b3b841c8a4b6a9e28c0c3588c"),
    "s05_cap5000": (0.5, 5000, "705122b1fed3d55bd185f2b7f8f0a8bbe893310bb1f66ce15e979bbb7da46923"),
}


@pytest.mark.parametrize("name", GOLDEN_TRACE_STATES)
def test_run_trace_golden_state(name):
    s, cap, digest = GOLDEN_TRACE_STATES[name]
    cfg = GossipConfig(n=4096, f=409, s=s, step_cap=cap)
    rng = spawn_stream(67, list(GOLDEN_TRACE_STATES).index(name))
    h = hashlib.sha256()
    for _ in range(3):
        trace = run_trace(cfg, rng)
        assert len(trace) == cap
        for a in (trace.senders, trace.receivers, rng.random(4)):
            h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_run_trace_golden_sweep():
    # Small n and caps at, before and after the loop's block edges (256 and
    # 256 + 1024 receivers), at every s regime (on the array engine at s in
    # {0, 1}), pinned as one digest of the runs and the generator's next
    # draws.
    rng = spawn_stream(67, 99)
    h = hashlib.sha256()
    for n in (2, 3, 5, 300, 1000):
        for s, variant in ((0.0, "parameterized"), (0.1, "parameterized"), (0.5, "parameterized"),
                           (0.9, "parameterized"), (1.0, "parameterized"), (1.0, "delayed_start")):
            for cap in (None, 1, 2, 255, 256, 257, 1279, 1280, 1281):
                trace = run_trace(GossipConfig(n=n, f=0, s=s, variant=variant, step_cap=cap), rng)
                for a in (trace.senders, trace.receivers, rng.random(4)):
                    h.update(a.tobytes())
    assert h.hexdigest() == "9cc6cec734fd6da5c083fb2853a66be3fde3d43e21a95a3c6a85faf72a7903f3"


def test_fed_run_golden_state():
    # A hand-off: the loop continues a run from a given state and feeds the
    # senders of curious receivers to a silence rule, which decides inside
    # the loop's 1024- or 4096-entry blocks.  Pinned: where each run stops,
    # its counts and the generator's next draws.
    cfg = GossipConfig(n=4096, f=409, s=0.3)
    rng = spawn_stream(71, 0)
    h = hashlib.sha256()
    stops = []
    for r in (30, 60, 120, 240):
        for _ in range(4):
            informed = rng.choice(cfg.curious_lo, 50, replace=False)
            start = (informed, informed[:20], 40)
            run = protocols._sequential_run(cfg, rng, start, FirstGoesQuiet(r).feed)
            stops.append((run.steps, run.decided, run.n_informed))
            h.update(rng.random(4).tobytes())
    h.update(repr(stops).encode())
    assert sum(1300 < steps < 5000 and decided for steps, decided, _ in stops) >= 4
    assert h.hexdigest() == "17d1a3aca26ea1f804865468953d0889f5b0886ae8b2751c26b89bac5ac938d1"


def test_recorded_run_memory_is_near_its_output():
    # n = 2^16, s = 0.1 runs the per-step loop; capped at 100,000 steps to
    # keep the traced run short.  Chunks recorded as int64 arrays and joined
    # once peak under 2.5x the output; a Python int list of senders took
    # ~3.6x here (3.4x over the full ~857k-step run).
    cfg = GossipConfig(n=1 << 16, f=6554, s=0.1, step_cap=100_000)
    tracemalloc.start()
    try:
        run = protocols._sequential_run(cfg, spawn_stream(7, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.steps == 100_000
    assert peak < 2.5 * (run.senders.nbytes + run.receivers.nbytes), peak


def test_array_run_memory_is_near_its_output():
    # A whole recorded run at n = 2^16, s = 1 (~700k steps) on the array
    # engine: blocks recorded as int64 arrays and joined once peak under
    # 2.5x the output, as on the loop.
    cfg = GossipConfig(n=1 << 16, f=6554, s=1.0)
    tracemalloc.start()
    try:
        run = next(protocols._array_lanes(cfg, spawn_stream(7, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.complete(cfg)
    assert peak < 2.5 * (run.senders.nbytes + run.receivers.nbytes), peak


def test_step_cap_flags_incomplete():
    cfg = GossipConfig(n=64, f=6, s=1.0, step_cap=5)
    trace = run_trace(cfg, spawn_stream(2, 2))
    assert not trace.complete
    assert len(trace) == 5
    trace.validate()  # well-formed even when capped


# ---------------------------------------------------------------------------
# Synchronous engine


# sha256 of the senders, receivers, completion and the three RoundTrace count
# arrays of 20 run_sync runs at n=64 per case, one fixed stream each.  They
# pin the round engine's draw order; "s05_capped" caps 7 of its 20 runs.
GOLDEN_SYNC = {
    "s01": (0.1, None, "52476a3380253a7b60ad6a2de2792c50e1162b075d374c87d07fd1a3d09bd394"),
    "s05": (0.5, None, "dc5852b7b0075dcb38a83ff555518f7e06e15663866ba76b84f11902cb544067"),
    "s1": (1.0, None, "0d4c18db223068a2922a642c29d4b3f8cdb1542f6b2bcc1a82fea8115e63d579"),
    "s05_capped": (0.5, 300, "09a489672761dd8d4aedd1de8ba831a6a3571742ad0f5f79d614d669fa28785b"),
}


@pytest.mark.parametrize("name", GOLDEN_SYNC)
def test_run_sync_golden_digest(name):
    s, cap, digest = GOLDEN_SYNC[name]
    cfg = GossipConfig(n=64, f=6, s=s, step_cap=cap)
    rng = spawn_stream(53, list(GOLDEN_SYNC).index(name))
    h = hashlib.sha256()
    for _ in range(20):
        trace, rounds = run_sync(cfg, rng)
        for a in (trace.senders, trace.receivers, rounds.informed, rounds.active, rounds.messages):
            h.update(a.tobytes())
        h.update(bytes([trace.complete]))
    assert h.hexdigest() == digest


# sha256 of run_sync runs at s = 0 and at small s, where most rounds have a
# single sender, with rng.random(4) drawn after each run: the outputs of
# GOLDEN_SYNC plus the generator's state.  "s0_capped" stops inside every run.
GOLDEN_SYNC_STATES = {
    "s0": (64, 0.0, None, "09cb12fdd48a24da60c2794eba1dd78c1032f287b3eaa67531d9687d5fb9bdda"),
    "s0_capped": (64, 0.0, 100, "6aa01c6a6e8bc945ffee1bce95281a39713e7b00594742618ded984f407d09b0"),
    "s005": (256, 0.05, None, "5070fab78468066c7573e7467d82deaa7d330745a2462b3329a68e738430c819"),
}


@pytest.mark.parametrize("name", GOLDEN_SYNC_STATES)
def test_run_sync_golden_state(name):
    n, s, cap, digest = GOLDEN_SYNC_STATES[name]
    cfg = GossipConfig(n=n, f=n // 10, s=s, step_cap=cap)
    rng = spawn_stream(73, list(GOLDEN_SYNC_STATES).index(name))
    h = hashlib.sha256()
    lone = crowded = 0
    for _ in range(20):
        trace, rounds = run_sync(cfg, rng)
        lone += int(np.count_nonzero(rounds.messages[1:] == 1))
        crowded += int(np.count_nonzero(rounds.messages > 1))
        for a in (trace.senders, trace.receivers, rounds.informed, rounds.active, rounds.messages,
                  rng.random(4)):
            h.update(a.tobytes())
        h.update(bytes([trace.complete]))
    assert lone > 0 and (crowded > 0) == (s > 0)
    assert h.hexdigest() == digest


def test_sync_round_zero_single_message():
    _, rounds = run_sync(GossipConfig(n=64, f=6, s=1.0), spawn_stream(3, 3))
    assert rounds.messages[0] == 1


def test_sync_s0_one_message_per_round():
    _, rounds = run_sync(GossipConfig(n=64, f=6, s=0.0), spawn_stream(3, 4))
    assert np.all(rounds.messages == 1)
    assert np.all(rounds.active == 1)


@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
def test_sync_round_conservation(s):
    # Reconstruct per-round constraints from the raw event list: every
    # receiver is active next round; nothing else is active except senders
    # that stayed.  At the extremes the next active set is fully determined.
    cfg = GossipConfig(n=256, f=25, s=s)
    trace, rounds = run_sync(cfg, spawn_stream(31, int(s * 10)))
    trace.validate()
    rounds.validate()
    assert trace.complete

    edges = np.cumsum(rounds.messages)
    starts = np.concatenate(([0], edges[:-1]))
    prev_senders = None
    for t in range(len(rounds) - 1):
        snd = trace.senders[starts[t] : edges[t]]
        rcv = trace.receivers[starts[t] : edges[t]]
        nxt = trace.senders[starts[t + 1] : edges[t + 1]]  # active set next round
        nxt_set = set(nxt.tolist())
        rcv_set = set(rcv.tolist())
        snd_set = set(snd.tolist())
        assert rcv_set <= nxt_set
        assert nxt_set <= rcv_set | snd_set
        if s == 0.0:
            assert nxt_set == rcv_set
        if s == 1.0:
            assert nxt_set == rcv_set | snd_set
        assert len(nxt_set) == rounds.active[t]
        assert rounds.messages[t + 1] == rounds.active[t]


def _state(rng):
    """The generator's state as plain values (Philox keeps numpy arrays in it)."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


def test_run_sync_s1_draws_only_receivers():
    # At s=1 no sender mutes, so a round draws its receivers and no stay
    # coins: run_sync leaves the generator where drawing
    # rng.integers(0, n, size=k) per round of k messages leaves it.
    cfg = GossipConfig(n=256, f=25, s=1.0)
    rng, receivers_only = spawn_stream(54, 0), spawn_stream(54, 0)
    trace, rounds = run_sync(cfg, rng)
    drawn = [receivers_only.integers(0, cfg.n, size=k) for k in rounds.messages.tolist()]
    assert np.array_equal(np.concatenate(drawn), trace.receivers)
    assert _state(rng) == _state(receivers_only)


def test_round_trace_validate_rejects_broken_counts():
    ok = RoundTrace(informed=[2, 4, 4], active=[2, 3, 1])
    ok.validate()
    assert ok.messages.tolist() == [1, 2, 3]
    broken = {
        "informed count decreased": RoundTrace([2, 4, 3], [2, 3, 1]),
        "active set became empty": RoundTrace([2, 4, 4], [2, 0, 1]),
        "more nodes active than informed": RoundTrace([2, 4, 4], [2, 5, 1]),
    }
    for message, rounds in broken.items():
        with pytest.raises(AssertionError, match=message):
            rounds.validate()


def test_sync_informed_monotone_and_complete():
    cfg = GossipConfig(n=512, f=51, s=0.5)
    trace, rounds = run_sync(cfg, spawn_stream(37, 0))
    assert np.all(np.diff(rounds.informed) >= 0)
    assert rounds.informed[-1] == cfg.n
    assert trace.complete


def test_sync_determinism():
    cfg = GossipConfig(n=512, f=51, s=0.5)
    a = run_sync(cfg, spawn_stream(4, 4))
    b = run_sync(cfg, spawn_stream(4, 4))
    assert np.array_equal(a[0].receivers, b[0].receivers)
    assert np.array_equal(a[1].active, b[1].active)


# ---------------------------------------------------------------------------
# Delayed start


def test_delayed_start_source_sends_first():
    for seed in range(10):
        trace = run_trace(
            GossipConfig(n=64, f=6, s=1.0, variant="delayed_start"), spawn_stream(41, seed)
        )
        assert trace.senders[0] == trace.config.source
        trace.validate()


def test_delayed_start_source_silent_until_reinformed():
    # The source appears as a sender exactly once before it first appears
    # as a receiver.
    hits = 0
    for seed in range(30):
        trace = run_trace(
            GossipConfig(n=64, f=6, s=1.0, variant="delayed_start"), spawn_stream(43, seed)
        )
        src = trace.config.source
        if trace.receivers[0] == src:
            continue  # opening self-send re-informs the source immediately
        as_recv = np.flatnonzero(trace.receivers == src)
        as_send = np.flatnonzero(trace.senders == src)
        first_recv = as_recv[0] if as_recv.size else len(trace)
        early_sends = as_send[as_send < first_recv]
        assert early_sends.size == 1 and early_sends[0] == 0
        if as_send.size > 1:
            hits += 1
            assert as_send[1] > first_recv  # re-activation only after receipt
    assert hits > 0  # re-informed sources do resume sending


def test_engine_variant_guards():
    with pytest.raises(ValueError):
        run_sync(GossipConfig(n=8, f=1, s=1.0, variant="delayed_start"), spawn_stream(0, 0))


def test_uniform_index_never_rounds_up_to_m():
    # The engines draw an index in [0, m) as int(u * m) with no guard: u from
    # rng.random() is at most 1 - 2**-53, and for an integer 1 <= m < 2**53
    # the product then rounds to a double below m.
    u = np.nextafter(1.0, 0.0)
    ms = np.concatenate([
        np.arange(1, 2**20 + 1),
        2 ** np.arange(53),
        np.random.default_rng(53).integers(1, 2**53, size=100_000),
    ])
    assert ((u * ms).astype(np.int64) < ms).all()
    uf = float(u)
    assert all(int(uf * m) < m for m in ms.tolist())
