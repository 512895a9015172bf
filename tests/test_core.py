import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mutegossip import core
from mutegossip.core import (
    ExecutionTrace,
    GossipConfig,
    default_step_cap,
    spawn_stream,
    split_stream,
)
from mutegossip.protocols import run_trace


def test_stream_determinism():
    a = spawn_stream(42, 0).random(100)
    b = spawn_stream(42, 0).random(100)
    assert np.array_equal(a, b)


def test_stream_independence():
    a = spawn_stream(42, 0).random(100)
    b = spawn_stream(42, 1).random(100)
    assert not np.array_equal(a, b)


def test_stream_statelessness():
    # Reconstructing the stream from scratch (as after a process restart)
    # reproduces the draws.
    first = spawn_stream(42, 7).integers(0, 1 << 30, 50)
    again = spawn_stream(42, 7).integers(0, 1 << 30, 50)
    assert np.array_equal(first, again)


def test_split_stream_deterministic_and_distinct():
    kids_a = split_stream(spawn_stream(1, 2), 3)
    kids_b = split_stream(spawn_stream(1, 2), 3)
    draws_a = [g.random(10) for g in kids_a]
    draws_b = [g.random(10) for g in kids_b]
    for da, db in zip(draws_a, draws_b):
        assert np.array_equal(da, db)
    assert not np.array_equal(draws_a[0], draws_a[1])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, f=0, s=0.5),
        dict(n=10, f=9, s=0.5),
        dict(n=10, f=2, s=1.5),
        dict(n=10, f=2, s=-0.1),
        dict(n=10, f=2, s=0.5, source=9),  # curious source
        dict(n=10, f=2, s=0.5, source=10),
        dict(n=10, f=2, s=0.5, variant="pull"),
        dict(n=10, f=2, s=0.5, variant="delayed_start"),  # needs s=1
        dict(n=10, f=2, s=0.5, step_cap=0),
        dict(n=10, f=1, s=0.5, step_cap=float("nan")),  # ran as a 0-step trace
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        GossipConfig(**kwargs)


@given(
    n=st.integers(3, 60),
    f_frac=st.floats(0.0, 0.8),
    s=st.sampled_from([0.0, 0.3, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_curious_convention_and_trace_wellformedness(n, f_frac, s):
    f = min(int(f_frac * n), n - 2)
    cfg = GossipConfig(n=n, f=f, s=s)
    assert cfg.n - cfg.curious_lo == f  # curious ids are curious_lo..n-1
    assert cfg.source < cfg.curious_lo

    trace = run_trace(cfg, spawn_stream(3, n * 100 + f))
    trace.validate()
    assert trace.complete
    assert {cfg.source, *trace.receivers.tolist()} == set(range(n))


def test_validate_catches_uninformed_sender():
    cfg = GossipConfig(n=5, f=1, s=0.0)
    bad = ExecutionTrace(cfg, senders=[0, 4], receivers=[1, 2], complete=False)
    with pytest.raises(AssertionError):
        bad.validate()


def test_validate_catches_sender_informed_in_its_own_step():
    # Node 2 receives at step 1, the step it sends in: it was not informed
    # before sending.
    cfg = GossipConfig(n=5, f=1, s=0.0)
    bad = ExecutionTrace(cfg, senders=[0, 2], receivers=[1, 2], complete=False)
    with pytest.raises(AssertionError, match="sender 2 was not informed"):
        bad.validate()


def test_validate_names_the_first_uninformed_sender():
    # Nodes 4 (step 1) and 3 (step 2) both send before they are informed.
    cfg = GossipConfig(n=6, f=1, s=1.0)
    bad = ExecutionTrace(cfg, senders=[0, 4, 3, 0], receivers=[1, 2, 4, 3], complete=False)
    with pytest.raises(AssertionError, match="sender 4 was not informed"):
        bad.validate()


def test_validate_catches_complete_trace_with_uninformed_node():
    cfg = GossipConfig(n=5, f=1, s=1.0)
    ok = ExecutionTrace(cfg, senders=[0, 0, 1, 2], receivers=[1, 2, 3, 4], complete=True)
    ok.validate()
    bad = ExecutionTrace(cfg, senders=[0, 0, 1, 2], receivers=[1, 2, 3, 3], complete=True)
    with pytest.raises(AssertionError, match="does not inform all nodes"):
        bad.validate()


def test_validate_catches_wrong_first_sender():
    cfg = GossipConfig(n=5, f=1, s=0.0)
    bad = ExecutionTrace(cfg, senders=[1, 0], receivers=[0, 2], complete=False)
    with pytest.raises(AssertionError):
        bad.validate()


@pytest.mark.parametrize("senders, receivers, complete, step", [
    ([0, 3, 3, 3], [-1, 1, 2, 0], False, 0),  # -1 would be read as node 3
    ([0, 0, 1, 2], [1, 2, 3, -4], True, 3),  # -4 would be read as node 0
    ([0, 0, 1, 2], [1, 2, 7, 3], True, 2),  # 7 is past the last node
    ([0, 0, 5, 2], [1, 2, 3, 3], False, 2),
])
def test_validate_rejects_node_ids_outside_range(senders, receivers, complete, step):
    cfg = GossipConfig(n=4, f=1, s=1.0)
    bad = ExecutionTrace(cfg, senders=senders, receivers=receivers, complete=complete)
    with pytest.raises(AssertionError, match=rf"step {step} has a node id outside \[0, 4\)"):
        bad.validate()


def _validate_error(trace) -> str:
    with pytest.raises(AssertionError) as err:
        trace.validate()
    return str(err.value)


def test_validate_names_the_first_late_sender_in_a_later_block(monkeypatch):
    # Node 9 sends at step 5 but is informed at step 8, two blocks of 4
    # later; node 8 sends at step 6, the step it is informed in.
    cfg = GossipConfig(n=10, f=1, s=1.0)
    bad = ExecutionTrace(cfg, senders=[0, 0, 0, 0, 0, 9, 8, 0, 0],
                         receivers=[1, 2, 3, 4, 5, 6, 8, 7, 9])
    whole = _validate_error(bad)
    assert whole == "sender 9 was not informed at send time (step 5)"
    monkeypatch.setattr(core, "_CHECK_STEPS", 4)
    assert _validate_error(bad) == whole
    monkeypatch.setattr(core, "_CHECK_STEPS", 2)
    out_of_range = ExecutionTrace(cfg, senders=[0, 0, 0, 0, 0], receivers=[1, 2, 3, 4, 10])
    assert "step 4 has a node id" in _validate_error(out_of_range)


def test_validate_completeness_when_the_last_node_is_in_the_final_block(monkeypatch):
    # Node 9 is informed only at step 8, alone in the third block of 4.
    monkeypatch.setattr(core, "_CHECK_STEPS", 4)
    cfg = GossipConfig(n=10, f=1, s=1.0)
    senders = [0, 1, 2, 3, 4, 5, 6, 7, 8]
    ExecutionTrace(cfg, senders=senders, receivers=[1, 2, 3, 4, 5, 6, 7, 8, 9]).validate()
    bad = ExecutionTrace(cfg, senders=senders, receivers=[1, 2, 3, 4, 5, 6, 7, 8, 1])
    assert _validate_error(bad) == "complete trace does not inform all nodes"


@pytest.mark.parametrize("block", [1, 7, 64])
def test_validate_in_blocks_accepts_real_runs(monkeypatch, block):
    monkeypatch.setattr(core, "_CHECK_STEPS", block)
    for s in (0.0, 0.5, 1.0):
        run_trace(GossipConfig(n=40, f=4, s=s), spawn_stream(9, int(10 * s))).validate()


def test_default_step_cap_scale():
    assert default_step_cap(1000) == int(np.ceil(50 * 1000 * np.log(1000)))
