"""Executable gossip engines on the complete graph.

Two engines share the tell_gossip primitive (uniform target over all n
nodes, self included):

* run_trace  one tell_gossip call per step; the sender is drawn uniformly
             from the active set, deactivates with probability 1-s, and
             the receiver always activates.  Under delayed start the
             source sends exactly once and mutes permanently (until
             re-informed); the receiver runs standard push.
* run_sync   round-based version: every node active at round start sends
             once, then flips its stay-active coin; receivers activate for
             the next round.  A round with one sender (every round at
             s = 0) draws scalars from the same stream and touches no
             n-long mask scan, so it costs O(1); rounds with more senders
             work on dense masks.  The spreading estimator needs only the
             per-round counts and takes them from the count-only engines in
             estimators, which have run_sync's law.

Engines are single-threaded and deterministic given their stream; run many
of them concurrently on disjoint streams.

run_trace's loop draws receivers and uniforms in blocks and runs in chunks:
a chunk is the steps up to the next refill of either buffer, so its steps
check no buffer, its receivers are unboxed at once, and a recorded run keeps
each chunk as two int64 arrays (its senders, and a slice of the receiver
block), concatenated once at the end.  At s = 0 and s = 1 (delayed start
included) a run that is still going at its first full-size block leaves the
per-step loop and replays its remaining steps on arrays, one chunk at a
time: no sender ever mutes at s = 1, so A is the known list followed by
each new receiver in order of first appearance, and at s = 0 A is the
previous receiver alone.  The replay makes the loop's rng calls in the
loop's order and sizes, so its output and the generator's state after the
run are the loop's, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExecutionTrace, GossipConfig, RoundTrace

_BLOCK = 4096


@dataclass
class SequentialRun:
    """Raw output of the sequential engine loop."""

    senders: np.ndarray
    receivers: np.ndarray
    n_informed: int
    steps: int
    decided: bool  # the feed stopped the run

    def complete(self, config: GossipConfig) -> bool:
        return self.n_informed == config.n


def _sequential_run(config: GossipConfig, rng: np.random.Generator, start=None, feed=None) -> SequentialRun:
    """The per-node sequential engine loop behind run_trace: the reference
    that the estimators' lumped engine is tested against, and on which it
    ends its last runs.

    `start` = (informed ids, active ids, steps taken) continues a run from
    that state instead of the source alone at step 0; the step count keeps
    delayed start's forced first mute at step 0.  With `feed`, the sender
    of each observed entry (a curious receiver) is passed to it instead of
    recording the step, and the run stops once it returns True (decided).
    A recorded run (no `feed`) at s in {0, 1} finishes on `_replay`.
    """
    n = config.n
    s = config.s
    cap = config.max_steps
    curious_lo = config.curious_lo
    delayed = config.variant == "delayed_start"

    informed_ids, active_ids, step = start or ([config.source], [config.source], 0)
    informed, active_flag = bytearray(n), bytearray(n)
    np.frombuffer(informed, np.uint8)[informed_ids] = 1
    np.frombuffer(active_flag, np.uint8)[active_ids] = 1
    n_informed = len(informed_ids)
    active = np.asarray(active_ids).tolist()
    senders: list[np.ndarray] = []  # one int64 array per chunk
    receivers: list[np.ndarray] = []  # per chunk, a slice of its receiver block
    decided = False

    # Block-drawn randomness: receivers come from an integer block; sender
    # picks (only needed while |A| > 1) and stay/mute coins (only needed for
    # 0 < s < 1) from a float block, unboxed to plain Python floats.  Blocks
    # start small and grow to _BLOCK; their sizes fix the draw order.
    block = 256
    targets = rng.integers(0, n, size=block)
    tptr = 0
    tlen = block
    uniforms = rng.random(block).tolist()
    uptr = 0
    ulen = block
    use_coin = 0.0 < s < 1.0
    always_mute = s == 0.0

    while n_informed < n and step < cap:
        if tptr == tlen:
            block = min(block * 4, _BLOCK)
            if block == _BLOCK and feed is None and _replayable(s, active):
                break
            targets = rng.integers(0, n, size=block)
            tptr = 0
            tlen = block
        if uptr + 2 > ulen:
            uniforms = rng.random(block).tolist()
            uptr = 0
            ulen = block

        # A chunk runs up to the next refill: a step takes one receiver and
        # at most two uniforms, so no buffer runs out inside it.
        first = step
        chunk: list[int] = []  # the chunk's senders, when recorded
        for j in targets[tptr:tptr + min(tlen - tptr, (ulen - uptr) // 2, cap - step)].tolist():
            la = len(active)
            if la == 1:
                k = 0
            else:
                # No round-up: a uniform u <= 1 - 2**-53 and 1 <= m < 2**53
                # give int(u * m) < m, here and in every u * m draw of both engines.
                k = int(uniforms[uptr] * la)
                uptr += 1
            i = active[k]

            if always_mute:
                mute = True
            elif use_coin:
                mute = uniforms[uptr] >= s
                uptr += 1
            else:
                mute = False
            if delayed and step == 0:
                mute = True  # the source's single send, then permanent silence
            if mute:  # swap-remove the sender from A
                last = active.pop()
                if k < la - 1:
                    active[k] = last
                active_flag[i] = 0

            if not informed[j]:
                informed[j] = 1
                n_informed += 1
            if not active_flag[j]:
                active_flag[j] = 1
                active.append(j)

            step += 1
            if feed is None:
                chunk.append(i)
            elif j >= curious_lo and feed(i):
                decided = True
                break
            if n_informed == n:
                break
        done = step - first
        if feed is None:
            senders.append(np.array(chunk, np.int64))
            receivers.append(targets[tptr:tptr + done])
        tptr += done
        if decided:
            break

    if feed is None and n_informed < n and step < cap:  # left the loop to replay
        n_informed, step = _replay(rng, config, step, informed, active, active_flag, uniforms[uptr:],
                                   senders, receivers)
    # One concatenation per column; rebinding frees the senders' chunks
    # before the receivers' are joined.  A fed run records nothing.
    none = np.empty(0, np.int64)
    senders = np.concatenate(senders or [none])
    receivers = np.concatenate(receivers or [none])
    return SequentialRun(senders, receivers, n_informed, step, decided)


def _replayable(s: float, active: list[int]) -> bool:
    """Whether a recorded run's remaining steps follow from its receivers alone.

    At s = 1 no sender mutes, so A is its current list followed by each new
    receiver in order of first appearance, and with |A| > 1 every step draws
    one sender pick.  At s = 0 with |A| = 1, A is the previous receiver and
    no step draws a pick.
    """
    return (s == 1.0 and len(active) > 1) or (s == 0.0 and len(active) == 1)


def _replay(rng, config, step, informed, active, active_flag, uniforms, out_s, out_r):
    """The rest of a recorded run at s in {0, 1} (see _replayable), one chunk
    of steps at a time on arrays.

    Entered where the loop's target buffer is spent and its next block is a
    full _BLOCK; `uniforms` are the loop's unused ones.  A chunk ends at the
    next refill of either buffer, at the step cap, or at the step that
    informs the last node, so each refill happens at the loop's step, targets
    before uniforms.  Appends each chunk's senders and receivers to the
    loop's lists `out_s` and `out_r`; returns (n_informed, steps).
    """
    n, cap = config.n, config.max_steps
    s_one = config.s == 1.0
    inf = np.frombuffer(informed, np.uint8).view(bool)
    act = np.frombuffer(active_flag, np.uint8).view(bool)
    n_informed = int(np.count_nonzero(inf))
    order = np.empty(n, np.int64)  # A, in list order; it only grows at s = 1
    la = len(active)
    order[:la] = active
    prev = active[0]  # the s = 0 walk's current node
    u = np.array(uniforms)
    uptr, ulen = 0, len(uniforms)
    pos = np.arange(_BLOCK)
    first = np.full(n, _BLOCK)  # scratch: first step of each node in a chunk
    tptr = _BLOCK
    while n_informed < n and step < cap:
        if tptr == _BLOCK:
            targets = rng.integers(0, n, size=_BLOCK)
            tptr = 0
        if uptr + 2 > ulen:
            u = rng.random(_BLOCK)
            uptr, ulen = 0, _BLOCK
        size = min(_BLOCK - tptr, cap - step, ulen - 1 - uptr if s_one else _BLOCK)
        rcv = targets[tptr:tptr + size]
        at = pos[:size]
        np.minimum.at(first, rcv, at)
        lead = first[rcv] == at
        first[rcv] = _BLOCK
        fresh = np.cumsum(lead & ~inf[rcv])
        if n_informed + fresh[-1] >= n:  # cut at the step that informs the last node
            size = int(np.searchsorted(fresh, n - n_informed)) + 1
            rcv, lead = rcv[:size], lead[:size]
        if s_one:
            new = lead & ~act[rcv]
            added = rcv[new]
            order[la:la + added.size] = added
            held = la + np.cumsum(new) - new  # |A| when each step picks its sender
            out_s.append(order[(u[uptr:uptr + size] * held).astype(np.int64)])
            act[added] = True
            la += added.size
            uptr += size
        else:
            out_s.append(np.concatenate(([prev], rcv[:-1])))
            prev = int(rcv[-1])
        out_r.append(rcv)
        inf[rcv] = True
        n_informed += int(fresh[size - 1])
        tptr += size
        step += size
    return n_informed, step


def run_trace(config: GossipConfig, rng: np.random.Generator) -> ExecutionTrace:
    """Run the sequential engine to completion (or the step cap).

    Per step: draw a sender uniformly from A, remove it from A with
    probability 1-s, call tell_gossip, add the receiver to A.  Under
    delayed start the source's first send always removes it, so it
    re-activates only by receiving the rumor.  The loop exits once every
    node is informed.

    The loop runs in chunks between buffer refills (see the module
    docstring).  At s in {0, 1}, a run longer than 1,280 steps (256 + 1024
    receivers, the loop's first two blocks) finishes as an exact array
    replay of the loop, 8-11x faster than the loop at n = 2^16 (process
    time on a 2-core Xeon VM).
    """
    run = _sequential_run(config, rng)
    return ExecutionTrace(config=config, senders=run.senders, receivers=run.receivers,
                          complete=run.complete(config))


def _check_round_variant(config: GossipConfig) -> None:
    """The round-based engines run only the parameterized protocol."""
    if config.variant != "parameterized":
        raise ValueError("the round-based engines require variant='parameterized'")


def run_sync(config: GossipConfig, rng: np.random.Generator) -> tuple[ExecutionTrace, RoundTrace]:
    """Run the round-based engine until all nodes are informed.

    Per round, the snapshot of A at round start each sends one message
    (event order within a round follows ascending node id; ties are broken
    arbitrarily anyway); each sender then independently stays active with
    probability s, and all of the round's receivers are active next round.
    A node that stays and also receives remains a single entry of A.

    Every round draws its receivers and, for s < 1, then its stay coins, one
    per sender; a round with one sender draws them as scalars, which gives
    the same values and leaves the generator in the same state.  At s = 1
    every sender stays, so the loop draws no coins.
    """
    _check_round_variant(config)
    n = config.n
    s = config.s
    cap = config.max_steps

    informed = np.zeros(n, dtype=bool)
    informed[config.source] = True
    active = informed.copy()
    events: list[tuple[np.ndarray, np.ndarray]] = []  # (senders, receivers) per round
    informed_per_round: list[int] = []
    active_per_round: list[int] = []
    total_messages = 0
    n_informed = 1
    snd = np.flatnonzero(active)  # the next round's senders

    while n_informed < n and total_messages < cap:
        k = snd.size
        if k == 1:  # every round at s = 0: scalar draws (the same stream), no n-long scan
            i, j = int(snd[0]), int(rng.integers(0, n))
            rcv = np.array((j,))
            events.append((snd, rcv))
            if not informed[j]:
                informed[j] = True
                n_informed += 1
            stay = s == 1.0 or rng.random() < s
            active[i] = stay
            active[j] = True
            snd = np.array((min(i, j), max(i, j))) if stay and i != j else rcv
        else:
            rcv = rng.integers(0, n, size=k)
            events.append((snd, rcv))
            informed[rcv] = True
            n_informed = int(np.count_nonzero(informed))
            if s < 1.0:
                active[snd] = rng.random(k) < s  # each sender stays with probability s
            active[rcv] = True
            snd = np.flatnonzero(active)
        total_messages += k
        informed_per_round.append(n_informed)
        active_per_round.append(snd.size)

    snd, rcv = zip(*events)
    trace = ExecutionTrace(config=config, senders=np.concatenate(snd), receivers=np.concatenate(rcv),
                           complete=n_informed == n)
    return trace, RoundTrace(informed_per_round, active_per_round)
