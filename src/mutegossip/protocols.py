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

run_trace picks its engine from s.  At s = 0 and s = 1 (delayed start
included) the active list A follows from the receivers alone: no sender ever
mutes at s = 1, so A is the source followed by each new receiver in order of
first appearance (under delayed start, A starts as the receiver of the
source's single send), and at s = 0 A is the previous receiver.  There the
array engine draws a block of steps at once and picks each step's sender as
A[int(u * |A|)].  At 0 < s < 1 the per-node loop draws receivers and
uniforms in blocks and runs in chunks: a chunk is the steps up to the next
refill of either buffer, so its steps check no buffer and its receivers are
unboxed at once.  The loop also continues the estimators' lumped runs from
a given state.  Both engines record a run per chunk or block as int64
arrays, concatenated once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExecutionTrace, GossipConfig, RoundTrace

_BLOCK = 4096
_STEPS = np.arange(_BLOCK)


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
    """The per-node sequential engine loop: run_trace's engine at 0 < s < 1,
    the one on which the estimators' lumped engine ends its last runs, and
    the reference that both are tested against.

    `start` = (informed ids, active ids, steps taken) continues a run from
    that state instead of the source alone at step 0; the step count keeps
    delayed start's forced first mute at step 0.  With `feed`, the sender
    of each observed entry (a curious receiver) is passed to it instead of
    recording the step, and the run stops once it returns True (decided).
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

    # Block-drawn randomness: receivers come from an integer block of
    # `block` entries; sender picks (only needed while |A| > 1) and
    # stay/mute coins (only needed for 0 < s < 1) from a float block of
    # `ulen`, unboxed to plain Python floats.  Blocks start small and grow to
    # _BLOCK; their sizes fix the draw order.
    block = 256
    targets = rng.integers(0, n, size=block)
    tptr = 0
    uniforms = rng.random(block).tolist()
    uptr = 0
    ulen = block
    use_coin = 0.0 < s < 1.0
    always_mute = s == 0.0

    while n_informed < n and step < cap:
        if tptr == block:
            block = min(block * 4, _BLOCK)
            targets = rng.integers(0, n, size=block)
            tptr = 0
        if uptr + 2 > ulen:
            uniforms = rng.random(block).tolist()
            uptr = 0
            ulen = block

        # A chunk runs up to the next refill: a step takes one receiver and
        # at most two uniforms, so no buffer runs out inside it.
        first = step
        chunk: list[int] = []  # the chunk's senders, when recorded
        for j in targets[tptr:tptr + min(block - tptr, (ulen - uptr) // 2, cap - step)].tolist():
            la = len(active)
            if la == 1:
                k = 0
            else:
                # No round-up: a uniform u <= 1 - 2**-53 and 1 <= m < 2**53
                # give int(u * m) < m, here and in every u * m draw of both engines.
                k = int(uniforms[uptr] * la)
                uptr += 1
            i = active[k]

            if use_coin:
                mute = uniforms[uptr] >= s
                uptr += 1
            else:  # under delayed start the source sends once, then stays silent
                mute = always_mute or (delayed and step == 0)
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

    # One concatenation per column; rebinding frees the senders' chunks
    # before the receivers' are joined.  A fed run records nothing.
    none = np.empty(0, np.int64)
    senders = np.concatenate(senders or [none])
    receivers = np.concatenate(receivers or [none])
    return SequentialRun(senders, receivers, n_informed, step, decided)


def _array_run(config: GossipConfig, rng: np.random.Generator) -> SequentialRun:
    """A recorded run at s in {0, 1} (delayed start included), drawn a block
    of steps at a time on arrays.

    A block draws its receivers and, at s = 1, one uniform per step, |A| = 1
    included; each sender is A[int(u * |A|)] with |A| as the step finds it.
    Blocks start at 16 steps and grow x4 to _BLOCK, so a short run draws
    little; a block is cut at the step cap and at the step that informs the
    last node.
    """
    n, cap, src = config.n, config.max_steps, config.source
    s_one = config.s == 1.0
    delayed = config.variant == "delayed_start"
    # joined[v]: the step at which v joined A (at s = 1) or the informed set
    # (at s = 0), -1 for the source and `cap` for a node that has not; under
    # delayed start the source joins A only on receiving.  Every node in A
    # at s = 1 is informed, so in both cases a newly informed node is a
    # newly joined one other than the source.
    joined = np.full(n, cap)
    if not delayed:
        joined[src] = -1
    order = np.empty(n, np.int64)  # A, in list order; it only grows at s = 1
    order[0] = src
    la = 0 if delayed else 1
    prev = src  # the s = 0 walk's current node
    senders: list[np.ndarray] = []
    receivers: list[np.ndarray] = []
    n_informed, step, block = 1, 0, 16
    while n_informed < n and step < cap:
        size = min(block, cap - step)
        rcv = rng.integers(0, n, size=size)
        u = rng.random(size) if s_one else None
        at = _STEPS[:size] + step
        np.minimum.at(joined, rcv, at)
        new = joined[rcv] == at
        fresh = (new & (rcv != src)).cumsum()
        if n_informed + fresh[-1] >= n:  # cut at the step that informs the last node
            size = int(fresh.searchsorted(n - n_informed)) + 1
            rcv, new = rcv[:size], new[:size]
        if s_one:
            added = rcv[new]
            order[la:la + added.size] = added
            held = la + new.cumsum() - new  # |A| when each step picks its sender
            snd = order[(u[:size] * held).astype(np.int64)]
            la += added.size
        else:
            snd = np.concatenate(([prev], rcv[:-1]))
            prev = int(rcv[-1])
        if step == 0:
            snd[0] = src  # under delayed start A is empty before the first send
        senders.append(snd)
        receivers.append(rcv)
        n_informed += int(fresh[size - 1])
        step += size
        block = min(block * 4, _BLOCK)
    senders = np.concatenate(senders)
    receivers = np.concatenate(receivers)
    return SequentialRun(senders, receivers, n_informed, step, False)


def run_trace(config: GossipConfig, rng: np.random.Generator) -> ExecutionTrace:
    """Run the sequential engine to completion (or the step cap).

    Per step: draw a sender uniformly from A, remove it from A with
    probability 1-s, call tell_gossip, add the receiver to A.  Under
    delayed start the source's first send always removes it, so it
    re-activates only by receiving the rumor.  The run ends once every
    node is informed.

    At s in {0, 1} the run is drawn on the array engine, otherwise on the
    per-node loop (see the module docstring); the two have the same law.
    """
    run = (_array_run if config.s in (0.0, 1.0) else _sequential_run)(config, rng)
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
