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
array engine draws a block of steps of many runs ("lanes") at once and picks
each step's sender as A[int(u * |A|)].  At 0 < s < 1 the per-node loop draws
receivers and uniforms in blocks and runs in chunks: a chunk is the steps up
to the next refill of either buffer, so its steps check no buffer and its
receivers are unboxed at once.  Both engines record a run per chunk or block
as int64 arrays, concatenated once at the end.

Lanes run under one scheduler, _lanes, which admits, feeds, ends and yields
them and hands a lockstep engine's last lanes to the per-node loop; an
engine supplies a reset of some rows of its tables, a step of the live rows
and, for the hand-off, a lane's state.  A run_trace run at s in {0, 1} is
the array engine's one recorded lane; the estimators' attack and event runs
are the fed lanes of the array engine and of the lockstep engines there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ExecutionTrace, GossipConfig, RoundTrace

_BLOCK = 4096
_STEPS = np.arange(_BLOCK)
# The array engine's budgets: its join and order tables hold at most _TABLE
# entries (lanes x n), and a block draws at most _LANE_STEPS lane-steps.
_TABLE = 1 << 17
_LANE_STEPS = 1 << 14
_NEVER = np.iinfo(np.int64).max
_NONE = np.empty(0, np.int64)


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
    the one on which the estimators' lockstep engines end their last runs, and
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
    senders = np.concatenate(senders or [_NONE])
    receivers = np.concatenate(receivers or [_NONE])
    return SequentialRun(senders, receivers, n_informed, step, decided)


def _lanes(config: GossipConfig, rng: np.random.Generator, deciders, rows: int, reset, advance,
           hand_off=None, tail: int = 0):
    """The lane scheduler: one run ("lane") of `config` per decider, fed the
    sender of each observed entry (a curious receiver) by id and in step
    order until it is decided, the run informs every node or it hits the
    step cap; yields (index of the decider in `deciders`, decider, capped) as
    lanes end.  Each free one of the engine's `rows` rows takes the next
    decider: reset(rows) puts a lane at step 0 in each given row, and
    advance(live) steps the lanes of the live rows and returns the positions
    in `live` of the observed entries with their senders, each lane's in
    step order, then each live lane's informed and step counts.

    Once no decider waits and at most `tail` lanes are left, they step
    together for as many more steps as lanes are left, then each ends alone
    on the per-node engine from the state hand_off(row) gives: a lane that is
    about to end is not handed off, and a long tail is not stepped together
    for long.
    """
    n, cap = config.n, config.max_steps
    lanes = [None] * rows  # per row, (index, decider) of its lane
    busy = np.zeros(rows, bool)
    pending = enumerate(deciders)
    exhausted, tail_steps, idle = False, 0, rows  # idle: rows without a lane
    while True:
        if not exhausted and idle:
            free = np.flatnonzero(~busy)
            new = list(itertools.islice(pending, free.size))
            exhausted = len(new) < free.size
            free = free[: len(new)]
            reset(free)
            busy[free] = True
            idle -= len(new)
            for row, lane in zip(free.tolist(), new):
                lanes[row] = lane
        live = np.flatnonzero(busy)
        if exhausted and live.size <= tail:  # with no lane left, this ends every engine
            tail_steps += 1
            if tail_steps > live.size:
                for row in live.tolist():
                    index, decider = lanes[row]
                    run = _sequential_run(config, rng, hand_off(row), decider.feed)
                    yield index, decider, not run.decided and not run.complete(config)
                return

        fed, senders, informed, steps = advance(live)
        decided = set()  # positions in `live` of the decided lanes
        for r, row, sender in zip(fed.tolist(), live[fed].tolist(), senders.tolist()):
            if r not in decided and lanes[row][1].feed(sender):
                decided.add(r)
        ended = (informed == n) | (steps >= cap)
        if decided:
            ended[list(decided)] = True
        ended = np.flatnonzero(ended)
        idle += ended.size
        for r, row in zip(ended.tolist(), live[ended].tolist()):
            busy[row] = False
            yield *lanes[row], r not in decided and bool(informed[r] < n)


def _array_lanes(config: GossipConfig, rng: np.random.Generator, deciders=None):
    """The array engine: lanes at s in {0, 1} (delayed start included),
    drawn a block of steps at a time on (lanes x steps) arrays and scheduled
    by _lanes, which hands none off.

    With `deciders`, yields what _lanes yields.  Without, one lane is
    recorded and yielded as a SequentialRun.

    A block draws (L, B) receivers and, at s = 1, (L, B) uniforms; each
    sender is A[int(u * |A|)] with |A| as the step finds it, |A| = 1
    included.  B is 3 x the lanes' mean age + 16, so one lane's blocks start
    at 16 steps and grow x4, up to _BLOCK and _LANE_STEPS / L.  A lane's
    block is cut at the step cap and at the step that informs its last node.
    """
    n, cap, src, curious_lo = config.n, config.max_steps, config.source, config.curious_lo
    s_one = config.s == 1.0
    delayed = config.variant == "delayed_start"
    record = deciders is None
    rows = 1 if record else max(1, min(_TABLE // n, _LANE_STEPS // 16))
    # joined[row * n + v]: the clock at which v joined A (at s = 1) or the
    # informed set (at s = 0) in the row's lane, _NEVER if it has not; the
    # source joins at the lane's base, the clock at its start, except under
    # delayed start, where it joins A only on receiving.  An entry below the
    # base is an earlier lane's: a block resets the ones it meets, so a row
    # is reused without an O(n) reset.  A newly informed node is a newly
    # joined one other than the source.
    joined = np.full(rows * n, _NEVER, np.int64)
    order = np.empty(rows * n, np.int64)  # per row, A in list order; it only grows at s = 1
    base, la, prev, n_informed, step = (np.zeros(rows, np.int64) for _ in range(5))
    clock = 0
    senders, receivers = [], []  # the recorded lane's blocks

    def reset(free):
        for row in free.tolist():  # a loop: most calls reset one row
            base[row], la[row], prev[row], n_informed[row], step[row] = clock, not delayed, src, 1, 0
            joined[row * n + src] = _NEVER if delayed else clock
            order[row * n] = src

    def advance(live):
        nonlocal clock
        L, at_step, offset = live.size, step[live], (live * n)[:, None]
        B = min(3 * int(at_step.sum()) // L + 16, _BLOCK, _LANE_STEPS // L, cap - int(at_step.min()))
        rcv = rng.integers(0, n, size=(L, B))
        u = rng.random((L, B)) if s_one else None
        at = np.arange(clock + 1, clock + 1 + L * B).reshape(L, B)  # each lane-step's clock
        cell = rcv + offset
        if base[live].any():  # reused rows: an earlier lane's entry is reset to not joined
            joined[cell[joined[cell] < base[live, None]]] = _NEVER
        np.minimum.at(joined, cell.ravel(), at.ravel())
        clock += L * B + 1  # a lane admitted next starts above every clock so far
        new = joined[cell] == at
        informed = n_informed[live, None] + (new & (rcv != src)).cumsum(1)
        size = np.minimum(np.minimum(cap - at_step, B), (informed < n).sum(1) + 1)
        if s_one:
            held = la[live, None] + new.cumsum(1) - new  # |A| when each step picks its sender
            order[(offset + held)[new]] = rcv[new]
            snd = order[offset + (u * held).astype(np.int64)]
            la[live] = held[:, -1] + new[:, -1]
        else:
            snd = np.concatenate((prev[live, None], rcv[:, :-1]), axis=1)
            prev[live] = rcv[:, -1]
        snd[at_step == 0, 0] = src  # under delayed start A is empty before the first send
        end_step, end_informed = at_step + size, informed[np.arange(L), size - 1]
        step[live], n_informed[live] = end_step, end_informed
        if record:
            senders.append(snd[0, : size[0]])
            receivers.append(rcv[0, : size[0]])
            return _NONE, _NONE, end_informed, end_step
        lane_of, t_of = np.nonzero((rcv >= curious_lo) & (_STEPS[:B] < size[:, None]))
        return lane_of, snd[lane_of, t_of], end_informed, end_step

    lanes = _lanes(config, rng, [None] if record else deciders, rows, reset, advance)
    if not record:
        yield from lanes
        return
    next(lanes)
    # One concatenation per column; rebinding frees the senders' blocks first.
    senders = np.concatenate(senders)
    receivers = np.concatenate(receivers)
    yield SequentialRun(senders, receivers, int(n_informed[0]), int(step[0]), False)


def run_trace(config: GossipConfig, rng: np.random.Generator) -> ExecutionTrace:
    """Run the sequential engine to completion (or the step cap).

    Per step: draw a sender uniformly from A, remove it from A with
    probability 1-s, call tell_gossip, add the receiver to A.  Under
    delayed start the source's first send always removes it, so it
    re-activates only by receiving the rumor.  The run ends once every
    node is informed.

    At s in {0, 1} the run is the array engine's one recorded lane,
    otherwise it is drawn on the per-node loop (see the module docstring);
    the two have the same law.
    """
    run = next(_array_lanes(config, rng)) if config.s in (0.0, 1.0) else _sequential_run(config, rng)
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
