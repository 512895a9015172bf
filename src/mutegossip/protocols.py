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
             work on dense masks.

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

Attack and event runs are fed lanes (fed_lanes): one per decider, fed the
sender of each observed entry.  One scheduler, _lanes, admits, feeds, ends
and yields every lane; an engine supplies a reset of some rows of its
tables, a step of the live rows and, for a hand-off, a lane's state.  At s
in {0, 1} lanes run on the array engine (a run_trace run there is its one
recorded lane); at 0 < s < 1 each live lane takes one step per iteration:

* Count lockstep (MAP lanes).  The nodes of a class are exchangeable, so a
  MAP run lumps to per-class counts of active, muted and uninformed nodes
  (strong lumpability; Kemeny & Snell, Finite Markov Chains, 6.3) over four
  classes (_pools): the source, the other non-curious nodes outside the
  prior, the prior's other members and the curious nodes.  FirstInPrior
  decides at the first observed sender that is the source or in the prior,
  so a lane is fed once, the source's id or an id uniform over the prior's
  class, and ends; no node is told apart from its class.  A step draws a
  uniform sender among the active nodes, laid out class by class, its mute
  coin, and a uniform receiver among the n nodes, laid out as each class's
  [active, muted, uninformed] nodes before the sender muted; the sender
  holds the first place of its class's active block, which tells a send to
  itself apart.  A handed-off lane is un-lumped first: each class's active
  and muted nodes take distinct ids, uniform over the class, which keeps
  the law since the state is exchangeable within each class.
* Per-node lockstep (every other lane).  Each lane keeps its own A list and
  each node's state (uninformed, muted or active), one row of (rows x n)
  tables, and steps by the per-node rule.

Both hand their last _TAIL lanes to the per-node loop (_sequential_run): a
step there costs 0.4-0.9 us (n = 4096-65536), against 30-40 us for an
iteration of the arrays with one live lane (process time, 2-core Xeon VM).

round_counts draws run_sync's per-round informed and active counts, all
that the spreading estimator reads, from count-only engines of its law: the
coupon collector at s = 0, the count-only round engine at s > 0.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ExecutionTrace, GossipConfig, RoundTrace

_BLOCK = 4096
_STEPS = np.arange(_BLOCK)
# The array engine's budgets: its join and order tables hold at most _TABLE
# entries (lanes x n), and a block draws at most _LANE_STEPS lane-steps.
_TABLE = 1 << 17
_LANE_STEPS = 1 << 14
_LANES = 2048  # lanes stepped together at most; bounds the engines' arrays
_TAIL = 256  # lanes that the lockstep engines hand off at their end, at most
# The per-node lockstep's tables hold at most this many (row, node) entries.
_NODE_TABLE = 1 << 20
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
    the one on which the lockstep engines end their last lanes, and
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


_SOURCE, _REST, _PRIOR, _CURIOUS = range(4)  # the count lockstep's classes


def _pools(config: GossipConfig, prior_size: int) -> list[np.ndarray]:
    """The ids of the count lockstep's classes for a MAP prior of prior_size
    nodes, in _SOURCE, _REST, _PRIOR, _CURIOUS order; the prior is the source
    plus the last prior_size-1 other non-curious ids.  A class may be empty."""
    others = np.delete(np.arange(config.curious_lo), config.source)
    rest, prior = np.split(others, [others.size - prior_size + 1])
    return [np.array([config.source]), rest, prior, np.arange(config.curious_lo, config.n)]


def map_prior(config: GossipConfig, prior_size: int) -> tuple[list[np.ndarray], frozenset]:
    """_pools for a MAP prior of prior_size nodes (fed_lanes takes them), and the prior's ids."""
    pools = _pools(config, prior_size)
    return pools, frozenset(pools[_PRIOR].tolist()) | {config.source}


@functools.cache
def _count_moves() -> np.ndarray:
    """The change of a lane's counts (per class active, muted, uninformed;
    then steps and uninformed nodes) for each step outcome, one row per
    ((sender class * 2 + mute) * 12 + receiver block) * 2 + self-send, where
    block 3c+b is class c's active (b=0), muted (1) or uninformed (2)
    nodes."""
    moves = np.zeros((4 * 2 * 12 * 2, 14), np.int64)
    for row, move in enumerate(moves):
        rest, self_send = divmod(row, 2)
        rest, block = divmod(rest, 12)
        sender, mute = divmod(rest, 2)
        move[12] = 1  # steps
        if mute and not self_send:  # the sender goes quiet
            move[3 * sender] -= 1
            move[3 * sender + 1] += 1
        if block % 3:  # a muted or uninformed receiver becomes active
            move[block - block % 3] += 1
            move[block] -= 1
        move[13] = -(block % 3 == 2)
    return moves


def fed_lanes(config: GossipConfig, deciders: Iterable, rng: np.random.Generator, pools=None):
    """One run of `config` per decider, as _lanes yields them: at s in
    {0, 1} on the array engine; otherwise MAP's, which come with their
    `pools` (from map_prior), on the count lockstep and every other run on
    the per-node lockstep."""
    if config.s in (0.0, 1.0):
        return _array_lanes(config, rng, deciders)
    if pools is not None:
        return _count_lanes(config, deciders, rng, pools)
    return _node_lanes(config, deciders, rng)


def _count_lanes(config: GossipConfig, deciders: Iterable, rng: np.random.Generator, pools):
    """fed_lanes' count lockstep, for FirstInPrior deciders on `pools`.
    A lane's counts are a row of `st`; its decider must be decided by the
    first sender it is fed."""
    n, s, source = config.n, config.s, config.source
    moves = _count_moves()
    prior = pools[_PRIOR]
    sizes = [pool.size for pool in pools]
    class_end, class_start = np.cumsum(sizes), np.cumsum(sizes) - sizes
    fresh = np.zeros(14, np.int64)  # a lane at step 0: the source active, every other node uninformed
    fresh[2:12:3] = sizes
    fresh[[0, 2, 13]] = 1, 0, n - 1
    st = np.zeros((_LANES, 14), np.int64)  # per row, its lane's counts, laid out as _count_moves' columns
    was_fed = np.zeros(_LANES, bool)

    def reset(free):
        st[free] = fresh
        was_fed[free] = False

    def advance(live):
        if was_fed[live].any():
            raise ValueError("the count lockstep needs a decider decided by its first fed sender")
        L = live.size
        whole = L == len(st)  # every row is live (all are while deciders wait): step st in place
        at = st if whole else np.take(st, live, axis=0)
        u = rng.random((3, L))
        two = at[:, 0] + at[:, 3]  # active nodes in the first two classes
        three = two + at[:, 6]
        k = u[0] * (three + at[:, 9])
        cs = (k >= at[:, 0]).astype(np.int64) + (k >= two) + (k >= three)  # the sender's class
        mute = u[1] >= s
        r = (u[2] * n).astype(np.int64)
        rc = np.searchsorted(class_end, r, side="right")  # the receiver's class
        r -= class_start[rc]
        lane = np.arange(L)
        a = at[lane, 3 * rc]
        block = 3 * rc + (r >= a) + (r >= a + at[lane, 3 * rc + 1])
        self_send = (rc == cs) & (r == 0)
        at += np.take(moves, ((cs * 2 + mute) * 12 + block) * 2 + self_send, axis=0)
        if not whole:
            st[live] = at
        fed = np.flatnonzero((rc == _CURIOUS) & ((cs == _SOURCE) | (cs == _PRIOR)))
        was_fed[live[fed]] = True
        senders = np.full(fed.size, source)
        in_prior = cs[fed] == _PRIOR
        senders[in_prior] = prior[(rng.random(np.count_nonzero(in_prior)) * prior.size).astype(np.int64)]
        return fed, senders, n - at[:, 13], at[:, 12]

    def hand_off(row):
        counts = st[row].tolist()
        informed, active = [], []
        for pool, a, m in zip(pools, counts[0:12:3], counts[1:12:3]):
            if a + m:
                drawn = rng.choice(pool, a + m, replace=False)
                informed.append(drawn)
                active.append(drawn[:a])
        return np.concatenate(informed), np.concatenate(active), counts[12]

    return _lanes(config, rng, deciders, _LANES, reset, advance, hand_off, _TAIL)


def _node_lanes(config: GossipConfig, deciders: Iterable, rng: np.random.Generator):
    """fed_lanes' per-node lockstep: each lane fed every observed sender
    by its id."""
    n, s, src, curious_lo = config.n, config.s, config.source, config.curious_lo
    rows = max(1, min(_LANES, _NODE_TABLE // n))
    A = np.empty((rows, n), np.int32)  # per row, its lane's A list: its first la[row] entries
    state = np.zeros((rows, n), np.int8)  # per row and node: uninformed 0, muted 1, active 2
    la, n_informed, step = (np.zeros(rows, np.int64) for _ in range(3))

    def reset(free):
        state[free] = 0
        state[free, src], A[free, 0] = 2, src
        la[free], n_informed[free], step[free] = 1, 1, 0

    def advance(live):
        u = rng.random((3, live.size))
        k = (u[0] * la[live]).astype(np.int64)
        snd = A[live, k]
        rcv = (u[2] * n).astype(np.int64)
        mute = u[1] >= s
        if mute.any():  # swap-remove the muted senders from A
            m, km = live[mute], k[mute]
            la[m] -= 1
            A[m, km] = A[m, la[m]]
            state[m, snd[mute]] = 1
        was = state[live, rcv]  # after the mute, so a send to oneself wakes its sender
        informed, steps = n_informed[live] + (was == 0), step[live] + 1
        n_informed[live], step[live] = informed, steps
        wake = was < 2
        if wake.any():
            w, kw = live[wake], rcv[wake]
            state[w, kw] = 2
            A[w, la[w]] = kw
            la[w] += 1
        fed = np.flatnonzero(rcv >= curious_lo)
        return fed, snd[fed], informed, steps

    def hand_off(row):
        return np.flatnonzero(state[row]), A[row, : la[row]], int(step[row])

    return _lanes(config, rng, deciders, rows, reset, advance, hand_off, _TAIL)


def first_observed_senders_s0(
    config: GossipConfig, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """s=0 fast path: the first observed sender of each trial, from its law.

    At s=0 the run is a walk: each step's receiver sends the next step.  The
    first observed entry comes at step T ~ Geometric(f/n); its sender is the
    source if T = 1, else the previous receiver, which was not curious and is
    uniform on [0, curious_lo).  Returns (first senders, -1 where T exceeds
    the step cap; count of capped trials).
    """
    if config.f == 0:
        return np.full(trials, -1, dtype=np.int64), 0  # complete, empty observation
    steps = rng.geometric(config.f / config.n, size=trials)
    out = np.where(steps == 1, config.source, rng.integers(0, config.curious_lo, size=trials))
    capped = steps > config.max_steps
    out[capped] = -1
    return out, int(np.count_nonzero(capped))


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


def _coupon_runs_s0(config: GossipConfig, trials: int, rng: np.random.Generator):
    """Lumped s=0 synchronous engine: yield (complete, RoundTrace) per trial.

    At s=0 the one active node sends to a uniform target, which is the next
    round's only active node, so the informed count is a coupon collector:
    the rounds from the k-th to the (k+1)-th informed node are independent
    Geometric((n-k)/n) draws, k = 1..n-1, and every round sends one message.
    A run is step-capped iff its rounds exceed config.max_steps (capped runs
    yield no trace).  The same law as run_sync at s=0, in another draw order.
    """
    n = config.n
    counts = np.arange(1, n + 1)
    waits = rng.geometric((n - counts[:-1]) / n, size=(trials, n - 1))
    held = np.ones(n, dtype=np.int64)  # rounds ending with each informed count
    for w in waits:
        rounds = int(w.sum())
        if rounds > config.max_steps:
            yield False, None
            continue
        held[:-1] = w
        held[0] -= 1  # the second node is informed *in* round waits[0]
        yield True, RoundTrace(np.repeat(counts, held), np.broadcast_to(np.int64(1), (rounds,)))


def _count_runs(config: GossipConfig, trials: int, rng: np.random.Generator):
    """Count-only synchronous engine for s > 0: yield (complete, RoundTrace) per trial.

    On the complete graph the nodes are exchangeable, so the informed and
    active counts are themselves a Markov chain (strong lumpability; Kemeny &
    Snell, Finite Markov Chains, 6.3).  A round of k senders first draws its
    stayers' count, k at s = 1 and Binomial(k, s) otherwise.  With the nodes
    renumbered as stayers [0, stay), other active [stay, k), informed
    inactive [k, informed) and uninformed [informed, n), a receiver among the
    stayers changes no count; so the round draws only the m ~ Binomial(k,
    (n - stay)/n) receivers outside them, uniform over [stay, n) (multinomial
    splitting), informs the distinct ones >= informed and leaves active the
    stayers plus the distinct ones.  The same law as run_sync in another
    draw order.  A run is step-capped once its messages reach
    config.max_steps.
    """
    n, s, cap = config.n, config.s, config.max_steps
    hit = np.zeros(n, dtype=bool)  # one round's receivers
    for _ in range(trials):
        informed = active = 1
        messages = 0
        informed_per_round: list[int] = []
        active_per_round: list[int] = []
        while informed < n and messages < cap:
            k = active
            stay = k if s == 1.0 else int(rng.binomial(k, s))
            rcv = rng.integers(stay, n, size=int(rng.binomial(k, (n - stay) / n)))
            hit[rcv] = True
            active = stay + int(np.count_nonzero(hit[stay:]))
            informed += int(np.count_nonzero(hit[informed:]))
            hit[rcv] = False
            messages += k
            informed_per_round.append(informed)
            active_per_round.append(active)
        yield informed == n, RoundTrace(informed_per_round, active_per_round)


def round_counts(config: GossipConfig, trials: int, rng: np.random.Generator):
    """`trials` runs of run_sync's law as (complete, RoundTrace) pairs, from the
    coupon-collector engine at s = 0 and the count-only round engine otherwise;
    the variant is checked before any draw."""
    _check_round_variant(config)
    return (_coupon_runs_s0 if config.s == 0.0 else _count_runs)(config, trials, rng)
