"""Monte Carlo estimation layer: event probabilities, empirical privacy
gaps over declared event families, attack precision, and spreading
statistics, each with 99% normal-approximation confidence intervals.

Estimation honesty rules baked in:

* The privacy gap is never estimated over the full sequence space (that is
  intractable); estimate_dp_gap is explicitly a lower estimate restricted
  to a declared event family and is only compared against closed forms as
  a one-sided consistency check.
* Attack abstentions count as failures in headline precision; the
  abstention rate and the precision among actual predictions are reported
  separately.
* Simulations stop early only once the evaluated event or attack is
  decided regardless of any future observation; step-capped runs are
  evaluated on the partial view and counted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .adversary import (
    FirstGoesQuiet,
    FirstInPrior,
    FirstKDistinct,
    ObservedPrefix,
    _score_multi_rumor,
    silence_window,
)
from .core import GossipConfig, RoundTrace, split_stream
from .protocols import _check_round_variant, _sequential_run
from .protocols import run_sync  # noqa: F401  -- perfbench's traced run wraps estimators.run_sync

Z99 = 2.576  # 99% two-sided normal quantile, as reported alongside estimates


@dataclass(frozen=True)
class EstimateResult:
    """A Bernoulli point estimate with its trial count and CI half-width."""

    estimate: float
    trials: int
    ci_half_width: float
    raw_successes: int
    incomplete: int = 0  # step-capped runs evaluated on a partial view

    @classmethod
    def from_counts(cls, successes: int, trials: int, incomplete: int = 0) -> "EstimateResult":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        p = successes / trials
        half = Z99 * math.sqrt(p * (1.0 - p) / trials)
        return cls(p, trials, half, successes, incomplete)

    @property
    def low_count(self) -> bool:
        """Normal approximation floor: flagged when raw_successes < 20."""
        return self.raw_successes < 20


@dataclass(frozen=True)
class EventSpec:
    """A boolean event evaluable on an adversary view.

    Kinds:
      sender_rank_le(node, r)  `node` appears among the first r+1 observed
                               senders (its sender rank is <= r);
                               first_sender_is(node) is the case r=0
      timed_first_disclosure() the strong adversary sees an entry at global
                               index 0 (the very first call hit a curious
                               node)
    """

    kind: str
    node: Optional[int] = None
    r: Optional[int] = None

    @classmethod
    def first_sender_is(cls, node: int) -> "EventSpec":
        return cls.sender_rank_le(node, 0)

    @classmethod
    def sender_rank_le(cls, node: int, r: int) -> "EventSpec":
        if not r >= 0:
            raise ValueError("r must be >= 0")
        return cls(kind="sender_rank_le", node=node, r=r)

    @classmethod
    def timed_first_disclosure(cls) -> "EventSpec":
        return cls(kind="timed_first_disclosure")

    @property
    def timed(self) -> bool:
        return self.kind == "timed_first_disclosure"

    @property
    def horizon(self) -> int:
        """Observed entries after which the event is decided."""
        if self.timed:
            raise ValueError(f"{self.kind} is not decided by an untimed prefix")
        return self.r + 1

    def evaluate_senders(self, senders: Sequence[int]) -> bool:
        """Evaluate on the observed sender prefix (>= horizon entries, or
        the complete view if shorter)."""
        return self.node in senders[: self.horizon]


# ---------------------------------------------------------------------------
# Lumped lockstep engine
#
# On the complete graph the nodes outside a few labelled ones are
# exchangeable within their class, so a run lumps to per-class counts of
# active, muted and uninformed nodes plus the states of the labelled nodes
# (strong lumpability; Kemeny & Snell, Finite Markov Chains, 6.3).  The
# labelled nodes are the source and the observed senders that the lane's rule
# tells apart: such a sender, if unlabelled, takes a fresh id, uniform over
# the unused ids of its class, and keeps it.  An observed sender of a class
# the rule never looks inside stays in its class's counts and is not fed; one
# that the rule needs to know only as "none of the labelled nodes" (it comes
# after the decider's first tells_apart fed senders) stays there too and is
# fed as -1.  So each rule bounds its lane's labels, whatever its parameter:
# MAP 2, silence 2 (FirstGoesQuiet labels only its first sender),
# FirstKDistinct k + 1 and ObservedPrefix its length + 1.  A labelled node
# has sent or is the source, so it is informed.  Many runs ("lanes") advance
# together on numpy arrays, and Python runs only once per fed entry.  The
# last lanes, and lanes with many labels (a large k or event horizon), are
# un-lumped and end one by one on the per-node engine
# (protocols._sequential_run): a step there costs 0.4-0.9 us (n = 4096-65536)
# against 170-190 us for a step of the arrays with 500-800 live lanes
# (n = 65536), in process time on a 2-core Xeon VM, and a hand-off about one
# step of the arrays.  The state is exchangeable within each class, so the
# hand-off keeps the law: each class's active and muted nodes take distinct
# ids, uniform over its unlabelled ids.
#
# One step of a lane: a uniform sender among the active nodes, laid out as
# each class's unlabelled active nodes, then the active labelled slots; its
# mute coin (forced on the first step of a delayed start); a uniform receiver
# among the n nodes, laid out as the labelled slots, then each class's
# [active, muted, uninformed] nodes as they were before the sender muted.  An
# unlabelled sender holds the first place of its class's active block, which
# tells a send to itself apart.  A lane's counts are the rows of
# _lumped_views' state: labelled nodes, then per class active, muted and
# uninformed nodes, then active labelled nodes and steps.

_LANES = 2048  # lanes stepped together at most; bounds the engine's arrays
# Once no run waits and at most _TAIL lanes are left, they step together
# for as many more steps as lanes are left, then each ends alone: a lane
# that is about to end is not handed off, and a long tail is not stepped
# together for long.
_TAIL = 256
# A lane with this many labelled nodes ends alone, which bounds W.  MAP and
# silence lanes hold at most 2 labels, but multi-rumor lanes hold up to k + 1
# and event lanes their horizon + 1, and a spec bounds neither: the (lanes, W)
# arrays, and the clash check that reads them, would grow with k or the
# horizon.
_CROWD = 256


def _pools(config: GossipConfig, prior_size: Optional[int] = None) -> list[tuple[np.ndarray, bool, bool]]:
    """The ids of each class of exchangeable nodes, whether it is curious, and
    whether the rule tells its nodes apart (its observed senders are labelled
    and fed): the non-curious nodes but the source, then the curious nodes,
    both told apart.  With a MAP prior, the non-curious nodes but the source
    split into the rest and the last prior_size-1 of them (the prior but its
    source), and only the latter are told apart: FirstInPrior decides at the
    first observed source or prior member.  A class may be empty."""
    others = np.delete(np.arange(config.curious_lo), config.source)
    curious = np.arange(config.curious_lo, config.n)
    if prior_size is None:
        return [(others, False, True), (curious, True, True)]
    rest, prior = np.split(others, [others.size - prior_size + 1])
    return [(rest, False, False), (prior, False, True), (curious, True, False)]


@functools.cache
def _count_moves(K: int) -> np.ndarray:
    """The change of a lane's counts for each step outcome, one column per
    ((sender class * 2 + mute) * (3K+1) + receiver block) * 2 + self-send.
    Sender class K is a labelled sender; receiver block 0 is a labelled slot
    and block 1+3c+b is class c's active (b=0), muted (1) or uninformed (2)
    nodes."""
    blocks = 3 * K + 1
    moves = np.zeros((3 * K + 3, (K + 1) * 2 * blocks * 2), np.int64)
    for col, move in enumerate(moves.T):
        rest, self_send = divmod(col, 2)
        rest, block = divmod(rest, blocks)
        sender, mute = divmod(rest, 2)
        move[-1] = 1  # steps
        if sender < K and mute and not self_send:  # the sender goes quiet
            move[1 + 3 * sender] -= 1
            move[2 + 3 * sender] += 1
        c, b = divmod(block - 1, 3)
        if block and b:  # a muted or uninformed receiver becomes active
            move[1 + 3 * c] += 1
            move[1 + 3 * c + b] -= 1
    return moves


def _lumped_views(config: GossipConfig, deciders: Iterable, rng: np.random.Generator, pools):
    """One run of `config` per decider, stepped in lockstep with up to _LANES
    others, its nodes lumped into the classes `pools` (from _pools).  Each
    decider is fed the senders of its run's observed entries that it tells
    apart (the source and its told-apart classes) until it is decided, the
    run informs every node, or it hits the step cap.  Yields
    (index of the decider in `deciders`, decider, capped) as runs end.
    """
    n, s, cap = config.n, config.s, config.max_steps
    delayed = config.variant == "delayed_start"
    K, W = len(pools), 8
    ids = [pool for pool, _, _ in pools]
    sizes = np.array([pool.size for pool in ids])
    flat_ids = np.concatenate(ids)
    first_id = np.cumsum(sizes) - sizes
    curious = np.array([cur for _, cur, _ in pools])
    fed = np.array([tell for _, _, tell in pools] + [True])  # by sender class; K: labelled
    moves = _count_moves(K)
    observed_block = np.concatenate([[False], np.repeat(curious, 3)])
    NLAB, ON, STEPS = 0, 3 * K + 1, 3 * K + 2
    A = 1 + 3 * np.arange(K)
    source_lane = np.zeros(3 * K + 3, np.int64)  # slot 0 is the source: informed, active
    source_lane[[NLAB, ON]] = 1, 1
    source_lane[A + 2] = sizes
    pending = enumerate(deciders)
    exhausted = False
    tail = 0

    # Per lane (column): its counts; (its index in `deciders`, its decider);
    # how many more fed senders the decider tells apart.  Per lane and
    # labelled slot (L, W): id (-1 if unused), and the active slots as a
    # swap-remove list, whose first st[ON] entries are the active ones.
    st = np.zeros((3 * K + 3, 0), np.int64)
    lanes: list[tuple] = []
    slot_t = np.int16 if n < 2**15 else np.int32  # holds any id and any slot
    lab_id = np.zeros((0, W), slot_t)
    on_list = np.zeros((0, W), slot_t)
    alive = np.zeros(0, bool)
    tells = np.zeros(0)

    def activate(rows, slots):
        on = st[ON, rows]
        on_list[rows, on] = slots
        st[ON, rows] = on + 1

    def alone(row):
        # Un-lump the lane: its labelled nodes keep their ids, each class's
        # active and muted nodes take distinct ids, uniform over the class's
        # unlabelled ids, and the run goes on on the per-node engine.
        counts = st[:, row].tolist()
        labels = lab_id[row, : counts[NLAB]].astype(np.int64)
        free = np.ones(n, bool)
        free[labels] = False
        # The active labels in slot order, as the per-node engine's A list.
        informed, active = [labels], [labels[np.sort(on_list[row, : counts[ON]])]]
        for pool, a, m in zip(ids, counts[1:ON:3], counts[2:ON:3]):
            if a + m:
                drawn = rng.choice(pool[free[pool]], a + m, replace=False)
                informed.append(drawn)
                active.append(drawn[:a])
        start = np.concatenate(informed), np.concatenate(active), counts[STEPS]
        index, decider = lanes[row]
        run = _sequential_run(config, rng, start, decider.feed)
        return index, decider, not run.decided and not run.complete(config)

    while True:
        n_alive = int(np.count_nonzero(alive))
        admit = not exhausted and 2 * n_alive <= _LANES
        if n_alive < alive.size and (admit or 4 * n_alive < 3 * alive.size):
            lanes = [lane for lane, keep in zip(lanes, alive.tolist()) if keep]
            st = st[:, alive]
            lab_id, on_list, tells = (x[alive] for x in (lab_id, on_list, tells))
            alive = alive[alive]
        if admit:
            for lane in pending:
                lanes.append(lane)
                if len(lanes) == n_alive + _LANES // 2:
                    break
            else:
                exhausted = True
            m = len(lanes) - alive.size
            if m:
                first_slot = np.tile(np.arange(W) == 0, (m, 1))
                st = np.hstack([st, np.repeat(source_lane[:, None], m, axis=1)])
                lab_id = np.vstack([lab_id, np.where(first_slot, config.source, -1).astype(slot_t)])
                on_list = np.vstack([on_list, np.zeros((m, W), slot_t)])
                tells = np.concatenate([tells, [d.tells_apart for _, d in lanes[alive.size :]]])
                alive = np.concatenate([alive, np.ones(m, bool)])
                n_alive += m
        if exhausted and n_alive <= _TAIL:
            tail += 1
            if tail > n_alive:
                for row in np.flatnonzero(alive).tolist():
                    yield alone(row)
                return
        L = alive.size

        u = rng.random((3 if 0.0 < s < 1.0 else 2, L))
        cum_active = [st[A[0]]]
        for c in range(1, K):
            cum_active.append(cum_active[-1] + st[A[c]])
        unl = cum_active[-1]
        total = unl + st[ON]
        k = (u[0] * total).astype(np.int64)
        cs = np.zeros(L, np.int64)  # the sender's class; K if labelled
        for bound in cum_active:
            cs += k >= bound
        mute = u[2] >= s if 0.0 < s < 1.0 else np.full(L, s == 0.0)
        if delayed:
            mute |= st[STEPS] == 0
        r = (u[1] * n).astype(np.int64)
        bound = st[NLAB]
        block = (r >= bound).astype(np.int64)  # 0: a labelled slot
        self_send = (cs == 0) & (r == bound)
        for row in range(1, ON - 1):
            bound = bound + st[row]
            block += r >= bound
            if row % 3 == 0:  # the start of class row // 3
                self_send |= (cs == row // 3) & (r == bound)
        st += np.take(moves, ((cs * 2 + mute) * ON + block) * 2 + self_send, axis=1)
        obs = observed_block[block]

        ls = np.flatnonzero(cs == K)
        sender_slot = np.zeros(L, np.int64)
        sender_slot[ls] = on_list[ls, k[ls] - unl[ls]]
        lm = ls[mute[ls]]
        if lm.size:  # swap-remove muted labelled senders from the active list
            on = st[ON, lm] - 1
            on_list[lm, k[lm] - unl[lm]] = on_list[lm, on]
            st[ON, lm] = on
        lr = np.flatnonzero(block == 0)
        if lr.size:
            obs[lr] = lab_id[lr, r[lr]] >= config.curious_lo
            on = (on_list[lr] == r[lr, None]) & (np.arange(W) < st[ON, lr, None])
            woken = lr[~on.any(1)]
            activate(woken, r[woken])

        # Fed senders: a labelled one by its id; an unlabelled one, if it is
        # among the first tells_apart senders fed to the lane's decider, takes
        # the next slot and a fresh id, uniform over its class's ids and
        # redrawn while the lane uses it, and otherwise stays in its class's
        # counts and is fed as -1.
        ob = np.flatnonzero(obs & alive & fed[cs])
        decided = np.zeros(L, bool)
        if ob.size:
            c = cs[ob]
            told = tells[ob] > 0
            tells[ob] -= 1
            unlabelled = c < K
            ou, cu = ob[unlabelled & told], c[unlabelled & told]
            if ou.size:
                slot = st[NLAB, ou]
                if slot.max() >= W:
                    grow = ((0, 0), (0, W))
                    on_list = np.pad(on_list, grow)
                    lab_id = np.pad(lab_id, grow, constant_values=-1)
                    W *= 2
                awake = ~mute[ou] | self_send[ou]
                st[A[cu], ou] -= awake
                st[A[cu] + 1, ou] -= ~awake
                activate(ou[awake], slot[awake])
                st[NLAB, ou] += 1
                sender_slot[ou] = slot
                fresh = np.full(ou.size, -1)
                used = lab_id[ou, : slot.max()]
                clash = np.arange(ou.size)
                while clash.size:
                    cc = cu[clash]
                    fresh[clash] = flat_ids[first_id[cc] + (rng.random(clash.size) * sizes[cc]).astype(np.int64)]
                    clash = clash[(used[clash] == fresh[clash, None]).any(1)]
                lab_id[ou, slot] = fresh
            sent = np.where(unlabelled & ~told, -1, lab_id[ob, sender_slot[ob]])
            done = [row for row, sender in zip(ob.tolist(), sent.tolist()) if lanes[row][1].feed(sender)]
            decided[done] = True

        left = st[A + 2].sum(0)  # uninformed nodes
        ended = alive & (decided | (left == 0) | (st[STEPS] >= cap))
        alive &= ~ended
        for row in np.flatnonzero(ended).tolist():
            yield *lanes[row], bool(not decided[row] and left[row] > 0)
        for row in np.flatnonzero(alive & (st[NLAB] >= _CROWD)).tolist():
            alive[row] = False
            yield alone(row)


def _first_observed_senders_s0(
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


def estimate_events(
    config: GossipConfig,
    events: Sequence[EventSpec],
    trials: int,
    rng: np.random.Generator,
) -> list[EstimateResult]:
    """Estimate a family of events on shared simulated runs.

    Every event in the family must be of the same timing kind.  Runs stop
    as soon as every event in the family is decided.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not events:
        raise ValueError("events must be nonempty")
    timed_flags = {e.timed for e in events}
    if len(timed_flags) > 1:
        raise ValueError("cannot mix timed and untimed events in one family")

    if timed_flags == {True}:
        # Only the first call matters: its receiver is curious or not.
        first_receivers = rng.integers(0, config.n, size=trials)
        hits = int(np.count_nonzero(first_receivers >= config.curious_lo))
        return [EstimateResult.from_counts(hits, trials) for _ in events]

    for e in events:
        if not 0 <= e.node < config.n:
            raise ValueError(f"event node {e.node} is outside [0, {config.n})")
    horizon = max(e.horizon for e in events)

    if config.s == 0.0 and horizon == 1:
        # Horizon-1 events all reduce to "the first observed sender is node".
        first, capped = _first_observed_senders_s0(config, trials, rng)
        counts = np.bincount(first[first >= 0], minlength=config.n)
        return [
            EstimateResult.from_counts(int(counts[e.node]), trials, incomplete=capped)
            for e in events
        ]

    results = [0] * len(events)
    incomplete = 0
    prefixes = (ObservedPrefix(horizon) for _ in range(trials))
    for _, prefix, capped in _lumped_views(config, prefixes, rng, _pools(config)):
        incomplete += capped
        for k, e in enumerate(events):
            results[k] += e.evaluate_senders(prefix.senders)
    return [EstimateResult.from_counts(c, trials, incomplete) for c in results]


def estimate_event(
    config: GossipConfig,
    event: EventSpec,
    trials: int,
    rng: np.random.Generator,
) -> EstimateResult:
    """Estimate one event's probability over `trials` independent runs."""
    return estimate_events(config, [event], trials, rng)[0]


def estimate_source_disclosure(
    s: float, f: int, n: int, trials: int, rng: np.random.Generator
) -> EstimateResult:
    """Prefix-process estimate of the probability that the source contacts a
    curious node before its first deactivation.

    Simulates only the source's opening send streak: a geometric number of
    messages (stop probability 1-s after each), each aimed uniformly at the
    n nodes.  This is the Monte Carlo twin of
    bounds.source_disclosure_prob, kept independent of the closed form.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("the prefix process needs 0 < s < 1")
    GossipConfig(n=n, f=f, s=s)  # (n, f, s) by the config's rule
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sends = rng.geometric(1.0 - s, size=trials)  # sends until first mute, >= 1
    total = int(sends.sum())
    curious_hit = rng.integers(0, n, size=total) >= n - f
    starts = np.concatenate(([0], np.cumsum(sends)[:-1]))
    any_hit = np.logical_or.reduceat(curious_hit, starts)
    return EstimateResult.from_counts(int(np.count_nonzero(any_hit)), trials)


def estimate_dp_gap(
    config_i: GossipConfig,
    config_j: GossipConfig,
    events: Sequence[EventSpec],
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical lower estimate of delta at epsilon=0, restricted to the
    given event family: max over events of p_hat_i(E) - p_hat_j(E).

    The two configurations must be identical except for their source.
    """
    if replace(config_i, source=config_j.source) != config_j:
        raise ValueError("configs must differ only in their source")
    if config_i.source == config_j.source:
        raise ValueError("sources must differ")
    rng_i, rng_j = split_stream(rng, 2)
    res_i = estimate_events(config_i, events, trials, rng_i)
    res_j = estimate_events(config_j, events, trials, rng_j)
    return max(a.estimate - b.estimate for a, b in zip(res_i, res_j))


# ---------------------------------------------------------------------------
# Attack precision
#
# Each attack spec resolves its parameter (attack.csv's `param`) and runs its
# trials on the lumped engine: runs() yields (prediction or None to abstain,
# step-capped runs) per trial, in the order the trials end.


@dataclass(frozen=True)
class MapAttackSpec:
    """First-in-prior attack; prior_size=None means all non-curious nodes,
    otherwise the prior is the source plus prior_size-1 random others."""

    prior_size: Optional[int] = None

    def param(self, config: GossipConfig) -> int:
        """The prior's size: all n - f non-curious nodes if prior_size is None."""
        return config.curious_lo if self.prior_size is None else self.prior_size

    def runs(self, config: GossipConfig, trials: int, rng: np.random.Generator):
        """The prior is the source plus the last size-1 other non-curious ids:
        those nodes are exchangeable, so which of them form the prior does not
        change the law of the attack's success."""
        size = self.param(config)
        if not 1 <= size <= config.curious_lo:
            raise ValueError(f"prior size must be in [1, {config.curious_lo}]")
        pools = _pools(config, size)
        prior = frozenset(pools[1][0].tolist()) | {config.source}
        rules = (FirstInPrior(prior) for _ in range(trials))
        for _, rule, capped in _lumped_views(config, rules, rng, pools):
            yield rule.predict(rng), capped


@dataclass(frozen=True)
class MultiRumorAttackSpec:
    """Cross-instance attack over `rumors` runs from the same source,
    intersecting the first k distinct senders of each."""

    rumors: int
    k: int = 10

    def param(self, config: GossipConfig) -> int:
        return self.rumors

    def runs(self, config: GossipConfig, trials: int, rng: np.random.Generator):
        if not self.rumors >= 1:
            raise ValueError("rumors must be >= 1")
        rules = (FirstKDistinct(self.k) for _ in range(trials * self.rumors))
        waiting: dict[int, list] = {}  # trial -> [rumors still running, capped, lead lists]
        for index, rule, capped in _lumped_views(config, rules, rng, _pools(config)):
            trial = waiting.setdefault(index // self.rumors, [self.rumors, 0, [None] * self.rumors])
            trial[0] -= 1
            trial[1] += capped
            trial[2][index % self.rumors] = rule.leads
            if not trial[0]:
                del waiting[index // self.rumors]
                yield _score_multi_rumor(trial[2], rng), trial[1]


@dataclass(frozen=True)
class SilenceAttackSpec:
    """First-sender silence detection with window r (default ceil(ln(n)^2))."""

    r: Optional[int] = None

    def param(self, config: GossipConfig) -> int:
        """The window: silence_window(n) if r is None."""
        return silence_window(config.n) if self.r is None else self.r

    def runs(self, config: GossipConfig, trials: int, rng: np.random.Generator):
        r = self.param(config)
        rules = (FirstGoesQuiet(r) for _ in range(trials))
        for _, rule, capped in _lumped_views(config, rules, rng, _pools(config)):
            yield rule.predict(), capped


@dataclass(frozen=True)
class AttackPrecisionResult:
    """Attack precision over trials.  `precision` counts abstentions as
    failures; `precision_given_prediction` conditions on having predicted."""

    precision: EstimateResult
    n_abstained: int

    @property
    def abstain_rate(self) -> float:
        return self.n_abstained / self.precision.trials

    @property
    def precision_given_prediction(self) -> Optional[EstimateResult]:
        predicted = self.precision.trials - self.n_abstained
        if predicted == 0:
            return None
        return EstimateResult.from_counts(self.precision.raw_successes, predicted)


def estimate_attack_precision(
    config: GossipConfig,
    attack: MapAttackSpec | MultiRumorAttackSpec | SilenceAttackSpec,
    trials: int,
    rng: np.random.Generator,
) -> AttackPrecisionResult:
    """Fraction of runs whose attack prediction equals the true source."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    correct = 0
    abstained = 0
    incomplete = 0
    for predicted, capped in attack.runs(config, trials, rng):
        incomplete += capped
        if predicted is None:
            abstained += 1
        else:
            correct += predicted == config.source
    return AttackPrecisionResult(
        precision=EstimateResult.from_counts(correct, trials, incomplete),
        n_abstained=abstained,
    )


# ---------------------------------------------------------------------------
# Spreading statistics

_BAND_ROUNDS = 1 << 14  # rounds per block of _bands' percentile matrix


@dataclass(frozen=True)
class SpreadingSummary:
    """Round-indexed spreading statistics over repeated synchronous runs.

    Trajectories are fractions of n; runs shorter than the longest are
    padded by holding their final value (informed saturates at 1).  The
    plateau is the per-run mean active fraction over the late rounds where
    the informed fraction exceeds 0.99, summarized by its median.
    """

    informed_med: np.ndarray
    informed_p10: np.ndarray
    informed_p90: np.ndarray
    active_med: np.ndarray
    active_p10: np.ndarray
    active_p90: np.ndarray
    completion_rounds: np.ndarray  # rounds executed per complete run
    total_messages: np.ndarray  # messages per complete run
    plateau_median: float
    n_runs: int
    n_capped: int


def estimate_spreading(
    config: GossipConfig, trials: int, rng: np.random.Generator
) -> SpreadingSummary:
    """Run the synchronous engine `trials` times and aggregate trajectories,
    completion rounds, message totals, and the late-round active plateau.
    Step-capped runs are excluded from the aggregates and counted.

    The runs come from lumped engines with run_sync's law: at s=0 the
    coupon-collector engine (_coupon_runs_s0), which draws the rounds of
    every run in one call, otherwise the count-only round engine
    (_count_runs), which draws each round's stayers as one count and then
    only the receivers that can change a count."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_round_variant(config)
    n = config.n
    if config.s == 0.0:
        outcomes = _coupon_runs_s0(config, trials, rng)
    else:
        outcomes = _count_runs(config, trials, rng)
    runs = [rounds for complete, rounds in outcomes if complete]
    if not runs:
        raise RuntimeError("every run hit the step cap; raise step_cap")
    late = (rounds.active[rounds.informed > 0.99 * n] for rounds in runs)
    plateaus = [np.mean(active) / n for active in late if active.size]
    inf_p10, inf_med, inf_p90 = _bands([rounds.informed for rounds in runs], n)
    act_p10, act_med, act_p90 = _bands([rounds.active for rounds in runs], n)
    return SpreadingSummary(
        informed_med=inf_med,
        informed_p10=inf_p10,
        informed_p90=inf_p90,
        active_med=act_med,
        active_p10=act_p10,
        active_p90=act_p90,
        completion_rounds=np.array([len(rounds) for rounds in runs], dtype=np.int64),
        total_messages=np.array([rounds.messages.sum() for rounds in runs], dtype=np.int64),
        plateau_median=float(np.median(plateaus)),
        n_runs=len(runs),
        n_capped=trials - len(runs),
    )


def _bands(curves: list[np.ndarray], n: int) -> np.ndarray:
    """The 10th, 50th and 90th percentiles per round of int count curves, as
    fractions of n; each curve holds its last value after it ends.  A round's
    percentiles read only its own column, so they are computed over blocks of
    _BAND_ROUNDS rounds, one (runs x block) matrix at a time."""
    longest = max(c.size for c in curves)
    out = np.empty((3, longest))
    mat = np.empty((len(curves), min(longest, _BAND_ROUNDS)))
    for lo in range(0, longest, _BAND_ROUNDS):
        block = mat[:, : min(longest - lo, _BAND_ROUNDS)]
        for row, c in zip(block, curves):
            part = c[lo : lo + block.shape[1]]
            row[: part.size] = part
            row[part.size :] = c[-1]
        block /= n
        out[:, lo : lo + block.shape[1]] = np.percentile(block, [10, 50, 90], axis=0, overwrite_input=True)
    return out
