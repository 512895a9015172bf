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
from .core import GossipConfig, RoundTrace, check_count, split_stream
from .protocols import _array_lanes, _check_round_variant, _lanes
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
        check_count("trials", trials, 1)
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
        check_count("r", r, 0)
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
# Lockstep engines for 0 < s < 1
#
# Every attack and event lane runs under the lane scheduler protocols._lanes,
# on the array engine at s in {0, 1}.  At 0 < s < 1 each live lane advances
# one step per iteration, on numpy arrays: MAP lanes on the count lockstep,
# every other lane on the per-node lockstep.  Each supplies the scheduler a
# reset of rows, a step of the live rows and a handed-off lane's state.
#
# Count lockstep.  On the complete graph the nodes of a class are
# exchangeable, so a MAP run lumps to per-class counts of active, muted and
# uninformed nodes (strong lumpability; Kemeny & Snell, Finite Markov Chains,
# 6.3), over four classes (_pools): the source, the other non-curious nodes
# outside the prior, the prior's other members and the curious nodes.
# FirstInPrior decides at the first observed sender that is the source or in
# the prior, so a lane is fed only once: the source's id, or an id uniform
# over the prior's class, and then it ends.  No node is ever told apart from
# its class.  One step of a lane: a uniform sender among the active nodes,
# laid out class by class; its mute coin; a uniform receiver among the n
# nodes, laid out as each class's [active, muted, uninformed] nodes as they
# were before the sender muted.  The sender holds the first place of its
# class's active block, which tells a send to itself apart.  A handed-off
# lane is un-lumped first: each class's active and muted nodes take distinct
# ids, uniform over the class, which keeps the law since the state is
# exchangeable within each class.
#
# Per-node lockstep.  Each lane keeps its own A list and each node's state
# (uninformed, muted or active), one row of (rows x n) tables, and steps by
# the per-node rule.
#
# Both hand their last _TAIL lanes to the per-node engine
# (protocols._sequential_run), which ends them one by one: a step there costs
# 0.4-0.9 us (n = 4096-65536), against 30-40 us for an iteration of the
# arrays with one live lane, in process time on a 2-core Xeon VM.

_LANES = 2048  # lanes stepped together at most; bounds the engines' arrays
_TAIL = 256  # lanes that the lockstep engines hand off at their end, at most
# The per-node lockstep's tables hold at most this many (row, node) entries.
_NODE_TABLE = 1 << 20
_SOURCE, _REST, _PRIOR, _CURIOUS = range(4)  # the count lockstep's classes


def _pools(config: GossipConfig, prior_size: int) -> list[np.ndarray]:
    """The ids of the count lockstep's classes for a MAP prior of prior_size
    nodes, in _SOURCE, _REST, _PRIOR, _CURIOUS order; the prior is the source
    plus the last prior_size-1 other non-curious ids.  A class may be empty."""
    others = np.delete(np.arange(config.curious_lo), config.source)
    rest, prior = np.split(others, [others.size - prior_size + 1])
    return [np.array([config.source]), rest, prior, np.arange(config.curious_lo, config.n)]


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


def _lumped_views(config: GossipConfig, deciders: Iterable, rng: np.random.Generator, pools=None):
    """One run of `config` per decider, as protocols._lanes yields them: at
    s in {0, 1} on the array engine; otherwise MAP's, which come with their
    `pools` (from _pools), on the count lockstep and every other run on the
    per-node lockstep."""
    if config.s in (0.0, 1.0):
        return _array_lanes(config, rng, deciders)
    if pools is not None:
        return _count_lanes(config, deciders, rng, pools)
    return _node_lanes(config, deciders, rng)


def _count_lanes(config: GossipConfig, deciders: Iterable, rng: np.random.Generator, pools):
    """_lumped_views' count lockstep, for FirstInPrior deciders on `pools`.
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
        L, at = live.size, np.take(st, live, axis=0)
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
    """_lumped_views' per-node lockstep: each lane fed every observed sender
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
    check_count("trials", trials, 1)
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
    for _, prefix, capped in _lumped_views(config, prefixes, rng):
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
    check_count("trials", trials, 1)
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
        check_count("prior size", size)
        if not 1 <= size <= config.curious_lo:
            raise ValueError(f"prior size must be in [1, {config.curious_lo}]")
        pools = _pools(config, size)
        prior = frozenset(pools[_PRIOR].tolist()) | {config.source}
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
        check_count("rumors", self.rumors, 1)
        rules = (FirstKDistinct(self.k) for _ in range(trials * self.rumors))
        waiting: dict[int, list] = {}  # trial -> [rumors still running, capped, lead lists]
        for index, rule, capped in _lumped_views(config, rules, rng):
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
        for _, rule, capped in _lumped_views(config, rules, rng):
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
    check_count("trials", trials, 1)
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
    check_count("trials", trials, 1)
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
