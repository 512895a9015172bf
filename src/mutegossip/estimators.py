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

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .adversary import (
    FirstInPrior,
    FirstKDistinct,
    ObservedPrefix,
    _score_multi_rumor,
    silence_prediction,
    silence_window,
)
from .core import GossipConfig, RoundTrace, split_stream
from .protocols import _sequential_run, run_sync

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
        if r < 0:
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
        one = np.broadcast_to(np.int64(1), (rounds,))
        yield True, RoundTrace(np.repeat(counts, held), one, one)


def _sync_runs(config: GossipConfig, trials: int, rng: np.random.Generator):
    """(complete, RoundTrace) for each of `trials` synchronous-engine runs."""
    for _ in range(trials):
        trace, rounds = run_sync(config, rng)
        yield trace.complete, rounds


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

    horizon = max(e.horizon for e in events)

    if config.s == 0.0 and config.variant == "parameterized" and horizon == 1:
        # Horizon-1 events all reduce to "the first observed sender is node".
        first, capped = _first_observed_senders_s0(config, trials, rng)
        counts = np.bincount(first[first >= 0], minlength=config.n)
        return [
            EstimateResult.from_counts(int(counts[e.node]), trials, incomplete=capped)
            for e in events
        ]

    results = [0] * len(events)
    incomplete = 0
    for _ in range(trials):
        prefix = ObservedPrefix(horizon)
        incomplete += _observe_until(config, rng, prefix)
        for k, e in enumerate(events):
            if e.evaluate_senders(prefix.senders):
                results[k] += 1
    return [EstimateResult.from_counts(c, trials, incomplete) for c in results]


def _observe_until(config: GossipConfig, rng: np.random.Generator, decider) -> bool:
    """Simulate one run that stops once `decider` is decided; return
    whether the step cap cut it short instead."""
    run = _sequential_run(config, rng, observed_stop=decider.feed, collect_events=False)
    return run.capped(config)


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
    if (config_i.n, config_i.f, config_i.s, config_i.variant, config_i.step_cap) != (
        config_j.n,
        config_j.f,
        config_j.s,
        config_j.variant,
        config_j.step_cap,
    ):
        raise ValueError("configs must differ only in their source")
    if config_i.source == config_j.source:
        raise ValueError("sources must differ")
    rng_i, rng_j = split_stream(rng, 2)
    res_i = estimate_events(config_i, events, trials, rng_i)
    res_j = estimate_events(config_j, events, trials, rng_j)
    return max(a.estimate - b.estimate for a, b in zip(res_i, res_j))


# ---------------------------------------------------------------------------
# Attack precision


@dataclass(frozen=True)
class MapAttackSpec:
    """First-in-prior attack; prior_size=None means all non-curious nodes,
    otherwise the prior is the source plus prior_size-1 random others."""

    prior_size: Optional[int] = None


@dataclass(frozen=True)
class MultiRumorAttackSpec:
    """Cross-instance attack over `rumors` runs from the same source,
    intersecting the first k distinct senders of each."""

    rumors: int
    k: int = 10


@dataclass(frozen=True)
class SilenceAttackSpec:
    """First-sender silence detection with window r (default ceil(ln(n)^2))."""

    r: Optional[int] = None


AttackSpec = Union[MapAttackSpec, MultiRumorAttackSpec, SilenceAttackSpec]


@dataclass(frozen=True)
class AttackPrecisionResult:
    """Attack precision over trials.  `precision` counts abstentions as
    failures; `precision_given_prediction` conditions on having predicted."""

    precision: EstimateResult
    n_abstained: int
    n_correct: int

    @property
    def abstain_rate(self) -> float:
        return self.n_abstained / self.precision.trials

    @property
    def precision_given_prediction(self) -> Optional[EstimateResult]:
        predicted = self.precision.trials - self.n_abstained
        if predicted == 0:
            return None
        return EstimateResult.from_counts(self.n_correct, predicted)


def estimate_attack_precision(
    config: GossipConfig,
    attack: AttackSpec,
    trials: int,
    rng: np.random.Generator,
) -> AttackPrecisionResult:
    """Fraction of runs whose attack prediction equals the true source."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    trial = _ATTACK_TRIALS.get(type(attack))
    if trial is None:
        raise TypeError(f"unknown attack spec: {attack!r}")
    correct = 0
    abstained = 0
    incomplete = 0
    for _ in range(trials):
        predicted, capped = trial(config, attack, rng)
        incomplete += capped
        if predicted is None:
            abstained += 1
        else:
            correct += predicted == config.source
    return AttackPrecisionResult(
        precision=EstimateResult.from_counts(correct, trials, incomplete),
        n_abstained=abstained,
        n_correct=correct,
    )


def _sample_prior(config: GossipConfig, size: int, rng: np.random.Generator) -> frozenset[int]:
    """The source plus size-1 distinct non-curious others."""
    lo = config.curious_lo
    if not 1 <= size <= lo:
        raise ValueError(f"prior size must be in [1, {lo}]")
    others = rng.choice(lo - 1, size=size - 1, replace=False)
    others = others + (others >= config.source)  # skip the source's slot
    return frozenset(int(x) for x in others) | {config.source}


# One attack trial each: (prediction or None to abstain, step-capped runs).
def _map_trial(config, attack, rng):
    if attack.prior_size is None:
        rule = FirstInPrior(range(config.curious_lo))
    else:
        rule = FirstInPrior(_sample_prior(config, attack.prior_size, rng))
    capped = _observe_until(config, rng, rule)
    return rule.predict(rng), capped


def _multi_rumor_trial(config, attack, rng):
    if attack.rumors < 1 or attack.k < 1:
        raise ValueError("rumors and k must be >= 1")
    lead_lists: list[list[int]] = []
    capped = 0
    for _ in range(attack.rumors):
        rule = FirstKDistinct(attack.k)
        capped += _observe_until(config, rng, rule)
        lead_lists.append(rule.leads)
    return _score_multi_rumor(lead_lists, rng), capped


def _silence_trial(config, attack, rng):
    r = attack.r if attack.r is not None else silence_window(config.n)
    if r < 1:
        raise ValueError("r must be >= 1")
    prefix = ObservedPrefix(r + 1)
    capped = _observe_until(config, rng, prefix)
    return silence_prediction(prefix.senders), capped


_ATTACK_TRIALS = {
    MapAttackSpec: _map_trial,
    MultiRumorAttackSpec: _multi_rumor_trial,
    SilenceAttackSpec: _silence_trial,
}


# ---------------------------------------------------------------------------
# Spreading statistics


@dataclass(frozen=True)
class SpreadingSummary:
    """Round-indexed spreading statistics over repeated synchronous runs.

    Trajectories are fractions of n; runs shorter than the longest are
    padded by holding their final value (informed saturates at 1).  The
    plateau is the per-run mean active fraction over the late rounds where
    the informed fraction exceeds 0.99, summarized by its median.
    """

    config: GossipConfig
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

    At s=0 the runs come from the lumped coupon-collector engine
    (_coupon_runs_s0), which draws the rounds of every run in one call;
    otherwise from run_sync."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = config.n
    engine = _coupon_runs_s0 if config.s == 0.0 else _sync_runs
    runs = [rounds for complete, rounds in engine(config, trials, rng) if complete]
    if not runs:
        raise RuntimeError("every run hit the step cap; raise step_cap")
    late = (rounds.active[rounds.informed > 0.99 * n] for rounds in runs)
    plateaus = [np.mean(active) / n for active in late if active.size]
    inf_p10, inf_med, inf_p90 = _bands([rounds.informed for rounds in runs], n)
    act_p10, act_med, act_p90 = _bands([rounds.active for rounds in runs], n)
    return SpreadingSummary(
        config=config,
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
    fractions of n; each curve holds its last value after it ends."""
    mat = np.empty((len(curves), max(c.size for c in curves)))
    for row, c in zip(mat, curves):
        row[: c.size] = c
        row[c.size :] = c[-1]
    mat /= n
    return np.percentile(mat, [10, 50, 90], axis=0, overwrite_input=True)
