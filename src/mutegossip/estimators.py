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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .adversary import (
    FirstGoesQuiet,
    FirstInPrior,
    FirstKDistinct,
    ObservedPrefix,
    score_multi_rumor,
    silence_window,
)
from .core import GossipConfig, RoundTrace, check_count, split_stream
from .protocols import fed_lanes, first_observed_senders_s0, map_prior, round_counts
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

    def __post_init__(self):
        if self.kind not in ("sender_rank_le", "timed_first_disclosure"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not self.timed:
            check_count("node", self.node)
            check_count("r", self.r, 0)
        elif self.node is not None or self.r is not None:
            raise ValueError(f"{self.kind} takes no node or r")

    @classmethod
    def first_sender_is(cls, node: int) -> "EventSpec":
        return cls.sender_rank_le(node, 0)

    @classmethod
    def sender_rank_le(cls, node: int, r: int) -> "EventSpec":
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
        first, capped = first_observed_senders_s0(config, trials, rng)
        counts = np.bincount(first[first >= 0], minlength=config.n)
        return [
            EstimateResult.from_counts(int(counts[e.node]), trials, incomplete=capped)
            for e in events
        ]

    results = [0] * len(events)
    incomplete = 0
    prefixes = (ObservedPrefix(horizon) for _ in range(trials))
    for _, prefix, capped in fed_lanes(config, prefixes, rng):
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
# trials on protocols.fed_lanes: runs() yields (prediction or None to abstain,
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
        pools, prior = map_prior(config, size)
        rules = (FirstInPrior(prior) for _ in range(trials))
        for _, rule, capped in fed_lanes(config, rules, rng, pools):
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
        for index, rule, capped in fed_lanes(config, rules, rng):
            trial = waiting.setdefault(index // self.rumors, [self.rumors, 0, [None] * self.rumors])
            trial[0] -= 1
            trial[1] += capped
            trial[2][index % self.rumors] = rule.leads
            if not trial[0]:
                del waiting[index // self.rumors]
                yield score_multi_rumor(trial[2], rng), trial[1]


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
        for _, rule, capped in fed_lanes(config, rules, rng):
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


def estimate_spreading(config: GossipConfig, trials: int, rng: np.random.Generator) -> SpreadingSummary:
    """Run the synchronous engine `trials` times and aggregate trajectories,
    completion rounds, message totals, and the late-round active plateau.
    Step-capped runs are excluded from the aggregates and counted.  The runs
    come from protocols.round_counts, which has run_sync's law."""
    check_count("trials", trials, 1)
    n = config.n
    runs = [rounds for complete, rounds in round_counts(config, trials, rng) if complete]
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
