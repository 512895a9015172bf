"""Adversary view extraction and source-location attacks.

The adversary monitors the curious nodes: its entire view of a run is the
relative-order subsequence of events whose receiver is curious.  Each
attack rule is an online decider whose `feed(sender)` returns True once the
rule is decided: offline attacks feed it a whole view, estimators feed it a
running engine and stop there.  Its `tells_apart` is how many of the first
senders fed to it the rule must know by id: a later sender that is none of
those may be fed to it as -1, as the estimators' engine does.  Attacks take
an explicit random stream for tie-breaking, so they are safe to run
concurrently on disjoint streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .core import ExecutionTrace, ObservedSequence


def observe(trace: ExecutionTrace) -> ObservedSequence:
    """Extract the adversary's view: events whose receiver is curious, in
    trace order, with global indices discarded."""
    mask = trace.receivers >= trace.config.curious_lo
    return ObservedSequence(trace.senders[mask], trace.receivers[mask])


def observe_timed(trace: ExecutionTrace) -> ObservedSequence:
    """Strong-adversary view: same subsequence, each entry carrying its
    global event index in `times`."""
    mask = trace.receivers >= trace.config.curious_lo
    return ObservedSequence(trace.senders[mask], trace.receivers[mask], np.flatnonzero(mask))


class FirstInPrior:
    """MAP rule: the first observed sender in `prior` (a set; sorted only to
    fall back)."""

    tells_apart = math.inf

    def __init__(self, prior: Collection[int]):
        self.prior = prior
        self.found: Optional[int] = None

    def feed(self, sender: int) -> bool:
        if sender in self.prior:
            self.found = sender
            return True
        return False

    def predict(self, rng: np.random.Generator) -> int:
        """The decided sender; otherwise the posterior is symmetric over the
        prior, so draw a member uniformly."""
        if self.found is not None:
            return self.found
        members = sorted(self.prior)
        return members[int(rng.integers(0, len(members)))]


class FirstKDistinct:
    """Multi-rumor rule: the first k distinct observed senders, in order of
    first appearance (fewer if the view runs out)."""

    tells_apart = math.inf

    def __init__(self, k: int):
        if not k >= 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.leads: list[int] = []
        self._seen: set[int] = set()

    def feed(self, sender: int) -> bool:
        if sender in self._seen:
            return False
        self._seen.add(sender)
        self.leads.append(sender)
        return len(self.leads) >= self.k


class ObservedPrefix:
    """The first `length` observed senders (fewer if the view runs out), on
    which the untimed events are decided."""

    tells_apart = math.inf

    def __init__(self, length: int):
        self.length = length
        self.senders: list[int] = []

    def feed(self, sender: int) -> bool:
        self.senders.append(sender)
        return len(self.senders) >= self.length


class FirstGoesQuiet:
    """Silence rule: the first observed sender x, unless x reappears among
    the next r entries.  Decided at that repeat (abstain) or after r further
    entries (predict x); a shorter view predicts x, an empty one abstains.
    Of a later sender, the rule needs to know only whether it is x."""

    tells_apart = 1

    def __init__(self, r: int):
        if not r >= 1:
            raise ValueError("r must be >= 1")
        self.left = r
        self.first: Optional[int] = None
        self.repeated = False

    def feed(self, sender: int) -> bool:
        if self.first is None:
            self.first = sender
            return False
        self.left -= 1
        self.repeated = sender == self.first
        return self.repeated or not self.left

    def predict(self) -> Optional[int]:
        return None if self.repeated else self.first


def feed_all(decider, senders: Sequence[int]):
    """Feed `senders` in order until the decider is decided; return it.

    The senders are unboxed to Python ints in growing blocks, as the engine
    draws them: most rules decide within the first few hundred entries of a
    view that can be far longer.
    """
    senders = np.asarray(senders, dtype=np.int64)
    start, block = 0, 256
    while start < senders.size:
        for snd in senders[start : start + block].tolist():
            if decider.feed(snd):
                return decider
        start += block
        block *= 4
    return decider


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one attack on one run."""

    predicted: Optional[int]  # None = abstained
    correct: Optional[bool] = None  # vs the true source, when known

    @property
    def abstained(self) -> bool:
        return self.predicted is None


def _outcome(predicted: Optional[int], true_source: Optional[int]) -> AttackOutcome:
    correct = None if (true_source is None or predicted is None) else predicted == true_source
    return AttackOutcome(predicted=predicted, correct=correct)


def map_attack(
    observed: ObservedSequence,
    prior: Iterable[int],
    rng: np.random.Generator,
    true_source: Optional[int] = None,
) -> AttackOutcome:
    """Predict the first observed sender that belongs to the prior set.

    Under a uniform prior over a suspect set P disjoint from the curious
    nodes, the first member of P to contact a curious node is the maximum
    a posteriori estimate of the source.  If no member of P ever appears,
    the posterior is symmetric over P and the attack falls back to a
    uniform prediction.
    """
    prior = set(prior)
    if not prior:
        raise ValueError("prior must be nonempty")
    rule = feed_all(FirstInPrior(prior), observed.senders)
    return _outcome(rule.predict(rng), true_source)


def multi_rumor_attack(
    observations: Sequence[ObservedSequence],
    k: int,
    rng: np.random.Generator,
    true_source: Optional[int] = None,
) -> AttackOutcome:
    """Cross-instance attack on several rumors spread by the same source.

    Per instance, record the first k distinct senders; predict the node
    appearing in the most instances.  Ties go to the node with the smallest
    earliest rank (position within an instance's distinct-sender list,
    minimized across instances); remaining ties are broken uniformly.
    """
    lead_lists = [feed_all(FirstKDistinct(k), obs.senders).leads for obs in observations]
    return _outcome(_score_multi_rumor(lead_lists, rng), true_source)


def _score_multi_rumor(lead_lists: Sequence[Sequence[int]], rng: np.random.Generator) -> Optional[int]:
    counts: dict[int, int] = {}
    best_rank: dict[int, int] = {}
    for leads in lead_lists:
        for rank, node in enumerate(leads):
            counts[node] = counts.get(node, 0) + 1
            if rank < best_rank.get(node, 1 << 30):
                best_rank[node] = rank
    if not counts:
        return None
    top = max(counts.values())
    tied = [node for node, c in counts.items() if c == top]
    low = min(best_rank[node] for node in tied)
    tied = sorted(node for node in tied if best_rank[node] == low)
    return tied[int(rng.integers(0, len(tied)))]


def silence_window(n: int) -> int:
    """Default monitoring window for the silence attack: ceil(ln(n)^2)."""
    return int(math.ceil(math.log(n) ** 2))


def silence_attack(
    observed: ObservedSequence,
    r: int,
    true_source: Optional[int] = None,
) -> AttackOutcome:
    """Flag the first observed sender if it then goes quiet.

    Let x be the sender of entry 0.  If x does not reappear as a sender in
    entries 1..r, predict x; otherwise abstain.  An empty view abstains.
    A source that mutes after its only send (delayed-start gossip) is
    caught by exactly this pattern.
    """
    return _outcome(feed_all(FirstGoesQuiet(r), observed.senders).predict(), true_source)
