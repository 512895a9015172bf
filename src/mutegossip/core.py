"""Domain types shared by every module: experiment configuration, execution
traces, adversary views, and the deterministic randomness contract.

Conventions baked in here:

* Nodes are labeled 0..n-1.  The f curious nodes are always the top-f ids
  {n-f, ..., n-1}; on the complete graph only the number of curious nodes
  matters, so a fixed convention keeps traces comparable across seeds.
* Message targets are drawn uniformly over all n nodes, self included.
  Self-sends are recorded as ordinary events.
* All randomness flows through counter-based Philox streams keyed by
  (master_seed, stream_index), so any trial can be reproduced in isolation
  and trials never share draw order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

VARIANTS = ("parameterized", "delayed_start")

_MASK64 = (1 << 64) - 1
_CHECK_STEPS = 1 << 16  # steps per block of ExecutionTrace.validate


def spawn_stream(master_seed: int, stream_index: int) -> np.random.Generator:
    """Return an independent, reproducible random stream.

    Same (master_seed, stream_index) always yields the identical draw
    sequence, including across process restarts; distinct stream indices
    yield statistically independent streams (Philox keyed counter mode).
    """
    key = np.array([master_seed & _MASK64, stream_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def split_stream(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive `count` independent child streams from `rng`.

    Children are Philox streams keyed by draws from the parent, so the
    split is deterministic given the parent's state.
    """
    keys = rng.integers(0, 1 << 63, size=(count, 2), dtype=np.int64).astype(np.uint64)
    return [np.random.Generator(np.random.Philox(key=keys[i])) for i in range(count)]


def check_count(name: str, value, lo: Optional[int] = None) -> None:
    """Refuse `value` unless it is an integer by operator.index's rule (numpy
    integers pass; a bool, 2.5 or NaN does not) and, given `lo`, at least lo."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value!r}")


def default_step_cap(n: int) -> int:
    """Safety bound on tell_gossip calls: 50 * n * ln(n).

    Dissemination terminates almost surely, but a simulator needs a hard
    stop; runs that hit the cap are flagged, never silently truncated.
    """
    return int(math.ceil(50.0 * n * math.log(n)))


@dataclass(frozen=True)
class GossipConfig:
    """Full parameterization of one gossip experiment.

    n         : node count (>= 2)
    f         : number of curious nodes (0 <= f <= n-2); curious ids are
                {n-f, ..., n-1}
    s         : muting parameter in [0, 1]; after each send a node stays
                active with probability s
    source    : initially informed node; must not be curious
    variant   : "parameterized" (generic muting protocol) or
                "delayed_start" (source sends once, then permanently mutes
                until re-informed; spreading continues as standard push)
    step_cap  : optional max number of tell_gossip calls
    """

    n: int
    f: int
    s: float
    source: int = 0
    variant: str = "parameterized"
    step_cap: Optional[int] = None

    def __post_init__(self):
        for name in ("n", "f", "source", "step_cap")[: 3 if self.step_cap is None else 4]:
            check_count(name, getattr(self, name))
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0 <= self.f <= self.n - 2:
            raise ValueError(f"f must be in [0, n-2], got f={self.f}, n={self.n}")
        if isinstance(self.s, bool) or not isinstance(self.s, numbers.Real):
            raise ValueError(f"s must be a real number, got {self.s!r}")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must be in [0, 1], got {self.s}")
        if not 0 <= self.source < self.n:
            raise ValueError(f"source must be in [0, n), got {self.source}")
        if self.source >= self.n - self.f:
            raise ValueError(
                f"source {self.source} is curious (curious ids are "
                f"{self.n - self.f}..{self.n - 1})"
            )
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "delayed_start" and self.s != 1.0:
            raise ValueError("delayed_start runs standard push after the first send; set s=1")
        if self.step_cap is not None and not self.step_cap >= 1:
            raise ValueError("step_cap must be positive")

    @property
    def curious_lo(self) -> int:
        """Smallest curious node id; node j is curious iff j >= curious_lo."""
        return self.n - self.f

    @property
    def max_steps(self) -> int:
        return self.step_cap if self.step_cap is not None else default_step_cap(self.n)


@dataclass(frozen=True)
class ExecutionTrace:
    """The omniscient ordered event list of one run.

    Event t, (senders[t], receivers[t]), is the t-th tell_gossip call.
    `complete` is False only when the run hit the step cap before every
    node was informed.
    """

    config: GossipConfig
    senders: np.ndarray
    receivers: np.ndarray
    complete: bool = True

    def __post_init__(self):
        object.__setattr__(self, "senders", np.asarray(self.senders, dtype=np.int64))
        object.__setattr__(self, "receivers", np.asarray(self.receivers, dtype=np.int64))
        if self.senders.shape != self.receivers.shape:
            raise ValueError("senders and receivers must have equal length")

    def __len__(self) -> int:
        return int(self.senders.size)

    def validate(self) -> None:
        """Assert trace well-formedness from each node's first-informed step.

        O(len + n) check, in blocks of _CHECK_STEPS steps: every id lies in
        [0, n), the source sends first, every sender was informed strictly
        before its sending event (the source from the start, any other node
        as the receiver of an earlier event), and a complete run informs all
        n nodes.  Each failure names the first step at fault.
        """
        cfg = self.config
        steps = len(self)
        if steps == 0:
            raise AssertionError("a run makes at least one tell_gossip call")
        if int(self.senders[0]) != cfg.source:
            raise AssertionError("first event must be sent by the source")
        informed_at = np.full(cfg.n, steps)  # first step as a receiver; `steps` if never
        informed_at[cfg.source] = -1
        for lo in range(0, steps, _CHECK_STEPS):
            snd = self.senders[lo:lo + _CHECK_STEPS]
            rcv = self.receivers[lo:lo + _CHECK_STEPS]
            bad = np.flatnonzero((snd < 0) | (snd >= cfg.n) | (rcv < 0) | (rcv >= cfg.n))
            if bad.size:
                t = lo + int(bad[0])
                raise AssertionError(f"step {t} has a node id outside [0, {cfg.n}): "
                                     f"{int(self.senders[t])} -> {int(self.receivers[t])}")
            at = np.arange(lo, lo + snd.size)
            # Later blocks' receivers are not yet applied: their steps exceed
            # every step checked here, so they would change no verdict.
            np.minimum.at(informed_at, rcv, at)
            late = np.flatnonzero(informed_at[snd] >= at)
            if late.size:
                t = lo + int(late[0])
                raise AssertionError(f"sender {int(self.senders[t])} was not informed at send time "
                                     f"(step {t})")
        if self.complete and np.any(informed_at == steps):
            raise AssertionError("complete trace does not inform all nodes")


@dataclass(frozen=True)
class ObservedSequence:
    """The adversary's view: the order-preserving subsequence of events whose
    receiver is curious.  The weak adversary's view discards global event
    indices (`times` is None); the strong adversary's keeps each entry's
    global index in the full event sequence as `times`."""

    senders: np.ndarray
    receivers: np.ndarray
    times: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "senders", np.asarray(self.senders, dtype=np.int64))
        object.__setattr__(self, "receivers", np.asarray(self.receivers, dtype=np.int64))
        if self.times is not None:
            object.__setattr__(self, "times", np.asarray(self.times, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.senders.size)


@dataclass(frozen=True)
class RoundTrace:
    """Per-round counts from the synchronous engine.

    For round t, informed[t] and active[t] are the counts after the round's
    receivers were absorbed.  Each node active at round start sends one
    message, so round 0 sends 1 (the source) and round t + 1 sends active[t].
    """

    informed: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "informed", np.asarray(self.informed, dtype=np.int64))
        object.__setattr__(self, "active", np.asarray(self.active, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.informed.size)

    @property
    def messages(self) -> np.ndarray:
        """Messages sent in each round: 1, then the previous round's active count."""
        return np.concatenate((np.ones(1, np.int64), self.active[:-1]))

    def validate(self) -> None:
        if len(self) == 0:
            raise AssertionError("round trace is empty")
        if np.any(np.diff(self.informed) < 0):
            raise AssertionError("informed count decreased")
        if np.any(self.active < 1):
            raise AssertionError("active set became empty")
        if np.any(self.active > self.informed):
            raise AssertionError("more nodes active than informed")
