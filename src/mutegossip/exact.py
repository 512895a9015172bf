"""Exact small-instance posterior oracle.

For tiny complete graphs with one curious node c = n-1 (f = 1), it gives
the exact probability (a Fraction) that a complete run produces a given
observed sender sequence, for every rational s and for delayed start.  A run
is one absorbing Markov chain on (informed set I, active set A) whose step
rule `_moves` states once: a uniform sender from A mutes with probability
1-s, a uniform receiver joins A and I, a send to c is observed.  Delayed
start is the same chain at s=1, entered after the source's forced mute.

V(w, I, A) is the probability that a run in state (I, A) ends with exactly
the observed senders w still to come.  I only grows and w only shrinks, so
the states sharing (w, I) form a layer that a step either keeps (informed,
non-curious receiver) or leaves for a layer solved before.  In a layer
V = (Id - Q)^-1 b, with Q the step matrix over the active sets reachable at
I and b the mass leaving it (the fundamental matrix of an absorbing chain;
Kemeny & Snell, Finite Markov Chains, 3.2).  Q does not depend on w, so each
informed set's matrix is inverted once and serves every observation, and
observations that share a suffix share its values.  The oracle checks
attack optimality claims independently of the simulation engines.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from typing import Optional, Sequence

from .adversary import FirstInPrior, feed_all
from .core import GossipConfig

ZERO = Fraction(0)
ONE = Fraction(1)


def _moves(n: int, s: Fraction, active: int) -> list[tuple[Fraction, int, int, int]]:
    """One step from an active set: (probability, sender, receiver, next active set)."""
    senders = [i for i in range(n) if active >> i & 1]
    out = []
    for i in senders:
        for p, kept in ((s, active), (1 - s, active & ~(1 << i))):
            if p:
                out += [(p / (len(senders) * n), i, j, kept | 1 << j) for j in range(n)]
    return out


def _entries(n: int, delayed: bool, source: int) -> list[tuple[Fraction, int, int, int]]:
    """Where a run from `source` enters the chain, as (probability, observed sender
    or -1, informed set, active set): under delayed start, after its forced mute."""
    if not delayed:
        return [(ONE, -1, 1 << source, 1 << source)]
    return [(p, i if j == n - 1 else -1, 1 << i | 1 << j, nxt)
            for p, i, j, nxt in _moves(n, ZERO, 1 << source)]


def _fundamental(q: list[list[Fraction]]) -> list[list[Fraction]]:
    """(Id - q)^-1 by Gauss-Jordan.  Id - q is strictly diagonally dominant
    (every state leaves its layer with probability >= 1/n), so no pivoting."""
    k = len(q)
    rows = [[(r == col) - x for col, x in enumerate(row)] + [Fraction(r == col) for col in range(k)]
            for r, row in enumerate(q)]
    for col in range(k):
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(k):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[k:] for row in rows]


@cache
def _layers(n: int, s: Fraction, delayed: bool) -> dict[int, tuple]:
    """Per informed set: the index of each reachable active set, (Id - Q)^-1, and per
    active set its moves out of the layer as {(observed sender or -1, I, A): p}."""
    c, full = n - 1, (1 << n) - 1
    todo = [(i, a) for x in range(c) for _, _, i, a in _entries(n, delayed, x)]
    reach: dict[int, set[int]] = {}
    while todo:
        informed, active = todo.pop()
        if informed != full and active not in reach.setdefault(informed, set()):
            reach[informed].add(active)
            todo += [(informed | 1 << j, nxt) for _, _, j, nxt in _moves(n, s, active)]
    layers = {}
    for informed, actives in reach.items():
        index = {a: k for k, a in enumerate(sorted(actives))}
        q = [[ZERO] * len(index) for _ in index]
        leave: list[dict] = [{} for _ in index]
        for active, k in index.items():
            for p, i, j, nxt in _moves(n, s, active):
                key = (i if j == c else -1, informed | 1 << j, nxt)
                if key[:2] == (-1, informed):
                    q[k][index[nxt]] += p
                else:
                    leave[k][key] = leave[k].get(key, ZERO) + p
        layers[informed] = (index, _fundamental(q), leave)
    return layers


class _Values:
    """V(w, I, A) for one (n, s, variant), memoized per (w, I) layer."""

    def __init__(self, n: int, s: Fraction, delayed: bool):
        if not (3 <= n <= 8 and 0 <= s <= 1):
            raise ValueError(f"exact enumeration is for small n (3..8) and s in [0, 1]: {n}, {s}")
        self.full, self.entries = (1 << n) - 1, [_entries(n, delayed, x) for x in range(n - 1)]
        self.layers = _layers(n, s, delayed)
        self.memo: dict[tuple[tuple[int, ...], int], tuple[Fraction, ...]] = {}

    def after(self, w: tuple[int, ...], sender: int, informed: int, active: int) -> Fraction:
        """Value on landing in (informed, active) by a step observing `sender` (-1: none)."""
        if sender >= 0:
            if not w or w[0] != sender:
                return ZERO
            w = w[1:]
        if informed == self.full:
            return ZERO if w else ONE
        index, inv, leave = self.layers[informed]
        v = self.memo.get((w, informed))
        if v is None:
            b = [sum((p * self.after(w, *key) for key, p in out.items()), ZERO) for out in leave]
            v = tuple(sum((r * x for r, x in zip(row, b) if x), ZERO) for row in inv)
            self.memo[(w, informed)] = v
        return v[index[active]]

    def start(self, w: tuple[int, ...], source: int) -> Fraction:
        return sum((p * self.after(w, *e) for p, *e in self.entries[source]), ZERO)


def sequence_probability(config: GossipConfig, obs: Sequence[int]) -> Fraction:
    """P(a complete run of `config` observes exactly the sender sequence
    `obs`), for f = 1 (curious node n-1) and no step cap.  s is taken
    exactly: a Fraction as itself, a float as its binary value."""
    if config.f != 1 or config.step_cap is not None:
        raise ValueError("exact enumeration needs f=1 and no step cap")
    delayed = config.variant == "delayed_start"
    return _Values(config.n, Fraction(config.s), delayed).start(tuple(obs), config.source)


def exact_observation_posteriors(
    n: int, s: float | Fraction, max_len: int
) -> dict[tuple[int, ...], dict[int, Fraction]]:
    """Exact run probabilities p_i(obs) for every observed sender sequence up to
    length max_len and every non-curious candidate source i, with the curious set
    {n-1} (f=1) and the parameterized variant.  Probabilities are of the *complete*
    observation equaling obs; sequences reachable from no source are dropped."""
    values = _Values(n, Fraction(s), False)
    out: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for length in range(max_len + 1):
        for obs in product(range(n), repeat=length):
            ps = {i: values.start(obs, i) for i in range(n - 1)}
            if any(ps.values()):
                out[obs] = ps
    return out


def map_optimality_violations(
    posteriors: dict[tuple[int, ...], dict[int, Fraction]],
    priors: Optional[Sequence[frozenset[int]]] = None,
) -> list[tuple[tuple[int, ...], frozenset[int], int]]:
    """Check first-in-prior MAP optimality against exact posteriors.

    For every reachable observation and every prior (default: all nonempty
    subsets of candidate sources), whenever some prior member appears in
    the observation, the first such member must maximize p_i(obs) over the
    prior.  Returns the violations (observation, prior, better_node).
    """
    if not posteriors:
        raise ValueError("posteriors is empty")
    sources = sorted(next(iter(posteriors.values())).keys())
    if priors is None:
        priors = [frozenset(x for k, x in enumerate(sources) if bits >> k & 1)
                  for bits in range(1, 1 << len(sources))]
    bad = []
    for obs, ps in posteriors.items():
        for prior in priors:
            pick = feed_all(FirstInPrior(prior), obs).found
            if pick is not None:
                bad += [(obs, prior, i) for i in prior if ps[i] > ps[pick]]
    return bad
