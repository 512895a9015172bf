"""Exact small-instance posterior oracle.

For tiny complete graphs with a single curious node, the probability that a
complete run produces a given observed sender sequence can be computed
exactly (as Fractions) by dynamic programming over absorbing layers, for
the two extreme muting regimes:

* s=0: exactly one node is active, so a run is a walk; the layer state is
  (matched prefix length, walker position, informed set).
* s=1: the active set always equals the informed set and the sender draw
  is memoryless, so the layer state is just (matched prefix length,
  informed set).

Layers only grow in (|informed|, matched length), so each layer reduces to
a one-unknown linear equation -- no matrix solves, no truncation error.
The oracle exists to check attack optimality claims against enumerated
posteriors, independently of the simulation engines.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .adversary import FirstInPrior, feed_all

ZERO = Fraction(0)
ONE = Fraction(1)


def _check_instance(n: int, s: float) -> None:
    if not 3 <= n <= 8:
        raise ValueError("exact enumeration is for small n (3..8)")
    if s not in (0, 1, 0.0, 1.0):
        raise ValueError("exact enumeration supports s in {0, 1}")


def _walk_value_table(n: int, obs: Sequence[int]) -> dict[tuple[int, int], dict[int, Fraction]]:
    """V[(k, mask)][u]: probability that an s=0 run finishes with exactly the
    remaining observation matched, from walker u, informed set mask, k
    entries already matched.  One sweep serves every candidate source."""
    c = n - 1
    m = len(obs)
    full = (1 << n) - 1
    step = Fraction(1, n)
    V: dict[tuple[int, int], dict[int, Fraction]] = {}

    masks = sorted(range(1, full + 1), key=lambda msk: bin(msk).count("1"), reverse=True)
    for mask in masks:
        if mask == full:
            continue
        nodes = [u for u in range(n) if mask >> u & 1]
        inner = [u for u in nodes if u != c]
        for k in range(m, -1, -1):
            spread = ZERO
            for v in range(n):
                if v == c or mask >> v & 1:
                    continue
                nxt = mask | (1 << v)
                spread += (ONE if k == m else ZERO) if nxt == full else V[(k, nxt)][v]

            # V(u) = W/n + b(u) with W = sum of V over informed non-curious
            # nodes; b(u) carries the cross-layer mass (newly informed nodes
            # plus, for the walker matching the next expected sender, an
            # emission).  Any emission that breaks the match is dead mass.
            b = {u: step * spread for u in nodes}
            if k < m and obs[k] in b:
                nxt = mask | (1 << c)
                emit_value = (ONE if k + 1 == m else ZERO) if nxt == full else V[(k + 1, nxt)][c]
                b[obs[k]] += step * emit_value
            w_sum = sum((b[u] for u in inner), ZERO)
            W = w_sum * n / (n - len(inner))
            V[(k, mask)] = {u: W * step + b[u] for u in nodes}
    return V


def walk_sequence_probability(n: int, source: int, obs: Sequence[int]) -> Fraction:
    """P(complete s=0 run from `source` produces exactly the observed sender
    sequence `obs`), with the single curious node c = n-1."""
    if not 0 <= source < n - 1:
        raise ValueError("source must be non-curious")
    return _walk_value_table(n, obs)[(0, 1 << source)][source]


def _push_value_table(n: int, obs: Sequence[int]) -> dict[tuple[int, int], Fraction]:
    """V[(k, mask)] for the s=1 engine: the sender draw is memoryless (the
    active set equals the informed set), so no walker coordinate."""
    c = n - 1
    m = len(obs)
    full = (1 << n) - 1
    step = Fraction(1, n)

    V: dict[tuple[int, int], Fraction] = {}
    masks = sorted(range(1, full + 1), key=lambda msk: bin(msk).count("1"), reverse=True)
    for mask in masks:
        if mask == full:
            continue
        size = bin(mask).count("1")
        stay = Fraction(size - (1 if mask >> c & 1 else 0), n)  # informed non-c receiver
        for k in range(m, -1, -1):
            b = ZERO
            for v in range(n):
                if v == c or mask >> v & 1:
                    continue
                nxt = mask | (1 << v)
                b += step * ((ONE if k == m else ZERO) if nxt == full else V[(k, nxt)])
            if k < m and mask >> obs[k] & 1:
                nxt = mask | (1 << c)
                emit_value = (ONE if k + 1 == m else ZERO) if nxt == full else V[(k + 1, nxt)]
                b += step * Fraction(1, size) * emit_value
            V[(k, mask)] = b / (ONE - stay)
    return V


def push_sequence_probability(n: int, source: int, obs: Sequence[int]) -> Fraction:
    """P(complete s=1 run from `source` produces exactly the observed sender
    sequence `obs`), with the single curious node c = n-1."""
    if not 0 <= source < n - 1:
        raise ValueError("source must be non-curious")
    return _push_value_table(n, obs)[(0, 1 << source)]


def exact_observation_posteriors(
    n: int, s: float, max_len: int
) -> dict[tuple[int, ...], dict[int, Fraction]]:
    """Exact run probabilities p_i(obs) for every reachable observed sender
    sequence up to length max_len and every non-curious candidate source i.

    The curious set is {n-1} (f=1).  Probabilities are of the *complete*
    observation equaling obs; sequences reachable from no source are
    dropped.
    """
    _check_instance(n, s)
    walk = s in (0, 0.0)
    sources = range(n - 1)
    out: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for length in range(max_len + 1):
        for obs in product(range(n), repeat=length):
            if walk:
                table = _walk_value_table(n, obs)
                ps = {i: table[(0, 1 << i)][i] for i in sources}
            else:
                table = _push_value_table(n, obs)
                ps = {i: table[(0, 1 << i)] for i in sources}
            if any(p > 0 for p in ps.values()):
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
        priors = _nonempty_subsets(sources)
    bad = []
    for obs, ps in posteriors.items():
        for prior in priors:
            pick = feed_all(FirstInPrior(prior), obs).found
            if pick is None:
                continue
            p_pick = ps[pick]
            for i in prior:
                if ps[i] > p_pick:
                    bad.append((obs, prior, i))
    return bad


def _nonempty_subsets(items: Sequence[int]) -> list[frozenset[int]]:
    out = []
    for bits in range(1, 1 << len(items)):
        out.append(frozenset(items[i] for i in range(len(items)) if bits >> i & 1))
    return out
