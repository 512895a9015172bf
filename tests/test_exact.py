from collections import Counter
from fractions import Fraction

import pytest

from mutegossip.adversary import FirstInPrior, feed_all, observe
from mutegossip.core import GossipConfig, spawn_stream
from mutegossip.exact import (
    exact_observation_posteriors,
    map_optimality_violations,
    push_sequence_probability,
    walk_sequence_probability,
)
from mutegossip.protocols import run_trace


def test_empty_observation_is_impossible():
    # The curious node must be informed for a run to complete, and informing
    # it is an observed event.
    for n in (4, 5):
        assert walk_sequence_probability(n, 0, ()) == 0
        assert push_sequence_probability(n, 0, ()) == 0


def test_walk_total_mass_approaches_one():
    post = exact_observation_posteriors(4, 0, 5)
    totals = Counter()
    for ps in post.values():
        for i, p in ps.items():
            totals[i] += p
    for i, total in totals.items():
        assert Fraction(9, 10) < total < 1
    # symmetry between non-curious sources
    assert totals[1] == totals[2]


def test_walk_first_sender_marginals_match_closed_forms():
    # Sum the enumerated mass by first observed sender and compare with the
    # exact first-sender law: (f+1)/n for the source, 1/n for any other
    # non-curious node, 0 for the curious node (f=1).
    n = 4
    post = exact_observation_posteriors(n, 0, 6)
    first = Counter()
    residual = 1 - sum(ps[0] for ps in post.values())
    for obs, ps in post.items():
        first[obs[0]] += ps[0]
    assert first[3] == 0  # at s=0 a first observed sender is never curious
    for node, target in [(0, Fraction(2, 4)), (1, Fraction(1, 4)), (2, Fraction(1, 4))]:
        assert abs(first[node] - target) <= residual


@pytest.mark.parametrize("s", [0, 1])
def test_exact_matches_monte_carlo(s):
    n = 4
    cfg = GossipConfig(n=n, f=1, s=float(s), source=0)
    rng = spawn_stream(99, s)
    trials = 120_000
    counts = Counter()
    for _ in range(trials):
        counts[tuple(observe(run_trace(cfg, rng)).senders.tolist())] += 1
    prob = walk_sequence_probability if s == 0 else push_sequence_probability
    checked = 0
    for obs, cnt in counts.most_common(6):
        p = float(prob(n, 0, obs))
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(cnt / trials - p) < 5 * se + 1e-9
        checked += 1
    assert checked >= 3
    # a structurally impossible sequence has exact probability zero
    assert prob(n, 0, (2, 1)) == 0 or counts[(2, 1)] > 0


def test_first_in_prior_helper():
    assert feed_all(FirstInPrior({3, 8}), (5, 3, 8)).found == 3
    assert feed_all(FirstInPrior({3}), (5,)).found is None


def test_map_optimality_no_violations_small_instances():
    for n, s, max_len in [(4, 0, 4), (4, 1, 3)]:
        post = exact_observation_posteriors(n, s, max_len)
        assert len(post) > 20
        assert map_optimality_violations(post) == []


def test_map_optimality_checker_catches_planted_violation():
    # Corrupt a posterior so the first-in-prior node is dominated.
    post = exact_observation_posteriors(4, 0, 3)
    obs = next(o for o in post if len(o) == 1 and o[0] == 0)
    post[obs][1] = post[obs][0] + 1
    bad = map_optimality_violations(post)
    assert any(o == obs for o, _, _ in bad)
