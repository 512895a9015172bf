import hashlib
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from scipy import stats

from mutegossip.adversary import FirstInPrior, feed_all, observe
from mutegossip.core import GossipConfig, spawn_stream
from mutegossip.exact import (
    exact_observation_posteriors,
    map_optimality_violations,
    sequence_probability,
)
from mutegossip.protocols import run_trace


def test_empty_observation_is_impossible():
    # The curious node must be informed for a run to complete, and informing
    # it is an observed event.
    for n in (4, 5):
        for s in (0.0, 1.0):
            assert sequence_probability(GossipConfig(n=n, f=1, s=s), ()) == 0


def test_sequence_probability_rejects_unsupported_configs():
    # the chain observes one curious node and runs to completion
    for cfg in (GossipConfig(n=5, f=2, s=0.5), GossipConfig(n=4, f=1, s=0.5, step_cap=10),
                GossipConfig(n=9, f=1, s=0.5)):
        with pytest.raises(ValueError):
            sequence_probability(cfg, (0,))


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


# one fixed stream per case (s=0 and s=1 on streams 0 and 1)
MC_STREAMS = {0: 0, 0.5: 2, 1: 1, "delayed": 3}


@pytest.mark.parametrize("s", [0, 0.5, 1, "delayed"])
def test_exact_matches_monte_carlo(s):
    n = 4
    if s == "delayed":
        cfg = GossipConfig(n=n, f=1, s=1.0, source=0, variant="delayed_start")
    else:
        cfg = GossipConfig(n=n, f=1, s=float(s), source=0)
    rng = spawn_stream(99, MC_STREAMS[s])
    trials = 120_000
    counts = Counter()
    for _ in range(trials):
        counts[tuple(observe(run_trace(cfg, rng)).senders.tolist())] += 1
    checked = 0
    for obs, cnt in counts.most_common(6):
        p = float(sequence_probability(cfg, obs))
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(cnt / trials - p) < 5 * se + 1e-9
        checked += 1
    assert checked >= 3
    # A chi-square over every sequence of length <= 4 expected at least 5
    # times, the rest pooled in one cell.  It sees the loop's stay
    # probability off by a fifth at s = 0.5, which the six most common
    # sequences alone do not.
    law = {obs: float(sequence_probability(cfg, obs))
           for h in range(1, 5) for obs in product(range(n), repeat=h)}
    cells = [obs for obs, p in law.items() if p * trials >= 5]
    expected = [law[obs] * trials for obs in cells]
    observed = [counts[obs] for obs in cells]
    expected.append(trials - sum(expected))
    observed.append(trials - sum(observed))
    assert stats.chisquare(observed, expected).pvalue > 1e-4
    # a structurally impossible sequence has exact probability zero
    assert sequence_probability(cfg, (2, 1)) == 0 or counts[(2, 1)] > 0


def test_first_in_prior_helper():
    assert feed_all(FirstInPrior({3, 8}), (5, 3, 8)).found == 3
    assert feed_all(FirstInPrior({3}), (5,)).found is None


def _posteriors(configs, max_len):
    """Like exact_observation_posteriors, for any variant: {obs: {source: p}}
    built from sequence_probability, one config per candidate source."""
    out = {}
    for length in range(max_len + 1):
        for obs in product(range(configs[0].n), repeat=length):
            ps = {cfg.source: sequence_probability(cfg, obs) for cfg in configs}
            if any(ps.values()):
                out[obs] = ps
    return out


def test_map_optimality_no_violations_small_instances():
    for n, s, max_len in [(4, 0, 4), (4, 1, 3), (4, 0.5, 3), (5, 0.5, 3)]:
        post = exact_observation_posteriors(n, s, max_len)
        assert len(post) > 20
        assert map_optimality_violations(post) == []
    delayed = [GossipConfig(n=4, f=1, s=1.0, source=i, variant="delayed_start") for i in range(3)]
    post = _posteriors(delayed, 3)
    assert len(post) > 20
    assert map_optimality_violations(post) == []


def _observation_length_law(n, max_len):
    """P(exactly h observed entries), h = 0..max_len, from a DP over (informed
    non-curious count k, curious node informed, hits left).  Receivers are
    uniform and independent of the senders, and a run ends when the receivers
    and the source cover all n nodes, so the law depends on neither s nor the
    variant."""
    memo = {}

    def law(k, c_in, h):
        if k == n - 1 and c_in:
            return Fraction(h == 0)
        if (k, c_in, h) not in memo:
            hit = law(k, True, h - 1) if h > 0 else 0
            new = law(k + 1, c_in, h) if k < n - 1 else 0
            memo[(k, c_in, h)] = (hit + (n - 1 - k) * new) / (n - k)
        return memo[(k, c_in, h)]

    return [law(1, False, h) for h in range(max_len + 1)]


@pytest.mark.parametrize("source", [0, 1])
def test_observation_length_law_is_exact_for_every_s(source):
    # The number of observed entries is the number of sends to the curious
    # node while the receivers collect all n coupons.
    n, max_len = 4, 3
    law = _observation_length_law(n, max_len)
    assert law == [0, Fraction(11, 18), Fraction(19, 108), Fraction(65, 648)]
    configs = [GossipConfig(n=n, f=1, s=s, source=source)
               for s in (0.0, Fraction(1, 3), Fraction(1, 2), 1.0)]
    configs.append(GossipConfig(n=n, f=1, s=1.0, source=source, variant="delayed_start"))
    for cfg in configs:
        by_length = [Fraction(0)] * (max_len + 1)
        for obs, ps in _posteriors([cfg], max_len).items():
            by_length[len(obs)] += ps[source]
        assert by_length == law, cfg


# sha256 of the sorted exact posteriors, recorded with the earlier separate
# s=0 (walk) and s=1 (push) value tables; they pin the chain's Fractions.
GOLDEN_POSTERIORS = {
    (4, 0, 4): "6246db5fb4f6784d11a27ca898dda8ed3b0482cd174b3a6075568f6031c13e76",
    (4, 1, 3): "1cd9be7338312620f69066290ed5262f1faa21542bee6f53d1a249dc75bd4817",
    (5, 0, 3): "72d6f32c7564c36c27125da6cb992f158394b5b9aa4d1636301b8f419937635e",
    (5, 1, 3): "54938cd8b27e78acb3c979038624449a50dc86e8b8642365c4c494f4461cf417",
}


@pytest.mark.parametrize("n,s,max_len", sorted(GOLDEN_POSTERIORS))
def test_exact_posteriors_golden_digest(n, s, max_len):
    post = exact_observation_posteriors(n, s, max_len)
    text = repr(sorted((obs, sorted(ps.items())) for obs, ps in post.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_POSTERIORS[(n, s, max_len)]


def test_map_optimality_checker_catches_planted_violation():
    # Corrupt a posterior so the first-in-prior node is dominated.
    post = exact_observation_posteriors(4, 0, 3)
    obs = next(o for o in post if len(o) == 1 and o[0] == 0)
    post[obs][1] = post[obs][0] + 1
    bad = map_optimality_violations(post)
    assert any(o == obs for o, _, _ in bad)
