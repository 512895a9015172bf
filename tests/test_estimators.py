import functools
import hashlib
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from scipy import stats

from mutegossip import estimators
from mutegossip.adversary import (
    FirstGoesQuiet,
    FirstInPrior,
    ObservedPrefix,
    feed_all,
    map_attack,
    multi_rumor_attack,
    observe,
    silence_attack,
    silence_window,
)
from mutegossip.bounds import optimal_delta, param_c, source_disclosure_prob
from mutegossip.core import GossipConfig, spawn_stream
from mutegossip.estimators import (
    EstimateResult,
    EventSpec,
    MapAttackSpec,
    MultiRumorAttackSpec,
    SilenceAttackSpec,
    _coupon_runs_s0,
    _first_observed_senders_s0,
    _lumped_views,
    _pools,
    estimate_attack_precision,
    estimate_dp_gap,
    estimate_event,
    estimate_events,
    estimate_source_disclosure,
    estimate_spreading,
)
from mutegossip.exact import sequence_probability
from mutegossip.protocols import run_sync, run_trace


def test_estimate_result_fields():
    r = EstimateResult.from_counts(250, 1000)
    assert r.estimate == 0.25
    assert abs(r.ci_half_width - 2.576 * math.sqrt(0.25 * 0.75 / 1000)) < 1e-15
    assert r.raw_successes == 250
    assert not r.low_count
    assert EstimateResult.from_counts(5, 1000).low_count


def test_ci_coverage_on_synthetic_bernoulli():
    # The 99% CI must cover the true p in at least 97% of repeated
    # estimations (normal approximation honesty check).
    rng = spawn_stream(101, 0)
    for p in (0.1, 0.5):
        trials = 2000
        successes = rng.binomial(trials, p, size=1000)
        covered = 0
        for s in successes:
            r = EstimateResult.from_counts(int(s), trials)
            covered += abs(r.estimate - p) <= r.ci_half_width
        assert covered >= 970, f"coverage {covered}/1000 at p={p}"


def test_event_spec_horizons_and_eval():
    e1 = EventSpec.first_sender_is(3)
    e2 = EventSpec.sender_rank_le(3, 2)
    assert e1.horizon == 1 and e2.horizon == 3
    assert e1.evaluate_senders([3, 1]) and not e1.evaluate_senders([1, 3])
    assert e2.evaluate_senders([1, 2, 3]) and not e2.evaluate_senders([1, 2, 4, 3])
    assert not e1.evaluate_senders([])


def test_estimate_event_reproducible_both_paths():
    cfg0 = GossipConfig(n=200, f=20, s=0.0)
    a = estimate_event(cfg0, EventSpec.first_sender_is(0), 5000, spawn_stream(7, 1))
    b = estimate_event(cfg0, EventSpec.first_sender_is(0), 5000, spawn_stream(7, 1))
    assert a == b  # vectorized walk path
    cfg1 = GossipConfig(n=200, f=20, s=1.0)
    a = estimate_event(cfg1, EventSpec.sender_rank_le(0, 3), 500, spawn_stream(7, 2))
    b = estimate_event(cfg1, EventSpec.sender_rank_le(0, 3), 500, spawn_stream(7, 2))
    assert a == b  # lumped engine path


def test_vectorized_and_loop_paths_agree():
    # Same event estimated through the s=0 fast path and through the
    # lumped engine (forced by a longer-horizon companion event).
    cfg = GossipConfig(n=100, f=10, s=0.0)
    fast = estimate_event(cfg, EventSpec.first_sender_is(0), 20000, spawn_stream(8, 1))
    slow = estimate_events(
        cfg, [EventSpec.first_sender_is(0), EventSpec.sender_rank_le(0, 4)], 20000, spawn_stream(8, 2)
    )[0]
    diff = abs(fast.estimate - slow.estimate)
    assert diff < 4 * math.sqrt(fast.ci_half_width**2 + slow.ci_half_width**2)


def test_first_sender_distribution_sums_to_one():
    # Every complete s=0 run has exactly one first observed sender.
    n = 40
    cfg = GossipConfig(n=n, f=4, s=0.0)
    events = [EventSpec.first_sender_is(k) for k in range(n)]
    res = estimate_events(cfg, events, 20000, spawn_stream(9, 0))
    assert sum(r.raw_successes for r in res) == 20000


def test_estimate_event_first_sender_source_rate():
    cfg = GossipConfig(n=1000, f=100, s=0.0)
    r = estimate_event(cfg, EventSpec.first_sender_is(0), 200_000, spawn_stream(10, 0))
    assert abs(r.estimate - 0.101) <= 3 * r.ci_half_width


def test_timed_first_disclosure_rate():
    cfg = GossipConfig(n=1000, f=100, s=0.0)
    r = estimate_event(cfg, EventSpec.timed_first_disclosure(), 100_000, spawn_stream(11, 0))
    assert abs(r.estimate - 0.1) <= 3 * r.ci_half_width


def test_first_observed_senders_s0_match_exact_marginals():
    # n=4, f=1, source 0: the exact first-sender law 2/4, 1/4, 1/4 and 0,
    # which test_exact derives from exact_observation_posteriors.
    cfg = GossipConfig(n=4, f=1, s=0.0)
    first, capped = _first_observed_senders_s0(cfg, 200_000, spawn_stream(21, 0))
    assert capped == 0
    counts = np.bincount(first, minlength=4)
    assert counts[3] == 0
    assert stats.chisquare(counts[:3], 200_000 * np.array([0.5, 0.25, 0.25])).pvalue > 1e-3


@pytest.mark.parametrize("n, f, step_cap", [(20, 2, None), (20, 2, 3), (64, 6, 8)])
def test_first_observed_senders_s0_match_engine(n, f, step_cap):
    # The s=0 law against the lumped engine stopped at its first observed
    # entry: two-sample chi-square over the classes {each node, capped}.
    cfg = GossipConfig(n=n, f=f, s=0.0, step_cap=step_cap)
    stream = 100 * n + (step_cap or 0)
    law, capped = _first_observed_senders_s0(cfg, 200_000, spawn_stream(22, stream))
    assert capped == np.count_nonzero(law < 0)
    prefixes = (ObservedPrefix(1) for _ in range(20_000))
    engine = [-1 if cut else prefix.senders[0]
              for _, prefix, cut in _lumped_views(cfg, prefixes, spawn_stream(23, stream), _pools(cfg))]
    table = np.vstack([np.bincount(np.add(x, 1), minlength=n + 1) for x in (law, engine)])
    assert stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue > 1e-3
    # The cap binds iff the first `step_cap` receivers all miss the f curious.
    expect = (1 - f / n) ** cfg.max_steps
    assert abs(capped / law.size - expect) <= 4 * math.sqrt(expect * (1 - expect) / law.size) + 1e-9


# ---------------------------------------------------------------------------
# The lumped engine against the exact law and the per-node engine


def _views(monkeypatch, path, cfg, deciders, rng, pools, floor=1000):
    """_lumped_views's results on one path of the engine, from one call with
    no tail rule.  "lockstep" steps every lane in lockstep to its end and
    hands none off.  The crowd rule hands a lane to the per-node engine,
    un-lumped: with _CROWD = 1 ("lone") after its first lockstep step, and
    with _CROWD = 2 ("crowded") once it holds a label besides the source.
    These two paths must hand off at least `floor` lanes."""
    monkeypatch.setattr(estimators, "_TAIL", 0)
    if path != "lockstep":
        monkeypatch.setattr(estimators, "_CROWD", 1 if path == "lone" else 2)
    run, hand_offs = estimators._sequential_run, []

    def count(*args):
        hand_offs.append(1)
        return run(*args)

    monkeypatch.setattr(estimators, "_sequential_run", count)
    yield from _lumped_views(cfg, deciders, rng, pools)
    monkeypatch.setattr(estimators, "_sequential_run", run)
    assert not hand_offs if path == "lockstep" else len(hand_offs) >= floor, (path, len(hand_offs))


@functools.cache
def _exact_views(n, s, variant):
    """The observed-sender sequences of length <= 3 at f=1, and the
    probability that a complete run observes each one."""
    cfg = GossipConfig(n=n, f=1, s=s, variant=variant)
    seqs = [obs for length in range(4) for obs in product(range(n), repeat=length)]
    return seqs, np.array([float(sequence_probability(cfg, obs)) for obs in seqs])


def _assert_sequence_law(views, cfg, trials):
    """Chi-square goodness of fit of the complete observed-sender sequences
    fed to ObservedPrefix deciders against exact.sequence_probability, over
    the sequences of length <= 3 (those expected < 5 times pooled) and one
    cell for every longer sequence."""
    seqs, p = _exact_views(cfg.n, cfg.s, cfg.variant)
    cell = {obs: i for i, obs in enumerate(seqs)}
    counts = np.zeros(len(seqs) + 1)
    for _, prefix, capped in views:
        assert not capped
        counts[cell.get(tuple(prefix.senders), len(seqs))] += 1
    assert counts.sum() == trials
    assert not counts[:-1][p == 0].any()  # no impossible sequence
    expected = np.append(p, 1.0 - p.sum()) * trials
    big = expected >= 5
    pooled = (expected > 0) & ~big
    observed = np.append(counts[big], counts[pooled].sum())
    expected = np.append(expected[big], expected[pooled].sum())
    if not pooled.any():
        observed, expected = observed[:-1], expected[:-1]
    assert stats.chisquare(observed, expected).pvalue > 1e-3, cfg.n


@pytest.mark.parametrize("path", ["lockstep", "lone", "crowded"])
@pytest.mark.parametrize("k, s, variant", [(0, 0.0, "parameterized"), (1, 1 / 3, "parameterized"),
                                           (2, 0.5, "parameterized"), (3, 1.0, "parameterized"),
                                           (4, 1.0, "delayed_start")])
def test_lumped_views_match_exact_law(monkeypatch, path, k, s, variant):
    # The lumped engine at f=1 against exact.sequence_probability.  The
    # complete observed-sender sequences, with every observed sender fed, on
    # two inputs: n=4 in the two classes of the events and the silence and
    # multi-rumor attacks, and n=5 in the three of a MAP prior of size 2
    # ({1, 2}, {3} and the curious node 4), where un-lumping must give each
    # class's nodes distinct unlabelled ids.  Then the outcomes of two rules
    # whose lanes label only some senders: FirstInPrior on MAP's own pools at
    # n=5, where only the source and node 3 are fed, and FirstGoesQuiet with
    # r=1 and r=2 at n=4 and n=5, which labels only its first sender and
    # feeds any later unlabelled one as -1.  The share of each outcome (a
    # node or none) must lie between the mass of the views of length <= 3
    # that give it and that plus the longer views' mass.
    trials = 20_000 if path == "lockstep" else 10_000
    stream = 3 * k + ["lockstep", "lone", "crowded"].index(path)
    cfg = GossipConfig(n=4, f=1, s=s, variant=variant)
    prefixes = (ObservedPrefix(10**9) for _ in range(trials))
    _assert_sequence_law(_views(monkeypatch, path, cfg, prefixes, spawn_stream(24, stream), _pools(cfg)),
                         cfg, trials)

    cfg = GossipConfig(n=5, f=1, s=s, variant=variant)
    pools = _pools(cfg, 2)
    all_fed = [(ids, cur, True) for ids, cur, _ in pools]
    prefixes = (ObservedPrefix(10**9) for _ in range(trials))
    _assert_sequence_law(_views(monkeypatch, path, cfg, prefixes, spawn_stream(31, stream), all_fed),
                         cfg, trials)

    prior = frozenset(pools[1][0].tolist()) | {cfg.source}
    # A FirstInPrior lane on these pools is decided when it would take a
    # second label, so only "lone" hands it off.
    rules = _ended(_views(monkeypatch, path, cfg, (FirstInPrior(prior) for _ in range(trials)),
                          spawn_stream(33, stream), pools, floor=1000 if path == "lone" else 0))
    found = [rule.found for rule in rules]
    assert set(found) <= {*prior, None}
    _assert_outcome_law(found, cfg, lambda obs: feed_all(FirstInPrior(prior), obs).found)

    # One FirstGoesQuiet(2) lane per trial gives r=2's outcome, and r=1's from
    # the first two entries it was fed: an r=1 lane is fed the same entries,
    # since a lane's steps depend on its rule only through tells_apart (the
    # same for every r) until the rule is decided.
    for n in (4, 5):
        cfg = GossipConfig(n=n, f=1, s=s, variant=variant)
        rules = _ended(_views(monkeypatch, path, cfg, (_Fed(2) for _ in range(trials)),
                              spawn_stream(35, 2 * stream + n - 4), _pools(cfg)))
        for r in (1, 2):
            def outcome(fed, r=r):
                return feed_all(FirstGoesQuiet(r), fed).predict()

            _assert_outcome_law([outcome(rule.fed) for rule in rules], cfg, outcome)


class _Fed(FirstGoesQuiet):
    """The silence rule, keeping every sender it is fed."""

    def __init__(self, r):
        super().__init__(r)
        self.fed = []

    def feed(self, sender):
        self.fed.append(sender)
        return super().feed(sender)


def _ended(views):
    """The deciders of `views`, none of whose runs may be step-capped."""
    rules = []
    for _, rule, capped in views:
        assert not capped
        rules.append(rule)
    return rules


def _assert_outcome_law(found, cfg, outcome_of):
    """The share of each outcome (a node or None) in `found`, one per trial,
    against the mass of the complete views of length <= 3 whose outcome_of
    it is, with the longer views' mass as upward slack and 4 standard errors
    either way."""
    seqs, p = _exact_views(cfg.n, cfg.s, cfg.variant)
    law = Counter()
    for obs, q in zip(seqs, p):
        law[outcome_of(obs)] += q
    trials, found = len(found), Counter(found)
    assert set(found) <= {*range(cfg.n), None}
    slack, half = 1.0 - p.sum(), 2.0 / math.sqrt(trials)  # 4 standard errors at most
    for outcome in (*range(cfg.n), None):
        share = found[outcome] / trials
        assert law[outcome] - half <= share <= law[outcome] + slack + half, (outcome, share, law[outcome])


def _two_sample_p(a: Counter, b: Counter) -> float:
    """Chi-square two-sample p-value of two count tables over the same cells,
    pooling the cells expected fewer than 5 times in either sample."""
    cells = sorted(set(a) | set(b), key=repr)
    table = np.array([[a[c] for c in cells], [b[c] for c in cells]], dtype=float)
    expected = np.outer(table.sum(1), table.sum(0)) / table.sum()
    small = expected.min(axis=0) < 5
    table = np.column_stack([table[:, ~small], table[:, small].sum(axis=1)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


def _sender_class(cfg, node):
    return "source" if node == cfg.source else "curious" if node >= cfg.curious_lo else "other"


@pytest.mark.parametrize("s, variant", [(0.0, "parameterized"), (0.5, "parameterized"),
                                        (1.0, "delayed_start")])
def test_lumped_hand_off_states_are_valid(monkeypatch, s, variant):
    # Every un-lumped state that a lane hands to the per-node engine holds
    # distinct informed ids, the source and the senders fed so far among
    # them, and distinct active ids among those.  The pools are MAP's for a
    # prior of size 4, so only the source and the prior's class are fed.
    # (At n <= 5 the exact-law test above barely sees a drawn id that
    # repeats a labelled one.)
    cfg = GossipConfig(n=12, f=3, s=s, variant=variant)
    pools = _pools(cfg, 4)
    prior = set(pools[1][0].tolist()) | {cfg.source}
    starts = []

    def record(config, rng, start, feed):
        starts.append((start, list(feed.__self__.senders)))
        return sequential_run(config, rng, start, feed)

    sequential_run = estimators._sequential_run
    monkeypatch.setattr(estimators, "_sequential_run", record)
    prefixes = [ObservedPrefix(10**9) for _ in range(3000)]
    for _ in _views(monkeypatch, "crowded", cfg, prefixes, spawn_stream(32, int(10 * s)), pools):
        pass
    assert len(starts) > 1000
    # Hand-offs holding a labelled observed sender drawn from the prior's class.
    assert sum(bool(set(fed) - {cfg.source}) for _, fed in starts) > 100
    for (informed, active, steps), fed in starts:
        informed, active = informed.tolist(), active.tolist()
        assert len(set(informed)) == len(informed) and cfg.source in informed
        assert set(fed) <= prior & set(informed)
        assert len(set(active)) == len(active) and set(active) <= set(informed)
        assert steps > 0


def test_lumped_crowded_lanes_end_alone(monkeypatch):
    # A rule that tells every sender apart labels each new observed sender.
    # A lane hands itself to the per-node engine on the step its labels reach
    # _CROWD, which bounds the width of the label arrays, and its run goes on
    # there to the end.
    cfg = GossipConfig(n=2048, f=1024, s=1.0)
    monkeypatch.setattr(estimators, "_TAIL", 0)
    labels = []

    def record(config, rng, start, feed):
        labels.append(len(set(feed.__self__.senders) | {cfg.source}))
        return sequential_run(config, rng, start, feed)

    sequential_run = estimators._sequential_run
    monkeypatch.setattr(estimators, "_sequential_run", record)
    prefixes = [ObservedPrefix(10**9) for _ in range(8)]
    for _, prefix, capped in _lumped_views(cfg, prefixes, spawn_stream(34, 0), _pools(cfg)):
        assert not capped and len(set(prefix.senders)) > estimators._CROWD
    assert labels == [estimators._CROWD] * 8


def test_lumped_silence_lanes_hold_two_labels(monkeypatch):
    # FirstGoesQuiet tells only its first sender x apart, so its lane labels
    # x and the source alone and feeds every other sender as -1, whatever r
    # is: no lane reaches _CROWD and is handed off, though some are fed far
    # more entries, and each ends decided (x repeats or r entries follow it)
    # or with every node informed.
    cfg = GossipConfig(n=2048, f=1024, s=1.0)
    monkeypatch.setattr(estimators, "_TAIL", 0)
    handed_off = []

    def record(config, rng, start, feed):
        handed_off.append(start)
        return sequential_run(config, rng, start, feed)

    sequential_run = estimators._sequential_run
    monkeypatch.setattr(estimators, "_sequential_run", record)
    rules = [_Fed(10**4) for _ in range(64)]
    ended = _ended(_lumped_views(cfg, rules, spawn_stream(36, 0), _pools(cfg)))
    assert not handed_off and len(ended) == len(rules)
    for rule in ended:
        assert set(rule.fed) <= {rule.first, cfg.source, -1}
    assert max(len(rule.fed) for rule in rules) > 2 * estimators._CROWD


# (n, s, variant, step cap): the cap bounds the per-node engine's runs and
# applies to both engines, so capped runs are compared too.
FIRST_SENDER_CASES = [
    (100, 0.0, "parameterized", 60), (100, 0.3, "parameterized", 60),
    (100, 1.0, "parameterized", 60), (100, 1.0, "delayed_start", 60),
    (1024, 0.0, "parameterized", 60), (1024, 0.3, "parameterized", 60),
    (1024, 1.0, "parameterized", 60), (1024, 1.0, "delayed_start", 60),
]


@pytest.mark.parametrize("n, s, variant, cap", FIRST_SENDER_CASES)
def test_lumped_first_senders_match_per_node_engine(n, s, variant, cap):
    # The classes (source, other non-curious, curious) of the first two
    # observed senders, and whether they are the same node, from the lumped
    # engine and from observe() on run_trace's full traces.
    cfg = GossipConfig(n=n, f=n // 10, s=s, variant=variant, step_cap=cap)

    def cell(senders):
        return (tuple(_sender_class(cfg, x) for x in senders[:2]), len(set(senders[:2])))

    stream = int(n * 10 + 10 * s) + (variant == "delayed_start")
    prefixes = (ObservedPrefix(2) for _ in range(20_000))
    lumped = Counter(cell(prefix.senders) for _, prefix, _ in
                     _lumped_views(cfg, prefixes, spawn_stream(25, stream), _pools(cfg)))
    rng = spawn_stream(26, stream)
    per_node = Counter(cell(observe(run_trace(cfg, rng)).senders.tolist()) for _ in range(1500))
    assert _two_sample_p(lumped, per_node) > 1e-3


@pytest.mark.parametrize("s", [0.8])
def test_lumped_source_sends_match_per_node_engine(monkeypatch, s):
    # How often the source is an observed sender in a complete run, which
    # follows how long it stays active: the lumped engine in lockstep and
    # handed off at its second label, against observe() on run_trace.  (The
    # view's length does not depend on s: every step's receiver is uniform
    # whoever sends.)
    cfg = GossipConfig(n=16, f=2, s=s)
    rng = spawn_stream(29, int(10 * s))
    per_node = Counter(min(observe(run_trace(cfg, rng)).senders.tolist().count(cfg.source), 5)
                       for _ in range(10_000))
    for i, path in enumerate(("lockstep", "crowded")):
        prefixes = (ObservedPrefix(10**9) for _ in range(20_000))
        views = _views(monkeypatch, path, cfg, prefixes, spawn_stream(30, 10 * int(10 * s) + i), _pools(cfg))
        lumped = Counter(min(prefix.senders.count(cfg.source), 5) for _, prefix, _ in views)
        assert _two_sample_p(lumped, per_node) > 1e-3, path


def _outcome(predicted, source):
    return "abstain" if predicted is None else predicted == source


# (name, config, attack spec, per-node runs).  map_capped is the golden
# digest's capped case: its runs are evaluated on the partial view.
ATTACK_CASES = [
    ("map_all_s0", GossipConfig(n=100, f=10, s=0.0, step_cap=300), MapAttackSpec(), 1500),
    ("map_10_s03", GossipConfig(n=100, f=10, s=0.3, step_cap=300), MapAttackSpec(10), 1500),
    ("map_all_s1", GossipConfig(n=1024, f=102, s=1.0, step_cap=300), MapAttackSpec(), 1500),
    ("map_capped", GossipConfig(n=256, f=26, s=0.5, step_cap=40), MapAttackSpec(10), 1500),
    ("silence_delayed", GossipConfig(n=100, f=10, s=1.0, variant="delayed_start"),
     SilenceAttackSpec(), 1000),
    ("silence_delayed_1024", GossipConfig(n=1024, f=102, s=1.0, variant="delayed_start",
                                          step_cap=2000), SilenceAttackSpec(), 200),
    ("silence_s03", GossipConfig(n=100, f=10, s=0.3, step_cap=600), SilenceAttackSpec(), 1000),
    ("multi_rumor_s03", GossipConfig(n=100, f=10, s=0.3, step_cap=300),
     MultiRumorAttackSpec(rumors=3, k=5), 500),
]


def _per_node_outcome(cfg, attack, rng):
    """One trial of the attack, offline, on run_trace's full traces."""
    if isinstance(attack, MultiRumorAttackSpec):
        views = [observe(run_trace(cfg, rng)) for _ in range(attack.rumors)]
        return multi_rumor_attack(views, attack.k, rng).predicted
    view = observe(run_trace(cfg, rng))
    if isinstance(attack, SilenceAttackSpec):
        return silence_attack(view, silence_window(cfg.n)).predicted
    others = rng.choice(np.arange(1, cfg.curious_lo), size=(attack.prior_size or cfg.curious_lo) - 1,
                        replace=False)
    return map_attack(view, [cfg.source, *others.tolist()], rng).predicted


@pytest.mark.parametrize("name", [case[0] for case in ATTACK_CASES])
def test_lumped_attack_outcomes_match_per_node_engine(name):
    # Counts of correct, wrong and abstaining predictions (step-capped runs
    # included, on their partial views) from estimate_attack_precision and
    # from the offline attacks on run_trace's traces.
    index = [case[0] for case in ATTACK_CASES].index(name)
    _, cfg, attack, runs = ATTACK_CASES[index]
    res = estimate_attack_precision(cfg, attack, 6000, spawn_stream(27, index))
    correct = res.precision.raw_successes
    lumped = Counter({True: correct, "abstain": res.n_abstained,
                      False: 6000 - correct - res.n_abstained})
    rng = spawn_stream(28, index)
    per_node = Counter(_outcome(_per_node_outcome(cfg, attack, rng), cfg.source) for _ in range(runs))
    assert _two_sample_p(lumped, per_node) > 1e-3


def test_estimate_source_disclosure_matches_closed_form():
    r = estimate_source_disclosure(0.5, 100, 1000, 100_000, spawn_stream(12, 0))
    assert abs(r.estimate - source_disclosure_prob(0.5, 100, 1000)) <= 3 * r.ci_half_width


@pytest.mark.parametrize("f", [2000, -5])
def test_estimate_source_disclosure_rejects_impossible_f(f):
    with pytest.raises(ValueError, match="f must be in"):
        estimate_source_disclosure(0.5, f, 1000, 100, spawn_stream(12, 1))


@pytest.mark.parametrize("s", [0.0, 0.5])  # the s = 0 path and the lumped engine
@pytest.mark.parametrize("node", [-1, 500])
def test_estimate_events_rejects_nodes_outside_range(s, node):
    cfg = GossipConfig(n=100, f=10, s=s)
    with pytest.raises(ValueError, match=f"event node {node} is outside"):
        estimate_events(cfg, [EventSpec.first_sender_is(node)], 10, spawn_stream(0, 0))


@pytest.mark.parametrize("call", [
    lambda: EventSpec.sender_rank_le(0, math.nan),
    lambda: estimate_attack_precision(GossipConfig(n=100, f=10, s=0.5), SilenceAttackSpec(r=math.nan), 10,
                                      spawn_stream(0, 0)),
    lambda: estimate_attack_precision(GossipConfig(n=100, f=10, s=0.5), MultiRumorAttackSpec(2, k=math.nan),
                                      10, spawn_stream(0, 0)),
    lambda: estimate_attack_precision(GossipConfig(n=100, f=10, s=0.5), MultiRumorAttackSpec(math.nan), 10,
                                      spawn_stream(0, 0)),
])
def test_estimators_refuse_nan_parameters(call):
    # NaN fails every comparison, so a guard written as `r < 1` let a NaN
    # event rank, silence window or multi-rumor k run.
    with pytest.raises(ValueError):
        call()


def test_mixing_timed_and_untimed_rejected():
    cfg = GossipConfig(n=100, f=10, s=0.0)
    with pytest.raises(ValueError):
        estimate_events(
            cfg,
            [EventSpec.first_sender_is(0), EventSpec.timed_first_disclosure()],
            10,
            spawn_stream(0, 0),
        )


# ---------------------------------------------------------------------------
# Privacy gap


def test_dp_gap_requires_matching_configs():
    a = GossipConfig(n=100, f=10, s=0.0, source=0)
    b = GossipConfig(n=100, f=20, s=0.0, source=1)
    with pytest.raises(ValueError):
        estimate_dp_gap(a, b, [EventSpec.first_sender_is(0)], 10, spawn_stream(0, 0))
    with pytest.raises(ValueError):
        estimate_dp_gap(a, a, [EventSpec.first_sender_is(0)], 10, spawn_stream(0, 0))


def test_dp_gap_first_sender_family_matches_optimal_delta():
    n, f = 500, 50
    ci = GossipConfig(n=n, f=f, s=0.0, source=0)
    cj = GossipConfig(n=n, f=f, s=0.0, source=1)
    events = [EventSpec.first_sender_is(k) for k in range(n - f)]
    gap = estimate_dp_gap(ci, cj, events, 100_000, spawn_stream(13, 0))
    noise = 4 * 2.576 * math.sqrt(0.1 * 0.9 / 100_000)
    assert abs(gap - f / n) < noise
    assert gap <= optimal_delta(0.0, f, n) + noise  # one-sided consistency


# ---------------------------------------------------------------------------
# Attacks


def test_map_attack_singleton_prior_is_always_right():
    # prior = {source}: the decided branch and the fallback both name the
    # source, so precision is exactly 1.
    cfg = GossipConfig(n=128, f=12, s=0.5)
    res = estimate_attack_precision(cfg, MapAttackSpec(prior_size=1), 300, spawn_stream(14, 0))
    assert res.precision.estimate == 1.0
    assert res.n_abstained == 0


def test_map_attack_s0_baseline():
    n, f = 256, 26
    cfg = GossipConfig(n=n, f=f, s=0.0)
    res = estimate_attack_precision(cfg, MapAttackSpec(), 20000, spawn_stream(14, 1))
    assert abs(res.precision.estimate - (f + 1) / n) <= 3 * res.precision.ci_half_width


def test_map_attack_success_capped_by_prediction_uncertainty():
    # 1/(1 + c) caps any attack's success under a uniform (full) prior.
    n, f = 256, 26
    for s in (0.0, 0.5):
        cfg = GossipConfig(n=n, f=f, s=s)
        res = estimate_attack_precision(cfg, MapAttackSpec(), 8000, spawn_stream(14, int(10 * s) + 2))
        cap = 1.0 / (1.0 + param_c(s, f, n))
        assert res.precision.estimate <= cap + 3 * res.precision.ci_half_width


def test_map_attack_monotonicity():
    n, f = 256, 26
    trials = 6000
    by_s = []
    for i, s in enumerate((0.0, 0.33, 1.0)):
        cfg = GossipConfig(n=n, f=f, s=s)
        by_s.append(
            estimate_attack_precision(cfg, MapAttackSpec(), trials, spawn_stream(15, i)).precision.estimate
        )
    assert by_s[0] < by_s[1] < by_s[2]
    small_prior = estimate_attack_precision(
        GossipConfig(n=n, f=f, s=1.0), MapAttackSpec(prior_size=8), trials, spawn_stream(15, 9)
    ).precision.estimate
    assert small_prior > by_s[2]


def test_multi_rumor_precision_grows_with_instances():
    cfg = GossipConfig(n=512, f=51, s=1.0)
    one = estimate_attack_precision(cfg, MultiRumorAttackSpec(rumors=1), 800, spawn_stream(16, 0))
    many = estimate_attack_precision(cfg, MultiRumorAttackSpec(rumors=8), 800, spawn_stream(16, 1))
    assert many.precision.estimate > one.precision.estimate


def test_silence_attack_counts_abstentions_as_failures():
    cfg = GossipConfig(n=256, f=26, s=1.0, variant="delayed_start")
    res = estimate_attack_precision(cfg, SilenceAttackSpec(), 2000, spawn_stream(17, 0))
    assert res.n_abstained > 0
    total_rate = res.precision.estimate
    given = res.precision_given_prediction.estimate
    assert total_rate <= given  # headline precision pays for abstentions
    assert abs(res.abstain_rate - res.n_abstained / 2000) < 1e-12


def test_attack_spec_param_resolves_its_default():
    # attack.csv's `param`: None stands for all n - f non-curious nodes (MAP)
    # and for the default window (silence).
    cfg = GossipConfig(n=1024, f=102, s=1.0)
    assert MapAttackSpec().param(cfg) == 922
    assert MapAttackSpec(prior_size=10).param(cfg) == 10
    assert SilenceAttackSpec().param(cfg) == silence_window(1024) == 49
    assert SilenceAttackSpec(r=7).param(cfg) == 7
    assert MultiRumorAttackSpec(rumors=5, k=3).param(cfg) == 5


# ---------------------------------------------------------------------------
# Spreading


# s=0 runs on the lumped coupon-collector engine, every other s on the
# count-only round engine; each test loops over both paths.
SPREAD_PATHS = (0.5, 0.0)


def test_estimate_spreading_reproducible():
    for s in SPREAD_PATHS:
        cfg = GossipConfig(n=256, f=26, s=s)
        a = estimate_spreading(cfg, 10, spawn_stream(18, 0))
        b = estimate_spreading(cfg, 10, spawn_stream(18, 0))
        assert np.array_equal(a.informed_med, b.informed_med)
        assert np.array_equal(a.completion_rounds, b.completion_rounds)
        assert a.plateau_median == b.plateau_median


def test_estimate_spreading_shapes_and_monotonicity():
    for s in SPREAD_PATHS:
        cfg = GossipConfig(n=512, f=51, s=s)
        sp = estimate_spreading(cfg, 12, spawn_stream(18, 1))
        assert sp.n_runs == 12 and sp.n_capped == 0
        assert np.all(np.diff(sp.informed_med) >= 0)
        assert sp.informed_med[-1] == 1.0
        assert np.all(sp.informed_p10 <= sp.informed_med)
        assert np.all(sp.informed_med <= sp.informed_p90)
        assert sp.total_messages.size == 12
        assert 0 < sp.plateau_median <= 1


def test_estimate_spreading_all_capped_raises():
    for s in SPREAD_PATHS:
        cfg = GossipConfig(n=256, f=26, s=s, step_cap=10)
        with pytest.raises(RuntimeError):
            estimate_spreading(cfg, 5, spawn_stream(18, 2))


def test_estimate_spreading_rejects_delayed_start():
    # The round-based engines run only the parameterized protocol, as run_sync.
    cfg = GossipConfig(n=256, f=25, s=1.0, variant="delayed_start")
    with pytest.raises(ValueError, match="variant='parameterized'"):
        estimate_spreading(cfg, 20, spawn_stream(18, 3))


# sha256 of a SpreadingSummary on stream (2027, 10): the six band arrays,
# completion_rounds and total_messages as raw bytes, then
# repr((plateau_median, n_runs, n_capped)).  They pin estimate_spreading's
# aggregation, capped runs included, on both engines.
GOLDEN_SUMMARIES = {
    "s0": (
        GossipConfig(n=64, f=6, s=0.0), 40,
        "d2f3b6c0ab77158f073cab560f06bbcbf4c50caac6abad722a7bc71eaa5e0054",
    ),
    "s0_capped": (  # 17 of 40 runs capped
        GossipConfig(n=64, f=6, s=0.0, step_cap=300), 40,
        "5b352df7d696ab333b0c52ec749de084e8786dcfc167744de30bcc40aa23eedf",
    ),
    "s05_capped": (  # 7 of 20 runs capped
        GossipConfig(n=128, f=13, s=0.5, step_cap=700), 20,
        "012c5b04ef55185604ee952bac9f1dea2728576a96d0746cea38986cd61f4a6e",
    ),
    "s1_capped": (  # 15 of 30 runs capped
        GossipConfig(n=128, f=13, s=1.0, step_cap=600), 30,
        "f246231d0d10dcb591a760bfcb60da19bba26c95e74bd329305add432a2f2a0b",
    ),
    "s01": (
        GossipConfig(n=128, f=13, s=0.1), 30,
        "fc1e75cdc1637866cc247eca03a376c14d5e74b0e215215b399f5c6f4680e956",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_SUMMARIES)
def test_spreading_summary_golden(name):
    cfg, trials, digest = GOLDEN_SUMMARIES[name]
    sp = estimate_spreading(cfg, trials, spawn_stream(2027, 10))
    h = hashlib.sha256()
    for a in (sp.informed_med, sp.informed_p10, sp.informed_p90, sp.active_med,
              sp.active_p10, sp.active_p90, sp.completion_rounds, sp.total_messages):
        h.update(a.tobytes())
    h.update(repr((sp.plateau_median, sp.n_runs, sp.n_capped)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("block", [1, 4, 5, 1 << 14])
def test_bands_over_round_blocks_match_one_full_matrix(monkeypatch, block):
    # Curves of 1-13 rounds end before, at and after the edges of blocks of
    # 4 or 5 rounds; the reference holds each curve's last value in one
    # (runs x longest) matrix.
    monkeypatch.setattr(estimators, "_BAND_ROUNDS", block)
    n = 50
    rng = np.random.default_rng(3)
    curves = [np.sort(rng.integers(1, n + 1, size=size)) for size in (3, 4, 5, 8, 9, 10, 13, 1, 4)]
    held = np.array([np.concatenate((c, np.full(13 - c.size, c[-1]))) for c in curves]) / n
    expect = np.percentile(held, [10, 50, 90], axis=0)
    assert np.array_equal(estimators._bands(curves, n), expect)
    one = np.percentile(held[2:3, :5], [10, 50, 90], axis=0)  # one run of 5 rounds
    assert np.array_equal(estimators._bands(curves[2:3], n), one)


@pytest.mark.parametrize("log2n", [8, 10, 12, 14])
def test_run_sync_s1_matches_pittel(log2n):
    # At s=1 the round engine is Pittel's push model, whose completion takes
    # log2 n + ln n + O(1) rounds (Pittel 1987, "On spreading a rumor");
    # an oracle for run_sync that does not go through AC04's log-fit.
    n = 2**log2n
    cfg = GossipConfig(n=n, f=round(0.1 * n), s=1.0)
    sp = estimate_spreading(cfg, 200, spawn_stream(20, log2n))
    assert sp.n_runs == 200
    offset = float(np.median(sp.completion_rounds)) - (math.log2(n) + math.log(n))
    assert 0.0 <= offset <= 3.0, offset


def _held_curves(curves, width, fill):
    """Counts of rounds 1..width per run, held at `fill` after completion."""
    out = np.full((len(curves), width), fill, dtype=np.int64)
    for row, curve in zip(out, curves):
        head = curve[:width]
        row[: head.size] = head
    return out


def _completion_laws_agree(a, b):
    """Whether two samples of completion rounds agree: a two-sample
    chi-square test on pooled-decile bins at level 1e-4."""
    edges = np.unique(np.quantile(np.concatenate([a, b]), np.linspace(0, 1, 11)))
    edges[-1] += 1  # the last bin is closed
    table = np.vstack([np.histogram(a, edges)[0], np.histogram(b, edges)[0]])
    return stats.chi2_contingency(table).pvalue > 1e-4


def _means_agree(a, b, tests):
    """Whether the per-round means of two (runs x rounds) samples agree, in
    a two-sample z-test at level 1e-4 Bonferroni-split over `tests` tests."""
    diff = a.mean(axis=0) - b.mean(axis=0)
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    z = stats.norm.isf(1e-4 / (2 * tests))
    return np.all(np.abs(diff) <= z * se + 1e-12), np.abs(diff) / np.maximum(se, 1e-12)


@pytest.mark.parametrize("n, sync_trials", [(3, 4000), (64, 400)])
def test_coupon_runs_s0_match_run_sync(n, sync_trials):
    cfg = GossipConfig(n=n, f=1, s=0.0)
    lumped = [rounds for _, rounds in _coupon_runs_s0(cfg, 20000, spawn_stream(19, n))]
    rng = spawn_stream(19, 1000 + n)
    sync = [run_sync(cfg, rng)[1] for _ in range(sync_trials)]
    for rounds in lumped[:100]:
        rounds.validate()
        assert np.all(rounds.active == 1) and np.all(rounds.messages == 1)
        assert rounds.informed[-1] == n and rounds.informed[-2] == n - 1

    a = np.array([len(r) for r in lumped])
    b = np.array([len(r) for r in sync])
    assert _completion_laws_agree(a, b)

    # Mean informed count at each of the first rounds (Bonferroni over rounds).
    width = 2 * n
    ok, z = _means_agree(*(_held_curves([r.informed for r in runs], width, n) for runs in (lumped, sync)),
                         width)
    assert ok, z

    # Mean completion rounds against the coupon collector's n*H(n-1), with
    # Var = sum over k of (1-p_k)/p_k^2, p_k = (n-k)/n.
    p = (n - np.arange(1, n)) / n
    sd = math.sqrt(float(np.sum((1 - p) / p**2)))
    target = n * sum(1 / k for k in range(1, n))
    assert abs(a.mean() - target) <= 4.0 * sd / math.sqrt(a.size)


def _exact_round_law(n, s, horizon):
    """The exact law of run_sync's rounds at tiny n, node by node.

    A state is (informed set, active set) as bitmasks, the source being node
    0.  A round of k senders sends to each of the n**k receiver tuples with
    equal mass and flips each of the 2**k patterns of stay coins; the next
    informed set adds the receivers, the next active set is the stayers and
    the receivers.  Returns, for rounds t = 1..horizon, P(T = t) and the
    means of informed_t and active_t over runs with T >= t (0 once a run has
    completed), where T is the completion round; and the mass still running
    after the horizon, which the returned law leaves out.
    """
    full = (1 << n) - 1
    states = [(i, a) for i in range(1, full, 2) for a in range(1, full) if a & ~i == 0]
    index = {state: row for row, state in enumerate(states)}
    step = np.zeros((len(states), len(states)))  # mass moving between running states
    done = np.zeros(len(states))  # mass completing in the round
    done_active = np.zeros(len(states))  # and its mean active count
    for row, (i, a) in enumerate(states):
        senders = [b for b in range(n) if a >> b & 1]
        k = len(senders)
        # The receiver tuples, counted by the set of nodes they reach.
        reached = Counter(functools.reduce(lambda m, j: m | 1 << j, tup, 0)
                          for tup in product(range(n), repeat=k))
        for coins in product((0, 1), repeat=k):
            stay = sum(1 << b for b, c in zip(senders, coins) if c)
            p_coins = s ** sum(coins) * (1 - s) ** (k - sum(coins))
            for got, tuples in reached.items():
                p = p_coins * tuples / n**k
                nxt = (i | got, stay | got)
                if nxt[0] == full:
                    done[row] += p
                    done_active[row] += p * bin(nxt[1]).count("1")
                else:
                    step[row, index[nxt]] += p
    n_inf = np.array([bin(i).count("1") for i, _ in states])
    n_act = np.array([bin(a).count("1") for _, a in states])
    mass = np.zeros(len(states))
    mass[index[(1, 1)]] = 1.0
    pmf, informed, active = np.zeros((3, horizon))
    for t in range(horizon):
        nxt = mass @ step
        pmf[t] = mass @ done
        informed[t] = nxt @ n_inf + n * pmf[t]
        active[t] = nxt @ n_act + mass @ done_active
        mass = nxt
    return pmf, informed, active, mass.sum()


@pytest.mark.parametrize("n, s", [(3, 1 / 3), (3, 0.5), (4, 1 / 3), (4, 0.5), (5, 1 / 3), (5, 0.5),
                                  (2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0)])
def test_count_runs_match_exact_round_law(n, s):
    horizon = 40 * n
    pmf, informed, active, left = _exact_round_law(n, s, horizon)
    assert left < 1e-9 and abs(pmf.sum() + left - 1) < 1e-12
    if n == 3:  # round 1: the source informs another node w.p. 2/3 and stays w.p. s
        assert abs(informed[0] - 5 / 3) < 1e-15 and abs(active[0] - (1 + 2 * s / 3)) < 1e-15

    trials = 20000
    runs = [rounds for complete, rounds in estimators._count_runs(GossipConfig(n=n, f=0, s=s), trials,
                                                                  spawn_stream(61, n))]
    for rounds in runs[:200]:
        rounds.validate()
    lengths = np.array([len(r) for r in runs])
    assert lengths.max() <= horizon

    # Completion-round law: chi-square goodness of fit over rounds lo..hi,
    # the first and last with an expected count of 20 or more; the rounds
    # before lo are pooled into lo's bin, and those after hi into one bin.
    lo, hi = np.flatnonzero(pmf * trials >= 20)[[0, -1]] + 1
    observed = np.bincount(np.clip(lengths, lo, hi + 1) - lo, minlength=hi + 2 - lo)
    expected = np.concatenate(([pmf[:lo].sum()], pmf[lo:hi], [1 - pmf[:hi].sum()])) * trials
    assert stats.chisquare(observed, expected).pvalue > 1e-4

    # Mean informed and active counts per round (Bonferroni over both).
    width = hi
    for curve, mean in (("informed", informed), ("active", active)):
        held = _held_curves([getattr(r, curve) for r in runs], width, 0)
        se = held.std(axis=0, ddof=1) / math.sqrt(trials)
        z = stats.norm.isf(1e-4 / (4 * width))
        dev = np.abs(held.mean(axis=0) - mean[:width])
        assert np.all(dev <= z * se + 1e-12), (curve, dev / np.maximum(se, 1e-12))


@pytest.mark.parametrize("n, s", [(64, 0.05), (64, 0.5), (1024, 0.05), (1024, 0.5), (64, 1.0), (1024, 1.0)])
def test_count_runs_match_run_sync(n, s):
    cfg = GossipConfig(n=n, f=0, s=s)
    lumped = [rounds for _, rounds in estimators._count_runs(cfg, 2000, spawn_stream(62, n))]
    rng = spawn_stream(63, n)
    sync = [run_sync(cfg, rng)[1] for _ in range(400)]
    for rounds in lumped[:100]:
        rounds.validate()
        assert rounds.informed[-1] == n

    a = np.array([len(r) for r in lumped])
    b = np.array([len(r) for r in sync])
    assert _completion_laws_agree(a, b)

    # Mean informed and active counts per round up to the pooled 90th
    # percentile of completion (Bonferroni over rounds and both counts).
    width = int(np.quantile(np.concatenate([a, b]), 0.9))
    for curve in ("informed", "active"):
        ok, z = _means_agree(*(_held_curves([getattr(r, curve) for r in runs], width, 0)
                               for runs in (lumped, sync)), 2 * width)
        assert ok, (curve, z)


def test_count_runs_capped_share_matches_run_sync():
    # GOLDEN_SUMMARIES["s05_capped"]'s point, and the same point at s = 1,
    # where about a third of the runs reach the step cap: a two-sample test
    # of the capped share.  A run stops at the first round that brings its
    # messages to the cap.
    for stream, s in ((0, 0.5), (2, 1.0)):
        cfg = GossipConfig(n=128, f=13, s=s, step_cap=700)
        runs = list(estimators._count_runs(cfg, 4000, spawn_stream(64, stream)))
        for complete, rounds in runs[:200]:
            rounds.validate()
            assert complete or rounds.messages[:-1].sum() < 700 <= rounds.messages.sum()
        lumped = [complete for complete, _ in runs]
        rng = spawn_stream(64, stream + 1)
        sync = [run_sync(cfg, rng)[0].complete for _ in range(2000)]
        table = [[lumped.count(False), lumped.count(True)], [sync.count(False), sync.count(True)]]
        assert 0.2 < table[0][0] / len(lumped) < 0.5, s
        assert stats.chi2_contingency(table).pvalue > 1e-4, s
