"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py`.  All randomness flows
from one fixed master seed so the suite is deterministic.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mutegossip.bounds import (
    mean_fixed_point,
    optimal_c,
    optimal_delta,
    param_c,
    param_delta_bound,
    param_delta_exact,
    source_disclosure_prob,
    strong_adversary_bounds,
)
from mutegossip.cli import main as cli_main
from mutegossip.core import GossipConfig, spawn_stream
from mutegossip.estimators import (
    EventSpec,
    MapAttackSpec,
    MultiRumorAttackSpec,
    SilenceAttackSpec,
    estimate_attack_precision,
    estimate_dp_gap,
    estimate_events,
    estimate_source_disclosure,
    estimate_spreading,
)
from mutegossip.exact import exact_observation_posteriors, map_optimality_violations
from mutegossip.experiments import build_spec, run_experiment

SEED = 20260810  # fixed for the whole suite


def report(ac: int, ok: bool, detail: str) -> None:
    print(f"\n[AC{ac:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"AC{ac:02d}: {detail}"


def test_ac01_first_sender_probabilities_at_s0():
    t0 = time.perf_counter()
    cfg = GossipConfig(n=1000, f=100, s=0.0, source=0)
    res = estimate_events(
        cfg,
        [EventSpec.first_sender_is(0), EventSpec.first_sender_is(1)],
        10**6,
        spawn_stream(SEED, 100),
    )
    src, other = res
    ok_src = abs(src.estimate - 0.101) <= 3 * src.ci_half_width
    ok_other = abs(other.estimate - 0.001) <= 3 * other.ci_half_width
    elapsed = time.perf_counter() - t0
    report(
        1,
        ok_src and ok_other and elapsed < 60,
        f"p(first=source)={src.estimate:.6f} (target 0.101), "
        f"p(first=other)={other.estimate:.6f} (target 0.001), {elapsed:.1f}s",
    )


def test_ac02_source_disclosure_closed_form():
    t0 = time.perf_counter()
    parts = []
    ok = True
    for i, s in enumerate((0.1, 0.33, 0.5)):
        res = estimate_source_disclosure(s, 100, 1000, 10**6, spawn_stream(SEED, 200 + i))
        closed = source_disclosure_prob(s, 100, 1000)
        good = abs(res.estimate - closed) <= 3 * res.ci_half_width
        ok &= good
        parts.append(f"s={s}: {res.estimate:.6f} vs {closed:.6f}")
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 60, "; ".join(parts) + f", {elapsed:.1f}s")


def test_ac03_divergence_gap_grows_with_n():
    t0 = time.perf_counter()
    gaps = []
    for k, n in enumerate((2**8, 2**10, 2**12, 2**14)):
        f = round(0.1 * n)
        ci = GossipConfig(n=n, f=f, s=1.0, source=0)
        cj = GossipConfig(n=n, f=f, s=1.0, source=1)
        gaps.append(
            estimate_dp_gap(
                ci, cj, [EventSpec.sender_rank_le(0, 10)], 4 * 10**4, spawn_stream(SEED, 300 + k)
            )
        )
    increasing = all(a < b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - t0
    report(
        3,
        increasing and elapsed < 300,
        f"gaps={['%.4f' % g for g in gaps]} strictly increasing={increasing}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def spreading_fits():
    sizes = [2**k for k in range(10, 17)]
    medians = {}
    for j, s in enumerate((0.1, 0.5, 1.0)):
        meds = []
        for i, n in enumerate(sizes):
            cfg = GossipConfig(n=n, f=round(0.1 * n), s=s)
            sp = estimate_spreading(cfg, 50, spawn_stream(SEED, 400 + 10 * j + i))
            meds.append(float(np.median(sp.completion_rounds)))
        medians[s] = meds
    return sizes, medians


def test_ac04_log_spreading_shape(spreading_fits):
    t0 = time.perf_counter()
    sizes, medians = spreading_fits
    x = np.log(sizes)
    parts = []
    ok = True
    for s, meds in medians.items():
        a, b = np.polyfit(x, meds, 1)
        pred = a * x + b
        r2 = 1 - np.sum((meds - pred) ** 2) / np.sum((meds - np.mean(meds)) ** 2)
        ok &= r2 >= 0.95
        parts.append(f"s={s}: R2={r2:.3f}")
    ratio = medians[0.1][-1] / medians[1.0][-1]
    ok &= 2.0 <= ratio <= 20.0
    elapsed = time.perf_counter() - t0
    report(4, ok, "; ".join(parts) + f"; round ratio s=0.1/s=1 at 2^16 = {ratio:.2f}, {elapsed:.1f}s")


def test_ac05_plateau_matches_mean_dynamics():
    n = 2**16
    parts = []
    ok = True
    for j, s in enumerate((0.1, 0.5, 1.0)):
        cfg = GossipConfig(n=n, f=round(0.1 * n), s=s)
        sp = estimate_spreading(cfg, 10, spawn_stream(SEED, 500 + j))
        target = mean_fixed_point(s, n)
        rel = abs(sp.plateau_median - target) / target
        ok &= rel <= 0.20
        parts.append(f"s={s}: plateau={sp.plateau_median:.4f} vs alpha*={target:.4f} ({rel:.1%})")
    report(5, ok, "; ".join(parts))


def test_ac06_coupon_collector_messages():
    n = 2**10
    cfg = GossipConfig(n=n, f=round(0.1 * n), s=0.0)
    sp = estimate_spreading(cfg, 100, spawn_stream(SEED, 600))
    median = float(np.median(sp.total_messages))
    target = n * math.log(n)
    rel = abs(median - target) / target
    report(6, rel <= 0.15, f"median messages={median:.0f} vs n ln n={target:.0f} ({rel:.1%})")


def test_ac07_map_attack_baselines():
    t0 = time.perf_counter()
    n, f, trials = 2**10, round(0.1 * 2**10), 15000
    p0 = estimate_attack_precision(
        GossipConfig(n=n, f=f, s=0.0), MapAttackSpec(), trials, spawn_stream(SEED, 700)
    ).precision
    p1 = estimate_attack_precision(
        GossipConfig(n=n, f=f, s=1.0), MapAttackSpec(), trials, spawn_stream(SEED, 701)
    ).precision
    p1_small = estimate_attack_precision(
        GossipConfig(n=n, f=f, s=1.0), MapAttackSpec(prior_size=10), trials, spawn_stream(SEED, 702)
    ).precision
    base = (f + 1) / n
    ok = (
        abs(p0.estimate - base) <= 3 * p0.ci_half_width
        and p1.estimate > p0.estimate
        and p1_small.estimate > p1.estimate
    )
    elapsed = time.perf_counter() - t0
    report(
        7,
        ok,
        f"s=0 full prior {p0.estimate:.4f} (target {base:.4f}); s=1 full {p1.estimate:.4f}; "
        f"s=1 |prior|=10 {p1_small.estimate:.4f}, {elapsed:.1f}s",
    )


def test_ac08_multi_rumor_composition():
    t0 = time.perf_counter()
    n, f, trials = 2**12, round(0.1 * 2**12), 2000
    hi = estimate_attack_precision(
        GossipConfig(n=n, f=f, s=1.0), MultiRumorAttackSpec(rumors=10), trials, spawn_stream(SEED, 800)
    ).precision
    lo = estimate_attack_precision(
        GossipConfig(n=n, f=f, s=0.05), MultiRumorAttackSpec(rumors=10), trials, spawn_stream(SEED, 801)
    ).precision
    ok = hi.estimate >= 0.9 and lo.estimate <= 0.5
    elapsed = time.perf_counter() - t0
    report(8, ok, f"s=1 precision={hi.estimate:.4f} (>=0.9); s=0.05 precision={lo.estimate:.4f} (<=0.5), {elapsed:.1f}s")


def test_ac09_delayed_start_weakness():
    # The monotonicity and muting-baseline arms hold; at these sizes the
    # non-abstaining precision against delayed start sits near 0.15 for a
    # 10% curious fraction rather than above 0.9: within an untimed
    # observed-entry window, ordinary early senders also frequently stay
    # silent, so the first-sender silence signal stays weak until n is far
    # larger.  The threshold is asserted as specified and currently fails.
    t0 = time.perf_counter()
    precs = []
    for idx, n in enumerate((2**8, 2**10, 2**12)):
        f = round(0.1 * n)
        cfg = GossipConfig(n=n, f=f, s=1.0, variant="delayed_start")
        res = estimate_attack_precision(cfg, SilenceAttackSpec(), 20000, spawn_stream(SEED, 900 + idx))
        precs.append(res.precision_given_prediction.estimate)
    increasing = all(a < b for a, b in zip(precs, precs[1:]))
    strong_at_top = precs[-1] > 0.9

    n, f = 2**10, round(0.1 * 2**10)
    base = estimate_attack_precision(
        GossipConfig(n=n, f=f, s=0.0), SilenceAttackSpec(), 20000, spawn_stream(SEED, 910)
    )
    base_prec = base.precision_given_prediction.estimate
    baseline_ok = base_prec <= 2 * (f + 1) / n
    elapsed = time.perf_counter() - t0
    report(
        9,
        increasing and strong_at_top and baseline_ok,
        f"delayed-start precision {['%.4f' % p for p in precs]} (monotone={increasing}, "
        f">0.9 at 2^12={strong_at_top}); s=0 precision {base_prec:.4f} <= {2*(f+1)/n:.4f}: "
        f"{baseline_ok}, {elapsed:.1f}s",
    )


def test_ac10_closed_form_suite(tmp_path):
    tol = 1e-12
    checks = []
    for f, n in [(1, 4), (10, 100), (100, 1000), (409, 4096)]:
        checks.append(optimal_delta(math.log(f + 1), f, n) <= tol)
        checks.append(abs(param_delta_exact(0.0, f, n) - f / n) <= tol)
        checks.append(param_c(1.0, f, n) == 0.0)
        checks.append(abs(strong_adversary_bounds(f, n).delta - f / n) <= tol)
    n = 1000
    for s in np.linspace(0.0, 1.0, 20):
        for fv in np.linspace(0.02, 0.9, 20):
            f = int(fv * n)
            for r in (1, 2, 4):
                checks.append(param_delta_bound(s, f, n, r) >= param_delta_exact(s, f, n) - tol)

    out = tmp_path / "bounds"
    status = cli_main(
        ["bounds", "--out", str(out), "--seed", str(SEED), "n=1000", "f_over_n=0.1", "s=0.1"]
    )
    rows = {r.split(",")[0]: r.split(",") for r in (out / "bounds.csv").read_text().splitlines()[1:]}
    checks.append(status == 0)
    checks.append(abs(float(rows["standard_push"][5]) - 1.0) <= tol)
    checks.append(abs(float(rows["muting_after_send"][5]) - 0.1) <= tol)
    checks.append(abs(float(rows["muting_after_send"][6]) - optimal_c(100, 1000)) <= 1e-9)
    checks.append(abs(float(rows["parameterized"][5]) - (0.1 + 0.9 * 0.1)) <= tol)
    report(10, all(checks), f"{sum(checks)}/{len(checks)} closed-form identities at 1e-12")


def test_ac11_map_estimator_optimality_oracle():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (4, 5):
        post = exact_observation_posteriors(n, 0, max_len=4)
        violations = map_optimality_violations(post)
        mass = sum(post[obs][0] for obs in post)
        ok &= not violations
        details.append(f"n={n}: {len(post)} sequences, mass={float(mass):.3f}, violations={len(violations)}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    report(11, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_ac12_rerun_reproducibility(tmp_path):
    specs = [
        {
            "name": ("rep-validate", None),
            "kind": ("validate", None),
            "n": ("512", None),
            "s": ("0", None),
            "quantity": ("first_sender_source, strong_first_disclosure", None),
            "trials": ("20000", None),
            "master_seed": (str(SEED), None),
        },
        {
            "name": ("rep-spread", None),
            "kind": ("spread", None),
            "n": ("512", None),
            "s": ("0.5", None),
            "trials": ("20", None),
            "master_seed": (str(SEED), None),
        },
        {
            "name": ("rep-attack", None),
            "kind": ("attack", None),
            "attack": ("map", None),
            "n": ("256", None),
            "s": ("1", None),
            "trials": ("2000", None),
            "master_seed": (str(SEED), None),
        },
    ]
    identical = True
    for i, items in enumerate(specs):
        spec = build_spec(items)
        run_experiment(spec, tmp_path / f"a{i}")
        run_experiment(spec, tmp_path / f"b{i}", jobs=2)
        fname = {"validate": "validate.csv", "spread": "spread.csv", "attack": "attack.csv"}[spec.kind]
        identical &= (tmp_path / f"a{i}" / fname).read_bytes() == (tmp_path / f"b{i}" / fname).read_bytes()
        identical &= (tmp_path / f"a{i}" / "spec.cfg").read_bytes() == (
            tmp_path / f"b{i}" / "spec.cfg"
        ).read_bytes()
    report(12, identical, "validate/spread/attack CSVs byte-identical across reruns and worker counts")
