"""Correctness checks on the outputs the benchmark receives.

Attack and spread rows, and a statistic of the sequential engine's law, are
compared with a reference recorded from the seed commit by
`make_reference.py`, with a tolerance set by the sampling error of both
sides and corrected (Bonferroni) for the number of tests.  The tests are on
distributions, not bytes, so an engine that changes the draw order but not
the law of the process still passes.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

# Chance that a correct program fails a whole pass's checks of one kind.
FAMILY_ALPHA = 1e-5


@functools.lru_cache(maxsize=1)
def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def attack_key(preset: str, row: dict) -> str:
    return "|".join((preset, row["n"], row["s"], row["f"], row["param"]))


def _two_sample_z(k: int, n: int, k_ref: int, n_ref: int) -> float | None:
    """z of the difference between two binomial shares, with the pooled
    variance p(1-p)(1/n + 1/n_ref); None when the pooled share is 0 or 1."""
    p = (k + k_ref) / (n + n_ref)
    if p <= 0.0 or p >= 1.0:
        return None
    return (k / n - k_ref / n_ref) / math.sqrt(p * (1.0 - p) * (1.0 / n + 1.0 / n_ref))


def _chi2_limit(alpha: float, df: int) -> float:
    """Upper alpha quantile of chi-square with df degrees of freedom
    (Wilson-Hilferty; slightly conservative at df=1)."""
    z = NormalDist().inv_cdf(1.0 - alpha)
    return df * (1.0 - 2.0 / (9 * df) + z * math.sqrt(2.0 / (9 * df))) ** 3


def attack_rows(preset: str, rows: list[dict]):
    """Yield (ok, detail) per row, then per column over the preset's rows.

    Each row's precision and abstention counts are compared with the
    reference's as a two-sample difference.  A shift too small to fail any
    one row still adds up over a preset: the sum of the rows' z^2 is tested
    against chi-square with one degree of freedom per row.  The family
    alpha is split (Bonferroni) over every row and preset test."""
    ref_all = load_reference()["attack"]
    presets = {k.split("|", 1)[0] for k in ref_all}
    alpha = FAMILY_ALPHA / (2 * len(ref_all) + 2 * len(presets))
    z_row = NormalDist().inv_cdf(1.0 - alpha / 2)
    zs: dict[str, list[float]] = {"precision": [], "abstained": []}
    for row in rows:
        key = attack_key(preset, row)
        ref = ref_all.get(key)
        if ref is None:
            yield False, f"no reference row for {key}"
            continue
        trials = int(row["trials"])
        got = {"precision": round(float(row["precision"]) * trials),
               "abstained": round(float(row["abstain_rate"]) * trials)}
        want = {"precision": ref["correct"], "abstained": ref["abstained"]}
        ok, parts = True, []
        for col, acc in zs.items():
            z = _two_sample_z(got[col], trials, want[col], ref["trials"])
            if z is not None:
                acc.append(z)
                ok = ok and abs(z) <= z_row
            parts.append(f"{col} {got[col]}/{trials} vs {want[col]}/{ref['trials']} "
                         f"(z={z if z is not None else 0.0:.2f})")
        yield ok, f"{key}: {', '.join(parts)}; |z| limit {z_row:.2f}"
    for col, z in zs.items():
        if z:
            stat, limit = sum(x * x for x in z), _chi2_limit(alpha, len(z))
            yield stat <= limit, (f"{preset} {col}: sum of z^2 {stat:.1f} over {len(z)} rows, "
                                  f"limit {limit:.1f}")


def echo_share(trace) -> float:
    """Share of steps whose sender is the previous step's receiver.  It falls
    as the active set grows, so it follows the stay probability s closely,
    while the trace length (a coupon collection over the receivers) does
    not depend on s at all."""
    if len(trace) < 2:
        return 0.0
    return float(np.mean(trace.senders[1:] == trace.receivers[:-1]))


def engine_law(tag: str, shares: list[float]) -> tuple[bool, str]:
    """Mean echo share of a case's runs against the reference's mean, within
    z standard errors of the difference, Bonferroni over the cases."""
    ref_all = load_reference()["law"]
    ref = ref_all[tag]
    z_lim = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * len(ref_all)))
    mean, sd = float(np.mean(shares)), float(np.std(shares, ddof=1))
    se = math.sqrt(sd * sd / len(shares) + ref["sd"] ** 2 / ref["runs"])
    z = (mean - ref["mean"]) / se
    return abs(z) <= z_lim, (f"{tag}: echo share {mean:.5f} over {len(shares)} runs vs "
                             f"{ref['mean']:.5f} over {ref['runs']} (z={z:.2f}, limit {z_lim:.2f})")


def spread_rows(preset: str, spec, rows: list[dict]):
    """Yield (ok, detail) per grid point.  At each reference round, and at
    every round past the reference's last, the medians of the informed and
    active fractions must lie within z standard errors of the reference
    median, the standard error of a median of T runs being 1.2533 sd /
    sqrt(T), plus two nodes' worth of slack for discreteness."""
    ref_all = load_reference()["spread"]
    z = NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * load_reference()["spread_rows"]))
    by_point: dict[tuple[str, str], list[dict]] = {}
    for r in rows:
        by_point.setdefault((r["n"], r["s"]), []).append(r)
    for point in spec.grid():
        key = f"{preset}|{point['n']}|{point['s']:.10g}"
        got = by_point.get((str(point["n"]), f"{point['s']:.10g}"), [])
        ref = ref_all.get(key)
        if ref is None or not got:
            yield False, f"{key}: {len(got)} rows, reference {'missing' if ref is None else 'present'}"
            continue
        # Reference rounds that the run reached, then the run's rounds past the
        # reference's last one, compared with the reference's final value.
        at = [(r, i) for i, r in enumerate(ref["rounds"]) if r < len(got)]
        at += [(r, len(ref["rounds"]) - 1) for r in range(ref["rounds"][-1] + 1, len(got))]
        rounds = np.array([r for r, _ in at])
        refi = np.array([i for _, i in at])
        scale = 1.2533 * math.sqrt(1.0 / spec.trials + 1.0 / ref["runs"])
        worst = 0.0
        ordered = [int(r["round"]) for r in got] == list(range(len(got)))
        for col in ("informed", "active"):
            med = np.array([float(r[f"{col}_med"]) for r in got])
            lo = np.array([float(r[f"{col}_p10"]) for r in got])
            hi = np.array([float(r[f"{col}_p90"]) for r in got])
            ordered = ordered and bool(np.all(lo <= med + 1e-12) and np.all(med <= hi + 1e-12))
            ref_med = np.array(ref[f"{col}_med"])[refi]
            ref_sd = np.array(ref[f"{col}_sd"])[refi]
            excess = np.abs(med[rounds] - ref_med) - (z * scale * ref_sd + 2.0 / point["n"])
            worst = max(worst, float(excess.max()))
        yield worst <= 0.0 and ordered, (
            f"{key}: worst excess {worst:.3g} over {len(at)} rounds, quantiles ordered: {ordered}")


def bounds_rows(rows: list[dict]) -> tuple[bool, str]:
    ref = load_reference()["bounds"]
    if len(rows) != len(ref):
        return False, f"{len(rows)} rows, reference has {len(ref)}"
    for got, want in zip(rows, ref):
        for k, v in want.items():
            g = got.get(k)
            try:
                same = math.isclose(float(g), float(v), rel_tol=1e-9, abs_tol=1e-12)
            except (TypeError, ValueError):
                same = g == v
            if not same:
                return False, f"bounds row {want['regime']}: {k}={g}, reference {v}"
    return True, ""


# ---------------------------------------------------------------------------
# Library outputs, each recomputed independently of the package.


def views_match(trace, obs, timed) -> tuple[bool, str]:
    mask = trace.receivers >= trace.config.n - trace.config.f
    ok = (
        np.array_equal(obs.senders, trace.senders[mask])
        and np.array_equal(obs.receivers, trace.receivers[mask])
        and np.array_equal(timed.times, np.flatnonzero(mask))
        and np.array_equal(timed.senders, obs.senders)
    )
    return ok, f"view of {len(trace)} events"


def map_outcome(obs, prior, out) -> tuple[bool, str]:
    members = set(prior)
    first = next((x for x in obs.senders.tolist() if x in members), None)
    ok = out.predicted == first if first is not None else out.predicted in members
    return ok, f"predicted {out.predicted}, first prior member {first}"


def silence_outcome(obs, r, out) -> tuple[bool, str]:
    s = obs.senders.tolist()
    expect = None if not s or s[0] in s[1 : r + 1] else s[0]
    return out.predicted == expect, f"predicted {out.predicted}, expected {expect}"


def multi_rumor_outcome(views, k, out) -> tuple[bool, str]:
    counts: dict[int, int] = {}
    for obs in views:
        leads = list(dict.fromkeys(obs.senders.tolist()))[:k]
        for x in leads:
            counts[x] = counts.get(x, 0) + 1
    if not counts:
        return out.predicted is None, "no leads"
    top = max(counts.values())
    return counts.get(out.predicted, -1) == top, f"predicted {out.predicted}, top count {top}"


def sync_consistent(cfg, trace, rounds) -> tuple[bool, str]:
    ok = (
        int(rounds.messages.sum()) == len(trace)
        and (not trace.complete or int(rounds.informed[-1]) == cfg.n)
        and int(rounds.informed.max()) <= cfg.n
    )
    return ok, f"{len(rounds)} rounds, {len(trace)} messages"
