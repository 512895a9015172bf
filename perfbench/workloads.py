"""The three benchmark workloads and their set-up.

Each workload is a fixed "pass" of work derived from the committed
presets.  Only `trials` (scaled down so that several passes fit in one
run), `master_seed` (derived from the benchmark seed) and, for the trace
preset, `n` are overridden.  A pass returns the wall time of each of its
segments (one preset, one library case), the exact counts that must repeat
under one seed, digests of its CSVs and the outcome of every correctness
check, so that repeated passes can be compared.

Why these workloads (recorded in BENCHMARK.json too):

* attack_grid   early-stopped sequential engine and per-trial estimator
                closures; run_sync does nothing here.
* spread_grid   run_sync and estimate_spreading through the process pool
                (jobs=2); the sequential engine does nothing here.  coupon_desk
                is bound by per-round overhead, spread_scaling_desk by array
                work.
* replay_verify full traces (the write path), trace validation, the
                adversary, exact oracle, bounds and the validate presets.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mutegossip import adversary, core, exact, experiments, protocols
from mutegossip.core import ExecutionTrace, GossipConfig, RoundTrace

import checks
from tracing import NULL_TRACER, cfg_tag, sync_info, trace_info

# (preset, trials divisor, extra overrides).  The divisors size one pass at
# 5-8 s on a 2-core machine: enough trials that the work varies little from
# seed to seed, few enough that a 30 s run times three or more passes.  They
# are part of the workload definition.
WORKLOADS = {
    "attack_grid": {
        "jobs": 1,
        "presets": (
            ("attack_prior_desk", 10, {}),
            ("attack_silence_desk", 10, {}),
            ("attack_silence_muting_desk", 10, {}),
            ("attack_rumors_desk", 10, {}),
        ),
    },
    "spread_grid": {
        "jobs": 2,
        "presets": (
            ("coupon_desk", 4, {}),
            ("spread_desk", 1, {}),
            ("spread_scaling_desk", 4, {}),
        ),
    },
    "replay_verify": {
        "jobs": 1,
        "presets": (
            ("validate_s0_desk", 1, {}),
            ("validate_eventf_desk", 1, {}),
            ("bounds_table", 1, {}),
            ("trace_demo", 1, {"n": (16384,)}),
        ),
    },
}

# replay_verify's direct library calls.
TRACE_CASES = tuple(
    (n, s, variant)
    for n in (4096, 65536)
    for s, variant in ((0.0, "parameterized"), (0.1, "parameterized"),
                       (1.0, "parameterized"), (1.0, "delayed_start"))
)
SYNC_CASES = tuple((n, s) for n in (1024, 65536) for s in (0.0, 0.1, 1.0))
SYNC_S0_CAP = 8192  # n=65536 at s=0 sends one message per round; cap the rounds
MAP_PRIOR_SIZE = 10
MULTI_RUMOR_K = 10
EXACT_N = 5
EXACT_MAX_LEN = 3
# The law check of the sequential engine: many small full traces per case,
# checked (untimed) in every replay_verify pass.
LAW_N = 64
LAW_CASES = ((0.1, "parameterized"), (0.5, "parameterized"),
             (1.0, "parameterized"), (1.0, "delayed_start"))
LAW_RUNS = 400


def preset_seed(seed: int, index: int) -> int:
    """Master seed of the index-th preset of a workload for benchmark seed `seed`."""
    return (seed << 8) | index


@dataclass
class Setup:
    workload: str
    seed: int
    jobs: int
    specs: list  # (preset name, ExperimentSpec)
    out: Path


def setup(workload: str, seed: int, root: Path, out: Path) -> Setup:
    """Parse the workload's presets, apply the overrides and make the output
    directory.  Fails if a preset no longer matches the recorded one, since
    the benchmark would then measure different work."""
    known = checks.load_reference()["presets"]
    specs = []
    for i, (name, divisor, extra) in enumerate(WORKLOADS[workload]["presets"]):
        spec = experiments.parse_spec(root / "presets" / f"{name}.cfg")
        digest = hashlib.sha256(spec.frozen_text().encode()).hexdigest()
        if digest != known[name]:
            raise SystemExit(f"preset {name} differs from the one the benchmark was defined on")
        spec = dataclasses.replace(
            spec, trials=max(1, spec.trials // divisor), master_seed=preset_seed(seed, i), **extra
        )
        specs.append((name, spec))
    out.mkdir(parents=True, exist_ok=True)
    return Setup(workload, seed, WORKLOADS[workload]["jobs"], specs, out)


# calibrate() on the machine the benchmark was defined on (2-core Xeon VM,
# Python 3.11.7, numpy 2.4.6) in its faster state.  Times are reported at
# this speed: time * CAL_REF_S / calibrate() measured alongside.
CAL_REF_S = 0.025


_CAL_KEYS = np.random.default_rng(0).integers(0, 1 << 20, size=100_000)
_CAL_BUF = np.empty_like(_CAL_KEYS)


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter work (list and bytearray
    indexing, as in the sequential engine) and numpy work (sort, bincount,
    as in the vectorized paths), in preallocated memory so that the
    allocator's state does not enter: 20-30 ms on that machine."""
    t0 = time.perf_counter()
    xs = list(range(256))
    flags = bytearray(256)
    acc = 0
    for i in range(125_000):
        j = xs[(i * 7) & 255]
        flags[j] ^= 1
        acc += j
    for _ in range(4):
        np.copyto(_CAL_BUF, _CAL_KEYS)
        _CAL_BUF.sort()
        np.bitwise_and(_CAL_BUF, 4095, out=_CAL_BUF)
        np.bincount(_CAL_BUF, minlength=4096)
    return time.perf_counter() - t0


def law_config(s: float, variant: str) -> GossipConfig:
    return GossipConfig(n=LAW_N, f=LAW_N // 10, s=s, variant=variant)


@dataclass
class PassResult:
    # Wall time of each segment of the pass (one preset, one library case),
    # and the mean of calibrate() run just before and just after it.
    segments: dict = field(default_factory=dict)
    calibrations: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, ok, detail)

    @property
    def wall_s(self) -> float:
        return sum(self.segments.values())

    def calibrated_s(self) -> float:
        """Wall time at the reference speed, segment by segment."""
        return sum(t * CAL_REF_S / self.calibrations[k] for k, t in self.segments.items())

    @contextlib.contextmanager
    def segment(self, name: str):
        before = calibrate()
        t0 = time.perf_counter()
        yield
        self.segments[name] = time.perf_counter() - t0
        self.calibrations[name] = (before + calibrate()) / 2

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)


def _run_presets(st: Setup, jobs: int, tracer, res: PassResult) -> None:
    """Run every preset of the workload through run_experiment."""
    run_experiment = tracer.wrap("experiments.run_experiment", experiments.run_experiment,
                                 lambda a, kw, r: {"tag": a[0].name})
    for name, spec in st.specs:
        with res.segment(name):
            status = run_experiment(spec, st.out / name, jobs=jobs)
        res.check(f"{name}.status", status == 0, f"run_experiment returned {status}")


def _read_outputs(st: Setup, res: PassResult) -> dict:
    """{preset: (spec, CSV rows)}; records CSV bytes and digests.  A trace
    CSV is read as an int64 array (header, then step,sender,receiver rows),
    so that reading it costs little memory next to the run that wrote it."""
    out = {}
    for name, spec in st.specs:
        data = (st.out / name / f"{spec.kind}.csv").read_bytes()
        res.add("csv_bytes", len(data))
        res.digests[name] = hashlib.sha256(data).hexdigest()
        if spec.kind == "trace":
            header, _, body = data.partition(b"\n")
            res.check(f"{name}.header", header == b"step,sender,receiver", header.decode())
            rows = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64, ndmin=2)
        else:
            rows = list(csv.DictReader(io.StringIO(data.decode())))
        out[name] = (spec, rows)
    return out


def attack_pass(st: Setup, jobs: int, tracer=NULL_TRACER) -> PassResult:
    res = PassResult()
    _run_presets(st, jobs, tracer, res)
    for name, (spec, rows) in _read_outputs(st, res).items():
        points = spec.grid()
        res.check(f"{name}.rows", len(rows) == len(points), f"{len(rows)} rows, {len(points)} points")
        for point, row in zip(points, rows):
            trials = int(row["trials"])
            rumors = point.get("rumors", 1)
            res.add("runs", trials * rumors)
            res.add("abstained", round(float(row["abstain_rate"]) * trials))
        for ok, detail in checks.attack_rows(name, rows):
            res.check(f"{name}.rows", ok, detail)
    return res


def spread_pass(st: Setup, jobs: int, tracer=NULL_TRACER) -> PassResult:
    res = PassResult()
    _run_presets(st, jobs, tracer, res)
    for name, (spec, rows) in _read_outputs(st, res).items():
        res.add("runs", spec.trials * len(spec.grid()))
        res.add("csv_rows", len(rows))
        for ok, detail in checks.spread_rows(name, spec, rows):
            res.check(f"{name}.point", ok, detail)
    return res


def replay_pass(st: Setup, jobs: int, tracer=NULL_TRACER) -> PassResult:
    """Library path: full traces and their verification layers, then the
    validate/bounds/trace presets and the exact oracle."""
    T = tracer

    def view_info(a, kw, r):
        return {"tag": cfg_tag(a[0].config), "work": len(a[0])}

    def outcome_info(a, kw, r):
        return {"abstained": int(r.abstained)}

    run_trace = T.wrap("protocols.run_trace", protocols.run_trace, trace_info)
    run_sync = T.wrap("protocols.run_sync", protocols.run_sync, sync_info)
    validate = T.wrap("core.ExecutionTrace.validate", ExecutionTrace.validate, view_info)
    validate_rounds = T.wrap("core.RoundTrace.validate", RoundTrace.validate,
                             lambda a, kw, r: {"work": len(a[0])})
    observe = T.wrap("adversary.observe", adversary.observe, view_info)
    observe_timed = T.wrap("adversary.observe_timed", adversary.observe_timed, view_info)
    map_attack = T.wrap("adversary.map_attack", adversary.map_attack, outcome_info)
    silence_attack = T.wrap("adversary.silence_attack", adversary.silence_attack, outcome_info)
    multi_rumor_attack = T.wrap("adversary.multi_rumor_attack", adversary.multi_rumor_attack,
                                outcome_info)
    posteriors = T.wrap("exact.exact_observation_posteriors", exact.exact_observation_posteriors,
                        lambda a, kw, r: {"tag": f"s{a[1]:g}", "work": len(r)})
    violations = T.wrap("exact.map_optimality_violations", exact.map_optimality_violations,
                        lambda a, kw, r: {"work": len(r)})

    res = PassResult()
    stream_seed = preset_seed(st.seed, 255)

    views: dict[int, list] = {}
    for i, (n, s, variant) in enumerate(TRACE_CASES):
        cfg = GossipConfig(n=n, f=n // 10, s=s, variant=variant)
        with res.segment(f"trace.{cfg_tag(cfg)}"):
            rng = core.spawn_stream(stream_seed, i)
            trace = run_trace(cfg, rng)
            res.add("runs", 1)
            res.add("sends", len(trace))
            res.add("capped", not trace.complete)
            res.check("trace.validate", *_raises_not(validate, trace))
            obs = observe(trace)
            timed = observe_timed(trace)
            res.check("observe", *checks.views_match(trace, obs, timed))
            views.setdefault(n, []).append(obs)

            prior = _sample_prior(cfg, rng)
            out = map_attack(obs, prior, rng, true_source=cfg.source)
            res.check("map_attack", *checks.map_outcome(obs, prior, out))
            r = adversary.silence_window(n)
            out = silence_attack(obs, r, true_source=cfg.source)
            res.add("abstained", out.abstained)
            res.check("silence_attack", *checks.silence_outcome(obs, r, out))

    with res.segment("multi_rumor"):
        for n, obs_list in views.items():
            rng = core.spawn_stream(stream_seed, 100 + n)
            out = multi_rumor_attack(obs_list, MULTI_RUMOR_K, rng, true_source=0)
            res.add("abstained", out.abstained)
            res.check("multi_rumor_attack",
                      *checks.multi_rumor_outcome(obs_list, MULTI_RUMOR_K, out))

    with res.segment("sync"):
        for i, (n, s) in enumerate(SYNC_CASES):
            cap = SYNC_S0_CAP if (n >= 65536 and s == 0.0) else None
            cfg = GossipConfig(n=n, f=n // 10, s=s, step_cap=cap)
            trace, rounds = run_sync(cfg, core.spawn_stream(stream_seed, 200 + i))
            res.add("runs", 1)
            res.add("sends", len(trace))
            res.add("rounds", len(rounds))
            res.add("capped", not trace.complete)
            res.check("round_trace.validate", *_raises_not(validate_rounds, rounds))
            res.check("sync.consistent", *checks.sync_consistent(cfg, trace, rounds))

    _run_presets(st, jobs, tracer, res)

    with res.segment("exact"):
        for s in (0, 1):
            post = posteriors(EXACT_N, s, EXACT_MAX_LEN)
            bad = violations(post)
            res.add("exact_observations", len(post))
            res.add("exact_violations", len(bad))
            res.check(f"exact.s{s}", len(bad) == 0, f"{len(bad)} MAP optimality violations")

    for name, (spec, rows) in _read_outputs(st, res).items():
        if spec.kind == "validate":
            bad = [r["quantity"] for r in rows if r["pass"] != "true"]
            res.check(f"{name}.pass", rows and not bad, f"failing rows: {bad}")
            # Rows other than event_f simulate early-stopped gossip runs;
            # event_f simulates only the source's opening streak.
            res.add("runs", sum(int(r["trials"]) for r in rows if r["quantity"] != "event_f"))
        elif spec.kind == "bounds":
            res.check(f"{name}.values", *checks.bounds_rows(rows))
        elif spec.kind == "trace":
            trace = ExecutionTrace(config=spec.config(spec.grid()[0]),
                                   senders=rows[:, 1].copy(), receivers=rows[:, 2].copy())
            res.check(f"{name}.steps", np.array_equal(rows[:, 0], np.arange(len(rows))),
                      "step column is 0, 1, 2, ...")
            res.add("runs", 1)
            res.add("sends", len(trace))
            res.check(f"{name}.validate", *_raises_not(validate, trace))

    # Untimed: the law of the sequential engine, which the full traces above
    # are too few to test.
    for i, (s, variant) in enumerate(LAW_CASES):
        cfg = law_config(s, variant)
        rng = core.spawn_stream(stream_seed, 300 + i)
        traces = [protocols.run_trace(cfg, rng) for _ in range(LAW_RUNS)]
        res.add("law_sends", sum(len(tr) for tr in traces))
        res.check(f"law.{cfg_tag(cfg)}",
                  *checks.engine_law(cfg_tag(cfg), [checks.echo_share(tr) for tr in traces]))
    return res


def _raises_not(fn, *args) -> tuple[bool, str]:
    try:
        fn(*args)
    except AssertionError as e:
        return False, str(e)
    return True, ""


def _sample_prior(cfg: GossipConfig, rng: np.random.Generator) -> list[int]:
    others = rng.choice(np.arange(1, cfg.curious_lo), size=MAP_PRIOR_SIZE - 1, replace=False)
    return [cfg.source] + [int(x) for x in others]


PASSES = {"attack_grid": attack_pass, "spread_grid": spread_pass, "replay_verify": replay_pass}
