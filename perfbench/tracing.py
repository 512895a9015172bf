"""Spans recorded from outside the package, and the per-layer metrics derived
from them.

A span is recorded by wrapping a public function: either at the call site in
the benchmark's own code, or by replacing the module attribute through which
`experiments` (or `estimators`) calls it.  Spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and nested, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import asdict, dataclass, field

from mutegossip import estimators, experiments


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    workload: str
    info: dict = field(default_factory=dict)  # tag, work, capped, abstained

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Untraced passes call the functions themselves."""

    def wrap(self, name, fn, describe=None):
        return fn


NULL_TRACER = NullTracer()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.workload = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, describe=None):
        """Return `fn` recording one span per call.  `describe(args, kwargs,
        result)` returns the span's info: tag, work done, capped, abstained."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.workload)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def span_cost_s(calls: int = 20000, batches: int = 7) -> float:
    """Median extra time of one traced call over the plain call, measured on
    a throwaway tracer.  Times the span count, it is the tracing overhead:
    differencing a traced and an untraced pass instead would mostly measure
    the machine's drift between the two passes."""
    probe = Tracer()

    def noop(x):
        return x

    traced = probe.wrap("probe", noop, lambda a, kw, r: {"work": 1})
    costs = []
    for _ in range(batches):
        probe.spans.clear()
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def cfg_tag(cfg) -> str:
    """n4096.s01, n65536.delayed, ... for a GossipConfig."""
    if cfg.variant == "delayed_start":
        return f"n{cfg.n}.delayed"
    return f"n{cfg.n}.s" + f"{cfg.s:g}".replace(".", "")


def _s_tag(cfg) -> str:
    return cfg_tag(cfg).split(".", 1)[1]


def _attack_info(a, kw, r):
    cfg, attack, trials = a[0], a[1], a[2]
    if isinstance(attack, estimators.MapAttackSpec):
        size = attack.prior_size
        tag, work = f"map.prior{'_all' if size is None else size}", trials
    elif isinstance(attack, estimators.SilenceAttackSpec):
        tag, work = "silence." + ("delayed" if cfg.variant == "delayed_start" else _s_tag(cfg)), trials
    else:
        tag, work = "multi_rumor", trials * attack.rumors
    return {"tag": tag, "work": work, "trials": trials,
            "capped": r.precision.incomplete, "abstained": r.n_abstained}


def _event_info(a, kw, r):
    cfg, event, trials = a[0], a[1], a[2]
    tag = "timed" if event.timed else _s_tag(cfg)
    return {"tag": tag, "work": trials, "capped": r.incomplete}


def _spreading_info(a, kw, r):
    return {"tag": _s_tag(a[0]), "work": a[1], "capped": r.n_capped}


def sync_info(a, kw, r):
    return {"tag": cfg_tag(a[0]), "work": len(r[1]), "capped": int(not r[0].complete)}


def trace_info(a, kw, r):
    return {"tag": cfg_tag(a[0]), "work": len(r), "capped": int(not r.complete)}


_BOUNDS_CALLED_BY_EXPERIMENTS = (
    "optimal_c", "optimal_delta", "param_c", "param_delta_bound",
    "source_disclosure_prob", "spreading_round_bound",
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Record spans for the functions `experiments` and `estimators` call by
    module attribute; restore the originals on exit."""
    targets = [
        (experiments, "estimate_attack_precision", "estimators.estimate_attack_precision", _attack_info),
        (experiments, "estimate_event", "estimators.estimate_event", _event_info),
        (experiments, "estimate_source_disclosure", "estimators.estimate_source_disclosure",
         lambda a, kw, r: {"work": a[3]}),
        (experiments, "estimate_spreading", "estimators.estimate_spreading", _spreading_info),
        (experiments, "run_trace", "protocols.run_trace", trace_info),
        (estimators, "run_sync", "protocols.run_sync", sync_info),
    ]
    targets += [(experiments, f, f"bounds.{f}", None) for f in _BOUNDS_CALLED_BY_EXPERIMENTS]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
    try:
        for mod, attr, name, describe in targets:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), describe))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics

def layer_metrics(tracer: Tracer, walls: dict, csv_bytes: int, span_cost: float) -> dict:
    """Per-layer metrics from the spans of the traced passes.

    `walls[(workload, "untraced")]` holds the untraced pass's wall time at
    the workload's own jobs; `span_cost` is `span_cost_s()`.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    m: dict[str, tuple[float, str]] = {}

    def pick(name, tag=None, workload=None):
        return [
            i for i, s in enumerate(spans)
            if s.name == name
            and (tag is None or s.info.get("tag") == tag)
            and (workload is None or s.workload == workload)
        ]

    def per_work(idx, scale, own=True):
        t = sum(selfs[i] if own else spans[i].duration for i in idx)
        w = sum(spans[i].info.get("work", 1) for i in idx)
        return t / w * scale if w else float("nan")

    def rate(idx):
        t = sum(selfs[i] for i in idx)
        w = sum(spans[i].info.get("work", 0) for i in idx)
        return w / t if t else float("nan")

    m["core.validate.ns_per_event"] = (per_work(pick("core.ExecutionTrace.validate"), 1e9), "ns")
    for n in (4096, 65536):
        for v in ("s0", "s01", "s1", "delayed"):
            idx = pick("protocols.run_trace", f"n{n}.{v}", "replay_verify")
            m[f"protocols.run_trace.steps_per_s.n{n}.{v}"] = (rate(idx), "1/s")
    for n in (1024, 65536):
        for v in ("s0", "s01", "s1"):
            idx = pick("protocols.run_sync", f"n{n}.{v}", "replay_verify")
            m[f"protocols.run_sync.us_per_round.n{n}.{v}"] = (per_work(idx, 1e6), "us")
    m["protocols.run_sync.rounds"] = (
        sum(spans[i].info["work"] for i in pick("protocols.run_sync")), "count")

    m["adversary.observe.ns_per_event"] = (per_work(pick("adversary.observe"), 1e9), "ns")
    m["adversary.observe_timed.ns_per_event"] = (per_work(pick("adversary.observe_timed"), 1e9), "ns")
    for a in ("map_attack", "silence_attack", "multi_rumor_attack"):
        idx = pick(f"adversary.{a}")
        m[f"adversary.{a}.us_per_call"] = (sum(selfs[i] for i in idx) / max(1, len(idx)) * 1e6, "us")

    attack = "estimators.estimate_attack_precision"
    for p in ("prior_all", "prior10", "prior100"):
        m[f"estimators.map.us_per_trial.{p}"] = (per_work(pick(attack, f"map.{p}"), 1e6), "us")
    for v in ("delayed", "s0"):
        m[f"estimators.silence.us_per_trial.{v}"] = (per_work(pick(attack, f"silence.{v}"), 1e6), "us")
    m["estimators.multi_rumor.us_per_run"] = (per_work(pick(attack, "multi_rumor"), 1e6), "us")
    m["estimators.events_s0.ns_per_trial"] = (
        per_work(pick("estimators.estimate_event", "s0"), 1e9), "ns")
    m["estimators.source_disclosure.ns_per_trial"] = (
        per_work(pick("estimators.estimate_source_disclosure"), 1e9), "ns")
    spreading = pick("estimators.estimate_spreading")
    for v in ("s0", "s01", "s1"):
        idx = pick("estimators.estimate_spreading", v)
        m[f"estimators.spreading.ms_per_run.{v}"] = (per_work(idx, 1e3, own=False), "ms")
    total = sum(spans[i].duration for i in spreading)
    m["estimators.spreading.self_share"] = (
        sum(selfs[i] for i in spreading) / total if total else float("nan"), "share")
    estimator_idx = [i for i, s in enumerate(spans) if s.name.startswith("estimators.")]
    m["estimators.capped_runs"] = (sum(spans[i].info.get("capped", 0) for i in estimator_idx), "count")
    attacks = pick(attack)
    trials = sum(spans[i].info["trials"] for i in attacks)
    m["estimators.abstain_share"] = (
        sum(spans[i].info["abstained"] for i in attacks) / trials if trials else float("nan"), "share")

    bound_idx = [i for i, s in enumerate(spans) if s.name.startswith("bounds.")]
    m["bounds.us_per_call"] = (
        sum(selfs[i] for i in bound_idx) / max(1, len(bound_idx)) * 1e6, "us")
    for v in ("s0", "s1"):
        idx = pick("exact.exact_observation_posteriors", v)
        m[f"exact.posteriors_s.{v}"] = (sum(spans[i].duration for i in idx), "s")
    m["exact.violations"] = (
        sum(spans[i].info["work"] for i in pick("exact.map_optimality_violations")), "count")

    for w in ("attack_grid", "spread_grid", "replay_verify"):
        idx = pick("experiments.run_experiment", workload=w)
        m[f"experiments.self_s.{w}"] = (sum(selfs[i] for i in idx), "s")
    m["experiments.csv_bytes"] = (csv_bytes, "count")
    busy = sum(spans[i].duration for i in pick("estimators.estimate_spreading", workload="spread_grid"))
    m["experiments.pool_idle_share"] = (1.0 - busy / (2.0 * walls[("spread_grid", "untraced")]), "share")
    for w in ("attack_grid", "spread_grid", "replay_verify"):
        m[f"trace.overhead_s.{w}"] = (sum(s.workload == w for s in spans) * span_cost, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

