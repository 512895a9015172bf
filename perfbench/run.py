"""mutegossip benchmark: end-to-end and per-layer performance of preset grids
and the library's trace path, with correctness checks on every output.

Run from the repository root:

    python3 perfbench/run.py --workload attack_grid --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36
    python3 perfbench/run.py --collect out.json --seeds 1-10 --seconds 36 [--traced-seeds 1]
    python3 perfbench/run.py --compare parent.json change.json

Workloads (see workloads.py for why each was chosen): attack_grid,
spread_grid, replay_verify.  A run with `--trace 0` sets up several times
(fresh processes, median reported as setup_s), then repeats the workload's
pass for `--seconds` and reports the median timed pass as wall_s.

wall_s is calibrated: before and after each segment of a pass (one preset,
one library step) the benchmark times a fixed loop, `workloads.calibrate()`,
and reports the segment's time t as t * CAL_REF_S / (the mean of the two).
On a shared 2-core VM (Xeon, Python 3.11) the speed of a fixed loop wanders
by 1.3-1.5x for tenths of seconds to minutes at a time, so raw pass times
of identical work spread by +-17% between runs.  The record keeps the raw
times and the calibrations.  setup_s is raw: process start-up and imports
did not follow the calibration loop.

Every pass of one run uses the same inputs, so its exact counts and CSV
digests must repeat; a difference is reported as nondeterminism.  A run
with `--trace 1` runs every workload untraced and then traced at jobs=1 and
reports the per-layer metrics of all of them, so that each traced run
carries every per-layer metric, plus the tracing overhead; spans are
written to .perfbench_out/spans-<seed>.json.  Per-layer times are raw.

`--collect` runs the given seeds in fresh processes and writes a result set
with a machine record; `--compare` prints each side's median and quartiles
per (workload, metric) and a verdict.  Seeds 1-25 and 101-105 were used
while the benchmark was written; seed 7919 is held out to confirm later
claims.

The last line of a workload run is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_BASE = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("attack_grid", "spread_grid", "replay_verify")
SETUP_PROBES = 7
HELD_OUT_SEED = 7919
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("runs_per_s", "1/s"), ("peak_rss_mb", "MB"),
)


def _import_package():
    """Put the checkout's own sources first on the path and import them."""
    if not (ROOT / "src" / "mutegossip" / "__init__.py").is_file():
        sys.exit(f"error: no mutegossip sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import mutegossip

    if Path(mutegossip.__file__).resolve().parent != ROOT / "src" / "mutegossip":
        sys.exit(f"error: imported mutegossip from {mutegossip.__file__}, not this checkout")


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine_record() -> dict:
    import numpy as np

    rec = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": "unknown",
        "caches": {},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": "unknown",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            rec["caches"][f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    try:
        rec["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return rec


# ---------------------------------------------------------------------------
# One workload run


def _setup_probe(workload: str, seed: int, out: Path) -> None:
    """Child process: set up exactly as a run does, then print the monotonic
    clock so the parent can time process start to the first layer call."""
    import workloads

    workloads.setup(workload, seed, ROOT, out)
    print(time.perf_counter())


def _measure_setup(workload: str, seed: int, out: Path) -> list[float]:
    times = []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--out", str(out / f"probe{i}")],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def _tally(passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over the checks of all passes, plus one
    determinism comparison per repeated pass."""
    attempted = failed = 0
    msgs = []
    for p in passes:
        for name, ok, detail in p.checks:
            attempted += 1
            if not ok:
                failed += 1
                msgs.append(f"FAILED {name}: {detail}")
    for i, p in enumerate(passes[1:], start=1):
        attempted += 1
        if p.counts != passes[0].counts or p.digests != passes[0].digests:
            failed += 1
            msgs.append(f"NONDETERMINISTIC pass {i}: counts {p.counts} vs {passes[0].counts}, "
                        f"digests equal: {p.digests == passes[0].digests}")
    return attempted, failed, msgs


def run_untraced(workload: str, seed: int, seconds: float, out: Path) -> dict:
    import workloads

    load_before = _loadavg()
    st = workloads.setup(workload, seed, ROOT, out / "work")
    run_pass = workloads.PASSES[workload]
    # The first pass warms the allocator and caches; it is checked but not timed.
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(st, st.jobs))
        elapsed = time.perf_counter() - t_start
        if len(passes) > 1 and elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            break
    timed = passes[1:]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup_times = _measure_setup(workload, seed, out)
    load_after = _loadavg()

    attempted, failed, msgs = _tally(passes)
    wall = statistics.median(p.calibrated_s() for p in timed)
    runs = passes[0].counts.get("runs", 0)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "runs_per_s": runs / wall,
        # Upper bound: each pool worker is charged the largest worker's peak.
        "peak_rss_mb": (self_kb + (st.jobs if st.jobs > 1 else 0) * worker_kb) / 1024.0,
    }
    record = {
        "workload": workload, "seed": seed, "trace": 0, "seconds": seconds,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "pass_walls": [p.wall_s for p in passes],
        "pass_calibrated": [p.calibrated_s() for p in passes],
        "segments": [p.segments for p in timed],
        "calibrations": [p.calibrations for p in timed],
        "setup_times": setup_times,
        "counts": passes[0].counts, "digests": passes[0].digests,
        "fail_share": failed / attempted, "messages": msgs[:20],
    }
    units = dict(END_TO_END)
    for m in msgs[:20]:
        print(m)
    print(f"{'workload':<14} {'metric':<12} {'value':>12}  unit")
    for k, v in metrics.items():
        print(f"{workload:<14} {k:<12} {v:>12.6g}  {units[k]}")
    print(f"{workload:<14} {'fail_share':<12} {failed / attempted:>12.6g}  share"
          f"  ({failed} of {attempted} outputs failed; {runs} runs per pass,"
          f" {len(timed)} timed passes after a warm-up; raw median pass"
          f" {statistics.median(p.wall_s for p in timed):.4g} s)")
    print("record: " + json.dumps(record))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_traced(seed: int, out: Path) -> dict:
    """Every workload untraced, then traced at jobs=1; per-layer metrics from
    the spans of the traced passes."""
    import tracing
    import workloads

    load_before = _loadavg()
    tracer = tracing.Tracer()
    walls: dict = {}
    passes = []
    csv_bytes = 0
    msgs = []
    for w in WORKLOAD_NAMES:
        st = workloads.setup(w, seed, ROOT, out / w)
        run_pass = workloads.PASSES[w]
        untraced = run_pass(st, st.jobs)
        walls[(w, "untraced")] = untraced.wall_s
        tracer.workload = w
        with tracing.patched(tracer):
            traced = run_pass(st, 1, tracer)
        walls[(w, "traced")] = traced.wall_s
        # Counts and CSV bytes must repeat, across jobs=2 and jobs=1 too (AC12).
        passes.append([untraced, traced])
        csv_bytes += traced.counts.get("csv_bytes", 0)

    attempted = failed = 0
    for group in passes:
        a, f, m = _tally(group)
        attempted, failed = attempted + a, failed + f
        msgs += m
    span_cost = tracing.span_cost_s()
    metrics = tracing.layer_metrics(tracer, walls, csv_bytes, span_cost)
    # A step-capped estimator run is an output attempted but not useful.
    attempted += 1
    if metrics["estimators.capped_runs"]["value"]:
        failed += 1
        msgs.append(f"CAPPED {metrics['estimators.capped_runs']['value']} estimator runs")
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    for name in declared:
        attempted += 1
        if not math.isfinite(metrics.get(name, {}).get("value", math.nan)):
            failed += 1
            msgs.append(f"MISSING per-layer metric {name}: no spans recorded")
    OUT_BASE.mkdir(exist_ok=True)
    (OUT_BASE / f"spans-{seed}.json").write_text(json.dumps(tracer.dump()))
    for m in msgs[:20]:
        print(m)
    for name, v in metrics.items():
        print(f"{name:<48} {v['value']:>14.6g}  {v['unit']}")
    record = {
        "workload": "all", "seed": seed, "trace": 1,
        "loadavg_before": load_before, "loadavg_after": _loadavg(),
        "walls": {f"{w}.{mode}": t for (w, mode), t in walls.items()},
        "spans": len(tracer.spans), "span_cost_s": span_cost, "messages": msgs[:20],
    }
    print("record: " + json.dumps(record))
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v["value"])}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Each workload in its own process; one table row per workload."""
    results = {}
    for w in WORKLOAD_NAMES:
        results[w] = _child_run(w, seed, seconds, 0)["result"]
    head = "".join(f"{k + ' [' + u + ']':>18}" for k, u in END_TO_END)
    print(f"\n{'workload':<14}{head}{'fail_share':>18}")
    for w, r in results.items():
        cells = "".join(f"{r['metrics'][k]['value']:>18.6g}" for k, _ in END_TO_END)
        print(f"{w:<14}{cells}{r['failed'] / r['attempted']:>18.6g}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def _child_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    record = next((json.loads(line[len("record: "):]) for line in lines
                   if line.startswith("record: ")), {})
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "record": record}


# ---------------------------------------------------------------------------
# Result sets


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def collect(path: Path, seeds: list[int], seconds: float, traced_seeds: list[int],
            label: str) -> dict:
    runs = []
    for seed in seeds:
        for w in WORKLOAD_NAMES:
            runs.append(_child_run(w, seed, seconds, 0))
            r = runs[-1]
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in r["result"]["metrics"].items()), flush=True)
    for seed in traced_seeds:
        runs.append(_child_run(WORKLOAD_NAMES[0], seed, seconds, 1))
        print(f"traced seed {seed}: {len(runs[-1]['result']['metrics'])} per-layer metrics",
              flush=True)
    result_set = {"label": label, "machine": machine_record(), "held_out_seed": HELD_OUT_SEED,
                  "seconds": seconds, "runs": runs}
    path.write_text(json.dumps(result_set, indent=1) + "\n")
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}


def _values(result_set: dict, workload: str, metric: str) -> dict[int, float]:
    out = {}
    for r in result_set["runs"]:
        m = r["result"]["metrics"].get(metric)
        if m is not None and (r["workload"] == workload or r["trace"] == 1 and workload == "traced"):
            out[r["seed"]] = m["value"]
    return out


def verdict(parent: dict[int, float], change: dict[int, float], better: str,
            bound: float | None) -> str:
    """improved / no-worse / worse / unresolved for one (workload, metric).

    Improved: the change wins at least nine tenths of the seed-paired runs
    (ties count for neither) and the medians differ by more than the
    parent's interquartile distance.  Otherwise the change is worse when its
    median is worse than the parent's by more than the bound, unresolved
    when the spread exceeds the bound (unless every change run beats every
    parent run), and no-worse otherwise.  The spread is that of the
    seed-paired ratios change/parent, which cancels work that depends on the
    seed; without common seeds, the larger of the two sides' spreads.
    """
    sign = 1.0 if better == "lower" else -1.0
    pv, cv = list(parent.values()), list(change.values())
    if len(pv) < 2 or len(cv) < 2:
        return "unresolved"
    # Runs pair by seed; result sets collected on different seeds pair in order.
    if parent.keys() & change.keys():
        pairs = [(parent[s], change[s]) for s in parent if s in change]
    else:
        pairs = list(zip(pv, cv))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_med, c_med = statistics.median(pv), statistics.median(cv)
    pq = statistics.quantiles(pv, n=4)
    cq = statistics.quantiles(cv, n=4)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) < 0 \
            and abs(c_med - p_med) > pq[2] - pq[0]:
        return "improved"
    if bound is None:
        return "-"
    all_better = all(sign * (c - p) < 0 for c in cv for p in pv)
    ratios = [change[s] / parent[s] for s in parent.keys() & change.keys() if parent[s]]
    if len(ratios) >= 2:
        rq = statistics.quantiles(ratios, n=4)
        spread = (rq[2] - rq[0]) / statistics.median(ratios)
    else:
        spread = max((pq[2] - pq[0]) / abs(p_med) if p_med else 0.0,
                     (cq[2] - cq[0]) / abs(c_med) if c_med else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return "worse" if worse_by > bound else "no-worse"


def compare(parent_path: Path, change_path: Path) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = json.loads(parent_path.read_text())
    change = json.loads(change_path.read_text())
    specs = [(m, "traced" if per_layer else None) for per_layer, group in
             ((False, bench["end_to_end"]), (True, bench["per_layer"])) for m in group]
    print(f"parent {parent_path} ({parent['machine']['commit'][:12]}), "
          f"change {change_path} ({change['machine']['commit'][:12]})")
    print(f"{'workload':<14} {'metric':<46} {'parent q1/med/q3':>32} {'change q1/med/q3':>32}  verdict")
    counts: dict[str, int] = {}
    for m, only in specs:
        for w in ([only] if only else WORKLOAD_NAMES):
            p, c = _values(parent, w, m["name"]), _values(change, w, m["name"])
            if not p or not c:
                continue
            v = verdict(p, c, m.get("better", "lower"), m.get("bound"))
            counts[v] = counts.get(v, 0) + 1

            def q(vals):
                vals = list(vals)
                if len(vals) < 2:
                    return f"{vals[0]:.4g}"
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                return f"{q1:.4g}/{statistics.median(vals):.4g}/{q3:.4g}"

            print(f"{w:<14} {m['name']:<46} {q(p.values()):>32} {q(c.values()):>32}  {v}")
    print("verdicts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    worse = counts.get("worse", 0)
    return {"correct": worse == 0, "attempted": sum(counts.values()), "failed": worse,
            "metrics": {}}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--collect", type=Path, metavar="OUT.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="")
    ap.add_argument("--label", default="")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT.json", "CHANGE.json"))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        result = compare(*args.compare)
    elif args.collect:
        result = collect(args.collect, _parse_seeds(args.seeds), args.seconds,
                         _parse_seeds(args.traced_seeds) if args.traced_seeds else [],
                         args.label)
    elif args.workload is None:
        ap.error("--workload is required")
    elif args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        _import_package()
        if args.setup_probe:
            _setup_probe(args.workload, args.seed, args.out)
            return 0
        out = OUT_BASE / f"run-{os.getpid()}"
        try:
            if args.trace:
                result = run_traced(args.seed, out)
            else:
                result = run_untraced(args.workload, args.seed, args.seconds, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
