"""Record reference.json, the statistical reference the benchmark's
correctness checks compare against.

Run from the repository root on the commit that defines the reference:

    python3 perfbench/make_reference.py

It runs each attack preset at REF_FACTOR times its desk trial count, each
spread grid point REF_RUNS times through run_sync directly, each engine law
case REF_LAW_RUNS times through run_trace, and the bounds table once, all
from a seed that no benchmark run uses.  It takes a few
minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mutegossip import experiments  # noqa: E402
from mutegossip.core import spawn_stream  # noqa: E402
from mutegossip.protocols import run_sync, run_trace  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import echo_share  # noqa: E402
from tracing import cfg_tag  # noqa: E402
from workloads import LAW_CASES, WORKLOADS, law_config  # noqa: E402

REF_SEED = 0x5EED_F00D
REF_FACTOR = 3
REF_RUNS = 200
REF_LAW_RUNS = 4000
MAX_ROUNDS = 400


def _sig(values: np.ndarray) -> list[float]:
    return [float(f"{v:.6g}") for v in values]


def _spread_point(spec, point, g: int) -> dict:
    cfg = spec.config(point)
    rng = spawn_stream(REF_SEED, g)
    informed, active = [], []
    for _ in range(REF_RUNS):
        trace, rounds = run_sync(cfg, rng)
        if trace.complete:
            informed.append(rounds.informed / cfg.n)
            active.append(rounds.active / cfg.n)
    width = max(c.size for c in informed)
    out = {"runs": len(informed), "rounds": _kept_rounds(width)}
    for name, curves in (("informed", informed), ("active", active)):
        mat = np.vstack([np.concatenate([c, np.full(width - c.size, c[-1])]) for c in curves])
        out[f"{name}_med"] = _sig(np.median(mat, axis=0)[out["rounds"]])
        out[f"{name}_sd"] = _sig(mat.std(axis=0, ddof=1)[out["rounds"]])
    return out


def _kept_rounds(width: int) -> list[int]:
    """Every round of a short curve; about MAX_ROUNDS evenly spaced rounds,
    always including the last, of a long one (coupon collection at s=0)."""
    stride = -(-width // MAX_ROUNDS)
    kept = list(range(0, width, stride))
    if kept[-1] != width - 1:
        kept.append(width - 1)
    return kept


def main() -> None:
    ref: dict = {"presets": {}, "attack": {}, "spread": {}, "law": {}}
    specs = {}
    for workload in WORKLOADS.values():
        for name, _, _ in workload["presets"]:
            spec = experiments.parse_spec(ROOT / "presets" / f"{name}.cfg")
            ref["presets"][name] = hashlib.sha256(spec.frozen_text().encode()).hexdigest()
            specs[name] = spec

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, _, _ in WORKLOADS["attack_grid"]["presets"]:
            spec = dataclasses.replace(specs[name], trials=specs[name].trials * REF_FACTOR,
                                       master_seed=REF_SEED)
            experiments.run_experiment(spec, Path(tmp) / name, jobs=2)
            lines = (Path(tmp) / name / "attack.csv").read_text().splitlines()
            header = lines[0].split(",")
            for line in lines[1:]:
                row = dict(zip(header, line.split(",")))
                trials = int(row["trials"])
                key = "|".join((name, row["n"], row["s"], row["f"], row["param"]))
                ref["attack"][key] = {
                    "trials": trials,
                    "correct": round(float(row["precision"]) * trials),
                    "abstained": round(float(row["abstain_rate"]) * trials),
                }
            print(f"attack reference: {name}", flush=True)

        experiments.run_experiment(specs["bounds_table"], Path(tmp) / "bounds", jobs=1)
        lines = (Path(tmp) / "bounds" / "bounds.csv").read_text().splitlines()
        header = lines[0].split(",")
        ref["bounds"] = [dict(zip(header, line.split(","))) for line in lines[1:]]

    g = 0
    for name, _, _ in WORKLOADS["spread_grid"]["presets"]:
        spec = specs[name]
        for point in spec.grid():
            ref["spread"][f"{name}|{point['n']}|{point['s']:.10g}"] = _spread_point(spec, point, g)
            g += 1
        print(f"spread reference: {name}", flush=True)

    for i, (s, variant) in enumerate(LAW_CASES):
        cfg = law_config(s, variant)
        rng = spawn_stream(REF_SEED, 10_000 + i)
        shares = np.array([echo_share(run_trace(cfg, rng)) for _ in range(REF_LAW_RUNS)])
        ref["law"][cfg_tag(cfg)] = {"runs": REF_LAW_RUNS, "mean": float(shares.mean()),
                                    "sd": float(shares.std(ddof=1))}
    print("law reference", flush=True)

    ref["spread_rows"] = 2 * sum(len(p["rounds"]) for p in ref["spread"].values())
    (Path(__file__).with_name("reference.json")).write_text(json.dumps(ref, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
