"""Experiment harness: spec files, deterministic grid expansion, seed
fan-out, and CSV/JSON emission.

A spec is a flat key=value text file (JSON object accepted as an
alternative front-end); grids are comma lists.  Grid points expand in
lexicographic order over the declared lists, and grid point g draws all of
its randomness from the stream (master_seed, g), so results are
byte-for-byte reproducible regardless of worker count or scheduling.

CSV schemas (fixed column order, floats with 10 significant digits):

  spread.csv    n,s,f,round,informed_med,informed_p10,informed_p90,
                active_med,active_p10,active_p90
  attack.csv    n,s,f,attack,param,trials,precision,ci,abstain_rate
  validate.csv  quantity,s,f,n,closed_form,estimate,ci,trials,pass
  bounds.csv    regime,s,f,n,epsilon,delta,c,spreading_bound
  trace.csv     step,sender,receiver
"""

from __future__ import annotations

import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .adversary import silence_window
from .bounds import (
    optimal_c,
    optimal_delta,
    param_c,
    param_delta_bound,
    source_disclosure_prob,
    spreading_round_bound,
)
from .core import VARIANTS, GossipConfig, spawn_stream
from .estimators import (
    EventSpec,
    MapAttackSpec,
    MultiRumorAttackSpec,
    SilenceAttackSpec,
    estimate_attack_precision,
    estimate_event,
    estimate_source_disclosure,
    estimate_spreading,
)
from .protocols import run_trace

KINDS = ("trace", "spread", "attack", "validate", "bounds")
ATTACKS = ("map", "multi_rumor", "silence")
QUANTITIES = ("first_sender_source", "first_sender_other", "event_f", "strong_first_disclosure")

DEFAULT_TRIALS = 1000
DEFAULT_SEED = 12345


class SpecError(ValueError):
    """Spec validation failure, naming the offending key (and line)."""

    def __init__(self, key: str, message: str, line: Optional[int] = None):
        self.key = key
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"spec key '{key}'{where}: {message}")


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment description with all defaults resolved."""

    name: str
    kind: str
    master_seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    n: tuple[int, ...] = (1024,)
    s: tuple[float, ...] = (1.0,)
    f_over_n: tuple[float, ...] = (0.1,)
    variant: str = "parameterized"
    attack: Optional[str] = None
    prior_size: tuple[Optional[int], ...] = (None,)  # None = all non-curious
    rumors: tuple[int, ...] = (10,)
    k: int = 10
    r: tuple[Optional[int], ...] = (None,)  # None = ceil(ln(n)^2)
    quantity: tuple[str, ...] = QUANTITIES
    step_cap: Optional[int] = None
    source: int = 0

    def grid(self) -> list[dict]:
        """Expand the parameter grid, lexicographic over the declared lists."""
        points: list[dict] = []
        for n in self.n:
            for s in self.s:
                for fon in self.f_over_n:
                    base = {"n": n, "s": s, "f": round(fon * n)}
                    if self.kind == "attack":
                        for extra in self._attack_params():
                            points.append({**base, **extra})
                    elif self.kind == "validate":
                        for q in self.quantity:
                            points.append({**base, "quantity": q})
                    else:
                        points.append(base)
        for g, p in enumerate(points):
            p["g"] = g
        return points

    def _attack_params(self) -> list[dict]:
        if self.attack == "map":
            return [{"prior_size": ps} for ps in self.prior_size]
        if self.attack == "multi_rumor":
            return [{"rumors": m} for m in self.rumors]
        if self.attack == "silence":
            return [{"r": r} for r in self.r]
        raise SpecError("attack", f"kind=attack needs attack in {ATTACKS}")

    def config(self, point: dict) -> GossipConfig:
        return GossipConfig(
            n=point["n"],
            f=point["f"],
            s=point["s"],
            source=self.source,
            variant=self.variant,
            step_cap=self.step_cap,
        )

    def frozen_text(self) -> str:
        """Canonical key=value echo of this spec, defaults included."""
        lines = [f"name = {self.name}", f"kind = {self.kind}"]
        lines.append(f"master_seed = {self.master_seed}")
        lines.append(f"trials = {self.trials}")
        lines.append("n = " + ", ".join(str(v) for v in self.n))
        lines.append("s = " + ", ".join(_fmt(v) for v in self.s))
        lines.append("f_over_n = " + ", ".join(_fmt(v) for v in self.f_over_n))
        lines.append(f"variant = {self.variant}")
        lines.append(f"source = {self.source}")
        if self.kind == "attack":
            lines.append(f"attack = {self.attack}")
            if self.attack == "map":
                lines.append(
                    "prior_size = "
                    + ", ".join("all" if v is None else str(v) for v in self.prior_size)
                )
            elif self.attack == "multi_rumor":
                lines.append("rumors = " + ", ".join(str(v) for v in self.rumors))
                lines.append(f"k = {self.k}")
            elif self.attack == "silence":
                lines.append("r = " + ", ".join("auto" if v is None else str(v) for v in self.r))
        if self.kind == "validate":
            lines.append("quantity = " + ", ".join(self.quantity))
        if self.step_cap is not None:
            lines.append(f"step_cap = {self.step_cap}")
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------------------
# Parsing


def parse_spec(path: str | Path) -> ExperimentSpec:
    """Parse and validate a spec file (flat key=value text, or JSON)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise SpecError("<json>", f"invalid JSON: {e}") from e
        items = {str(k): (v, None) for k, v in raw.items()}
    else:
        items = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise SpecError("<line>", f"expected key = value, got {stripped!r}", lineno)
            key, _, value = stripped.partition("=")
            items[key.strip()] = (value.strip(), lineno)
    return build_spec(items)


def build_spec(items: dict) -> ExperimentSpec:
    """Validate a {key: (value, line)} mapping into an ExperimentSpec."""
    known = set(ExperimentSpec.__dataclass_fields__)
    for key, (_, line) in items.items():
        if key not in known:
            raise SpecError(key, "unknown key", line)

    def get(key, default=None):
        return items.get(key, (default, None))

    def req(key):
        if key not in items:
            raise SpecError(key, "required key is missing")
        return items[key]

    name, line = req("name")
    name = str(name)
    kind, line = req("kind")
    if kind not in KINDS:
        raise SpecError("kind", f"must be one of {KINDS}, got {kind!r}", line)

    kw: dict = {"name": name, "kind": kind}
    kw["master_seed"] = _as_int("master_seed", *get("master_seed", DEFAULT_SEED))
    kw["trials"] = _as_int("trials", *get("trials", DEFAULT_TRIALS), lo=1)
    kw["n"] = _as_list("n", *get("n", "1024"), conv=_conv_int, lo=2)
    kw["s"] = _as_list("s", *get("s", "1"), conv=_conv_float, lo=0.0, hi=1.0)
    kw["f_over_n"] = _as_list("f_over_n", *get("f_over_n", "0.1"), conv=_conv_float, lo=0.0, hi=1.0)
    variant, line = get("variant", "parameterized")
    if variant not in VARIANTS:
        raise SpecError("variant", f"unknown variant {variant!r}", line)
    kw["variant"] = variant
    kw["source"] = _as_int("source", *get("source", 0), lo=0)
    cap, line = get("step_cap")
    if cap is not None:
        kw["step_cap"] = _as_int("step_cap", cap, line, lo=1)

    if kind == "attack":
        attack, line = req("attack")
        if attack not in ATTACKS:
            raise SpecError("attack", f"must be one of {ATTACKS}, got {attack!r}", line)
        kw["attack"] = attack
        if "prior_size" in items:
            kw["prior_size"] = _as_list(
                "prior_size", *items["prior_size"], conv=_conv_int, lo=1, none_word="all"
            )
        if "rumors" in items:
            kw["rumors"] = _as_list("rumors", *items["rumors"], conv=_conv_int, lo=1)
        if "k" in items:
            kw["k"] = _as_int("k", *items["k"], lo=1)
        if "r" in items:
            kw["r"] = _as_list("r", *items["r"], conv=_conv_int, lo=1, none_word="auto")
    elif "attack" in items:
        raise SpecError("attack", f"only valid for kind=attack, not kind={kind}")

    if "quantity" in items:
        vals = _as_list("quantity", *items["quantity"], conv=str)
        for q in vals:
            if q not in QUANTITIES:
                raise SpecError("quantity", f"unknown quantity {q!r}", items["quantity"][1])
        kw["quantity"] = vals

    spec = ExperimentSpec(**kw)
    _validate_grid(spec)
    return spec


def _validate_grid(spec: ExperimentSpec) -> None:
    if spec.kind == "spread" and spec.variant != "parameterized":
        raise SpecError("variant", "spread uses the round-based engine (parameterized only)")
    for point in spec.grid():
        try:
            spec.config(point)
        except ValueError as e:
            raise SpecError("grid", f"point {point} is invalid: {e}") from e
        if spec.kind == "validate":
            q = point["quantity"]
            if q in ("first_sender_source", "first_sender_other") and point["s"] != 0.0:
                raise SpecError("quantity", f"{q} has a closed form only at s=0")
            if q == "event_f" and not 0.0 < point["s"] < 1.0:
                raise SpecError("quantity", "event_f needs 0 < s < 1")
        if spec.kind == "attack" and spec.attack == "map":
            ps = point.get("prior_size")
            if ps is not None and ps > point["n"] - point["f"]:
                raise SpecError("prior_size", f"prior larger than the non-curious set at {point}")


def _as_int(key, value, line=None, lo=None):
    v = _conv_int(key, value, line)
    if lo is not None and v < lo:
        raise SpecError(key, f"must be >= {lo}, got {v}", line)
    return v


def _conv_int(key, value, line=None):
    try:
        v = int(str(value).strip())
    except ValueError:
        raise SpecError(key, f"expected integer, got {value!r}", line) from None
    return v


def _conv_float(key, value, line=None):
    try:
        return float(str(value).strip())
    except ValueError:
        raise SpecError(key, f"expected number, got {value!r}", line) from None


def _as_list(key, value, line=None, conv=str, lo=None, hi=None, none_word=None):
    if isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [p.strip() for p in str(value).split(",") if p.strip()]
    if not parts:
        raise SpecError(key, "empty list", line)
    out = []
    for p in parts:
        if none_word is not None and str(p).strip() == none_word:
            out.append(None)
            continue
        v = conv(key, p, line) if conv is not str else str(p)
        if lo is not None and v < lo:
            raise SpecError(key, f"value {v} below minimum {lo}", line)
        if hi is not None and v > hi:
            raise SpecError(key, f"value {v} above maximum {hi}", line)
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Running


def run_experiment(spec: ExperimentSpec, out_dir: str | Path, jobs: int = 1) -> int:
    """Execute every grid point and write CSVs plus a manifest.

    Completed points are kept even if others fail; the exit status is
    nonzero iff any point failed.  Results are identical for any `jobs`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "spec.cfg").write_text(spec.frozen_text())

    points = spec.grid()
    t0 = time.perf_counter()
    results: list[tuple[dict, Optional[list], Optional[str]]] = []
    if jobs > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for point, rows, err in pool.map(_point_worker, [(spec, p) for p in points]):
                results.append((point, rows, err))
    else:
        for p in points:
            results.append(_point_worker((spec, p)))
    results.sort(key=lambda t: t[0]["g"])

    all_rows = []
    failures = []
    for point, rows, err in results:
        if err is not None:
            failures.append({"point": point, "error": err})
        else:
            all_rows.extend(rows)
    header, fname = _SCHEMAS[spec.kind]
    _write_csv(out / fname, header, all_rows)

    manifest = {
        "name": spec.name,
        "kind": spec.kind,
        "master_seed": spec.master_seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "wall_clock_seconds": round(time.perf_counter() - t0, 3),
        "points_total": len(points),
        "points_failed": len(failures),
        "failures": failures,
        "notes": "spread experiments report synchronous-engine rounds for every s",
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 1 if failures else 0


def _point_worker(args: tuple[ExperimentSpec, dict]):
    spec, point = args
    try:
        rows = _run_point(spec, point)
        return point, rows, None
    except Exception as e:  # keep completed points, report the rest
        return point, None, f"{type(e).__name__}: {e}"


def _run_point(spec: ExperimentSpec, point: dict) -> list[list]:
    rng = spawn_stream(spec.master_seed, point["g"])
    n, s, f = point["n"], point["s"], point["f"]
    if spec.kind == "trace":
        trace = run_trace(spec.config(point), rng)
        return [
            [step, snd, rcv]
            for step, (snd, rcv) in enumerate(zip(trace.senders.tolist(), trace.receivers.tolist()))
        ]
    if spec.kind == "spread":
        summary = estimate_spreading(spec.config(point), spec.trials, rng)
        return [
            [
                n,
                _fmt(s),
                f,
                rnd,
                _fmt(summary.informed_med[rnd]),
                _fmt(summary.informed_p10[rnd]),
                _fmt(summary.informed_p90[rnd]),
                _fmt(summary.active_med[rnd]),
                _fmt(summary.active_p10[rnd]),
                _fmt(summary.active_p90[rnd]),
            ]
            for rnd in range(summary.informed_med.size)
        ]
    if spec.kind == "attack":
        attack, param = _attack_spec(spec, point)
        res = estimate_attack_precision(spec.config(point), attack, spec.trials, rng)
        return [
            [
                n,
                _fmt(s),
                f,
                spec.attack,
                param,
                spec.trials,
                _fmt(res.precision.estimate),
                _fmt(res.precision.ci_half_width),
                _fmt(res.abstain_rate),
            ]
        ]
    if spec.kind == "validate":
        return [_validate_row(spec, point, rng)]
    if spec.kind == "bounds":
        return _bounds_rows(n, f, s)
    raise AssertionError(f"unhandled kind {spec.kind}")


def _attack_spec(spec: ExperimentSpec, point: dict):
    if spec.attack == "map":
        ps = point["prior_size"]
        return MapAttackSpec(prior_size=ps), (ps if ps is not None else point["n"] - point["f"])
    if spec.attack == "multi_rumor":
        return MultiRumorAttackSpec(rumors=point["rumors"], k=spec.k), point["rumors"]
    r = point["r"] if point["r"] is not None else silence_window(point["n"])
    return SilenceAttackSpec(r=r), r


def _validate_row(spec: ExperimentSpec, point: dict, rng) -> list:
    n, s, f = point["n"], point["s"], point["f"]
    q = point["quantity"]
    cfg = spec.config(point)
    if q == "first_sender_source":
        closed = (f + 1) / n
        res = estimate_event(cfg, EventSpec.first_sender_is(cfg.source), spec.trials, rng)
    elif q == "first_sender_other":
        closed = 1 / n
        other = next(j for j in range(cfg.curious_lo) if j != cfg.source)
        res = estimate_event(cfg, EventSpec.first_sender_is(other), spec.trials, rng)
    elif q == "event_f":
        closed = source_disclosure_prob(s, f, n)
        res = estimate_source_disclosure(s, f, n, spec.trials, rng)
    elif q == "strong_first_disclosure":
        closed = f / n
        res = estimate_event(cfg, EventSpec.timed_first_disclosure(), spec.trials, rng)
    else:
        raise AssertionError(q)
    ok = abs(res.estimate - closed) <= 3.0 * res.ci_half_width
    return [
        q,
        _fmt(s),
        f,
        n,
        _fmt(closed),
        _fmt(res.estimate),
        _fmt(res.ci_half_width),
        spec.trials,
        str(ok).lower(),
    ]


def _bounds_rows(n: int, f: int, s: float) -> list[list]:
    """The three privacy/speed regimes for one (n, f), the generic row at s."""
    rows = [
        [
            "standard_push",
            _fmt(1.0),
            f,
            n,
            _fmt(0.0),
            _fmt(1.0),
            _fmt(param_c(1.0, f, n)),
            _fmt(spreading_round_bound(n, 1.0)),
        ],
        [
            "muting_after_send",
            _fmt(0.0),
            f,
            n,
            _fmt(0.0),
            _fmt(optimal_delta(0.0, f, n)),
            _fmt(optimal_c(f, n)),
            _fmt(n * math.log(n)),
        ],
    ]
    if 0.0 < s < 1.0:
        rows.append(
            [
                "parameterized",
                _fmt(s),
                f,
                n,
                _fmt(0.0),
                _fmt(param_delta_bound(s, f, n, 1)),
                _fmt(param_c(s, f, n)),
                _fmt(spreading_round_bound(n, s)),
            ]
        )
    return rows


_SCHEMAS = {
    "trace": (["step", "sender", "receiver"], "trace.csv"),
    "spread": (
        [
            "n",
            "s",
            "f",
            "round",
            "informed_med",
            "informed_p10",
            "informed_p90",
            "active_med",
            "active_p10",
            "active_p90",
        ],
        "spread.csv",
    ),
    "attack": (
        ["n", "s", "f", "attack", "param", "trials", "precision", "ci", "abstain_rate"],
        "attack.csv",
    ),
    "validate": (
        ["quantity", "s", "f", "n", "closed_form", "estimate", "ci", "trials", "pass"],
        "validate.csv",
    ),
    "bounds": (
        ["regime", "s", "f", "n", "epsilon", "delta", "c", "spreading_bound"],
        "bounds.csv",
    ),
}


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
