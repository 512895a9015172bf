"""Experiment harness: spec files, deterministic grid expansion, seed
fan-out, and CSV/JSON emission.

A spec is a flat key=value text file (JSON object accepted as an
alternative front-end); grids are comma lists.  read_items reads file
lines, JSON members and CLI arguments alike.  Grid points expand in
lexicographic order over the declared lists, and grid point g draws all of
its randomness from the stream (master_seed, g), so results are
byte-for-byte reproducible regardless of worker count or scheduling.

Two tables describe what a spec can say and what a run writes:

  KEYS    ExperimentSpec's fields, in the order frozen_text() echoes them,
          each with its Key: parser, bounds, the word standing for None
          (`all`, `auto`), whether it is a comma list, and its scope: every
          kind, one kind, or one attack, whose keys are its estimator spec's
          fields (the first is its grid list; the spec's param() resolves it
          to attack.csv's `param`).  ExperimentSpec.keys() names the keys
          one spec uses and build_spec rejects any other.
  _KINDS  each kind's CSV header (<kind>.csv, fixed column order, floats
          with 10 significant digits; README lists the same headers) and the
          function giving one grid point's rows, as CSV text in blocks of
          at most _ROWS lines.  _write_csv streams the blocks to disk.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from . import __version__
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

_ATTACK_SPECS = {
    "map": MapAttackSpec, "multi_rumor": MultiRumorAttackSpec, "silence": SilenceAttackSpec
}
ATTACKS = tuple(_ATTACK_SPECS)
# Each validate quantity, and whether it has a closed form at a given s.
QUANTITIES = {
    "first_sender_source": lambda s: s == 0.0,
    "first_sender_other": lambda s: s == 0.0,
    "event_f": lambda s: 0.0 < s < 1.0,
    "strong_first_disclosure": lambda s: True,
}


class SpecError(ValueError):
    """Spec validation failure, naming the offending key (and line)."""

    def __init__(self, key: str, message: str, line: Optional[int] = None):
        self.key = key
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"spec key '{key}'{where}: {message}")


_ROWS = 2048  # CSV lines per text block
_FLOAT = "%.10g"  # CSV floats: 10 significant digits


def _fmt(x: float) -> str:
    return _FLOAT % x


def _lines(rows: Iterable[list]) -> str:
    """CSV lines: floats (numpy's included) at 10 significant digits, the
    rest by str."""
    return "".join(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in rows)


def _block(row: str, columns: list[np.ndarray]) -> str:
    """CSV lines of equal-length columns in one % format call, `row` being
    one line's format."""
    return row * len(columns[0]) % tuple(np.column_stack(columns).ravel().tolist())


# ---------------------------------------------------------------------------
# Rows of one grid point, per kind, as CSV text blocks


def _trace_rows(spec: ExperimentSpec, point: dict, rng) -> Iterator[str]:
    """Three ints per row, formatted a block at a time."""
    trace = run_trace(spec.config(point), rng)
    for lo in range(0, len(trace), _ROWS):
        snd, rcv = trace.senders[lo:lo + _ROWS], trace.receivers[lo:lo + _ROWS]
        yield _block("%d,%d,%d\n", [np.arange(lo, lo + snd.size), snd, rcv])


def _spread_rows(spec: ExperimentSpec, point: dict, rng) -> Iterator[str]:
    """The point's keys, the round and six curve values per row, formatted a
    block at a time."""
    summary = estimate_spreading(spec.config(point), spec.trials, rng)
    # The six curve columns are named after the summary's fields.
    curves = [getattr(summary, col) for col in _KINDS["spread"][0].split(",")[4:]]
    row = _lines([[point["n"], point["s"], point["f"]]])[:-1] + ",%d" + f",{_FLOAT}" * len(curves) + "\n"
    for lo in range(0, curves[0].size, _ROWS):
        block = [c[lo:lo + _ROWS] for c in curves]
        yield _block(row, [np.arange(lo, lo + block[0].size), *block])


def _attack_rows(spec: ExperimentSpec, point: dict, rng) -> list[str]:
    n, s, f = point["n"], point["s"], point["f"]
    keys = [k for k, rule in KEYS.items() if rule.scope == spec.attack]
    attack = _ATTACK_SPECS[spec.attack](**{k: point.get(k, getattr(spec, k)) for k in keys})
    cfg = spec.config(point)
    res = estimate_attack_precision(cfg, attack, spec.trials, rng)
    p = res.precision
    row = [n, s, f, spec.attack, attack.param(cfg), spec.trials, p.estimate, p.ci_half_width,
           res.abstain_rate]
    return [_lines([row])]


def _validate_rows(spec: ExperimentSpec, point: dict, rng) -> list[str]:
    n, s, f = point["n"], point["s"], point["f"]
    cfg = spec.config(point)
    auto = [q for q, closed_at in QUANTITIES.items() if closed_at(s)]
    rows = []
    for q in auto if point["quantity"] is None else [point["quantity"]]:
        if q == "first_sender_source":
            closed = (f + 1) / n if f else 0.0  # with no curious node, nothing is observed
            res = estimate_event(cfg, EventSpec.first_sender_is(cfg.source), spec.trials, rng)
        elif q == "first_sender_other":
            closed = 1 / n if f else 0.0
            other = next(j for j in range(cfg.curious_lo) if j != cfg.source)
            res = estimate_event(cfg, EventSpec.first_sender_is(other), spec.trials, rng)
        elif q == "event_f":
            closed = source_disclosure_prob(s, f, n)
            res = estimate_source_disclosure(s, f, n, spec.trials, rng)
        else:  # strong_first_disclosure
            closed = f / n
            res = estimate_event(cfg, EventSpec.timed_first_disclosure(), spec.trials, rng)
        ok = abs(res.estimate - closed) <= 3.0 * res.ci_half_width
        rows.append([q, s, f, n, closed, res.estimate, res.ci_half_width, spec.trials, str(ok).lower()])
    return [_lines(rows)]


def _bounds_rows(spec: ExperimentSpec, point: dict, rng) -> list[str]:
    """One row per privacy/speed regime at epsilon = 0: (regime, its s,
    delta, c, spreading bound); the parameterized one only for 0 < s < 1."""
    n, s, f = point["n"], point["s"], point["f"]
    regimes = [
        ("standard_push", 1.0, 1.0, param_c(1.0, f, n), spreading_round_bound(n, 1.0)),
        ("muting_after_send", 0.0, optimal_delta(0.0, f, n), optimal_c(f, n), n * math.log(n)),
    ]
    if 0.0 < s < 1.0:
        delta, c = param_delta_bound(s, f, n, 1), param_c(s, f, n)
        regimes.append(("parameterized", s, delta, c, spreading_round_bound(n, s)))
    return [_lines([name, row_s, f, n, 0.0, delta, c, bound]
                   for name, row_s, delta, c, bound in regimes)]


# Each kind's CSV header (written to <kind>.csv) and the CSV text blocks of
# one grid point's rows.
_KINDS = {
    "trace": ("step,sender,receiver", _trace_rows),
    "spread": (
        "n,s,f,round,informed_med,informed_p10,informed_p90,active_med,active_p10,active_p90",
        _spread_rows,
    ),
    "attack": ("n,s,f,attack,param,trials,precision,ci,abstain_rate", _attack_rows),
    "validate": ("quantity,s,f,n,closed_form,estimate,ci,trials,pass", _validate_rows),
    "bounds": ("regime,s,f,n,epsilon,delta,c,spreading_bound", _bounds_rows),
}
KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# Parsing


class Key(NamedTuple):
    """How one spec key's value is parsed, checked and echoed."""

    parse: type  # int, float or str, applied to the stripped text
    many: bool  # a comma list (a tuple), else a scalar
    lo: Optional[float] = None
    hi: Optional[float] = None
    none: Optional[str] = None  # the word that stands for None
    choices: tuple = ()
    scope: Optional[str] = None  # the kind or attack that reads it; None: every kind

    def show(self, v) -> str:
        """The echo of a value.  A float takes 10 significant digits when
        they read back as the same float, else all of its digits, so that
        spec.cfg holds the value the run used."""
        if v is None:
            return self.none
        if self.parse is not float:
            return str(v)
        short = _fmt(v)
        return short if float(short) == v else repr(v)


def _key(parse: type, default=MISSING, **rule):
    """A spec key's field: its default and its Key, a list iff the default is."""
    return field(default=default, metadata={"key": Key(parse, isinstance(default, tuple), **rule)})


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment description with all defaults resolved."""

    name: str = _key(str)
    kind: str = _key(str, choices=KINDS)
    master_seed: int = _key(int, 12345)
    trials: int = _key(int, 1000, lo=1)
    n: tuple[int, ...] = _key(int, (1024,), lo=2)
    s: tuple[float, ...] = _key(float, (1.0,), lo=0.0, hi=1.0)
    f_over_n: tuple[float, ...] = _key(float, (0.1,), lo=0.0, hi=1.0)
    variant: str = _key(str, "parameterized", choices=VARIANTS)
    source: int = _key(int, 0, lo=0)
    attack: Optional[str] = _key(str, None, choices=ATTACKS, scope="attack")
    # None is every non-curious node (prior_size), ceil(ln(n)^2) (r), each closed form at s (quantity).
    prior_size: tuple[Optional[int], ...] = _key(int, (None,), lo=1, none="all", scope="map")
    rumors: tuple[int, ...] = _key(int, (10,), lo=1, scope="multi_rumor")
    k: int = _key(int, 10, lo=1, scope="multi_rumor")
    r: tuple[Optional[int], ...] = _key(int, (None,), lo=1, none="auto", scope="silence")
    quantity: tuple[Optional[str], ...] = _key(str, (None,), none="auto", choices=tuple(QUANTITIES),
                                               scope="validate")
    step_cap: Optional[int] = _key(int, None, lo=1)

    def keys(self) -> tuple[str, ...]:
        """The keys this spec uses, in frozen_text order: those of every
        kind, and those scoped to its kind or its attack."""
        return tuple(k for k, rule in KEYS.items() if rule.scope in (None, self.kind, self.attack))

    def grid(self) -> list[dict]:
        """Expand the parameter grid, lexicographic over the declared lists:
        n, s, f_over_n, then the first scoped list key, if any."""
        own = next((k for k in self.keys() if KEYS[k].scope and KEYS[k].many), None)
        points = []
        for n, s, fon in itertools.product(self.n, self.s, self.f_over_n):
            base = {"n": n, "s": s, "f": round(fon * n)}
            points += [{**base, own: v} for v in getattr(self, own)] if own else [base]
        for g, p in enumerate(points):
            p["g"] = g
        return points

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
        """Canonical key=value echo of this spec, defaults included; a
        scalar left at None (step_cap) is omitted."""
        lines = []
        for key in self.keys():
            rule, value = KEYS[key], getattr(self, key)
            shown = map(rule.show, value if rule.many else [value])
            if rule.many or value is not None:
                lines.append(f"{key} = " + ", ".join(shown))
        return "\n".join(lines) + "\n"


# Every spec key, in the order frozen_text() echoes them.
KEYS = {f.name: f.metadata["key"] for f in fields(ExperimentSpec)}


def parse_spec(path: str | Path) -> ExperimentSpec:
    """Parse and validate a spec file (flat key=value text, or JSON)."""
    return build_spec(read_spec(path))


def read_spec(path: str | Path) -> dict:
    """A spec file's items, unvalidated, by read_items: its key = value
    lines (blank and # lines skipped), or the members of a JSON object."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise SpecError("<file>", f"cannot read {path}: {e}") from e
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            raw = json.loads(text, object_pairs_hook=lambda members: read_items(
                ((member, None) for member in members), "<json>"))
        except json.JSONDecodeError as e:
            raise SpecError("<json>", f"invalid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise SpecError("<json>", f"expected a JSON object, got {type(raw).__name__}")
        return raw
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return read_items(((line, i) for i, line in lines if line and not line.startswith("#")), "<line>")


def read_items(entries: Iterable[tuple], where: str) -> dict:
    """Spec items {key: (value, line)} from (entry, line) pairs, an entry
    being a `key = value` text, split at its first "=" and stripped, or a
    (key, value) pair.  `where` (<line>, <arg>, <json>) names a text without
    "=".  A key given twice is an error."""
    items: dict = {}
    for entry, line in entries:
        if isinstance(entry, str):
            key, eq, value = (part.strip() for part in entry.partition("="))
            if not eq:
                raise SpecError(where, f"expected key = value, got {entry!r}", line)
        else:
            key, value = entry
        if key in items:
            first = items[key][1]
            raise SpecError(key, "given twice" + (f", first on line {first}" if first else ""), line)
        items[key] = (value, line)
    return items


def build_spec(items: dict) -> ExperimentSpec:
    """Validate a {key: (value, line)} mapping into an ExperimentSpec."""
    for key, (_, line) in items.items():
        if key not in KEYS:
            raise SpecError(key, "unknown key", line)
    head: dict = {}
    for key in ("name", "kind", "attack"):  # attack only for kind=attack
        if key == "attack" and head["kind"] != "attack":
            break
        if key not in items:
            raise SpecError(key, "required key is missing")
        head[key] = _parse(key, *items[key])
    used = ExperimentSpec(**head).keys()
    user = f"kind={head['kind']}" + (f", attack={head['attack']}" if "attack" in head else "")
    for key, (_, line) in items.items():
        if key not in used:
            raise SpecError(key, f"not used by {user}", line)
    spec = ExperimentSpec(**{key: _parse(key, *items[key]) for key in used if key in items})
    _validate_grid(spec)
    return spec


def _parse(key: str, value, line: Optional[int] = None):
    """Parse and check one value by its KEYS entry: a tuple for a list key."""
    rule = KEYS[key]
    if not rule.many:
        parts = [value]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [p.strip() for p in str(value).split(",") if p.strip()]
    if not parts:
        raise SpecError(key, "empty list", line)
    out = []
    for p in parts:
        text = str(p).strip()
        if rule.none is not None and text == rule.none:
            out.append(None)
            continue
        try:
            v = rule.parse(text)
        except ValueError:
            raise SpecError(key, f"expected {rule.parse.__name__}, got {p!r}", line) from None
        if rule.choices and v not in rule.choices:
            raise SpecError(key, f"must be one of {rule.choices}, got {v!r}", line)
        # Written as "not >=" so that NaN fails the bound too.
        if rule.lo is not None and not v >= rule.lo:
            raise SpecError(key, f"value {v} is not >= {rule.lo}", line)
        if rule.hi is not None and not v <= rule.hi:
            raise SpecError(key, f"value {v} is not <= {rule.hi}", line)
        out.append(v)
    return tuple(out) if rule.many else out[0]


def _validate_grid(spec: ExperimentSpec) -> None:
    if spec.kind == "spread" and spec.variant != "parameterized":
        raise SpecError("variant", "spread uses the round-based engine (parameterized only)")
    for point in spec.grid():
        try:
            spec.config(point)
        except ValueError as e:
            raise SpecError("grid", f"point {point} is invalid: {e}") from e
        q = point.get("quantity")
        if q is not None and not QUANTITIES[q](point["s"]):
            raise SpecError("quantity", f"{q} has no closed form at s={point['s']}")
        ps = point.get("prior_size")
        if ps is not None and ps > point["n"] - point["f"]:
            raise SpecError("prior_size", f"prior larger than the non-curious set at {point}")


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
    t0, wall0 = time.perf_counter(), time.time()
    # Both branches return the results in grid order.  The pool takes the
    # largest points first, so that no worker ends the run alone on a big
    # point: n descending (work grows with n for every kind), then, for
    # spreading only, s ascending (its rounds grow as s falls).
    if jobs > 1 and len(points) > 1:
        spread = spec.kind == "spread"
        order = sorted(points, key=lambda p: (-p["n"], p["s"] if spread else 0))  # stable: ties keep grid order
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            results = [None] * len(points)
            for p, result in zip(order, pool.map(_point_worker, [(spec, p) for p in order])):
                results[p["g"]] = result
    else:
        results = [_point_worker((spec, p)) for p in points]

    failures = [{"point": p, **failure} for p, (_, failure, _) in zip(points, results) if failure]
    _write_csv(out / f"{spec.kind}.csv", spec.kind,
               (block for blocks, failure, _ in results if not failure for block in blocks))

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
        "points": [{"g": p["g"], **ran, "start": round(ran["start"] - wall0, 3)}
                   for p, (_, _, ran) in zip(points, results)],
        "failures": failures,
        "notes": "spread experiments report synchronous-engine rounds for every s",
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 1 if failures else 0


def _point_worker(args: tuple[ExperimentSpec, dict]):
    """(text blocks, None, ran) for a finished point, (None, failure, ran)
    for a failed one; ran holds the point's wall-clock start, the id of the
    process that ran it and its wall seconds."""
    spec, point = args
    start, t0 = time.time(), time.perf_counter()
    try:
        blocks, failure = list(_run_point(spec, point)), None
    except Exception as e:  # keep completed points, report the rest
        blocks, failure = None, {"error": f"{type(e).__name__}: {e}", "traceback": traceback.format_exc()}
    return blocks, failure, {"start": start, "pid": os.getpid(), "seconds": round(time.perf_counter() - t0, 3)}


def _run_point(spec: ExperimentSpec, point: dict) -> Iterable[str]:
    return _KINDS[spec.kind][1](spec, point, spawn_stream(spec.master_seed, point["g"]))


def _write_csv(path: Path, kind: str, blocks: Iterable[str]) -> None:
    """Write the kind's header line, then each text block in turn, to a
    temporary file beside `path` that replaces it only once every block is
    written: an error or interrupt mid-stream leaves no truncated CSV."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_KINDS[kind][0] + "\n")
            for block in blocks:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
