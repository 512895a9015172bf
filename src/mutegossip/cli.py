"""Command-line experiment runner.

Usage:
    gossip-sim <kind> [--spec FILE] [--out DIR] [--jobs N] [--seed SEED]
               [key=value ...]

where <kind> is one of: trace, spread, attack, validate, bounds.  Settings
come from the optional spec file, overlaid with any key=value arguments.
The GOSSIP_SEED environment variable overrides the spec's master_seed; an
explicit --seed overrides both.  `bounds` additionally prints its table as
aligned text.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import KINDS, SpecError, build_spec, parse_spec, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gossip-sim",
        description="Muting-gossip simulator: spreading, attacks, and privacy bounds.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--spec", type=Path, default=None, help="spec file (key=value or JSON)")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="worker pool size for grid points (default: cores)")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="spec overrides, e.g. 'n = 4096' as n=4096")
    args = parser.parse_args(argv)

    try:
        items: dict = {}
        if args.spec is not None:
            spec = parse_spec(args.spec)
            items = {k: (v, None) for k, v in _spec_items(spec)}
        items.setdefault("name", (args.kind, None))
        items["kind"] = (args.kind, None)
        given: dict = {}  # key=value arguments override the file's keys
        for tok in args.overrides:
            if "=" not in tok:
                raise SpecError("<arg>", f"expected key=value, got {tok!r}")
            key, _, value = (part.strip() for part in tok.partition("="))
            if key in given:
                raise SpecError(key, "given twice on the command line")
            given[key] = (value, None)
        items.update(given)
        if "GOSSIP_SEED" in os.environ:
            items["master_seed"] = (os.environ["GOSSIP_SEED"], None)
        if args.seed is not None:
            items["master_seed"] = (args.seed, None)
        spec = build_spec(items)
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    out = args.out if args.out is not None else Path("out") / spec.name
    status = run_experiment(spec, out, jobs=max(1, args.jobs))
    if spec.kind == "bounds":
        _print_table(out / "bounds.csv")
    print(f"wrote {out}/ (exit {status})")
    return status


def _spec_items(spec) -> list[tuple[str, str]]:
    """Flatten a parsed spec back to overridable key=value text items."""
    out = []
    for line in spec.frozen_text().splitlines():
        key, _, value = line.partition(" = ")
        out.append((key, value))
    return out


def _print_table(csv_path: Path) -> None:
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))


if __name__ == "__main__":
    sys.exit(main())
