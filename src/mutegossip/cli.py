"""Command-line experiment runner.

Usage:
    gossip-sim <kind> [--spec FILE] [--out DIR] [--jobs N] [--seed SEED]
               [key=value ...]

where <kind> is one of: trace, spread, attack, validate, bounds; a spec file
`kind` or a kind= argument that names another kind is an error.  Settings
come from the optional spec file, overlaid with any key=value arguments and
then validated once against experiments.KEYS, which scopes each key to every
kind, one kind or one attack.  GOSSIP_SEED overrides the spec's master_seed;
an explicit --seed overrides both.  `bounds` also prints its table as text.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import KINDS, SpecError, build_spec, read_items, read_spec, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gossip-sim",
        description="Muting-gossip simulator: spreading, attacks, and privacy bounds.",
    )
    parser.add_argument("kind", choices=KINDS, help="the experiment kind")
    parser.add_argument("--spec", type=Path, default=None, help="spec file (key=value or JSON)")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker pool size for grid points (default: cores)")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="spec overrides, e.g. 'n = 4096' as n=4096")
    # Intermixed: parse_args leaves `overrides` empty when an option follows <kind>.
    args = parser.parse_intermixed_args(argv)

    try:
        items = read_spec(args.spec) if args.spec is not None else {}
        items.setdefault("name", (args.kind, None))
        given = read_items(((arg, None) for arg in args.overrides), "<arg>")  # override the file's keys
        for value, line in (v for v in (items.get("kind"), given.get("kind")) if v):
            if str(value).strip() != args.kind:  # the command's kind is the kind
                raise SpecError("kind", f"{value!r} is not the command's kind {args.kind!r}", line)
        items.update(given, kind=(args.kind, None))
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


def _print_table(csv_path: Path) -> None:
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))


if __name__ == "__main__":
    sys.exit(main())
