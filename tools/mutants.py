"""Mutation check of the engine tests: does each broken engine fail the tests
that are meant to catch it?

Each record of MUTANTS names a file, a text in it, the text that replaces it
and the tier-1 test ids expected to fail on that change.  For each mutant the
runner copies the repository (without .git) to a temporary directory,
applies the one replacement there, runs pytest on the mutant's ids alone
(one pytest at a time) and prints whether it was caught, that is whether
every listed id failed.  First it runs every chosen mutant's ids on an
unmutated copy, and stops if any fails there.  Nothing outside the
temporary copies is written.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

Exit status 0 if every mutant run was caught, 1 if one was missed, 2 if a
listed test fails without any mutant.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROTOCOLS = "src/mutegossip/protocols.py"
ESTIMATORS = "src/mutegossip/estimators.py"
EXACT_LAW = "tests/test_estimators.py::test_lumped_views_match_exact_law"
CONTRACT = "tests/test_estimators.py::test_lane_scheduler_contract"
REUSED = "tests/test_estimators.py::test_fed_lanes_in_reused_rows_match_the_loop"
HAND_OFF = "tests/test_estimators.py::test_lumped_hand_off_states_are_valid"
TIMEOUT = 600  # seconds for one mutant's pytest
SKIPPED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".perfbench_out", "out")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # The lane scheduler (protocols._lanes).
    Mutant("scheduler: a refilled row is not reset", PROTOCOLS,
           "            reset(free)\n",
           "            if idle == rows:  # only at the first admission\n                reset(free)\n",
           (f"{REUSED}[0.5-parameterized]", f"{REUSED}[1.0-parameterized]", f"{CONTRACT}[0.5-parameterized-False]")),
    Mutant("scheduler: a lane is fed past its decision", PROTOCOLS,
           "if r not in decided and lanes[row][1].feed(sender):", "if lanes[row][1].feed(sender):",
           (f"{CONTRACT}[1.0-parameterized-False]",
            "tests/test_protocols.py::test_fed_lane_caps_at_block_edges[1.0-parameterized]")),
    Mutant("scheduler: a decided lane is reported capped", PROTOCOLS,
           "yield *lanes[row], r not in decided and bool(informed[r] < n)",
           "yield *lanes[row], bool(informed[r] < n)",
           (f"{CONTRACT}[0.0-parameterized-False]", f"{CONTRACT}[0.5-parameterized-False]")),
    Mutant("scheduler: a decided hand-off is reported capped", PROTOCOLS,
           "yield index, decider, not run.decided and not run.complete(config)",
           "yield index, decider, not run.complete(config)",
           (f"{CONTRACT}[0.5-parameterized-True]", f"{CONTRACT}[0.5-parameterized-False]")),
    # The array engine (protocols._array_lanes).
    Mutant("array: an earlier lane's join clock is not reset", PROTOCOLS,
           "joined[cell[joined[cell] < base[live, None]]] = _NEVER", "pass",
           (f"{REUSED}[0.0-parameterized]", f"{REUSED}[1.0-parameterized]")),
    Mutant("array: the clock is not advanced past a block's last step", PROTOCOLS,
           "clock += L * B + 1", "clock += L * B",
           (f"{EXACT_LAW}[4-1.0-delayed_start-lone]",)),
    Mutant("array: no forced first send of the source under delayed start", PROTOCOLS,
           "        snd[at_step == 0, 0] = src", "        pass",
           (f"{EXACT_LAW}[4-1.0-delayed_start-lockstep]",)),
    # The count lockstep (estimators._count_lanes).
    Mutant("count: no self-send in the step", ESTIMATORS,
           "self_send = (rc == cs) & (r == 0)", "self_send = rc < 0",
           (f"{HAND_OFF}[0.5-parameterized]", f"{CONTRACT}[0.5-parameterized-True]")),
    Mutant("count: prior ids drawn from the rest class", ESTIMATORS,
           "senders[in_prior] = prior[(rng.random(np.count_nonzero(in_prior)) * prior.size)",
           "senders[in_prior] = pools[_REST][(rng.random(np.count_nonzero(in_prior)) * pools[_REST].size)",
           (f"{EXACT_LAW}[1-0.3333333333333333-parameterized-lockstep]", f"{HAND_OFF}[0.5-parameterized]")),
    Mutant("count: the source fed as a prior id", ESTIMATORS,
           "in_prior = cs[fed] == _PRIOR", "in_prior = cs[fed] >= _SOURCE",
           (f"{EXACT_LAW}[1-0.3333333333333333-parameterized-lockstep]",
            "tests/test_estimators.py::test_map_attack_singleton_prior_is_always_right")),
    Mutant("count: un-lumping with repeated ids", ESTIMATORS,
           "rng.choice(pool, a + m, replace=False)", "rng.choice(pool, a + m, replace=True)",
           (f"{HAND_OFF}[0.5-parameterized]",)),
    # The per-node lockstep (estimators._node_lanes).
    Mutant("node: no row reset on refill", ESTIMATORS,
           "        state[free] = 0\n", "",
           (f"{REUSED}[0.5-parameterized]", f"{CONTRACT}[0.5-parameterized-False]")),
    Mutant("node: the receiver read before the mute", ESTIMATORS,
           "was = state[live, rcv]", "was = np.where(rcv == snd, 2, state[live, rcv])",
           (f"{EXACT_LAW}[2-0.5-parameterized-lockstep]", f"{CONTRACT}[0.5-parameterized-False]")),
    Mutant("node: a handed-off A list one entry too long", ESTIMATORS,
           "A[row, : la[row]], int(step[row])", "A[row, : la[row] + 1], int(step[row])",
           (f"{HAND_OFF}[0.5-parameterized]", f"{CONTRACT}[0.5-parameterized-False]")),
]


def failures(tests, mutant: Mutant | None = None) -> tuple[set[str], float]:
    """Run pytest on `tests` in a temporary copy of the repository, with
    `mutant` applied if given; return the ids that failed and the seconds
    pytest took.  A run that hangs past TIMEOUT reports no failure."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*SKIPPED))
        if mutant:
            path = copy / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        try:
            out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
                                 cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT).stdout
        except subprocess.TimeoutExpired:
            out = ""
        seconds = time.perf_counter() - start
    return set(re.findall(r"^FAILED (\S+)", out, re.M)), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    if unknown := set(args.names) - {m.name for m in MUTANTS}:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    tests = sorted({test for mutant in chosen for test in mutant.tests})
    failed, _ = failures(tests)
    if failed:  # a mutant is caught only by tests that pass on the unmutated tree
        print("failing without any mutant:", *sorted(failed), sep="\n  ")
        return 2
    print("| mutant | file | tests | result | s |")
    print("| --- | --- | --- | --- | --- |")
    all_caught = True
    for mutant in chosen:
        failed, seconds = failures(mutant.tests, mutant)
        missed = [test for test in mutant.tests if test not in failed]
        all_caught &= not missed
        result = "missed (passed: " + ", ".join(missed) + ")" if missed else "caught"
        print(f"| {mutant.name} | {mutant.file} | {len(mutant.tests)} | {result} | {seconds:.1f} |", flush=True)
    return 0 if all_caught else 1


if __name__ == "__main__":
    sys.exit(main())
