"""Mutation check of the tests: does each broken engine, spec reader, pool
order or event check fail the tests that are meant to catch it?

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
EXACT = "src/mutegossip/exact.py"
EXPERIMENTS = "src/mutegossip/experiments.py"
ESTIMATORS = "src/mutegossip/estimators.py"
TEST_SPEC = "tests/test_experiments.py"
EXACT_LAW = "tests/test_estimators.py::test_lumped_views_match_exact_law"
CONTRACT = "tests/test_estimators.py::test_lane_scheduler_contract"
REUSED = "tests/test_estimators.py::test_fed_lanes_in_reused_rows_match_the_loop"
HAND_OFF = "tests/test_estimators.py::test_lumped_hand_off_states_are_valid"
ARRAY_LOOP = "tests/test_protocols.py::test_array_run_matches_the_loop_in_law"
TRACE_LAW = "tests/test_exact.py::test_exact_matches_monte_carlo"
ROUND_LAW = "tests/test_estimators.py::test_count_runs_match_exact_round_law"
COUNT_SYNC = "tests/test_estimators.py::test_count_runs_match_run_sync"
COUPON_SYNC = "tests/test_estimators.py::test_coupon_runs_s0_match_run_sync"
LENGTH_LAW = "tests/test_exact.py::test_observation_length_law_is_exact_for_every_s"
FIRST_STEPS = "tests/test_protocols.py::test_loop_first_two_steps_match_the_exact_step_rule"
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
    Mutant("array: the recorded lane's row is not reset", PROTOCOLS,
           "    reset(live)\n    while", "    while",
           ("tests/test_protocols.py::test_recorded_and_fed_runs_draw_alike",
            "tests/test_protocols.py::test_run_trace_golden_digest[s1]")),
    # The count lockstep (protocols._count_lanes).
    Mutant("count: no self-send in the step", PROTOCOLS,
           "self_send = (rc == cs) & (r == 0)", "self_send = rc < 0",
           (f"{HAND_OFF}[0.5-parameterized]", f"{CONTRACT}[0.5-parameterized-True]")),
    Mutant("count: prior ids drawn from the rest class", PROTOCOLS,
           "senders[in_prior] = prior[(rng.random(np.count_nonzero(in_prior)) * prior.size)",
           "senders[in_prior] = pools[_REST][(rng.random(np.count_nonzero(in_prior)) * pools[_REST].size)",
           (f"{EXACT_LAW}[1-0.3333333333333333-parameterized-lockstep]", f"{HAND_OFF}[0.5-parameterized]")),
    Mutant("count: the source fed as a prior id", PROTOCOLS,
           "in_prior = cs[fed] == _PRIOR", "in_prior = cs[fed] >= _SOURCE",
           (f"{EXACT_LAW}[1-0.3333333333333333-parameterized-lockstep]",
            "tests/test_estimators.py::test_map_attack_singleton_prior_is_always_right")),
    Mutant("count: the in-place step works on a copy", PROTOCOLS,
           "at = st if whole else", "at = st.copy() if whole else",
           (f"{EXACT_LAW}[1-0.3333333333333333-parameterized-lone]", f"{CONTRACT}[0.5-parameterized-True]")),
    Mutant("count: un-lumping with repeated ids", PROTOCOLS,
           "rng.choice(pool, a + m, replace=False)", "rng.choice(pool, a + m, replace=True)",
           (f"{HAND_OFF}[0.5-parameterized]",)),
    # The per-node lockstep (protocols._node_lanes).
    Mutant("node: no row reset on refill", PROTOCOLS,
           "        state[free] = 0\n", "",
           (f"{REUSED}[0.5-parameterized]", f"{CONTRACT}[0.5-parameterized-False]")),
    Mutant("node: the receiver read before the mute", PROTOCOLS,
           "was = state[live, rcv]", "was = np.where(rcv == snd, 2, state[live, rcv])",
           (f"{EXACT_LAW}[2-0.5-parameterized-lockstep]", f"{CONTRACT}[0.5-parameterized-False]")),
    Mutant("node: a handed-off A list one entry too long", PROTOCOLS,
           "A[row, : la[row]], int(step[row])", "A[row, : la[row] + 1], int(step[row])",
           (f"{HAND_OFF}[0.5-parameterized]", f"{CONTRACT}[0.5-parameterized-False]")),
    # The per-node loop (protocols._sequential_run).
    Mutant("loop: stay x0.8", PROTOCOLS,
           "if coin >= s or", "if coin >= 0.8 * s or",
           (f"{FIRST_STEPS}[0.25]", f"{FIRST_STEPS}[0.5]", f"{TRACE_LAW}[0.5]")),
    Mutant("loop: biased sender choice", PROTOCOLS,
           "k = int(pick * len(active))", "k = int(pick ** 2 * len(active))",
           (f"{TRACE_LAW}[0.5]", f"{ARRAY_LOOP}[1.0-parameterized]")),
    Mutant("loop: no forced first mute under delayed start", PROTOCOLS,
           "if coin >= s or (delayed and step == 0):", "if coin >= s:",
           (f"{ARRAY_LOOP}[1.0-delayed_start]",)),
    Mutant("loop: the pick and the coin read one uniform", PROTOCOLS,
           "u[1::2]", "u[0::2]",
           (f"{TRACE_LAW}[0.5]", f"{REUSED}[0.5-parameterized]")),
    Mutant("loop: a continued run counts its informed nodes from 1", PROTOCOLS,
           "n_informed = len(informed_ids)", "n_informed = 1",
           ("tests/test_protocols.py::test_loop_continues_a_run_from_its_state",)),
    # The round engine (protocols.run_sync).
    Mutant("sync: stay x0.8 in a round of several senders", PROTOCOLS,
           "active[snd] = rng.random(k) < s", "active[snd] = rng.random(k) < 0.8 * s",
           (f"{COUNT_SYNC}[64-0.5]", f"{COUNT_SYNC}[1024-0.5]")),
    Mutant("sync: a lone sender's stay coin inverted", PROTOCOLS,
           "stay = s == 1.0 or rng.random() < s", "stay = s == 1.0 or rng.random() >= s",
           (f"{COUNT_SYNC}[64-0.05]", f"{COUNT_SYNC}[1024-0.05]")),
    Mutant("sync: a round's first receiver is not informed", PROTOCOLS,
           "informed[rcv] = True", "informed[rcv[1:]] = True",
           (f"{COUNT_SYNC}[64-0.5]", f"{COUNT_SYNC}[64-1.0]")),
    # The count-only round engine (protocols._count_runs).
    Mutant("count rounds: stay x0.8", PROTOCOLS,
           "stay = k if s == 1.0 else int(rng.binomial(k, s))",
           "stay = k if s == 1.0 else int(rng.binomial(k, 0.8 * s))",
           (f"{ROUND_LAW}[4-0.5]", f"{COUNT_SYNC}[1024-0.5]")),
    Mutant("count rounds: the last round's counts dropped", PROTOCOLS,
           "yield informed == n, RoundTrace(informed_per_round, active_per_round)",
           "yield informed == n, RoundTrace(informed_per_round[:-1], active_per_round[:-1])",
           (f"{ROUND_LAW}[3-0.5]", f"{ROUND_LAW}[4-1.0]")),
    Mutant("count rounds: the first uninformed node is never counted", PROTOCOLS,
           "informed += int(np.count_nonzero(hit[informed:]))",
           "informed += int(np.count_nonzero(hit[informed + 1:]))",
           (f"{ROUND_LAW}[3-0.5]", f"{COUNT_SYNC}[64-1.0]")),
    Mutant("count rounds: one message per round toward the cap", PROTOCOLS,
           "messages += k\n            informed_per_round.append(informed)",
           "messages += 1\n            informed_per_round.append(informed)",
           ("tests/test_estimators.py::test_count_runs_capped_share_matches_run_sync",)),
    # The coupon-collector engine (protocols._coupon_runs_s0).
    Mutant("coupon: waits drawn with p = (n-k+1)/n", PROTOCOLS,
           "rng.geometric((n - counts[:-1]) / n,", "rng.geometric((n - counts[:-1] + 1) / n,",
           (f"{COUPON_SYNC}[3-4000]", f"{COUPON_SYNC}[64-400]")),
    Mutant("coupon: the last count dropped", PROTOCOLS,
           "held[0] -= 1  #", "held[-1] = 0\n        held[0] -= 1  #",
           (f"{COUPON_SYNC}[3-4000]", f"{COUPON_SYNC}[64-400]")),
    Mutant("coupon: the last count held twice", PROTOCOLS,
           "held[0] -= 1  #", "held[-1] = 2\n        held[0] -= 1  #",
           (f"{COUPON_SYNC}[3-4000]", f"{COUPON_SYNC}[64-400]")),
    # The exact oracle's step rule (exact._moves).
    Mutant("exact: stay x4/5", EXACT,
           "for p, kept in ((s, active),", "for p, kept in ((s * 4 / 5, active),",
           (f"{LENGTH_LAW}[0]",)),
    Mutant("exact: biased sender choice", EXACT,
           "    senders = [i for i in range(n) if active >> i & 1]\n",
           "    senders = [i for i in range(n) if active >> i & 1]\n    senders += senders[:1]\n",
           (f"{TRACE_LAW}[1]", f"{EXACT_LAW}[3-1.0-parameterized-lockstep]", f"{FIRST_STEPS}[0.5]")),
    Mutant("exact: no self-send", EXACT,
           "(p / (len(senders) * n), i, j, kept | 1 << j) for j in range(n)]",
           "(p / (len(senders) * (n - 1)), i, j, kept | 1 << j) for j in range(n) if j != i]",
           (f"{LENGTH_LAW}[0]", f"{FIRST_STEPS}[0.5]")),
    Mutant("exact: a muting sender stays in A", EXACT,
           "(1 - s, active & ~(1 << i))", "(1 - s, active)",
           ("tests/test_exact.py::test_walk_first_sender_marginals_match_closed_forms",
            f"{EXACT_LAW}[0-0.0-parameterized-lockstep]")),
    # The spec keys (ExperimentSpec's fields) and the key = value reader.
    Mutant("spec: trials' lower bound dropped", EXPERIMENTS,
           "_key(int, 1000, lo=1)", "_key(int, 1000)",
           (f"{TEST_SPEC}::test_parse_spec_refuses_a_value_below_its_key_bound[trials-0]",)),
    Mutant("spec: a list key read as a scalar", EXPERIMENTS,
           "Key(parse, isinstance(default, tuple), **rule)", "Key(parse, False, **rule)",
           (f"{TEST_SPEC}::test_parse_spec_comma_lists_and_comments",
            f"{TEST_SPEC}::test_perfbench_names_and_presets_still_match")),
    Mutant("spec: a float echoed at 10 digits only", EXPERIMENTS,
           "return short if float(short) == v else repr(v)", "return short",
           (f"{TEST_SPEC}::test_frozen_text_keeps_every_digit_of_a_float",)),
    Mutant("reader: a key given twice is accepted", EXPERIMENTS,
           "        if key in items:\n", "        if False:\n",
           (f"{TEST_SPEC}::test_parse_spec_rejects_duplicate_keys",
            f"{TEST_SPEC}::test_cli_rejects_duplicate_override")),
    Mutant("reader: split at the last =", EXPERIMENTS,
           'entry.partition("=")', 'entry.rpartition("=")',
           (f"{TEST_SPEC}::test_key_value_splits_at_the_first_equals_sign",)),
    Mutant("reader: a text without = read as a key", EXPERIMENTS,
           "            if not eq:\n", "            if False:\n",
           (f"{TEST_SPEC}::test_an_entry_without_an_equals_sign_is_refused",)),
    # The pool's submission order (experiments.run_experiment).
    Mutant("pool: points submitted in grid order", EXPERIMENTS,
           'order = sorted(points, key=lambda p: (-p["n"], p["s"] if spread else 0))', "order = points",
           (f"{TEST_SPEC}::test_pool_takes_the_largest_points_first_and_writes_in_grid_order",)),
    Mutant("pool: s orders every kind", EXPERIMENTS,
           'p["s"] if spread else 0', 'p["s"]',
           (f"{TEST_SPEC}::test_pool_takes_the_largest_points_first_and_writes_in_grid_order",)),
    Mutant("cli: imports an underscored name", "src/mutegossip/cli.py",
           "read_spec, run_experiment\n", "read_spec, run_experiment\nfrom .experiments import _parse  # noqa: F401\n",
           ("tests/test_layout.py::test_no_module_imports_an_underscored_name_from_another",)),
    # The event check (estimators.EventSpec.__post_init__).
    Mutant("event: a negative rank accepted", ESTIMATORS,
           'check_count("r", self.r, 0)', 'check_count("r", self.r)',
           ("tests/test_estimators.py::test_event_spec_built_directly_is_checked[r-minus-1]",)),
    Mutant("event: an unknown kind accepted", ESTIMATORS,
           'if self.kind not in ("sender_rank_le", "timed_first_disclosure"):',
           'if self.kind == "":',
           ("tests/test_estimators.py::test_event_spec_built_directly_is_checked[kind-bogus]",)),
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
