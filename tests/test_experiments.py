import ast
import hashlib
import importlib
import importlib.util
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from mutegossip.cli import main
from mutegossip.core import GossipConfig, spawn_stream
from mutegossip.estimators import EventSpec, estimate_events
from mutegossip.experiments import (
    KINDS,
    SpecError,
    build_spec,
    parse_spec,
    read_spec,
    run_experiment,
)

PRESETS = Path(__file__).resolve().parents[1] / "presets"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


BASE = "name = demo\nkind = bounds\nn = 1000\ns = 0.1\nf_over_n = 0.1\n"


def test_parse_minimal_spec_applies_defaults(tmp_path):
    spec = parse_spec(write(tmp_path, "name = demo\nkind = spread\n"))
    assert spec.trials == 1000
    assert spec.master_seed == 12345
    assert spec.n == (1024,)
    assert "trials = 1000" in spec.frozen_text()


def test_parse_spec_range_error_names_key_and_line(tmp_path):
    path = write(tmp_path, "name = demo\nkind = spread\ns = 1.5\n")
    with pytest.raises(SpecError) as err:
        parse_spec(path)
    assert err.value.key == "s"
    assert err.value.line == 3


def test_parse_spec_rejects_nan(tmp_path):
    # NaN compares false with both bounds; it must be refused here rather
    # than reach the grid expansion, where round(nan * n) raises ValueError.
    with pytest.raises(SpecError) as err:
        parse_spec(write(tmp_path, "name = demo\nkind = spread\nf_over_n = nan\n"))
    assert (err.value.key, err.value.line) == ("f_over_n", 3)


def test_parse_spec_unknown_key(tmp_path):
    with pytest.raises(SpecError) as err:
        parse_spec(write(tmp_path, BASE + "bogus = 3\n"))
    assert err.value.key == "bogus"


def test_parse_spec_missing_required(tmp_path):
    with pytest.raises(SpecError) as err:
        parse_spec(write(tmp_path, "kind = spread\n"))
    assert err.value.key == "name"


def test_parse_spec_comma_lists_and_comments(tmp_path):
    text = "# comment\nname = lists\nkind = spread\nn = 256, 512\ns = 0.1, 1\n"
    spec = parse_spec(write(tmp_path, text))
    assert spec.n == (256, 512)
    assert spec.s == (0.1, 1.0)


def test_parse_spec_json_front_end(tmp_path):
    payload = {"name": "j", "kind": "attack", "attack": "map", "n": [128], "s": [1.0]}
    spec = parse_spec(write(tmp_path, json.dumps(payload), "exp.json"))
    assert spec.kind == "attack" and spec.attack == "map"


def test_parse_spec_rejects_duplicate_keys(tmp_path):
    # A key given twice used to be silently last-wins.
    with pytest.raises(SpecError) as err:
        parse_spec(write(tmp_path, "name = d\nkind = spread\ns = 0.5\n\ns = 1\n"))
    assert (err.value.key, err.value.line) == ("s", 5)
    assert "first on line 3" in str(err.value)
    text = '{"name": "j", "kind": "spread", "n": [64], "n": [128]}'
    with pytest.raises(SpecError) as err:
        parse_spec(write(tmp_path, text, "exp.json"))
    assert err.value.key == "n" and "given twice" in str(err.value)


@pytest.mark.parametrize(
    "fname, text, key, line",
    [
        pytest.param("exp.cfg", "name = x\nkind = spread\nprior_size = abc\n", "prior_size", 3,
                     id="spread-prior_size"),
        pytest.param("exp.cfg", "name = x\nkind = attack\nattack = map\nr = 5\n", "r", 4,
                     id="map-r"),
        pytest.param("exp.cfg", "name = x\nkind = attack\nattack = silence\nk = 3\n", "k", 4,
                     id="silence-k"),
        pytest.param("exp.cfg", "name = x\nkind = attack\nquantity = event_f\nattack = map\n",
                     "quantity", 3, id="attack-quantity"),
        pytest.param("exp.json", json.dumps({"name": "j", "kind": "bounds", "rumors": [1, 2]}),
                     "rumors", None, id="json-bounds-rumors"),
    ],
)
def test_parse_spec_rejects_keys_the_spec_does_not_use(tmp_path, fname, text, key, line):
    # Accepting such a key would drop it, unparsed, from spec.cfg.
    with pytest.raises(SpecError) as err:
        parse_spec(write(tmp_path, text, fname))
    assert (err.value.key, err.value.line) == (key, line)
    assert "not used by" in str(err.value)


def test_parse_twice_is_byte_identical(tmp_path):
    path = write(tmp_path, BASE)
    a = parse_spec(path).frozen_text()
    b = parse_spec(path).frozen_text()
    assert a == b


def test_spec_with_a_byte_order_mark_reads_as_without(tmp_path):
    # Editors on some systems save UTF-8 with a leading BOM, which was read
    # into the first key ("unknown key '\ufeffname'").
    preset = PRESETS / "bounds_table.cfg"
    marked = tmp_path / preset.name
    marked.write_bytes(b"\xef\xbb\xbf" + preset.read_bytes())
    assert parse_spec(marked).frozen_text() == parse_spec(preset).frozen_text()
    assert main(["bounds", "--spec", str(marked), "--out", str(tmp_path / "out")]) == 0


def test_frozen_text_keeps_every_digit_of_a_float(tmp_path):
    # spec.cfg must run the s the spec ran: a float that 10 significant
    # digits would round is echoed in full and reads back equal.
    spec = parse_spec(write(tmp_path, BASE.replace("s = 0.1", "s = 0.12345678901234, 0.5")))
    text = spec.frozen_text()
    assert "s = 0.12345678901234, 0.5\n" in text
    again = parse_spec(write(tmp_path, text, "again.cfg"))
    assert again.s == spec.s == (0.12345678901234, 0.5)
    assert again.frozen_text() == text


def test_grid_expansion_is_lexicographic():
    spec = build_spec(
        {
            "name": ("g", None),
            "kind": ("spread", None),
            "n": ("128, 256", None),
            "s": ("0, 1", None),
        }
    )
    pts = spec.grid()
    assert [(p["n"], p["s"]) for p in pts] == [(128, 0.0), (128, 1.0), (256, 0.0), (256, 1.0)]
    assert [p["g"] for p in pts] == [0, 1, 2, 3]


def test_validate_quantity_needs_matching_s():
    with pytest.raises(SpecError):
        build_spec(
            {
                "name": ("v", None),
                "kind": ("validate", None),
                "s": ("0.5", None),
                "quantity": ("first_sender_source", None),
            }
        )


def test_attack_key_rejected_for_other_kinds():
    with pytest.raises(SpecError):
        build_spec({"name": ("x", None), "kind": ("spread", None), "attack": ("map", None)})


def test_bounds_run_reproduces_table_rows(tmp_path):
    spec = build_spec(
        {
            "name": ("table", None),
            "kind": ("bounds", None),
            "n": ("1000", None),
            "s": ("0.1", None),
            "f_over_n": ("0.1", None),
        }
    )
    assert run_experiment(spec, tmp_path / "out") == 0
    rows = (tmp_path / "out" / "bounds.csv").read_text().splitlines()
    assert rows[0] == "regime,s,f,n,epsilon,delta,c,spreading_bound"
    table = {r.split(",")[0]: r.split(",") for r in rows[1:]}
    assert float(table["standard_push"][5]) == 1.0
    assert float(table["muting_after_send"][5]) == 0.1
    assert abs(float(table["parameterized"][5]) - 0.19) < 1e-12
    assert abs(float(table["muting_after_send"][7]) - 1000 * math.log(1000)) < 1e-4


def test_run_experiment_rerun_byte_identical(tmp_path):
    spec = build_spec(
        {
            "name": ("rep", None),
            "kind": ("validate", None),
            "n": ("300", None),
            "s": ("0", None),
            "quantity": ("first_sender_source", None),
            "trials": ("5000", None),
            "master_seed": ("77", None),
        }
    )
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    assert (tmp_path / "a" / "validate.csv").read_bytes() == (tmp_path / "b" / "validate.csv").read_bytes()
    assert (tmp_path / "a" / "spec.cfg").read_bytes() == (tmp_path / "b" / "spec.cfg").read_bytes()


def test_run_experiment_parallel_matches_serial(tmp_path):
    spec = build_spec(
        {
            "name": ("par", None),
            "kind": ("validate", None),
            "n": ("200, 300", None),
            "s": ("0", None),
            "quantity": ("first_sender_source, first_sender_other", None),
            "trials": ("2000", None),
        }
    )
    run_experiment(spec, tmp_path / "serial", jobs=1)
    run_experiment(spec, tmp_path / "par", jobs=2)
    assert (tmp_path / "serial" / "validate.csv").read_bytes() == (
        tmp_path / "par" / "validate.csv"
    ).read_bytes()


def test_run_experiment_keeps_partial_results(tmp_path, monkeypatch):
    import mutegossip.experiments as ex

    real = ex._run_point

    def flaky(spec, point):
        if point["g"] == 1:
            raise RuntimeError("boom")
        return real(spec, point)

    monkeypatch.setattr(ex, "_run_point", flaky)
    spec = build_spec(
        {
            "name": ("part", None),
            "kind": ("bounds", None),
            "n": ("100, 200", None),
            "s": ("0.5", None),
        }
    )
    status = run_experiment(spec, tmp_path / "out", jobs=1)
    assert status == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["points_failed"] == 1
    failure = manifest["failures"][0]
    assert failure["point"]["g"] == 1
    assert "boom" in failure["error"]
    assert "flaky" in failure["traceback"] and "boom" in failure["traceback"]
    rows = (tmp_path / "out" / "bounds.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # the surviving grid point's rows


def test_run_experiment_pool_no_larger_than_grid(tmp_path, monkeypatch):
    # A pool forks all of its workers at the first submit, so a 3-point grid
    # asks for 3 workers whatever --jobs says.  The fake pool starts none.
    import mutegossip.experiments as ex

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(ex, "ProcessPoolExecutor", FakePool)
    spec = build_spec(
        {"name": ("pool", None), "kind": ("bounds", None), "n": ("100, 200, 300", None)}
    )
    assert run_experiment(spec, tmp_path / "out", jobs=64) == 0
    assert sizes == [3]


def test_manifest_times_each_point_in_grid_order(tmp_path):
    spec = build_spec({"name": ("pts", None), "kind": ("bounds", None), "n": ("100, 200, 300", None),
                       "s": ("0.5", None)})
    for jobs in (1, 2):
        assert run_experiment(spec, tmp_path / str(jobs), jobs=jobs) == 0
        points = json.loads((tmp_path / str(jobs) / "manifest.json").read_text())["points"]
        assert [p["g"] for p in points] == [0, 1, 2]
        assert all(set(p) == {"g", "seconds"} and p["seconds"] >= 0 for p in points)
        digest = hashlib.sha256((tmp_path / str(jobs) / "bounds.csv").read_bytes()).hexdigest()
        assert digest == "58c9ea578da420bdeea8485bd36b95df8ccbadabdd1ce6dbf0cc6392eddc4f8f"


@pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
def test_interrupted_csv_write_leaves_no_file(tmp_path, monkeypatch, stop):
    # The block formatter fails on the second block of a spread point's
    # rows, after the first block was written: neither spread.csv nor a
    # temporary remains.
    import mutegossip.experiments as ex

    spec = build_spec({"name": ("cut", None), "kind": ("spread", None), "n": ("64", None),
                       "s": ("0.5", None), "trials": ("3", None)})
    point = spec.grid()[0]
    monkeypatch.setattr(ex, "_ROWS", 4)
    calls = []
    real = ex._block

    def failing(row, columns):
        calls.append(columns[0][0])
        if len(calls) == 2:
            raise stop("cut")
        return real(row, columns)

    monkeypatch.setattr(ex, "_block", failing)
    with pytest.raises(stop):
        ex._write_csv(tmp_path / "spread.csv", "spread", ex._run_point(spec, point))
    assert calls == [0, 4]  # the rows of rounds 0-3 were written
    assert list(tmp_path.iterdir()) == []


def test_trace_run_memory_is_a_few_copies_of_the_trace(tmp_path):
    # trace_demo at n = 16384 (162,854 rows): recording, text blocks and the
    # streamed write together peak under 3x the trace's int64 senders and
    # receivers.  Rows held as Python tuples and joined into one string
    # took ~17x.
    items = read_spec(PRESETS / "trace_demo.cfg")
    items["n"] = ("16384", None)
    spec = build_spec(items)
    tracemalloc.start()
    try:
        assert run_experiment(spec, tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = (tmp_path / "trace.csv").read_bytes().count(b"\n") - 1
    assert rows > 150_000
    assert peak < 3 * 2 * 8 * rows, peak


def test_trace_dump_schema(tmp_path):
    spec = build_spec(
        {"name": ("t", None), "kind": ("trace", None), "n": ("32", None), "s": ("0", None)}
    )
    run_experiment(spec, tmp_path / "out")
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines[0] == "step,sender,receiver"
    step, sender, _ = lines[1].split(",")
    assert step == "0" and sender == "0"


# The smallest run of each kind; README's CSV contract is checked against
# the header each one writes.
TINY_RUNS = {
    "trace": {"n": "8"},
    "spread": {"n": "8", "trials": "2"},
    "attack": {"attack": "map", "n": "16", "trials": "2"},
    "validate": {"n": "16", "s": "0", "quantity": "first_sender_source", "trials": "10"},
    "bounds": {"n": "16"},
}


@pytest.mark.parametrize("kind", KINDS)
def test_readme_csv_header_matches_run_experiment(tmp_path, kind):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = dict(re.findall(r"^\s*\* `(\w+)\.csv`: `([^`]+)`$", readme, re.M))
    items = {"name": (kind, None), "kind": (kind, None)}
    items.update({k: (v, None) for k, v in TINY_RUNS[kind].items()})
    assert run_experiment(build_spec(items), tmp_path) == 0
    assert (tmp_path / f"{kind}.csv").read_text().splitlines()[0] == documented[kind]


# sha256 of attack.csv for small attack grids.  They pin the draw order of
# the engine and the attack rules (AC12 only compares a rerun with a rerun);
# a change that moves it on purpose updates these digests and says so in
# CHANGES.md.
GOLDEN_ATTACKS = {
    "map": (
        {"attack": "map", "n": "1024", "s": "0, 0.5", "prior_size": "all, 10", "trials": "200"},
        "b6e138c5f3880a04dcbc401169dd29d527eb1d98f9c070bc29f02996dc10c3db",
    ),
    "map_capped": (
        {"attack": "map", "n": "256", "s": "0.5", "prior_size": "all, 10", "step_cap": "40",
         "trials": "300"},
        "60fc9e3f4ab8d2d41f550eb2a3bf89f8b54405e06892e15acb00bc1fd05c58cc",
    ),
    "silence": (
        {"attack": "silence", "variant": "delayed_start", "n": "1024", "s": "1", "trials": "300"},
        "16a72be334ab649ca7449b109c75c9750fe610f8ce39628aec51a0f1becc6717",
    ),
    "multi_rumor": (
        {"attack": "multi_rumor", "n": "256", "s": "0.5", "rumors": "1, 3", "k": "5",
         "trials": "300"},
        "61348cfdfb043880e728eeee6dc4e3ae59ec284bbd076b463babff582df41520",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ATTACKS))
def test_attack_csv_golden_digest(tmp_path, name):
    keys, digest = GOLDEN_ATTACKS[name]
    items = {"name": (name, None), "kind": ("attack", None), "master_seed": ("2027", None)}
    items.update({k: (v, None) for k, v in keys.items()})
    assert run_experiment(build_spec(items), tmp_path) == 0
    assert hashlib.sha256((tmp_path / "attack.csv").read_bytes()).hexdigest() == digest


# sha256 of spread.csv for a small s > 0 grid, recorded like the attack
# digests above: it pins the count-only round engine's draw order through
# estimate_spreading (s=0 points take the lumped coupon-collector engine
# instead).
GOLDEN_SPREAD = (
    {"n": "128, 512", "s": "0.5, 1", "trials": "20"},
    "bb9ec1b79f9958bf2d2b1ef24f8f68668214797024f5f5e3cfa8f45923c492a6",
)


# The same at s = 0, on the coupon-collector engine: 2,765 lines, so the
# row formatter crosses a 2,048-line block edge, at jobs 1 and 2.
GOLDEN_SPREAD_S0 = (
    {"n": "64, 256", "s": "0", "trials": "20"},
    "3a451b4e28d62c662d37c8a8b12ac88910b4772ab17dbbc6a2ec35e2d70abdc2",
)


# The same for validate, whose event_f rows read the closed-form delta: every
# quantity with a closed form at each s (25 lines), at jobs 1 and 2.
GOLDEN_VALIDATE = (
    {"n": "200, 1000", "s": "0, 0.1, 0.3, 0.5, 0.9, 1", "trials": "2000", "quantity": "auto"},
    "40d01cebb41978ee67af7de8a53d277aebcbd5ef68a30b73f993eb6b17a0fbdd",
)


def _csv_digest(out, kind, keys, jobs=1):
    items = {"name": (kind, None), "kind": (kind, None), "master_seed": ("2027", None)}
    items.update({k: (v, None) for k, v in keys.items()})
    assert run_experiment(build_spec(items), out, jobs=jobs) == 0
    return hashlib.sha256((out / f"{kind}.csv").read_bytes()).hexdigest()


def test_spread_csv_golden_digest(tmp_path):
    keys, digest = GOLDEN_SPREAD
    assert _csv_digest(tmp_path, "spread", keys) == digest


@pytest.mark.parametrize("jobs", [1, 2])
def test_spread_csv_s0_golden_digest(tmp_path, jobs):
    keys, digest = GOLDEN_SPREAD_S0
    assert _csv_digest(tmp_path, "spread", keys, jobs) == digest


@pytest.mark.parametrize("jobs", [1, 2])
def test_validate_csv_golden_digest(tmp_path, jobs):
    keys, digest = GOLDEN_VALIDATE
    assert _csv_digest(tmp_path, "validate", keys, jobs) == digest
    assert len((tmp_path / "validate.csv").read_text().splitlines()) == 25


def test_trace_csv_golden_digest(tmp_path):
    # trace_demo's preset at n = 16384 (162,854 rows), pinned like the
    # digests above: the engine's long-run path and the trace row writer.
    items = read_spec(PRESETS / "trace_demo.cfg")
    items["n"] = ("16384", None)
    assert run_experiment(build_spec(items), tmp_path) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == (
        "e0fac7b6a6230155f352fcecd688388c9fdd25fe6f868ea83e126b1de768acdb")


def test_event_family_golden_counts():
    # The lumped engine path of estimate_events (s > 0), pinned like the
    # digests above.  One stream's two counts can survive a change of draw
    # order by chance, so three streams are pinned.
    cfg = GossipConfig(n=64, f=6, s=0.3)
    events = [EventSpec.sender_rank_le(0, 3), EventSpec.first_sender_is(1)]
    pinned = {9: [(359, 0), (26, 0)], 10: [(330, 0), (22, 0)], 11: [(354, 0), (20, 0)]}
    for stream, counts in pinned.items():
        res = estimate_events(cfg, events, 2000, spawn_stream(2027, stream))
        assert [(r.raw_successes, r.incomplete) for r in res] == counts, stream


# ---------------------------------------------------------------------------
# CLI


def test_cli_bounds_roundtrip(tmp_path, capsys):
    out = tmp_path / "cli"
    status = main(["bounds", "--out", str(out), "--seed", "3", "n=1000", "s=0.1"])
    assert status == 0
    captured = capsys.readouterr().out
    assert "standard_push" in captured
    assert (out / "bounds.csv").exists()


def test_cli_env_seed_override(tmp_path, monkeypatch):
    out1 = tmp_path / "e1"
    out2 = tmp_path / "e2"
    monkeypatch.setenv("GOSSIP_SEED", "99")
    main(["validate", "--out", str(out1), "n=200", "s=0", "quantity=first_sender_source", "trials=500"])
    monkeypatch.delenv("GOSSIP_SEED")
    main(
        [
            "validate",
            "--out",
            str(out2),
            "--seed",
            "99",
            "n=200",
            "s=0",
            "quantity=first_sender_source",
            "trials=500",
        ]
    )
    assert (out1 / "validate.csv").read_bytes() == (out2 / "validate.csv").read_bytes()


def test_cli_rejects_duplicate_override(tmp_path, capsys):
    status = main(["spread", "--out", str(tmp_path / "x"), "n=64", "n=128", "trials=2"])
    assert status == 2
    assert "'n'" in capsys.readouterr().err and not (tmp_path / "x").exists()


def test_cli_override_replaces_spec_key(tmp_path):
    # The arguments are overlaid on the file's keys before any is validated,
    # so an argument also replaces a file value that would not pass.
    spec = write(tmp_path, "name = o\nkind = spread\nn = 64\ns = 1\ntrials = none\n")
    out = tmp_path / "o"
    assert main(["spread", "--spec", str(spec), "--out", str(out), "n=32", "trials=2"]) == 0
    text = (out / "spec.cfg").read_text()
    assert "n = 32\n" in text and "trials = 2\n" in text


def test_cli_rejects_bad_override(tmp_path, capsys):
    status = main(["spread", "--out", str(tmp_path / "x"), "s=1.5"])
    assert status == 2
    assert "'s'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset",
    ["trace_demo", "spread_desk", "attack_silence_muting_desk", "validate_eventf_desk",
     "bounds_table", "json"],
)
def test_cli_writes_what_run_experiment_writes(tmp_path, monkeypatch, preset):
    # gossip-sim <kind> --spec FILE key=value writes the bytes run_experiment
    # writes for the file's items with the same key replaced; "json" is a
    # JSON spec file with list and number values.
    monkeypatch.delenv("GOSSIP_SEED", raising=False)
    if preset == "json":
        payload = {"name": "j", "kind": "spread", "n": [64, 128], "s": [0.5, 1], "master_seed": 5}
        path = write(tmp_path, json.dumps(payload), "exp.json")
    else:
        path = PRESETS / f"{preset}.cfg"
    items = read_spec(path)
    kind = items["kind"][0]
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    assert main([kind, "--spec", str(path), "--out", str(cli), "--jobs", "1", "trials=20"]) == 0
    items["trials"] = ("20", None)
    assert run_experiment(build_spec(items), lib) == 0
    for name in (f"{kind}.csv", "spec.cfg"):
        assert (cli / name).read_bytes() == (lib / name).read_bytes(), name


def test_cli_error_keeps_the_file_line(tmp_path, capsys):
    # attack=silence leaves the file's prior_size unused; the error names the
    # line it is on in the file.
    path = PRESETS / "attack_prior_desk.cfg"
    lines = path.read_text().splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if text.startswith("prior_size"))
    status = main(["attack", "--spec", str(path), "--out", str(tmp_path / "x"), "attack=silence"])
    assert status == 2
    err = capsys.readouterr().err
    assert f"spec key 'prior_size' (line {line}): not used by kind=attack, attack=silence" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("case", ["missing", "directory", "undecodable", "json_list"])
def test_cli_rejects_an_unusable_spec_file(tmp_path, capsys, case):
    path = tmp_path / "exp.json"
    if case == "directory":
        path.mkdir()
    elif case == "undecodable":
        path.write_bytes(b"name = \xff\xfe\n")
    elif case == "json_list":
        path.write_text("[1, 2]")
    status = main(["spread", "--spec", str(path), "--out", str(tmp_path / "x")])
    assert status == 2
    assert capsys.readouterr().err.startswith("error: spec key '<")
    assert not (tmp_path / "x").exists()


def test_perfbench_names_and_presets_still_match(monkeypatch):
    # The benchmark reads mutegossip names by module attribute, wraps
    # functions of experiments and estimators, and refuses a preset whose
    # echo changed since its reference was recorded: each shows here first.
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> what a mutegossip import binds to it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mutegossip":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):  # a submodule the package does not import
                        importlib.import_module(f"{node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "mutegossip":
                        bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                assert hasattr(bound[node.value.id], node.attr), f"{path.name}: {node.value.id}.{node.attr}"
    loader = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, tracing)  # its dataclasses look it up
    loader.loader.exec_module(tracing)
    import mutegossip.experiments as ex

    plain = ex.estimate_attack_precision
    with tracing.patched(tracing.Tracer()):
        assert ex.estimate_attack_precision is not plain
    assert ex.estimate_attack_precision is plain
    known = json.loads((PERFBENCH / "reference.json").read_text())["presets"]
    for name, digest in known.items():
        text = parse_spec(PRESETS / f"{name}.cfg").frozen_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


@pytest.mark.parametrize("s, rows", [("0", 3), ("0.3", 2), ("1", 1)])
def test_cli_validate_auto_runs_each_closed_form(tmp_path, s, rows):
    # With no quantity, a point runs each quantity that has a closed form at
    # its s, in QUANTITIES order.
    out = tmp_path / "v"
    assert main(["validate", "--out", str(out), "--jobs", "1", "n=200", f"s={s}", "trials=500"]) == 0
    lines = (out / "validate.csv").read_text().splitlines()
    assert len(lines) == 1 + rows
    assert lines[-1].startswith("strong_first_disclosure,")
    assert "quantity = auto" in (out / "spec.cfg").read_text()


def test_cli_validate_rejects_a_quantity_without_closed_form(tmp_path, capsys):
    assert main(["validate", "--out", str(tmp_path / "v"), "quantity=event_f", "s=0"]) == 2
    assert "'quantity'" in capsys.readouterr().err


def test_cli_options_before_or_after_kind(tmp_path):
    # Options may come before <kind>, between it and the key=value arguments,
    # or among them.
    orders = [
        ["--seed", "3", "--jobs", "1", "validate", "n=200", "s=0", "trials=500"],
        ["validate", "--seed", "3", "--jobs", "1", "n=200", "s=0", "trials=500"],
        ["validate", "n=200", "--seed", "3", "s=0", "--jobs", "1", "trials=500"],
    ]
    outs = [tmp_path / str(i) for i in range(len(orders))]
    for argv, out in zip(orders, outs):
        assert main(argv + ["--out", str(out), "quantity=first_sender_source"]) == 0
    csvs = {(out / "validate.csv").read_bytes() for out in outs}
    assert len(csvs) == 1 and b"first_sender_source" in csvs.pop()
