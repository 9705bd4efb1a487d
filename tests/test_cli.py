import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mopdom import (
    bound_report,
    cli,
    constructive,
    exact_min_double_dom,
    random_mop,
    snake,
    to_json,
)
from mopdom.cli import run


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def lines(capsys):
    out = capsys.readouterr().out
    return [ln for ln in out.splitlines() if ln]


# --- gen ---------------------------------------------------------------


def test_gen_fan(capsys):
    assert run(["gen", "fan", "2"]) == 0
    (line,) = lines(capsys)
    obj = json.loads(line)
    assert obj["n"] == 7 and len(obj["chords"]) == 4


def test_gen_snake_and_fixture(capsys):
    assert run(["gen", "snake", "6"]) == 0
    assert run(["gen", "fixture", "triforce9"]) == 0
    got = lines(capsys)
    assert json.loads(got[0]) == json.loads(to_json(snake(6)))
    assert json.loads(got[1])["n"] == 9


def test_gen_unknown_fixture_is_usage_error(capsys):
    assert run(["gen", "fixture", "nope"]) == 2
    capsys.readouterr()


def test_gen_enumerate(capsys):
    assert run(["gen", "enumerate", "5"]) == 0
    assert len(lines(capsys)) == 5
    assert run(["gen", "enumerate", "5", "--dedup"]) == 0
    assert len(lines(capsys)) == 1


def test_gen_random_is_seeded(capsys):
    assert run(["gen", "random", "8", "--seed", "5", "--count", "3"]) == 0
    got = lines(capsys)
    assert got == [to_json(random_mop(8, 5 + i)) for i in range(3)]


@pytest.mark.parametrize("count, emitted", [("-1", None), ("0", 0), ("2", 2)])
def test_gen_random_count_must_not_be_negative(capsys, count, emitted):
    code = run(["gen", "random", "10", "--count", count])
    captured = capsys.readouterr()
    if emitted is None:
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: bad --count {count}: must be >= 0\n"
    else:
        assert code == 0 and len(captured.out.splitlines()) == emitted


def test_gen_bad_parameter(capsys):
    assert run(["gen", "snake", "3"]) == 2
    assert "error:" in capsys.readouterr().err


# --- solve ---------------------------------------------------------------


def test_solve_reads_stdin(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(11)) + "\n" + to_json(snake(12)) + "\n")
    assert run(["solve"]) == 0
    got = [json.loads(ln) for ln in lines(capsys)]
    assert [o["n"] for o in got] == [11, 12]
    assert all(o["certified"] for o in got)
    assert all(2 * o["size"] <= o["n"] + o["k"] for o in got)
    assert "trace" not in got[0]


def test_solve_with_trace(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(12)))
    assert run(["solve", "--trace"]) == 0
    (obj,) = [json.loads(ln) for ln in lines(capsys)]
    assert [s["rule"] for s in obj["trace"]] == ["C4", "base_case"]
    assert obj["soft_failures"] == {"telescope": 0, "size_exact": 0, "printed_k": 0}


def test_solve_rejects_tiny_graph(capsys, monkeypatch):
    feed(monkeypatch, '{"n": 3, "chords": []}')
    assert run(["solve"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_empty_input(capsys, monkeypatch):
    feed(monkeypatch, "# nothing here\n")
    assert run(["solve"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    [
        '{"n": "abc", "chords": []}',
        '{"n": 5, "chords": 5}',
        '{"n": 5, "chords": [[0, 2], [0',
        '{"n": 5.7, "chords": [[0, 2], [0, 3]]}',
        '{"n": 5, "chords": [[true, 3], [1, 4]]}',
        "[" * 100_000,
    ],
    ids=[
        "n_not_a_number",
        "chords_not_a_list",
        "truncated_json",
        "float_n",
        "bool_vertex",
        "deeply_nested_json",
    ],
)
def test_solve_malformed_graph_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "g.ndjson"
    path.write_text(text + "\n")
    assert run(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_solve_missing_file_is_usage_error(capsys, tmp_path):
    assert run(["solve", str(tmp_path / "missing.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read")


def test_solve_non_utf8_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "g.ndjson"
    path.write_bytes(b"\xff\xfe" + to_json(snake(6)).encode("utf-16-le"))
    assert run(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not UTF-8" in captured.err


def test_bad_line_is_named_after_earlier_records(capsys, monkeypatch):
    # Graphs are read line by line: the first record is printed before the
    # bad third line is read, and the error names that line.
    seen = []

    class Stdin:
        def __iter__(self):
            yield to_json(snake(6)) + "\n"
            yield "# a comment\n"
            seen.append(capsys.readouterr().out)
            yield '{"n": 5, "chords": [[0, 2]]}\n'

    monkeypatch.setattr("sys.stdin", Stdin())
    assert run(["solve"]) == 2
    captured = capsys.readouterr()
    assert [json.loads(x)["n"] for x in seen[0].splitlines()] == [6]
    assert captured.out == ""
    assert captured.err == "error: line 3: n=5 needs 2 chords, got 1\n"


def test_import_leaves_multiprocessing_out():
    # Only `stress --jobs N` with N > 1 needs a pool; every other start
    # skips the import.  Every process pays for what the import pulls in,
    # and numpy and scipy, installed as test extras, would show here.
    slow = ("multiprocessing", "concurrent.futures", "asyncio", "numpy", "scipy")
    code = f"import sys, mopdom.cli; print([m for m in {slow!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "[]\n")


# --- exact ---------------------------------------------------------------


def test_exact_modes(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g.ndjson"
    path.write_text(to_json(snake(6)) + "\n")
    for mode, size in [("literal", 3), ("standard", 4), ("twodom", 3)]:
        assert run(["exact", str(path), "--mode", mode]) == 0
        (obj,) = [json.loads(ln) for ln in lines(capsys)]
        assert obj["size"] == size and obj["mode"] == mode

    assert run(["exact", str(path), "--forbid-deg2"]) == 0
    (obj,) = [json.loads(ln) for ln in lines(capsys)]
    assert obj["witness"] == [1, 2, 4, 5]


def test_exact_twodom_honours_forbid_deg2(capsys, monkeypatch):
    for mode in ("literal", "twodom"):
        feed(monkeypatch, to_json(snake(6)))
        assert run(["exact", "--mode", mode, "--forbid-deg2"]) == 0
        (obj,) = [json.loads(ln) for ln in lines(capsys)]
        assert obj == {"n": 6, "mode": mode, "size": 4, "witness": [1, 2, 4, 5]}


def test_exact_infeasible(capsys, monkeypatch):
    feed(monkeypatch, '{"n": 3, "chords": []}')
    assert run(["exact", "--forbid-deg2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("env", [None, "abc", "8"], ids=["unset", "garbage", "small"])
def test_exact_and_report_have_no_size_limit(capsys, monkeypatch, env):
    # MOPDOM_EXACT_LIMIT is gone: whatever it holds, nothing reads it.
    if env is None:
        monkeypatch.delenv("MOPDOM_EXACT_LIMIT", raising=False)
    else:
        monkeypatch.setenv("MOPDOM_EXACT_LIMIT", env)
    g = random_mop(1000, 1)
    r = bound_report(g)
    for mode in ("literal", "standard"):
        feed(monkeypatch, to_json(g))
        assert run(["exact", "--mode", mode]) == 0
        (obj,) = [json.loads(ln) for ln in lines(capsys)]
        assert (obj["n"], obj["size"]) == (1000, exact_min_double_dom(g, mode)[0])
    feed(monkeypatch, to_json(g))
    assert run(["report", "--format", "json"]) == 0
    (obj,) = [json.loads(ln) for ln in lines(capsys)]
    assert obj == r.to_obj()
    assert (obj["exact_literal"], obj["exact_standard"]) == (442, 506)


# --- verify ---------------------------------------------------------------


def test_verify_valid_and_invalid(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(6)))
    assert run(["verify", "--set", "3,1,0"]) == 0
    (obj,) = [json.loads(ln) for ln in lines(capsys)]
    assert obj == {"n": 6, "set": [0, 1, 3], "mode": "literal", "valid": True}

    feed(monkeypatch, to_json(snake(6)))
    assert run(["verify", "--set", "0,1,3", "--mode", "standard"]) == 1
    (obj,) = [json.loads(ln) for ln in lines(capsys)]
    assert obj["valid"] is False


def test_verify_mixed_batch_fails(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(6)) + "\n" + to_json(snake(8)))
    assert run(["verify", "--set", "0,1,3"]) == 1
    got = [json.loads(ln)["valid"] for ln in lines(capsys)]
    assert got == [True, False]


def test_verify_out_of_range_set(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(6)))
    assert run(["verify", "--set", "0,1,99"]) == 1
    capsys.readouterr()


def test_verify_malformed_set(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(6)))
    assert run(["verify", "--set", "0,x"]) == 2
    assert "comma-separated" in capsys.readouterr().err


# --- report ---------------------------------------------------------------


def test_report_csv(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(6)))
    assert run(["report"]) == 0
    header, row = lines(capsys)
    assert header.startswith("n,t,k,")
    assert row == "6,2,2,4,4,4,3,3,4,3,1,1,1,1"


def test_report_csv_no_exact(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(30)))
    assert run(["report", "--no-exact"]) == 0
    _, row = lines(capsys)
    assert row.endswith(",,,,,,,")


@pytest.mark.parametrize("flags", [(), ("--no-exact",)])
def test_report_prints_no_header_for_a_graph_it_cannot_report(capsys, monkeypatch, flags):
    feed(monkeypatch, '{"n": 3, "chords": []}')
    assert run(["report", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_report_json(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(6)))
    assert run(["report", "--format", "json"]) == 0
    (obj,) = [json.loads(ln) for ln in lines(capsys)]
    assert obj["exact_literal"] == 3 and obj["ok_main"] is True


# snake(7) has bounds 14/3 and 4.5, so these pin the `:g` CSV formatting and
# the JSON float output byte for byte.
SNAKE7_HEADER = (
    "n,t,k,bound_zhuang_23,bound_zhuang_nt,bound_main,lower_bound,"
    "exact_literal,exact_standard,exact_2dom,"
    "ok_zhuang_23,ok_zhuang_nt,ok_main,ok_lower"
)
SNAKE7_REPORTS = {
    (): [SNAKE7_HEADER, "7,2,2,4.66667,4.5,4.5,3,3,4,3,1,1,1,1"],
    ("--no-exact",): [SNAKE7_HEADER, "7,2,2,4.66667,4.5,4.5,3,,,,,,,"],
    ("--format", "json", "--no-exact"): [
        '{"n": 7, "t": 2, "k": 2, "bound_zhuang_23": 4.666666666666667, '
        '"bound_zhuang_nt": 4.5, "bound_main": 4.5, "lower_bound": 3, '
        '"exact_literal": null, "exact_standard": null, "exact_2dom": null}'
    ],
    ("--format", "json"): [
        '{"n": 7, "t": 2, "k": 2, "bound_zhuang_23": 4.666666666666667, '
        '"bound_zhuang_nt": 4.5, "bound_main": 4.5, "lower_bound": 3, '
        '"exact_literal": 3, "exact_standard": 4, "exact_2dom": 3, '
        '"ok_zhuang_23": true, "ok_zhuang_nt": true, "ok_main": true, "ok_lower": true}'
    ],
}


@pytest.mark.parametrize("flags", list(SNAKE7_REPORTS))
def test_report_bytes_pinned(capsys, monkeypatch, flags):
    feed(monkeypatch, to_json(snake(7)))
    assert run(["report", *flags]) == 0
    assert capsys.readouterr().out == "\n".join(SNAKE7_REPORTS[flags]) + "\n"


# --- stress ---------------------------------------------------------------


def test_stress_exhaustive_band(capsys):
    assert run(["stress", "--n-min", "4", "--n-max", "6"]) == 0
    out = lines(capsys)
    assert out[0] == "n=4: 2/2 ok  soft: telescope=0 size_exact=0 printed_k=0"
    assert out[-1] == "total: 21/21 ok, 0 violations"


def test_stress_with_random_phase(capsys):
    assert (
        run(
            ["stress", "--n-min", "9", "--n-max", "9", "--random-count", "4",
             "--random-n-range", "10,14", "--seed", "7", "--jobs", "2"]
        )
        == 0
    )
    out = lines(capsys)
    assert out[-1].startswith("total: ") and out[-1].endswith("0 violations")


def test_stress_rejects_bad_range(capsys):
    assert run(["stress", "--random-count", "1", "--random-n-range", "3,9"]) == 2
    assert "bad --random-n-range" in capsys.readouterr().err


def test_stress_rejects_n_min_below_four(capsys):
    # the triangle is outside the engine's domain, not a campaign violation
    assert run(["stress", "--n-min", "3", "--n-max", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad --n-min 3")


def test_stress_strict_writes_no_reports_when_clean(capsys, tmp_path):
    out_dir = tmp_path / "viol"
    assert (
        run(["stress", "--n-min", "4", "--n-max", "5", "--strict",
             "--out-dir", str(out_dir)])
        == 0
    )
    capsys.readouterr()
    assert not out_dir.exists()


# With an empty manifest every n >= 9 graph is an engine error, so this
# campaign writes one report per graph.  The digests were taken from the
# campaign that serialised every instance to JSON before solving it.
VIOLATION_ARGV = [
    "stress", "--n-min", "9", "--n-max", "9", "--random-count", "2", "--seed", "3",
    "--random-n-range", "10,12",
]
VIOLATION_STDOUT_SHA256 = "d91ca6e7c4a1a614ffe4d6ffa1ea1887351e55793d27188b651fd285a70ef96b"
VIOLATION_REPORTS_SHA256 = "da9a81430b8679db7e92526b71911af48d987b1fc3b13d0197dce00b9250a984"


def test_stress_violation_reports_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(constructive, "load_rules", lambda: ({}, {}))
    out_dir = tmp_path / "viol"
    assert run([*VIOLATION_ARGV, "--out-dir", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "total: 0/431 ok, 431 violations"
    assert hashlib.sha256(out.encode()).hexdigest() == VIOLATION_STDOUT_SHA256
    files = sorted(out_dir.iterdir())
    assert [f.name for f in files] == [f"violation_{i:04d}.json" for i in range(431)]
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    assert h.hexdigest() == VIOLATION_REPORTS_SHA256


def test_stress_streams_graphs_to_the_engine(capsys, monkeypatch):
    drawn = 0
    drawn_at_first_solve = []
    calls = {"from_json": 0, "to_json": 0}

    def counting_enumerate(n, **kw):
        nonlocal drawn
        for g in enumerate_all(n, **kw):
            drawn += 1
            yield g

    def watching_solve(g, **kw):
        if not drawn_at_first_solve:
            drawn_at_first_solve.append(drawn)
        return solve_bound(g, **kw)

    def counting(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)

        return wrapper

    enumerate_all, solve_bound = cli.enumerate_all, cli.solve_bound
    monkeypatch.setattr(cli, "enumerate_all", counting_enumerate)
    monkeypatch.setattr(cli, "solve_bound", watching_solve)
    monkeypatch.setattr(cli, "from_json", counting("from_json", cli.from_json))
    monkeypatch.setattr(cli, "to_json", counting("to_json", cli.to_json))
    assert run(["stress", "--n-min", "7", "--n-max", "8", "--jobs", "1", "--strict"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: 174/174 ok, 0 violations"
    assert drawn == 174
    assert drawn_at_first_solve == [1]
    assert calls == {"from_json": 0, "to_json": 0}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n-min", "6", "--n-max", "5"], "error: empty campaign"),
        (["--n-min", "6", "--n-max", "5", "--random-count", "0"], "error: empty campaign"),
        (["--random-count", "-1"], "error: bad --random-count -1"),
        (["--n-min", "6", "--n-max", "5", "--random-count", "-3"], "error: bad --random-count -3"),
        # checked before the first graph is drawn, so no band is solved first
        (["--n-min", "9", "--n-max", "17"], "error: bad --n-max 17"),
        (["--n-max", "17"], "error: bad --n-max 17"),
        (["--n-max", "5", "--random-count", "1", "--random-n-range", "9,8"],
         "error: bad --random-n-range 9,8"),
        (["--jobs", "0"], "error: bad --jobs 0"),
        (["--jobs", "-3"], "error: bad --jobs -3"),
    ],
    ids=["empty_band", "empty_band_zero_random", "negative_random_count",
         "negative_random_count_empty_band", "n_max_17_after_band", "n_max_17",
         "random_range_before_band", "zero_jobs", "negative_jobs"],
)
def test_stress_rejects_bad_campaign_before_solving(capsys, monkeypatch, argv, message):
    def no_engine(g, **kw):
        raise AssertionError("the engine ran before the arguments were checked")

    monkeypatch.setattr(cli, "solve_bound", no_engine)
    assert run(["stress", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_stress_random_only_campaign(capsys):
    # an empty exhaustive band is fine when the random phase checks graphs
    assert (
        run(["stress", "--n-min", "5", "--n-max", "4", "--random-count", "3",
             "--random-n-range", "9,12"])
        == 0
    )
    assert capsys.readouterr().out.splitlines()[-1] == "total: 3/3 ok, 0 violations"


# --- convert ---------------------------------------------------------------


def test_convert_roundtrip(capsys, monkeypatch, tmp_path):
    feed(monkeypatch, to_json(snake(7)))
    assert run(["convert", "--to", "edges"]) == 0
    edges_text = capsys.readouterr().out

    path = tmp_path / "g.edges"
    path.write_text(edges_text)
    assert run(["convert", str(path), "--to", "json"]) == 0
    (obj,) = [json.loads(ln) for ln in lines(capsys)]
    assert obj["n"] == 7 and len(obj["chords"]) == 4


def test_convert_to_dot(capsys, monkeypatch):
    feed(monkeypatch, to_json(snake(5)))
    assert run(["convert", "--to", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph mop {") and out.count(" -- ") == 7


def test_convert_accepts_string_ids(capsys, monkeypatch):
    feed(monkeypatch, "a b\nb c\nc a\n")
    assert run(["convert", "--to", "json"]) == 0
    (obj,) = [json.loads(ln) for ln in lines(capsys)]
    assert obj == {"n": 3, "chords": []}


def test_convert_rejects_non_mop_edges(capsys, monkeypatch):
    feed(monkeypatch, "0 1\n1 2\n")
    assert run(["convert", "--to", "json"]) == 2
    assert "error:" in capsys.readouterr().err


# --- fuzzing the input boundary ------------------------------------------------

_FRAGMENTS = [
    "{", "}", "[", "]", ",", ":", " ", "\n", '"n"', '"chords"', "0", "1", "2", "3",
    "5", "-1", "9", "1e3", "2.5", "true", "null", '"a"', "[0, 2]", "[1, 3]",
    '{"n": 5, "chords": [[0, 2], [0, 3]]}', '{"n": 4, "chords": [[0, 2]]}', "#",
    "0 1", "1 2", "2 0", "a b", "\t", "\xff", "\u00e9",
]
_FUZZ_ARGVS = [
    ["solve"], ["solve", "--trace"], ["exact"], ["report"], ["verify", "--set", "0,1"],
    ["convert", "--to", "json"], ["convert", "--to", "dot"],
]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map(
            lambda parts: "".join(parts).encode("utf-8", "surrogatepass")
        ),
    )
)
def test_fuzzed_input_exits_cleanly(capsys, tmp_path, data):
    path = tmp_path / "fuzz.in"
    path.write_bytes(data)
    for argv in _FUZZ_ARGVS:
        code = run([*argv, str(path)])
        assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), (argv, data)
    capsys.readouterr()


# --- plumbing ---------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_command(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


# The random phase's origins and chords, drawn without solving.  An empty
# band (--n-min above --n-max) leaves only the random phase.  "10,10" draws
# no n at all; "4,200" interleaves 32-bit n draws with 64-bit seed draws.
# The digests were taken from the campaign that drew from numpy's Philox.
@pytest.mark.parametrize(
    "seed, n_range, digest",
    [
        ("0", "10,10", "f561cbbe006ed78a4fbd84183540f7f2bba0bf4fabae944ff38837b19b5c10b7"),
        ("0", "4,200", "e5d142d0b7cb37b17b026e8c9392d75d6a41f4c42d21874cc2085552782d1322"),
        ("3", "4,200", "0dab44a8e195f54c6f48dbcf6422d130dde2f12d945569b301cc6aac5ea2a4d2"),
        ("-5", "14,60", "5d96dc84375b4b24f8920cc2258f2db3eca3f8cbd1d16588691106f7b881e852"),
        # masked to 64 bits, so the same campaign as --seed 3
        (str(2**64 + 3), "4,200", "0dab44a8e195f54c6f48dbcf6422d130dde2f12d945569b301cc6aac5ea2a4d2"),
    ],
)
def test_stress_random_phase_pinned(seed, n_range, digest):
    args = cli._build_parser().parse_args(
        ["stress", "--n-min", "5", "--n-max", "4", "--random-count", "40",
         "--random-n-range", n_range, "--seed", seed]
    )
    h = hashlib.sha256()
    for origin, g in cli._campaign(args):
        h.update(f"{origin}:{g.chords}\n".encode())
    assert h.hexdigest() == digest
