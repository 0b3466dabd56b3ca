import contextlib
import hashlib
import io
import json
import os
import tracemalloc
from pathlib import Path

import pytest

from boxtrace import (
    Engine,
    GenParams,
    gen_program,
    parse_program,
    render_event,
    render_program,
    stream_events,
)
from boxtrace.cli import main
from tests.conftest import CHOICE_PROGRAM, NO_MATCH, TWO_FACTS, nat_chain


@pytest.fixture
def choice_file(tmp_path):
    path = tmp_path / "choice.pl"
    path.write_text(CHOICE_PROGRAM)
    return str(path)


def test_trace_choice_program(choice_file, capsys):
    assert main(["trace", choice_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    assert lines[0] == "1 1 1 Call goal"
    assert lines[-1] == "10 1 1 Exit goal"


def test_trace_jsonl(choice_file, capsys):
    assert main(["trace", choice_file, "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    first = json.loads(lines[0])
    assert first == {"chrono": 1, "node": 1, "depth": 1, "port": "Call", "goal": "goal"}


def test_trace_pretty_aligns(choice_file, capsys):
    assert main(["trace", choice_file, "--pretty"]) == 0
    lines = capsys.readouterr().out.rstrip().splitlines()
    assert lines[0] == " 1 1 1 Call goal"
    assert lines[-1] == "10 1 1 Exit goal"


def test_trace_max_solutions(tmp_path, capsys):
    path = tmp_path / "facts.pl"
    path.write_text(TWO_FACTS)
    assert main(["trace", str(path), "--max-solutions", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # Call then the first Exit


def test_rebuild_round_trip(choice_file, tmp_path, capsys):
    main(["trace", choice_file])
    trace_text = capsys.readouterr().out
    trace_file = tmp_path / "choice.trace"
    trace_file.write_text(trace_text)

    assert main(["rebuild", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "Call2" in out and "Redo1" in out
    assert "final tree:" in out
    assert "status: success" in out
    assert "#4 eq(b,b)" in out


def test_rebuild_missing_file_exits_2(capsys):
    assert main(["rebuild", "missing.trace"]) == 2
    assert "error" in capsys.readouterr().err


def test_rebuild_corrupt_trace_exits_1(tmp_path, capsys):
    trace_file = tmp_path / "bad.trace"
    trace_file.write_text("1 1 1 Call g\n3 1 1 Exit g\n")
    assert main(["rebuild", str(trace_file)]) == 1
    assert "corrupt" in capsys.readouterr().err


def test_rebuild_port_order_the_box_model_forbids_exits_1(tmp_path, capsys):
    # A Redo after a Fail at the root: the run was over.
    trace_file = tmp_path / "after-fail.trace"
    trace_file.write_text("1 1 1 Call p\n2 1 1 Fail p\n3 1 1 Redo p\n4 1 1 Exit p\n")
    assert main(["rebuild", str(trace_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "    1  Call1\n    2  Fail2\n"
    assert captured.err == (
        "error: corrupt trace: Redo event after a Fail at the root (chrono 3)\n"
    )


def test_rebuild_trace_cut_on_a_redo_is_a_prefix(tmp_path, capsys):
    # The Redo's rule needs the next event: nothing is printed for it, and
    # the tree is the one before it.
    trace_file = tmp_path / "cut.trace"
    trace_file.write_text("1 1 1 Call p(X)\n2 1 1 Exit p(a)\n3 1 1 Redo p(a)\n")
    assert main(["rebuild", str(trace_file)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "    1  Call1\n    2  Exit1\nfinal tree:\nε #1 p(a)\nstatus: unknown\n"
    )
    assert captured.err == "note: trace is a prefix of a longer run\n"


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_rebuild_of_a_capped_trace_that_ends_on_a_redo(tmp_path, capsys, fmt):
    # The cap of 3,000 steps lands on a Redo of counter.pl's enumeration,
    # 75 boxes deep.
    program = str(Path(__file__).resolve().parents[1] / "programs" / "counter.pl")
    assert main(["trace", program, "--max-steps", "3000", "--format", fmt]) == 0
    trace_text = capsys.readouterr().out
    last = trace_text.splitlines()[-1]
    assert (last.split()[3] if fmt == "text" else json.loads(last)["port"]) == "Redo"
    trace_file = tmp_path / "counter.trace"
    trace_file.write_text(trace_text)
    assert main(["rebuild", str(trace_file), "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: trace is a prefix of a longer run\n"
    lines = captured.out.splitlines()
    if fmt == "text":  # 2,999 rules, the tree's heading and boxes, its status
        assert len(lines) == 2999 + 1 + 75 + 1 and lines[-1] == "status: unknown"
    else:
        assert len(lines) == 2999 + 1 and json.loads(lines[-1])["status"] == "unknown"


def test_rebuild_goal_that_differs_from_its_box_exits_1(choice_file, tmp_path, capsys):
    main(["trace", choice_file])
    lines = capsys.readouterr().out.splitlines()
    assert lines[4] == "5 3 2 Fail eq(a,b)"
    lines[4] = "5 3 2 Fail eq(z,z)"
    trace_file = tmp_path / "tampered.trace"
    trace_file.write_text("\n".join(lines) + "\n")
    assert main(["rebuild", str(trace_file)]) == 1
    assert capsys.readouterr().err == (
        "error: corrupt trace: Fail event's goal differs from its box's (chrono 5)\n"
    )


def test_check_pass_exits_0(choice_file, capsys):
    assert main(["check", choice_file]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "10 steps" in out


def test_check_failing_goal_program_still_passes(tmp_path, capsys):
    path = tmp_path / "nomatch.pl"
    path.write_text(NO_MATCH)
    assert main(["check", str(path)]) == 0


def test_check_of_a_deep_run_compares_its_answers(tmp_path, capsys):
    # One line, and no note that the answers went uncompared.
    path = tmp_path / "nat.pl"
    path.write_text(nat_chain(2000))
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].endswith(": pass, 4002 steps checked"), out


def test_check_limit_hit_exits_0(tmp_path, capsys):
    # A capped run is not a failure: the prefix checked passed.
    path = tmp_path / "loop.pl"
    path.write_text("loop :- loop.\n:- loop.")
    assert main(["check", str(path), "--max-steps", "50"]) == 0
    assert "limit-hit" in capsys.readouterr().out


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.pl"
    path.write_text("p(a.\n:- p(a).")
    assert main(["trace", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trace", "check"])
def test_a_variable_named_as_a_rename_exits_2(tmp_path, capsys, command):
    # The trace would print the source X_1 and the first rename of X alike,
    # as one variable: `2 2 2 Call q(f(X_1),X_1)`.
    path = tmp_path / "renamed.pl"
    path.write_text("p(Y) :- q(Y,X). q(f(Z),Z).\n:- p(f(X_1)).\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: reserved variable name 'X_1': a trace reads _k as rename k (line 2, column 8)\n"
    )


def test_parse_error_quotes_a_bounded_part_of_a_long_token(tmp_path, capsys):
    path = tmp_path / "long.pl"
    path.write_text("p(a) " + "a" * 200_000 + ".\n:- p(a).\n")
    assert main(["trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expected '.' or ':-', found 'aaa") and "a... " in err
    assert err.endswith("(line 1, column 6)\n") and len(err.encode()) < 300


def test_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_fuzz_exits_0(capsys):
    assert main(["fuzz", "--seed", "1", "--count", "5", "--max-steps", "2000"]) == 0
    out = capsys.readouterr().out
    assert "5 programs" in out


def test_pipeline_closure(choice_file, tmp_path, capsys):
    # trace -> rebuild reproduces exactly the rule sequence the library run
    # applied: the three surfaces agree on one execution.
    main(["trace", choice_file])
    trace_file = tmp_path / "closure.trace"
    trace_file.write_text(capsys.readouterr().out)

    assert main(["rebuild", str(trace_file)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    printed_rules = [
        line.split()[1] for line in out_lines if line.strip()[:1].isdigit() and "#" not in line
    ]
    engine = Engine(parse_program(CHOICE_PROGRAM))
    assert printed_rules == [rule.value for rule, _, _ in stream_events(engine)]


def test_deep_goal_round_trip(tmp_path, capsys):
    # A goal nested 10,000 deep goes through trace, rebuild and check.
    depth = 10_000
    deep_goal = "f(" * depth + "W" + ")" * depth
    deep_head = "f(" * depth + "Z" + ")" * depth
    path = tmp_path / "deep.pl"
    path.write_text(f"p(X) :- q(X).\nq({deep_head}).\n:- p({deep_goal}).\n")
    assert main(["trace", str(path)]) == 0
    trace_text = capsys.readouterr().out
    assert [line.split()[3] for line in trace_text.splitlines()] == ["Call", "Call", "Exit", "Exit"]
    trace_file = tmp_path / "deep.trace"
    trace_file.write_text(trace_text)
    assert main(["rebuild", str(trace_file)]) == 0
    assert "status: success" in capsys.readouterr().out
    assert main(["check", str(path)]) == 0
    assert "pass, 4 steps checked" in capsys.readouterr().out


def test_malformed_deep_term_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.pl"
    path.write_text("p(X).\n:- p(" + "f(" * 10_000 + "a" + ")" * 10_000 + ".\n")
    assert main(["trace", str(path)]) == 2
    assert "expected ')', found '.' (line 2, column" in capsys.readouterr().err


def test_rebuild_empty_trace_exits_1(tmp_path, capsys):
    trace_file = tmp_path / "empty.trace"
    trace_file.write_text("\n\n")
    assert main(["rebuild", str(trace_file)]) == 1
    assert capsys.readouterr().err == "error: empty trace\n"


def test_rebuild_first_event_not_a_call_exits_1(tmp_path, capsys):
    trace_file = tmp_path / "exit-first.trace"
    trace_file.write_text("1 1 1 Exit a\n")
    assert main(["rebuild", str(trace_file)]) == 1
    assert capsys.readouterr().err == (
        "error: corrupt trace: trace must begin with a Call at chrono 1 (chrono 1)\n"
    )


def test_rebuild_reads_stdin(choice_file, tmp_path, capsys, monkeypatch):
    main(["trace", choice_file])
    trace_text = capsys.readouterr().out
    trace_file = tmp_path / "choice.trace"
    trace_file.write_text(trace_text)
    assert main(["rebuild", str(trace_file)]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(trace_text))
    assert main(["rebuild", "-"]) == 0
    assert capsys.readouterr().out == from_file


def _event_line(fmt: str, chrono, node, depth, port, goal) -> str:
    if fmt == "text":
        return f"{chrono} {node} {depth} {port} {goal}"
    return json.dumps({"chrono": chrono, "node": node, "depth": depth, "port": port, "goal": goal})


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_rebuild_bad_line_exits_2_with_its_number(tmp_path, capsys, fmt):
    trace_file = tmp_path / "bad.trace"
    good = _event_line(fmt, 1, 1, 1, "Call", "p(X)")
    for bad, why in [
        ((2, 1, 1, "Jump", "p(a)"), "unknown port 'Jump'"),
        ((2, 1, -4, "Exit", "p(a)"), "event fields must be positive"),
        ((2, -7, 1, "Exit", "p(a)"), "event fields must be positive"),
        ((2, 1, 1, "Exit", "p(a"), "expected ')', found end of input"),
        ((2, 1, 1, "Exit", "Y_3"), "goal 'Y_3' is a variable"),
    ]:
        trace_file.write_text(f"{good}\n\n{_event_line(fmt, *bad)}\n")
        assert main(["rebuild", str(trace_file), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad trace line: ") and why in err
        # The trace line is named once, by its number in the file.
        assert err.count("(line ") == 1 and err.endswith("(line 3, column 1)\n")


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_rebuild_variable_root_goal_exits_2(tmp_path, capsys, fmt):
    # No box holds a variable, the root's included: the program reader
    # rejects a variable predication, and the trace reader a variable goal.
    trace_file = tmp_path / "variable.trace"
    trace_file.write_text(_event_line(fmt, 1, 1, 1, "Call", "X") + "\n")
    assert main(["rebuild", str(trace_file), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad trace line: goal 'X' is a variable (line 1, column 1)\n"


@pytest.mark.parametrize(
    "bad",
    [
        "[" * 200_000,
        '{"a":' * 200_000,
        '{"chrono": ' + "9" * 5_000 + ', "node": 1, "depth": 1, "port": "Exit", "goal": "a"}',
    ],
    ids=["deep-array", "deep-object", "huge-integer"],
)
def test_rebuild_json_past_the_decoders_limits_exits_2(tmp_path, capsys, bad):
    # Nesting deeper than the JSON decoder's stack, and an integer too long
    # to convert, are malformed lines like any other.
    trace_file = tmp_path / "deep.jsonl"
    trace_file.write_text(_event_line("jsonl", 1, 1, 1, "Call", "p(X)") + "\n" + bad + "\n")
    assert main(["rebuild", str(trace_file), "--format", "jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad trace line: malformed JSON event ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("(line 2, column 1)\n")


@pytest.mark.parametrize(
    "fmt, bad, message",
    [
        ("jsonl", "[" * 200_000, "malformed JSON event"),
        ("text", "1 1 1 " + "J" * 200_000 + " p(a)", "unknown port"),
        # A field too long for int() is no integer, in text as in JSON.
        ("text", "9" * 5_000 + " 1 1 Call p(a)", "non-integer event field"),
    ],
    ids=["deep-array", "long-port", "huge-integer"],
)
def test_rebuild_quotes_a_bounded_part_of_a_bad_line(tmp_path, capsys, fmt, bad, message):
    trace_file = tmp_path / "long.trace"
    trace_file.write_text(bad + "\n")
    assert main(["rebuild", str(trace_file), "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad trace line: {message} ") and "..." in err
    assert err.endswith("(line 1, column 1)\n") and len(err.encode()) < 300


def test_rebuild_reused_creation_number_exits_1(choice_file, tmp_path, capsys):
    # The Redo at chrono 6 prunes box 3; the run numbers its next box 4,
    # and no run hands out a number twice.
    main(["trace", choice_file])
    lines = capsys.readouterr().out.splitlines()
    for i in (7, 8):  # events 8 and 9
        chrono, node, rest = lines[i].split(" ", 2)
        assert node == "4"
        lines[i] = f"{chrono} 3 {rest}"
    trace_file = tmp_path / "reused.trace"
    trace_file.write_text("\n".join(lines) + "\n")
    assert main(["rebuild", str(trace_file)]) == 1
    err = capsys.readouterr().err
    assert err == "error: corrupt trace: creation number 3 was used before (chrono 7)\n"


def test_rebuild_notes_depths_the_tree_does_not_give(choice_file, tmp_path, capsys):
    # Replay never reads the depth: a wrong one keeps the output and the
    # exit code, and adds a note with the count and the first chrono.
    main(["trace", choice_file])
    lines = capsys.readouterr().out.splitlines()
    trace_file = tmp_path / "choice.trace"
    trace_file.write_text("\n".join(lines) + "\n")
    assert main(["rebuild", str(trace_file)]) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    assert lines[3] == "4 3 2 Call eq(a,b)" and lines[4] == "5 3 2 Fail eq(a,b)"
    lines[3], lines[4] = "4 3 7 Call eq(a,b)", "5 3 1 Fail eq(a,b)"
    trace_file.write_text("\n".join(lines) + "\n")
    assert main(["rebuild", str(trace_file)]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean.out
    assert captured.err == (
        "note: 2 event depth(s) disagree with the replayed tree, first at chrono 4\n"
    )


def _rebuild_peak(path: str) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["rebuild", path]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_rebuild_streams_in_constant_memory(tmp_path):
    # A flat trace (Call, then Exit and Redo at the root per fact) and one
    # that backtracks across a new box per fact (each r(c_i) box fails, and
    # the Redo of q(X) drops it): replay holds a few boxes whatever the
    # length, so twice the events may not need noticeably more memory.
    programs = {
        "flat": lambda facts: "".join(f"p(c{i}).\n" for i in range(facts)) + ":- p(X).\n",
        "backtracking": lambda facts: "".join(f"q(c{i}).\n" for i in range(facts))
        + f"r(c{facts - 1}).\np :- q(X), r(X).\n:- p.\n",
    }
    for name, text in programs.items():
        paths = []
        for facts in (1000, 2000):
            program = parse_program(text(facts))
            path = tmp_path / f"{name}{facts}.trace"
            with path.open("w") as handle:
                for _, event, _ in stream_events(Engine(program)):
                    handle.write(render_event(event) + "\n")
            paths.append(str(path))
        _rebuild_peak(paths[0])  # warm-up: first-use allocations are not replay's
        short, long = _rebuild_peak(paths[0]), _rebuild_peak(paths[1])
        assert long <= 1.3 * short, (name, short, long)


def test_rebuild_lints_depths_in_constant_memory(tmp_path, capsys):
    # The flat trace with every depth one too deep: each event is linted,
    # and the lint keeps only a count and the first mismatch.
    paths = []
    for facts in (1000, 2000):
        program = parse_program("".join(f"p(c{i}).\n" for i in range(facts)) + ":- p(X).\n")
        path = tmp_path / f"deeper{facts}.trace"
        with path.open("w") as handle:
            for _, event, _ in stream_events(Engine(program)):
                handle.write(render_event(event._replace(depth=event.depth + 1)) + "\n")
        paths.append(str(path))
    _rebuild_peak(paths[0])  # warm-up: first-use allocations are not replay's
    short, long = _rebuild_peak(paths[0]), _rebuild_peak(paths[1])
    assert long <= 1.3 * short, (short, long)
    assert capsys.readouterr().err.endswith(
        "note: 4000 event depth(s) disagree with the replayed tree, first at chrono 1\n"
    )


@pytest.mark.parametrize("command", ["trace", "check", "rebuild"])
def test_input_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("p(café).\n:- p(X).\n".encode("latin-1"))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--max-steps", "-1"],
        ["check", "--max-steps", "-1"],
        ["fuzz", "--max-steps", "-1"],
        ["fuzz", "--count", "-3"],
        ["trace", "--max-solutions", "0"],
    ],
    ids=" ".join,
)
def test_out_of_range_counts_are_usage_errors(choice_file, capsys, argv):
    if argv[0] != "fuzz":
        argv = [argv[0], choice_file, *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: " in captured.err


# sha256 of `boxtrace trace PROGRAM --max-steps 3000` stdout (text, jsonl)
# for each file under programs/, taken before the term kernels dispatched
# on exact class.  The golden trace compares goals up to renaming; these
# pin every byte, the printed name of every variable included.
_PROGRAMS = Path(__file__).resolve().parents[1] / "programs"
_TRACE_SHA256 = {
    "choice.pl": (
        "e194735f50316c81dee373fd8e6dbd75f3aec7c94cc73220030779ca83dd26a8",
        "f50a0d7f1227265ea22e10374fc24793294dd3044ea0bc32e97057cffb0eb690",
    ),
    "counter.pl": (
        "218859aeab5e51d115bc53a7c97dd645fba681ba252acb0fa3ef04db0918b71f",
        "339253b98cb061951e291a27f297857abc1247d6fc6fda8fc9d7e258eb4b315d",
    ),
    "no_match.pl": (
        "05993ce819c07e0a28c6fdad2c854a613cea5e06692b207917a5a6055227e4c0",
        "1374c5ca6ce2654a8cda484c6bf8e976920b670906d56abc54fb297730368d02",
    ),
    "two_facts.pl": (
        "e92ee25bea645a351c9ba5862e859a7305e4d1c2220af69f8c9478f3c1f248a4",
        "739aa055f639c7d2859cc6cf24a7ea4a443fbf89a34ddae71340e3c2ba524e61",
    ),
}


def test_every_program_has_a_pinned_trace():
    assert sorted(p.name for p in _PROGRAMS.glob("*.pl")) == sorted(_TRACE_SHA256)


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize("name", sorted(_TRACE_SHA256))
def test_trace_output_is_byte_identical(name, fmt, capsys):
    assert main(["trace", str(_PROGRAMS / name), "--max-steps", "3000", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _TRACE_SHA256[name][fmt == "jsonl"]


# sha256 of `boxtrace rebuild` stdout (text, jsonl) on the trace of each
# file under programs/ at `--max-steps 3000`, in the same format, taken
# before the reader had its flat-goal path and `rebuild` wrote each rule
# line with one call.
_REBUILD_SHA256 = {
    "choice.pl": (
        "078452ff227a82067e31724f1dfaa770adc7430e0aae4b4d5fe78f6b940ac420",
        "034002de44f0ecea5f992c5442c484d963aa070333e58672690acd5264415bb7",
    ),
    "counter.pl": (
        "b54c2018bc73f267126daaef4f995ef00d5f8e95f444e6c6710598ce2461c188",
        "a88531ef5c2e6612d97c9c186cc15b6f7881ca3084661b095c55af0e52cda9c0",
    ),
    "no_match.pl": (
        "a780ec9b416e134f77e640f2ce36eea1fc7f1dfa997f52571bd52367c6328396",
        "0a70dcd46d9b60acfd2c0a5b528eaefd2cb0d05b8f3bc3dbed6358195c8bd8b4",
    ),
    "two_facts.pl": (
        "1a354543c7ac5e68b5b5121841c2c37f38ae2ba1db13f5db9f12b3f64e9cb0fe",
        "defaf2fe1f69fb86638be812e0aaf0c74f05837d4d17282727cfc2df4ec928a7",
    ),
}


def test_every_program_has_a_pinned_rebuild():
    assert sorted(p.name for p in _PROGRAMS.glob("*.pl")) == sorted(_REBUILD_SHA256)


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize("name", sorted(_REBUILD_SHA256))
def test_rebuild_output_is_byte_identical(name, fmt, tmp_path, capsys):
    assert main(["trace", str(_PROGRAMS / name), "--max-steps", "3000", "--format", fmt]) == 0
    trace_file = tmp_path / f"trace.{fmt}"
    trace_file.write_text(capsys.readouterr().out)
    assert main(["rebuild", str(trace_file), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _REBUILD_SHA256[name][fmt == "jsonl"]


# sha256 of the `trace` and `check` output (stdout, then stderr) of
# generated programs, and of `trace` (text, jsonl) and `check` on a
# join-shaped program, taken before clause heads were unified as read and
# body goals built in one pass.  Every printed variable name depends on the
# order in which unification takes pairs and on the direction it binds.
_GENERATED_SHA256 = "357fe510ffee7ab2c6588e257366956b531009e56254aa01fc7bc2780f2870b8"
_JOIN_SHA256 = "ef262fa9799f92a0d3dd2749f97fc2e9311cb90c0c3f7c6797f2f53ccd0088c9"


def _join_text(nodes=40, offsets=(1, 3, 7, 12), hops=3):
    """The shape of the benchmark's join: a regular graph of `e/2` facts,
    marked nodes, and one rule asking for every `hops`-edge path that ends
    at a marked node, with a final fact so that the run ends on an answer."""
    label = [(17 * i + 5) % nodes for i in range(nodes)]
    lines = [f"e(n{label[i]},n{label[(i + off) % nodes]})." for off in offsets for i in range(nodes)]
    lines += [f"mark(n{m})." for m in range(0, nodes, 4)]
    vs = [f"V{i}" for i in range(hops + 1)]
    body = ",".join(f"e({vs[i]},{vs[i + 1]})" for i in range(hops))
    lines.append(f"path({','.join(vs)}) :- {body},mark({vs[-1]}).")
    lines.append(f"path({','.join(['end'] * (hops + 1))}).")
    lines.append(f":- path({','.join(vs)}).")
    return "\n".join(lines) + "\n"


def _outputs_digest(runs, capsys):
    digest = hashlib.sha256()
    for argv in runs:
        main(argv)
        captured = capsys.readouterr()
        digest.update(captured.out.encode() + b"\0" + captured.err.encode() + b"\0")
    return digest.hexdigest()


def test_generated_traces_and_reports_are_byte_identical(tmp_path, capsys):
    runs = []
    for seed in range(300):
        path = tmp_path / f"gen{seed}.pl"
        path.write_text(render_program(gen_program(GenParams(seed=seed, recursion_prob=0.15))))
        runs += [["trace", str(path), "--max-steps", "300"], ["check", str(path), "--max-steps", "300"]]
    assert _outputs_digest(runs, capsys) == _GENERATED_SHA256


def test_join_trace_and_report_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "join.pl"
    path.write_text(_join_text())
    runs = [["trace", str(path)], ["trace", str(path), "--format", "jsonl"], ["check", str(path)]]
    assert _outputs_digest(runs, capsys) == _JOIN_SHA256
