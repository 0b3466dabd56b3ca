import contextlib
import io
import json
import os
import tracemalloc

import pytest

from boxtrace import Engine, parse_program, render_event, stream_events
from boxtrace.cli import main
from tests.conftest import CHOICE_PROGRAM, NO_MATCH, TWO_FACTS


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


def test_rebuild_truncated_trace_exits_1(tmp_path, capsys):
    trace_file = tmp_path / "cut.trace"
    trace_file.write_text("1 1 1 Call p(X)\n2 1 1 Exit p(a)\n3 1 1 Redo p(a)\n")
    assert main(["rebuild", str(trace_file)]) == 1
    assert "truncated" in capsys.readouterr().err


def test_check_pass_exits_0(choice_file, capsys):
    assert main(["check", choice_file]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "10 steps" in out


def test_check_failing_goal_program_still_passes(tmp_path, capsys):
    path = tmp_path / "nomatch.pl"
    path.write_text(NO_MATCH)
    assert main(["check", str(path)]) == 0


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
    ]:
        trace_file.write_text(f"{good}\n\n{_event_line(fmt, *bad)}\n")
        assert main(["rebuild", str(trace_file), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad trace line: ") and why in err
        # The trace line is named once, by its number in the file.
        assert err.count("(line ") == 1 and err.endswith("(line 3, column 1)\n")


def _rebuild_peak(path: str) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["rebuild", path]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_rebuild_streams_in_constant_memory(tmp_path):
    # A flat trace (Call, then Exit and Redo at the root per fact): replay
    # holds one box whatever the length, so twice the events may not need
    # noticeably more memory.
    paths = []
    for facts in (1000, 2000):
        program = parse_program("".join(f"p(c{i}).\n" for i in range(facts)) + ":- p(X).\n")
        path = tmp_path / f"flat{facts}.trace"
        with path.open("w") as handle:
            for _, event, _ in stream_events(Engine(program)):
                handle.write(render_event(event) + "\n")
        paths.append(str(path))
    _rebuild_peak(paths[0])  # warm-up: first-use allocations are not replay's
    short, long = _rebuild_peak(paths[0]), _rebuild_peak(paths[1])
    assert long <= 1.3 * short, (short, long)


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
