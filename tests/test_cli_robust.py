"""No input ends in a traceback: `cli.main`, driven in-process on mutated
program texts and trace lines in both forms, exits 0, 1 or 2, and every
exit 2 prints exactly one `error:` line."""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace import Engine, event_to_json, parse_program, render_event, stream_events
from boxtrace.cli import main

PROGRAMS = sorted((Path(__file__).resolve().parents[1] / "programs").glob("*.pl"))
PROGRAM_TEXTS = [path.read_bytes() for path in PROGRAMS]


def _trace(path: Path, fmt: str, steps: int) -> bytes:
    render = render_event if fmt == "text" else event_to_json
    events = stream_events(Engine(parse_program(path.read_text())), steps)
    return "".join(render(event) + "\n" for _, event, _ in events).encode()


# Valid traces to mutate, with the format `rebuild` reads them in: choice.pl
# whole (a Redo, a Fail and a success) and counter.pl's first 40 events,
# and choice.pl's JSON-lines trace read as text.
TRACES = [
    (_trace(path, fmt, 40), fmt)
    for path in PROGRAMS
    if path.stem in ("choice", "counter")
    for fmt in ("text", "jsonl")
]
TRACES.append((TRACES[1][0], "text"))

_DIGITS = re.compile(rb"\d+")
# Where a field, a JSON value or a term argument may start.
_STARTS = re.compile(rb"(?:^|[ :,(\n])")


def _nestings(n: int):
    return st.sampled_from(
        [b"f(" * n + b"a" + b")" * n, b"f(" * n, b"[" * n + b"]" * n, b'{"a":' * n]
    )


# Pieces a mutation writes: short noise (non-UTF-8 bytes included), deep
# nesting, balanced or not, and integers far past any counter.
_PIECES = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"]),
    st.sampled_from([2, 200, 3_000, 20_000]).flatmap(_nestings),
)
_NUMBERS = st.sampled_from([b"0", b"-3", b"1.5", b"9" * 40, b"9" * 5_000])

_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 255)),
        st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 16)),
        st.tuples(st.just("insert"), st.integers(0, 10**6), _PIECES),
        st.tuples(st.just("number"), st.integers(0, 10**6), _NUMBERS),
        st.just(("empty", 0, b"")),
    ),
    min_size=1,
    max_size=3,
)


def mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, at, arg in mutations:
        at %= len(buf) + 1
        if kind == "empty":
            buf.clear()
        elif kind == "flip" and buf:
            buf[at % len(buf)] = arg
        elif kind == "delete":
            del buf[at : at + arg]
        elif kind == "insert":  # at the start of a field, value or argument
            starts = [m.end() for m in _STARTS.finditer(buf)] or [0]
            at = starts[at % len(starts)]
            buf[at:at] = arg
        elif kind == "number":  # the first run of digits from `at` on
            found = _DIGITS.search(buf, at)
            if found:
                buf[found.start() : found.end()] = arg
    return bytes(buf)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "input"


def run_cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err.getvalue()[:500]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(PROGRAM_TEXTS),
    _MUTATIONS,
    st.sampled_from(
        [["trace"], ["trace", "--format", "jsonl"], ["trace", "--pretty"], ["check"]]
    ),
)
def test_mutated_programs_end_in_an_exit_code(input_path, text, mutations, command):
    input_path.write_bytes(mutate(text, mutations))
    run_cli([*command, str(input_path), "--max-steps", "60"])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(TRACES), _MUTATIONS)
def test_mutated_traces_end_in_an_exit_code(input_path, trace, mutations):
    text, fmt = trace
    input_path.write_bytes(mutate(text, mutations))
    run_cli(["rebuild", str(input_path), "--format", fmt])
