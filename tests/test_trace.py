import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace import (
    Atom,
    Compound,
    Engine,
    GenParams,
    ParseError,
    Port,
    TraceEvent,
    Variable,
    alpha_equal,
    event_to_json,
    gen_program,
    parse_program,
    parse_trace_text,
    render_event,
    render_term,
    stream_events,
)
import boxtrace.trace as trace_module
from boxtrace.engine import ROOT
from boxtrace.parser import parse_term_text
from boxtrace.trace import render_events_pretty
from tests.conftest import events_of
from tests.references import events_alpha_equal, is_instance_of, write_trace_text
from tests.snapshots import event_of, node_depth, path_of, record, reference_events

# The reference event table for the running example (variables compared up
# to renaming).
CHOICE_EVENTS = [
    (1, 1, 1, "Call", "goal"),
    (2, 2, 2, "Call", "p(X)"),
    (3, 2, 2, "Exit", "p(a)"),
    (4, 3, 2, "Call", "eq(a,b)"),
    (5, 3, 2, "Fail", "eq(a,b)"),
    (6, 2, 2, "Redo", "p(a)"),
    (7, 2, 2, "Exit", "p(b)"),
    (8, 4, 2, "Call", "eq(b,b)"),
    (9, 4, 2, "Exit", "eq(b,b)"),
    (10, 1, 1, "Exit", "goal"),
]


def assert_matches_table(events, table):
    assert len(events) == len(table)
    for event, (chrono, node, depth, port, goal) in zip(events, table):
        assert event.chrono == chrono
        assert event.node == node
        assert event.depth == depth
        assert event.port.value == port
        assert alpha_equal(event.goal, parse_term_text(goal))


def test_node_depth():
    assert node_depth(()) == 1
    assert node_depth((1,)) == 2
    assert node_depth((1, 1, 2)) == 4
    # The engine's depth table, read by the events, agrees with the paths.
    program = parse_program("g :- p(X).\np(Y) :- q(Y), r(Y).\nq(a).\nr(a) :- s.\ns.\n:- g.")
    eng = Engine(program)
    for _, event, _ in stream_events(eng):
        assert eng.depth[eng.current] == node_depth(path_of(eng, eng.current))
        assert event.node in eng.goals
        assert event.depth == node_depth(path_of(eng, event.node))
    assert max(eng.depth.values()) == 4


def test_extract_choice_program(choice_program):
    assert_matches_table(reference_events(record(choice_program)), CHOICE_EVENTS)
    events = events_of(choice_program)
    assert_matches_table(events, CHOICE_EVENTS)
    assert events[0].goal == Atom("goal") == choice_program.goal


def test_streamed_events_match_extracted(choice_program):
    # Two independent derivations: the live engine, and the snapshot
    # reference that finds each Redo's subject by scanning clause maps.
    recorded = reference_events(record(choice_program))
    eng = Engine(choice_program)
    streamed = [ev for _, ev, _ in stream_events(eng)]
    assert events_alpha_equal(streamed, recorded)
    # and the exact same objects' text forms line up
    assert [render_event(e) for e in streamed] == [render_event(e) for e in recorded]


def test_exactly_one_event_per_step(choice_program):
    eng = Engine(choice_program)
    events = [ev for _, ev, _ in stream_events(eng)]
    assert len(events) == eng.chrono == len(record(choice_program).steps)


def test_exit_goal_is_instance_of_call_goal(choice_program):
    calls = {}
    for event in events_of(choice_program):
        if event.port is Port.CALL:
            calls[event.node] = event.goal
        elif event.port is Port.EXIT and event.node in calls:
            assert is_instance_of(event.goal, calls[event.node])


def test_call_depth_is_parent_depth_plus_one(choice_program):
    recording = record(choice_program)
    pre = recording.initial
    for event, (_, post) in zip(events_of(choice_program), recording.steps):
        if event.port is Port.CALL and len(pre.current) > 0:
            assert event.depth == node_depth(pre.current[:-1]) + 1
        pre = post


def test_redo_subject_is_the_choice_point(choice_program):
    recording = record(choice_program)
    pre = recording.initial
    redos = 0
    for chrono, (rule, post) in enumerate(recording.steps, start=1):
        event = event_of(rule, pre, post, chrono)
        if event.port is Port.REDO:
            assert event.node == pre.numbers[pre.greatest_choice_point()]
            redos += 1
        pre = post
    assert redos == 1


def test_trace_invariants_on_generated_programs():
    for seed in range(40):
        program = gen_program(GenParams(seed=seed, recursion_prob=0.05))
        recording = record(program, max_steps=500)
        events = events_of(program, max_steps=500)
        assert len(events) == len(recording.steps)
        assert [e.chrono for e in events] == list(range(1, len(events) + 1))
        assert events_alpha_equal(events, reference_events(recording))
        calls = {}
        pre = recording.initial
        for event, (_, post) in zip(events, recording.steps):
            if event.port is Port.CALL:
                calls[event.node] = event.goal
                if pre.current:
                    assert event.depth == node_depth(pre.current[:-1]) + 1
            elif event.port is Port.EXIT and event.node in calls:
                assert is_instance_of(event.goal, calls[event.node])
            pre = post


def test_every_call_names_the_box_the_previous_step_created():
    # The engine's one first-visit bit: only the box the last step created
    # (the root at chrono 1) is fresh, and its next event is its Call.
    for seed in range(40):
        program = gen_program(GenParams(seed=seed, recursion_prob=0.15))
        created = ROOT
        for _, event, delta in stream_events(Engine(program), max_steps=500):
            if event.port is Port.CALL or created is not None:
                assert (event.port, event.node) == (Port.CALL, created), seed
            created = None if delta.created is None else delta.created[0]


# -- what the trace loses: witness pairs ----------------------------------------


def _served(text):
    """The trace text of a program's run, the program's clauses, and the
    clause that served the root box at each of its Exits."""
    program = parse_program(text)
    eng = Engine(program)
    events, served = [], []
    for _, event, _ in stream_events(eng):
        events.append(event)
        if event.port is Port.EXIT:
            served.append(eng.running[ROOT][0])
    return write_trace_text(events), program.clauses, served


def test_the_trace_loses_which_clause_served_an_exit():
    # Byte-identical traces; yet the first Exit is served by the fact p(a)
    # in one program and by p(X) in the other.
    first, (p_a, p_x), served_first = _served("p(a). p(X). :- p(a).")
    second, (q_x, q_a), served_second = _served("p(X). p(a). :- p(a).")
    assert first == second == (
        "1 1 1 Call p(a)\n2 1 1 Exit p(a)\n3 1 1 Redo p(a)\n4 1 1 Exit p(a)\n"
    )
    assert served_first == [p_a, p_x]
    assert served_second == [q_x, q_a]


# -- text form ------------------------------------------------------------------


def read_line(line, fmt="text"):
    """The event one line makes, read by the trace reader alone."""
    (event,) = parse_trace_text(line, fmt)
    return event


def test_render_event_format():
    e = TraceEvent(3, 2, 2, Port.EXIT, Compound("p", (Atom("a"),)))
    assert render_event(e) == "3 2 2 Exit p(a)"


def test_parse_event_round_trip():
    line = "5 3 2 Fail eq(a,b)"
    assert render_event(read_line(line)) == line


# Each bad event in both forms, as (chrono, node, depth, port, goal), with
# the error it must raise; the text and JSON-lines forms share one validator.
BAD_EVENTS = [
    (("1", "1", "1", "Jump", "x"), "unknown port"),
    (("one", "1", "1", "Call", "x"), "non-integer"),
    (("0", "1", "1", "Call", "x"), "positive"),
    (("1", "-7", "1", "Call", "x"), "positive"),
    (("1", "1", "-4", "Call", "x"), "positive"),
    (("1", "1", "1", "Call", "p(x"), "expected"),
    # `int` reads these; a trace does not.
    (("0_1", "1", "1", "Call", "p"), "non-integer"),
    (("+2", "1", "1", "Fail", "p"), "non-integer"),
    (("1", "1", "\u0661", "Call", "p"), "non-integer"),  # Arabic-Indic one
]


def _json_event(chrono, node, depth, port, goal):
    keys = ("chrono", "node", "depth", "port", "goal")
    values = [int(v) if re.fullmatch("-?[0-9]+", v) else v for v in (chrono, node, depth)]
    return json.dumps(dict(zip(keys, [*values, port, goal])))


@pytest.mark.parametrize(
    "fmt, form, wrong_shape",
    [
        ("text", " ".join, ("1 1 Call x", "5 fields")),
        ("jsonl", lambda fields: _json_event(*fields), ('{"chrono": 1}', "malformed")),
    ],
    ids=["text", "jsonl"],
)
def test_parse_event_errors(fmt, form, wrong_shape):
    line, message = wrong_shape
    with pytest.raises(ParseError, match=message):
        read_line(line, fmt)
    for fields, message in BAD_EVENTS:
        with pytest.raises(ParseError, match=message):
            read_line(form(fields), fmt)


@given(
    st.text(alphabet="0123456789-+_\u0661\u00b2\uff11", min_size=1, max_size=6)
    | st.integers(min_value=-99, max_value=10**6).map(str)
)
def test_a_text_number_is_ascii_digits_after_an_optional_minus(field):
    # What `int` reads beyond `-?[0-9]+` (a plus sign, underscores, other
    # scripts' digits) is no event field; the rest reads as its integer.
    line = f"1 {field} 1 Call p"
    if not re.fullmatch("-?[0-9]+", field):
        with pytest.raises(ParseError, match="non-integer"):
            read_line(line)
    elif int(field) < 1:
        with pytest.raises(ParseError, match="positive"):
            read_line(line)
    else:
        assert read_line(line).node == int(field)


def test_parse_accepts_any_whitespace_runs():
    assert render_event(read_line("  3   2  2   Exit   p(a) ")) == "3 2 2 Exit p(a)"


# What `str.splitlines` ends a line at beyond line feeds and carriage returns;
# a file read in text mode does not, so a text does not either.
_NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", _NOT_LINE_BREAKS, ids=repr)
def test_a_text_reads_as_a_file(separator, tmp_path):
    text = f"1 1 1 Call p{separator}2 1 1 Exit p\n"
    path = tmp_path / "trace"
    path.write_text(text, encoding="utf-8", newline="")
    with path.open(encoding="utf-8") as handle:
        from_file = _read_streamed(handle, "text")
    assert _read_streamed(text, "text") == _read_streamed(io.StringIO(text), "text") == from_file
    assert from_file == ([], ("bad trace line: expected 5 fields, found 10", 1))


def test_a_text_ends_lines_where_a_file_does(tmp_path):
    text = "1 1 1 Call p\r2 1 1 Exit p\r\n\n3 1 1 Redo p\n"
    path = tmp_path / "trace"
    path.write_text(text, encoding="utf-8", newline="")
    with path.open(encoding="utf-8") as handle:
        assert _read_streamed(text, "text") == _read_streamed(handle, "text")
    assert [e.chrono for e in parse_trace_text(text)] == [1, 2, 3]


def test_trace_text_round_trip(choice_program):
    events = events_of(choice_program)
    text = write_trace_text(events)
    assert events_alpha_equal(parse_trace_text(text), events)
    assert text.splitlines()[0] == "1 1 1 Call goal"


def test_pretty_output_parses_back(choice_program):
    events = events_of(choice_program)
    lines = render_events_pretty(events)
    assert events_alpha_equal([read_line(line) for line in lines], events)
    # aligned: all chrono columns right-justified to the same width
    assert lines[0].startswith(" 1 ")
    assert lines[-1].startswith("10 ")


def test_jsonl_round_trip(choice_program):
    events = events_of(choice_program)
    text = "\n".join(event_to_json(e) for e in events)
    assert events_alpha_equal(parse_trace_text(text, fmt="jsonl"), events)
    assert '"port": "Call"' in event_to_json(events[0])


def test_bad_jsonl():
    with pytest.raises(ParseError):
        read_line('{"chrono": 1}', "jsonl")
    # JSON values the text form cannot spell are rejected too.
    good = {"chrono": 1, "node": 1, "depth": 1, "port": "Call", "goal": "g"}
    for key, value, message in [
        ("goal", 5, "goal is not term text"),
        ("depth", 2.5, "non-integer"),
        ("node", True, "non-integer"),
        ("chrono", None, "non-integer"),
        ("chrono", "1", "non-integer"),
        ("node", " 1", "non-integer"),
    ]:
        with pytest.raises(ParseError, match=message):
            read_line(json.dumps({**good, key: value}), "jsonl")


# -- event round-trip property ----------------------------------------------------

ports = st.sampled_from(list(Port))
goal_atoms = st.sampled_from([Atom("a"), Atom("b")])
goal_vars = st.builds(
    Variable,
    st.sampled_from(["X", "Y", "Longer"]),
    st.integers(min_value=0, max_value=9),
)
# A goal is a predication: any term but a bare variable.
goals = st.recursive(
    goal_atoms | goal_vars,
    lambda sub: st.builds(
        lambda f, args: Compound(f, tuple(args)),
        st.sampled_from(["f", "eq"]),
        st.lists(sub, min_size=1, max_size=3),
    ),
    max_leaves=5,
).filter(lambda goal: not isinstance(goal, Variable))
events = st.builds(
    TraceEvent,
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
    ports,
    goals,
)


@given(events)
def test_event_text_round_trip_identity(event):
    assert read_line(render_event(event)) == event


@given(events)
def test_event_json_round_trip_identity(event):
    assert read_line(event_to_json(event), "jsonl") == event


# -- the reader, against the validator reading each line alone -------------------


def _read_alone(line, fmt):
    """The event one line makes read by the validator alone: no in-place
    check, no reused goal."""
    line = line.rstrip("\r\n")
    try:
        fields = trace_module._json_values(line) if fmt == "jsonl" else line.split()
        chrono, node, depth, port, text = trace_module._check_fields(line, fields)
        goal = parse_term_text(text, decode_renamed=True)
        if isinstance(goal, Variable):
            raise ParseError(f"goal {text!r} is a variable", 1, 1)
    except ParseError as err:
        message = err.message
        if len(message) > trace_module._MESSAGE_MAX:
            message = message[: trace_module._MESSAGE_MAX] + "..."
        raise ParseError(f"bad trace line: {message}", 1, 1) from None
    return TraceEvent(chrono, node, depth, port, goal)


def _read_line_by_line(lines, fmt):
    """The events of each line read alone by the validator, up to the first
    bad line, and that line's error."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        try:
            out.append(_read_alone(line, fmt))
        except ParseError as err:
            return out, (err.message, lineno)
    return out, None


def _read_streamed(text, fmt):
    out = []
    try:
        for event in parse_trace_text(text, fmt=fmt):
            out.append(event)
    except ParseError as err:
        return out, (err.message, err.line)
    return out, None


_CORRUPT_GOALS = ["zzz(q)", "p(X_1", "p(X_2)", "eq(a,b)", "goal", "f(", "?"]
# Field-level corruptions, each a case the reader's in-place check must hand
# to the validator or take as the validator would: separators (whitespace
# runs, tabs, and whitespace that a text form does not end a line at), text
# around a line (a `\r` only at its end, where it is part of the line break),
# number texts (leading zeros, digit runs past the in-place bound and past
# what `int` reads, signs, non-ASCII digits), ports, and field counts.
_SEPARATORS = [" ", "  ", "\t", " \t ", "\v", "\x1c", "\x85", "\u2028"]
_FRAMES = [(" ", ""), ("", "\r"), ("\t", " \r"), ("  ", "\t")]
_NUMBER_TEXTS = ["0", "00", "007", "-3", "+2", "1_0", "\u0661", "\uff11", "\u00b2",
                 "1" * 70, "9" * 4_301, "1" + "0" * 4_299]
_PORT_TEXTS = ["call", "CALL", "exit", "Jump", "Redo1", ""]


# (where, kind, value): a number text comes with the field it replaces.
_corruptions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["goal", "node", "layout", "fields"]),
        st.integers(min_value=0, max_value=10**6),
    )
    | st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.just("number"),
        st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(_NUMBER_TEXTS)),
    )
    | st.tuples(st.integers(min_value=0, max_value=10**6), st.just("port"), st.sampled_from(_PORT_TEXTS)),
    max_size=4,
)


def _corrupted_line(row, fmt, layout, shape):
    """One line of `row`'s five fields: `layout` picks a separator and the
    text around the line, `shape` drops or adds a field."""
    pairs = list(zip(("chrono", "node", "depth", "port", "goal"), row))
    if shape is not None:
        if shape % 3 == 2:
            pairs.append(("extra", "x"))
        else:
            del pairs[4 * (shape % 3)]  # the chrono or the goal
    sep = _SEPARATORS[layout % len(_SEPARATORS)] if layout is not None else " "
    before, after = _FRAMES[layout % len(_FRAMES)] if layout is not None else ("", "")
    if fmt == "text":
        line = sep.join(str(value) for _, value in pairs)
    else:  # a number text as it stands, so that the decoder reads or rejects it
        line = "{" + f",{sep}".join(
            f'"{key}":{sep}' + (value if isinstance(value, str) and re.fullmatch("[-+]?[0-9]+", value)
                               else json.dumps(value))
            for key, value in pairs
        ) + "}"
    return before + line + after


def _assert_corrupted_reads_as_line_by_line(events, fmt, corruptions):
    # Goal texts replaced by another event's text, a corrupt text or a new
    # one, node numbers changed, and the field-level corruptions above:
    # reusing a parsed term, or taking a line in place, never changes what a
    # line reads as.
    rows = [[e.chrono, e.node, e.depth, e.port.value, render_term(e.goal)] for e in events]
    top = max(e.node for e in events)
    layouts, shapes = {}, {}
    for where, kind, value in corruptions:
        at = where % len(rows)
        row = rows[at]
        if kind == "goal":
            pool = _CORRUPT_GOALS + [other[4] for other in rows]
            row[4] = pool[value % len(pool)]
        elif kind == "node":
            row[1] = 1 + value % (top + 2)
        elif kind == "number":
            field, text = value
            row[field] = text
        elif kind == "port":
            row[3] = value
        elif kind == "layout":
            layouts[at] = value
        else:
            shapes[at] = value
    lines = [_corrupted_line(row, fmt, layouts.get(i), shapes.get(i)) for i, row in enumerate(rows)]
    assert _read_streamed("\n".join(lines), fmt) == _read_line_by_line(lines, fmt)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=2_000), st.sampled_from(["text", "jsonl"]), _corruptions)
def test_reused_goals_read_as_line_by_line(seed, fmt, corruptions):
    program = gen_program(GenParams(seed=seed, recursion_prob=0.1))
    _assert_corrupted_reads_as_line_by_line(events_of(program, max_steps=150), fmt, corruptions)


# -- the reader's one map from goal text to term -------------------------------------


def _counting_parser(monkeypatch):
    """Count the goal texts the trace reader parses."""
    texts = []
    parse = trace_module.parse_term_text

    def counting(text, **kwargs):
        texts.append(text)
        return parse(text, **kwargs)

    monkeypatch.setattr(trace_module, "parse_term_text", counting)
    return texts


def _backtracking_events(facts):
    """The events of `p :- q(X), r(X)` over `facts` facts q(c_i): each r(c_i)
    box fails and the Redo of q(X) drops it, so the trace has about 4 events
    and 2 distinct goal texts per fact."""
    text = "".join(f"q(c{i}).\n" for i in range(facts))
    program = parse_program(text + f"r(c{facts - 1}).\np :- q(X), r(X).\n:- p.\n")
    return [e for _, e, _ in stream_events(Engine(program))]


def test_nodes_with_the_same_goal_text_share_one_term(monkeypatch):
    texts = _counting_parser(monkeypatch)
    lines = ["1 1 1 Call p", "2 2 2 Call q(a,X_1)", "3 2 2 Fail q(a,X_1)",
             "4 3 2 Call q(a,X_1)", "5 3 2 Exit q(a,b)"]
    events = list(parse_trace_text("\n".join(lines)))
    assert events[1].node != events[3].node
    assert events[1].goal is events[2].goal is events[3].goal
    assert texts == ["p", "q(a,X_1)", "q(a,b)"]


def test_each_distinct_goal_text_is_parsed_once_below_the_bound(monkeypatch):
    texts = _counting_parser(monkeypatch)
    lines = [render_event(e) for e in _backtracking_events(200)]
    distinct = {line.split(" ", 4)[4] for line in lines}
    assert len(distinct) < trace_module.GOAL_TEXTS_MAX
    assert len(list(parse_trace_text("\n".join(lines)))) == len(lines)
    assert sorted(texts) == sorted(distinct)


@pytest.mark.parametrize("others, parses", [(trace_module.GOAL_TEXTS_MAX - 1, 1), (trace_module.GOAL_TEXTS_MAX, 2)])
def test_the_goal_map_holds_at_most_its_bound(monkeypatch, others, parses):
    # Each goal on a node of its own, so only the map of recent texts can
    # hand `a` back: it does after one text fewer than its bound, not after
    # as many as its bound.
    texts = _counting_parser(monkeypatch)
    goals = ["a", *(f"b{i}" for i in range(others)), "a"]
    list(parse_trace_text([f"{i} {i} 1 Call {goal}" for i, goal in enumerate(goals, start=1)]))
    assert texts.count("a") == parses


def test_a_box_goal_is_not_parsed_again_however_many_texts_come_between(monkeypatch):
    # path(n0) fails at the end of a failing chain of 300 boxes, after more
    # distinct texts than the map of recent texts holds; its box still holds it.
    texts = _counting_parser(monkeypatch)
    edges = "".join(f"e(n{i},n{i + 1}).\n" for i in range(300))
    program = parse_program(edges + "path(X) :- e(X,Y), path(Y).\n:- path(n0).\n")
    lines = [render_event(e) for _, e, _ in stream_events(Engine(program))]
    distinct = {line.split(" ", 4)[4] for line in lines}
    assert len(distinct) > trace_module.GOAL_TEXTS_MAX
    assert len(list(parse_trace_text(lines))) == len(lines)
    assert sorted(texts) == sorted(distinct)


def test_only_a_box_holds_a_goal_text_longer_than_the_map_keeps(monkeypatch):
    # Memory: a long text is held for its box's Fail, but a new box with the
    # same text parses it again.  A short one is found in the map.
    texts = _counting_parser(monkeypatch)
    longs = [f"p{k}({'a' * trace_module.GOAL_TEXT_LONGEST})" for k in range(3)]
    goals = [*longs, "q(b)"]
    lines = [f"{1 + i} {1 + i} 1 Call {goal}" for i, goal in enumerate(goals)]
    lines += [f"{5 + i} {1 + i} 1 Fail {goal}" for i, goal in enumerate(goals)]
    lines += [f"{9 + i} {5 + i} 1 Call {goal}" for i, goal in enumerate(goals)]
    assert [render_term(e.goal) for e in parse_trace_text(lines)] == goals * 3
    assert [texts.count(goal) for goal in goals] == [2, 2, 2, 1]


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=520, max_value=700), st.sampled_from(["text", "jsonl"]), _corruptions)
def test_long_traces_read_as_line_by_line(facts, fmt, corruptions):
    # Over 2,000 events and more distinct goal texts than the map holds, so
    # it is emptied while the trace is read.
    events = _backtracking_events(facts)
    assert len(events) > 2_000
    assert len({render_term(e.goal) for e in events}) > trace_module.GOAL_TEXTS_MAX
    _assert_corrupted_reads_as_line_by_line(events, fmt, corruptions)
