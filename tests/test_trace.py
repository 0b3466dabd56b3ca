import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxtrace import (
    Atom,
    Compound,
    Engine,
    ParseError,
    Port,
    TraceEvent,
    Variable,
    alpha_equal,
    event_from_json,
    event_to_json,
    parse_event,
    parse_program,
    path_of,
    parse_trace_text,
    render_event,
    stream_events,
)
from boxtrace.trace import render_events_pretty
from tests.conftest import events_of
from tests.references import events_alpha_equal, is_instance_of, write_trace_text
from tests.snapshots import event_of, node_depth, record, reference_events

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
    from boxtrace.parser import parse_term_text

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
    from boxtrace import GenParams, gen_program

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


# -- text form ------------------------------------------------------------------


def test_render_event_format():
    e = TraceEvent(3, 2, 2, Port.EXIT, Compound("p", (Atom("a"),)))
    assert render_event(e) == "3 2 2 Exit p(a)"


def test_parse_event_round_trip():
    line = "5 3 2 Fail eq(a,b)"
    assert render_event(parse_event(line)) == line


# Each bad event in both forms, as (chrono, node, depth, port, goal), with
# the error it must raise; the text and JSON-lines forms share one validator.
BAD_EVENTS = [
    (("1", "1", "1", "Jump", "x"), "unknown port"),
    (("one", "1", "1", "Call", "x"), "non-integer"),
    (("0", "1", "1", "Call", "x"), "positive"),
    (("1", "-7", "1", "Call", "x"), "positive"),
    (("1", "1", "-4", "Call", "x"), "positive"),
    (("1", "1", "1", "Call", "p(x"), "expected"),
]


def _json_event(chrono, node, depth, port, goal):
    keys = ("chrono", "node", "depth", "port", "goal")
    values = [int(v) if v.lstrip("-").isdigit() else v for v in (chrono, node, depth)]
    return json.dumps(dict(zip(keys, [*values, port, goal])))


@pytest.mark.parametrize(
    "parse, form, wrong_shape",
    [
        (parse_event, " ".join, ("1 1 Call x", "5 fields")),
        (event_from_json, lambda fields: _json_event(*fields), ('{"chrono": 1}', "malformed")),
    ],
    ids=["text", "jsonl"],
)
def test_parse_event_errors(parse, form, wrong_shape):
    line, message = wrong_shape
    with pytest.raises(ParseError, match=message):
        parse(line)
    for fields, message in BAD_EVENTS:
        with pytest.raises(ParseError, match=message):
            parse(form(fields))


def test_parse_accepts_any_whitespace_runs():
    assert render_event(parse_event("  3   2  2   Exit   p(a) ")) == "3 2 2 Exit p(a)"


def test_trace_text_round_trip(choice_program):
    events = events_of(choice_program)
    text = write_trace_text(events)
    assert events_alpha_equal(parse_trace_text(text), events)
    assert text.splitlines()[0] == "1 1 1 Call goal"


def test_pretty_output_parses_back(choice_program):
    events = events_of(choice_program)
    lines = render_events_pretty(events)
    assert events_alpha_equal([parse_event(line) for line in lines], events)
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
        event_from_json('{"chrono": 1}')
    # JSON values the text form cannot spell are rejected too.
    good = {"chrono": 1, "node": 1, "depth": 1, "port": "Call", "goal": "g"}
    for key, value, message in [
        ("goal", 5, "goal is not term text"),
        ("depth", 2.5, "non-integer"),
        ("node", True, "non-integer"),
        ("chrono", None, "non-integer"),
    ]:
        with pytest.raises(ParseError, match=message):
            event_from_json(json.dumps({**good, key: value}))


# -- event round-trip property ----------------------------------------------------

ports = st.sampled_from(list(Port))
goal_atoms = st.sampled_from([Atom("a"), Atom("b")])
goal_vars = st.builds(
    Variable,
    st.sampled_from(["X", "Y", "Longer"]),
    st.integers(min_value=0, max_value=9),
)
goals = st.recursive(
    goal_atoms | goal_vars,
    lambda sub: st.builds(
        lambda f, args: Compound(f, tuple(args)),
        st.sampled_from(["f", "eq"]),
        st.lists(sub, min_size=1, max_size=3),
    ),
    max_leaves=5,
)
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
    assert parse_event(render_event(event)) == event


@given(events)
def test_event_json_round_trip_identity(event):
    assert event_from_json(event_to_json(event)) == event
