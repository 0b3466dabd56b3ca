import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace import (
    Atom,
    Compound,
    CorruptTraceError,
    GenParams,
    Port,
    Rebuilder,
    RuleId,
    TraceEvent,
    TraceTruncatedError,
    Variable,
    alpha_equal,
    gen_program,
    parse_program,
    path_of,
    render_event,
    render_term,
    states_match,
)
from boxtrace.cli import main
from tests.conftest import events_of
from tests.snapshots import dewey, record

X = Variable("X")


def choice_events(choice_program):
    return events_of(choice_program)


def replay(events, goal=Atom("goal")):
    """Every (rule, state copy) a Rebuilder emits over `events`, and the
    Rebuilder itself (for its final state, status and flags)."""
    reb = Rebuilder(goal)
    steps = []
    for event in events:
        done = reb.push(event)
        if done is not None:
            steps.append((done[0], reb.state.copy()))
    done = reb.finish()
    if done is not None:
        steps.append((done[0], reb.state.copy()))
    return steps, reb


def rules(steps):
    return [rule for rule, _ in steps]


# -- node numbers -----------------------------------------------------------------


def test_node_numbers_after_first_event(choice_program):
    events = choice_events(choice_program)
    steps, _ = replay(events[:2])
    by_number = {n: path for path, n in dewey(steps[0][1]).items()}
    assert by_number == {1: (), 2: (1,)}
    assert 99 not in by_number


# -- classify ----------------------------------------------------------------------


def test_classify_whole_choice_trace(choice_program):
    events = choice_events(choice_program)
    steps, _ = replay(events)
    assert [r.value for r in rules(steps)] == [
        "Call2", "Call1", "Exit2", "Call1", "Fail2",
        "Redo1", "Exit2", "Call1", "Exit1", "Exit1",
    ]


def test_classify_exit_with_higher_lookahead_below_root(choice_program):
    # event 3 (Exit node 2) with lookahead node 3 while standing below the root
    events = choice_events(choice_program)
    steps, _ = replay(events)
    assert events[2].port is Port.EXIT and events[3].node > events[2].node
    assert rules(steps)[2] is RuleId.EXIT2


def test_classify_redo_same_node_is_retry(choice_program):
    events = choice_events(choice_program)
    steps, _ = replay(events[:7])
    assert rules(steps)[5] is RuleId.REDO1


def test_classify_exit_at_root_ignores_lookahead():
    # a root Exit followed by a Redo deeper in the tree: the lookahead node
    # number is higher, yet the Exit is still the upward variant
    program = parse_program("g :- p(X).\np(a).\np(b).\n:- g.")
    events = events_of(program)
    steps, _ = replay(events, events[0].goal)
    assert [r.value for r in rules(steps)] == [
        "Call2", "Call1", "Exit1", "Exit1", "Redo1", "Exit1", "Exit1",
    ]
    root_exit = events[3]
    assert root_exit.port is Port.EXIT and root_exit.node == 1
    assert events[4].node > root_exit.node


def test_classify_final_exit_at_root_without_lookahead(choice_program):
    events = choice_events(choice_program)
    steps, reb = replay(events)
    assert rules(steps)[-1] is RuleId.EXIT1
    assert not reb.truncated


def test_classify_rejects_call_followed_by_older_node():
    reb = Rebuilder(Atom("g"))
    reb.push(TraceEvent(1, 1, 1, Port.CALL, Atom("g")))
    with pytest.raises(CorruptTraceError):
        reb.push(TraceEvent(2, 0, 1, Port.CALL, Atom("g")))


# -- applying single events -----------------------------------------------------------


def test_apply_first_event_creates_child(choice_program):
    events = choice_events(choice_program)
    reb = Rebuilder(Atom("goal"))
    assert reb.push(events[0]) is None  # classified once the next event arrives
    rule, delta = reb.push(events[1])
    # node 2, child 1 of the root
    assert rule is RuleId.CALL2 and delta.created == (2, 1, 1)
    state = reb.state
    assert dewey(state) == {(): 1, (1,): 2}
    assert state.current == 2 and path_of(state, 2) == (1,)
    assert alpha_equal(state.goals[2], Compound("p", (X,)))


def test_apply_redo_shrinks_tree(choice_program):
    events = choice_events(choice_program)
    steps, _ = replay(events[:7])
    state = steps[5][1]
    assert dewey(state) == {(): 1, (1,): 2}
    assert state.current == 2
    assert render_term(state.goals[2]) == "p(a)"


def test_apply_final_exit(choice_program):
    events = choice_events(choice_program)
    steps, _ = replay(events)
    final = steps[-1][1]
    assert final.current == 1
    assert render_term(final.goals[1]) == "goal"


def test_rebuilder_leaves_its_initial_state_untouched(choice_program):
    # A copy of the state taken before replay is not touched by it.
    events = choice_events(choice_program)
    reb = Rebuilder(Atom("goal"))
    start = reb.state.copy()
    reb.push(events[0])
    reb.push(events[1])
    assert dewey(reb.state) == {(): 1, (1,): 2}
    assert dewey(start) == {(): 1} and start.current == 1


# -- rebuild ------------------------------------------------------------------------


def test_rebuild_final_state_of_choice_trace(choice_program):
    events = choice_events(choice_program)
    steps, reb = replay(events)
    assert len(steps) == len(events)
    final = reb.state
    assert dewey(final) == {(): 1, (1,): 2, (2,): 4}
    assert render_term(final.goals[2]) == "p(b)"
    assert render_term(final.goals[4]) == "eq(b,b)"
    assert reb.status() == "success"


def test_rebuild_matches_engine_restriction_stepwise(choice_program):
    recording = record(choice_program)
    rebuilt, _ = replay(events_of(choice_program))
    assert len(rebuilt) == len(recording.steps)
    # Compared Dewey-shaped: the snapshots key the engine's nodes by path.
    for (rule, state), (applied, snap) in zip(rebuilt, recording.steps):
        assert rule is applied
        paths = {v: path_of(state, v) for v in state.goals}
        assert dewey(state) == snap.numbers
        assert paths[state.current] == snap.current
        assert all(alpha_equal(g, snap.goals[paths[v]]) for v, g in state.goals.items())


def test_rebuild_empty_stream():
    steps, reb = replay([])
    assert steps == []
    assert reb.status() == "unknown"


def test_rebuild_is_deterministic(choice_program):
    events = choice_events(choice_program)
    first, _ = replay(events)
    second, _ = replay(events)
    assert [r.value for r in rules(first)] == [r.value for r in rules(second)]
    for (_, s1), (_, s2) in zip(first, second):
        assert states_match(s1, s2)


def test_rebuild_stream_lags_one_event(choice_program):
    events = choice_events(choice_program)
    reb = Rebuilder(Atom("goal"))
    assert reb.push(events[0]) is None
    seen = [reb.push(event) for event in events[1:]]
    seen.append(reb.finish())
    assert None not in seen and len(seen) == len(events)
    assert reb.finish() is None  # nothing left to flush


def test_failure_status(no_match):
    events = events_of(no_match)
    _, reb = replay(events, events[0].goal)
    assert reb.status() == "failure"


# -- truncation and corruption ---------------------------------------------------------


def test_stream_ending_on_redo_is_rejected(choice_program):
    events = choice_events(choice_program)[:6]  # ends on the Redo
    with pytest.raises(TraceTruncatedError) as err:
        replay(events)
    assert err.value.chrono == 6


def test_stream_ending_on_call_is_marked_truncated(choice_program):
    events = choice_events(choice_program)[:4]  # ends on Call eq(a,b)
    steps, reb = replay(events)
    assert reb.truncated
    assert rules(steps)[-1] is RuleId.CALL1
    assert reb.status() == "unknown"


def test_stream_ending_on_exit_below_root_is_marked_truncated(choice_program):
    events = choice_events(choice_program)[:3]
    _, reb = replay(events)
    assert reb.truncated


def test_chrono_gap_is_rejected(choice_program):
    events = choice_events(choice_program)
    broken = events[:2] + events[3:]
    with pytest.raises(CorruptTraceError):
        replay(broken)


def test_swapped_events_detected(choice_program):
    events = list(choice_events(choice_program))
    # swap payloads but keep chronos consecutive
    e2, e3 = events[2], events[3]
    events[2] = TraceEvent(3, e3.node, e3.depth, e3.port, e3.goal)
    events[3] = TraceEvent(4, e2.node, e2.depth, e2.port, e2.goal)
    with pytest.raises(CorruptTraceError):
        replay(events)


def test_corrupt_port_detected(choice_program):
    events = list(choice_events(choice_program))
    e = events[1]
    events[1] = TraceEvent(e.chrono, e.node, e.depth, Port.EXIT, e.goal)
    with pytest.raises(CorruptTraceError):
        replay(events)


def test_corrupt_node_number_detected(choice_program):
    # an Exit naming a node other than the current one cannot replay;
    # other node corruptions may replay as a different execution and are
    # caught by the differential check instead (see the harness tests)
    events = list(choice_events(choice_program))
    e = events[2]
    events[2] = TraceEvent(e.chrono, 9, e.depth, e.port, e.goal)
    with pytest.raises(CorruptTraceError):
        replay(events)


def test_exit_below_root_repeating_its_node_rejected():
    g = Atom("g")
    events = [
        TraceEvent(1, 1, 1, Port.CALL, g),
        TraceEvent(2, 2, 2, Port.CALL, g),
        TraceEvent(3, 2, 2, Port.EXIT, g),
        TraceEvent(4, 2, 2, Port.EXIT, g),
    ]
    with pytest.raises(CorruptTraceError):
        replay(events, g)


def _stream(*events):
    """TraceEvents over the goal g from (node, port) pairs, chronos from 1."""
    return [
        TraceEvent(chrono, node, 1, Port(port), Atom("g"))
        for chrono, (node, port) in enumerate(events, start=1)
    ]


@pytest.mark.parametrize(
    "events, error, message, chrono",
    [
        (
            _stream((1, "Call"), (2, "Call"), (2, "Fail"), (2, "Fail")),
            CorruptTraceError,
            "Fail event names node 2 but the current node is numbered 1",
            4,
        ),
        (
            _stream((1, "Call"), (2, "Call"), (1, "Call")),
            CorruptTraceError,
            "Call followed by an older node",
            2,
        ),
        (
            _stream((1, "Call"), (2, "Call"), (2, "Exit"), (1, "Exit"), (2, "Redo"), (1, "Call")),
            CorruptTraceError,
            "Redo followed by an older node",
            5,
        ),
        (
            _stream((1, "Call"), (2, "Call"), (2, "Exit"), (2, "Exit")),
            CorruptTraceError,
            "Exit below the root repeats its node number",
            3,
        ),
        (
            _stream((1, "Call"), (1, "Fail"), (7, "Redo"), (7, "Exit")),
            CorruptTraceError,
            "Redo names unknown node 7",
            3,
        ),
        (
            _stream((1, "Call"), (1, "Fail"), (1, "Redo")),
            TraceTruncatedError,
            "stream ends on a Redo event",
            3,
        ),
        (
            _stream((1, "Call"), (2, "Call"), (3, "Call"), (3, "Exit"), (2, "Exit"), (3, "Call")),
            CorruptTraceError,
            "creation number 3 assigned twice",
            5,
        ),
        (
            _stream((1, "Call"), (2, "Call"), (4, "Call"), (4, "Exit"), (2, "Exit"), (3, "Call")),
            CorruptTraceError,
            "creation number 3 is older than a live node",
            5,
        ),
    ],
)
def test_rejection_message_and_chrono(events, error, message, chrono):
    with pytest.raises(CorruptTraceError) as err:
        replay(events, Atom("g"))
    assert type(err.value) is error
    assert (str(err.value), err.value.chrono) == (f"{message} (chrono {chrono})", chrono)


# -- the depth attribute is redundant ---------------------------------------------------


def corrupt_depths(events):
    return [
        TraceEvent(e.chrono, e.node, e.depth + 7, e.port, e.goal) for e in events
    ]


def test_rebuild_never_reads_depth(choice_program):
    events = choice_events(choice_program)
    good, _ = replay(events)
    mangled, _ = replay(corrupt_depths(events))
    assert [r.value for r in rules(good)] == [r.value for r in rules(mangled)]
    for (_, s1), (_, s2) in zip(good, mangled):
        assert states_match(s1, s2)


def test_depth_mismatches_flag_corruption(choice_program):
    events = choice_events(choice_program)
    assert replay(events)[1].depth_mismatches == []
    flagged = replay(corrupt_depths(events))[1].depth_mismatches
    assert len(flagged) == len(events)
    chrono, expected, actual = flagged[0]
    assert (chrono, expected, actual) == (1, 1, 8)


# -- the start of a stream -----------------------------------------------------------


def test_replay_starts_from_the_root_goal(choice_program):
    events = choice_events(choice_program)
    state = Rebuilder(events[0].goal).state
    assert dewey(state) == {(): 1}
    assert state.current == 1
    assert state.goals[1] == Atom("goal")


def test_first_event_must_be_a_call_at_chrono_1():
    g = Atom("g")
    with pytest.raises(CorruptTraceError, match="must begin with a Call"):
        Rebuilder(g).push(TraceEvent(1, 1, 1, Port.EXIT, g))
    with pytest.raises(CorruptTraceError, match="must begin with a Call"):
        Rebuilder(g).push(TraceEvent(2, 1, 1, Port.CALL, g))
    # An empty stream replays nothing (`boxtrace rebuild` reports it as an
    # empty trace).
    assert Rebuilder(g).finish() is None


# -- mutated streams --------------------------------------------------------------

_MUTATIONS = ("drop", "swap", "port", "node", "chrono")


def _mutate(events, kind, at, value):
    """`events` with one event dropped, swapped with the next (chronos kept),
    re-ported, renumbered or re-chronoed."""
    out = list(events)
    e = out[at]
    if kind == "drop":
        del out[at]
    elif kind == "swap" and at + 1 < len(out):
        f = out[at + 1]
        out[at] = TraceEvent(e.chrono, f.node, f.depth, f.port, f.goal)
        out[at + 1] = TraceEvent(f.chrono, e.node, e.depth, e.port, e.goal)
    elif kind == "port":
        ports = list(Port)
        port = ports[(ports.index(e.port) + 1 + value % 3) % 4]
        out[at] = TraceEvent(e.chrono, e.node, e.depth, port, e.goal)
    elif kind == "node":
        node = 1 + value % (max(x.node for x in out) + 2)
        out[at] = TraceEvent(e.chrono, node, e.depth, e.port, e.goal)
    elif kind == "chrono":
        out[at] = TraceEvent(1 + value % (len(out) + 1), e.node, e.depth, e.port, e.goal)
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=5_000),
    st.sampled_from(_MUTATIONS),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_mutated_streams_raise_only_corrupt_trace_errors(seed, kind, where, value):
    program = gen_program(GenParams(seed=seed, recursion_prob=0.05))
    events = events_of(program, max_steps=200)
    events = _mutate(events, kind, where % len(events), value)
    reb = Rebuilder(program.goal)
    try:
        for event in events:
            reb.push(event)
        reb.finish()
    except CorruptTraceError:
        pass
    text = "".join(render_event(e) + "\n" for e in events)
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        assert main(["rebuild", "-"]) in (0, 1)
