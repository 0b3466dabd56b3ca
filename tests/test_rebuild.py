import pytest

from boxtrace import (
    Atom,
    Compound,
    CorruptTraceError,
    Port,
    Rebuilder,
    RestrictedState,
    RuleId,
    TraceEvent,
    TraceTruncatedError,
    Variable,
    alpha_equal,
    initial_state_for,
    parse_program,
    render_term,
)
from tests.conftest import events_of
from tests.snapshots import record

X = Variable("X")


def choice_events(choice_program):
    return events_of(choice_program)


def q0():
    return RestrictedState.initial(Atom("goal"))


def replay(events, initial=None):
    """Every (rule, state copy) a Rebuilder emits over `events`, and the
    Rebuilder itself (for its final state, status and flags)."""
    reb = Rebuilder(initial or q0())
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
    by_number = {n: path for path, n in steps[0][1].numbers.items()}
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
    steps, _ = replay(events, initial_state_for(events))
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
    reb = Rebuilder(RestrictedState.initial(Atom("g")))
    reb.push(TraceEvent(1, 1, 1, Port.CALL, Atom("g")))
    with pytest.raises(CorruptTraceError):
        reb.push(TraceEvent(2, 0, 1, Port.CALL, Atom("g")))


# -- applying single events -----------------------------------------------------------


def test_apply_first_event_creates_child(choice_program):
    events = choice_events(choice_program)
    reb = Rebuilder(q0())
    assert reb.push(events[0]) is None  # classified once the next event arrives
    rule, delta = reb.push(events[1])
    assert rule is RuleId.CALL2 and delta.created == (1,) and delta.created_number == 2
    state = reb.state
    assert state.tree == {(), (1,)}
    assert state.current == (1,)
    assert state.numbers == {(): 1, (1,): 2}
    assert alpha_equal(state.goals[(1,)], Compound("p", (X,)))


def test_apply_redo_shrinks_tree(choice_program):
    events = choice_events(choice_program)
    steps, _ = replay(events[:7])
    state = steps[5][1]
    assert state.tree == {(), (1,)}
    assert state.current == (1,)
    assert render_term(state.goals[(1,)]) == "p(a)"


def test_apply_final_exit(choice_program):
    events = choice_events(choice_program)
    steps, _ = replay(events)
    final = steps[-1][1]
    assert final.current == ()
    assert render_term(final.goals[()]) == "goal"


def test_rebuilder_leaves_its_initial_state_untouched(choice_program):
    events = choice_events(choice_program)
    start = q0()
    reb = Rebuilder(start)
    reb.push(events[0])
    reb.push(events[1])
    assert reb.state.tree == {(), (1,)}
    assert start.tree == {()} and start.numbers == {(): 1} and start.current == ()


# -- rebuild ------------------------------------------------------------------------


def test_rebuild_final_state_of_choice_trace(choice_program):
    events = choice_events(choice_program)
    steps, reb = replay(events)
    assert len(steps) == len(events)
    final = reb.state
    assert final.tree == {(), (1,), (2,)}
    assert final.numbers == {(): 1, (1,): 2, (2,): 4}
    assert render_term(final.goals[(1,)]) == "p(b)"
    assert render_term(final.goals[(2,)]) == "eq(b,b)"
    assert reb.status() == "success"


def test_rebuild_matches_engine_restriction_stepwise(choice_program):
    recording = record(choice_program)
    rebuilt, _ = replay(events_of(choice_program))
    assert len(rebuilt) == len(recording.steps)
    for (rule, state), (applied, snap) in zip(rebuilt, recording.steps):
        assert rule is applied
        engine = RestrictedState(
            set(snap.tree), snap.current, dict(snap.numbers), dict(snap.goals)
        )
        assert state.matches(engine)


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
        assert s1.matches(s2)


def test_rebuild_stream_lags_one_event(choice_program):
    events = choice_events(choice_program)
    reb = Rebuilder(q0())
    assert reb.push(events[0]) is None
    seen = [reb.push(event) for event in events[1:]]
    seen.append(reb.finish())
    assert None not in seen and len(seen) == len(events)
    assert reb.finish() is None  # nothing left to flush


def test_failure_status(no_match):
    events = events_of(no_match)
    _, reb = replay(events, initial_state_for(events))
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
        replay(events, RestrictedState.initial(g))


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
        assert s1.matches(s2)


def test_depth_mismatches_flag_corruption(choice_program):
    events = choice_events(choice_program)
    assert replay(events)[1].depth_mismatches == []
    flagged = replay(corrupt_depths(events))[1].depth_mismatches
    assert len(flagged) == len(events)
    chrono, expected, actual = flagged[0]
    assert (chrono, expected, actual) == (1, 1, 8)


# -- initial state helper -----------------------------------------------------------


def test_initial_state_for(choice_program):
    events = choice_events(choice_program)
    state = initial_state_for(events)
    assert state.tree == {()}
    assert state.numbers == {(): 1}
    assert state.goals[()] == Atom("goal")


def test_initial_state_for_rejects_non_call():
    with pytest.raises(CorruptTraceError):
        initial_state_for([TraceEvent(1, 1, 1, Port.EXIT, Atom("g"))])
    with pytest.raises(CorruptTraceError):
        initial_state_for([])
