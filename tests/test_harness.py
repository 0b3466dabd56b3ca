import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace import (
    Engine,
    GenParams,
    Port,
    Rebuilder,
    RuleId,
    TraceEvent,
    check_faithfulness,
    gen_program,
    multiset_alpha_equal,
    parse_program,
    reference_solve,
    render_program,
    render_term,
    stream_events,
)
from boxtrace.harness import program_digest
from tests.conftest import CHOICE_PROGRAM, events_of


# -- reference oracle ---------------------------------------------------------


def test_reference_choice_program(choice_program):
    ref = reference_solve(choice_program)
    assert not ref.capped
    assert [render_term(t) for t in ref.answers] == ["goal"]


def test_reference_two_facts_in_source_order(two_facts):
    ref = reference_solve(two_facts)
    assert [render_term(t) for t in ref.answers] == ["p(a)", "p(b)"]


def test_reference_no_matching_clause(no_match):
    ref = reference_solve(no_match)
    assert ref.answers == () and not ref.capped


def test_reference_cap_marker():
    looping = parse_program("loop :- loop.\n:- loop.")
    ref = reference_solve(looping, max_depth=20, max_steps=1000)
    assert ref.capped


def test_multiset_alpha_equal():
    from boxtrace import Atom, Compound, Variable

    pa = Compound("p", (Atom("a"),))
    px = Compound("p", (Variable("X"),))
    py = Compound("p", (Variable("Y"),))
    assert multiset_alpha_equal([pa, px], [py, pa])
    assert not multiset_alpha_equal([pa], [px])
    assert not multiset_alpha_equal([pa, pa], [pa])


# -- program generation ---------------------------------------------------------


def test_gen_program_deterministic():
    one = gen_program(GenParams(seed=42))
    two = gen_program(GenParams(seed=42))
    assert one == two
    assert gen_program(GenParams(seed=43)) != one


def test_gen_program_round_trips_through_text():
    for seed in range(20):
        program = gen_program(GenParams(seed=seed))
        assert parse_program(render_program(program)) == program


def test_gen_program_acyclic_when_recursion_off():
    for seed in range(30):
        program = gen_program(GenParams(seed=seed, recursion_prob=0.0))
        defined = {}
        for clause in program.clauses:
            from boxtrace.terms import functor_key

            defined.setdefault(functor_key(clause.head)[0], set())
        # every body call goes to a strictly later predicate or is undefined
        for clause in program.clauses:
            from boxtrace.terms import functor_key

            head = functor_key(clause.head)[0]
            for goal in clause.body:
                callee = functor_key(goal)[0]
                if callee in defined:
                    assert int(callee[1:]) > int(head[1:])


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(seed=1, predicate_count=0)
    with pytest.raises(ValueError):
        GenParams(seed=1, recursion_prob=1.5)


# -- the faithfulness check -------------------------------------------------------


def test_check_choice_program_passes(choice_program):
    report = check_faithfulness(choice_program)
    assert report.verdict == "pass"
    assert report.steps_checked == 10
    assert report.first_divergence is None
    assert report.passed


def test_check_reports_limit_hit():
    looping = parse_program("loop :- loop.\n:- loop.")
    report = check_faithfulness(looping, max_steps=64)
    assert report.verdict == "limit-hit"
    assert report.steps_checked == 63  # the final event has no lookahead


def test_oracle_budget_grows_with_the_run():
    # A fact-table join whose oracle search needs more than the fixed
    # 200,000 clause tries: the budget comes from the run, so the answers
    # are still compared.
    edges = [(i, (i + k) % 40) for i in range(40) for k in (1, 3, 7, 12, 20)]
    facts = "".join(f"e(n{a},n{b}).\n" for a, b in edges)
    program = parse_program(
        facts + "path(A,B,C,D) :- e(A,B),e(B,C),e(C,D).\n:- path(A,B,C,D).\n"
    )
    assert reference_solve(program).capped
    report = check_faithfulness(program, max_steps=100_000)
    assert report.verdict == "pass"
    assert report.detail == ""


def test_check_degenerate_programs(no_match, single_fact, two_facts):
    for program in (no_match, single_fact, two_facts):
        report = check_faithfulness(program)
        assert report.verdict == "pass", report


def test_digest_is_stable(choice_program):
    assert program_digest(choice_program) == program_digest(choice_program)
    assert len(program_digest(choice_program)) == 12


def test_small_seed_batch_passes():
    for seed in range(1, 40):
        program = gen_program(GenParams(seed=seed, recursion_prob=0.1))
        report = check_faithfulness(program, max_steps=3000)
        assert report.verdict in ("pass", "limit-hit"), (seed, report)
        if report.verdict == "pass":
            assert report.first_divergence is None


# -- negative controls --------------------------------------------------------------


def test_mutated_trace_swap_fails(choice_program):
    events = events_of(choice_program)
    e2, e3 = events[2], events[3]
    events[2] = TraceEvent(3, e3.node, e3.depth, e3.port, e3.goal)
    events[3] = TraceEvent(4, e2.node, e2.depth, e2.port, e2.goal)
    report = check_faithfulness(choice_program, events=events)
    assert report.verdict == "fail"
    assert report.first_divergence is not None
    assert report.first_divergence.chrono == 3


def test_mutated_port_fails(choice_program):
    events = events_of(choice_program)
    e = events[1]
    events[1] = TraceEvent(e.chrono, e.node, e.depth, Port.EXIT, e.goal)
    report = check_faithfulness(choice_program, events=events)
    assert report.verdict == "fail"


def test_mutated_node_number_fails(choice_program):
    events = events_of(choice_program)
    e = events[5]
    events[5] = TraceEvent(e.chrono, 3, e.depth, e.port, e.goal)
    report = check_faithfulness(choice_program, events=events)
    assert report.verdict == "fail"
    divergence = report.first_divergence
    assert divergence.chrono == 6
    # The engine side is the engine's own tree after those six steps.
    eng = Engine(choice_program)
    for _ in range(6):
        eng.step()
    for table in ("current", "goals", "parent", "index", "depth", "child_count", "order"):
        assert getattr(divergence.engine_state, table) == getattr(eng, table), table


def test_check_reports_a_misclassified_rule(choice_program):
    # A valid trace of another program: there p(b) is a rule, so the Redo at
    # chrono 6 is a Redo2, where the checked run retries the fact with Redo1.
    other = parse_program(CHOICE_PROGRAM.replace("p(b).", "p(b) :- t.\nt."))
    report = check_faithfulness(choice_program, events=events_of(other))
    assert report.verdict == "fail"
    divergence = report.first_divergence
    assert divergence.chrono == 6
    assert divergence.note == "classified rule differs from applied rule"
    assert (divergence.applied_rule, divergence.classified_rule) == (
        RuleId.REDO1,
        RuleId.REDO2,
    )


def test_check_reads_the_engines_own_tree(monkeypatch):
    # An engine whose tables disagree with the deltas it reports: each box
    # that exits below the root is refiled at child index 41.  The deltas
    # still match replay's, so only a comparison with the engine's own
    # tables can see it.
    apply_rule = Engine.apply_rule

    def refiling(self, rule):
        delta = apply_rule(self, rule)
        if delta.updated_goal is not None and delta.updated_goal[0] != 1:
            self.index[delta.updated_goal[0]] = 41
        return delta

    monkeypatch.setattr(Engine, "apply_rule", refiling)
    report = check_faithfulness(parse_program("a :- b, c.\nb.\nc.\n:- a."))
    assert report.verdict == "fail"
    divergence = report.first_divergence
    assert (divergence.chrono, divergence.note) == (6, "final restricted states diverged")
    assert divergence.engine_state.index[2] == 41
    assert divergence.rebuilt_state.index[2] == 1


def test_depth_corruption_passes_replay_but_fails_lint(choice_program):
    events = [
        TraceEvent(e.chrono, e.node, e.depth + 1, e.port, e.goal)
        for e in events_of(choice_program)
    ]
    report = check_faithfulness(choice_program, events=events)
    assert report.verdict == "pass"  # replay never reads the depth
    reb = Rebuilder(events[0].goal)
    for event in events:
        reb.push(event)
    reb.finish()
    assert reb.depth_mismatches


def test_untouched_trace_passes_compare(choice_program):
    events = events_of(choice_program)
    assert check_faithfulness(choice_program, events=events).verdict == "pass"
    assert check_faithfulness(choice_program, events=iter(events)).verdict == "pass"


def test_stream_one_event_short_fails(choice_program):
    events = events_of(choice_program)[:-1]
    report = check_faithfulness(choice_program, events=events)
    assert report.verdict == "fail"
    assert report.first_divergence.chrono == 10
    assert report.first_divergence.note == "the stream has 9 events, the run 10 steps"


def test_stream_one_event_long_fails(choice_program):
    events = events_of(choice_program)
    events.append(TraceEvent(11, 1, 1, Port.EXIT, events[-1].goal))  # replays fine
    report = check_faithfulness(choice_program, events=events)
    assert report.verdict == "fail"
    assert report.first_divergence.chrono == 11
    assert report.first_divergence.note == "the stream has 11 events, the run 10 steps"


# -- answers against the oracle -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_programs_agree_with_oracle(seed):
    program = gen_program(GenParams(seed=seed, recursion_prob=0.05))
    eng = Engine(program)
    for _ in stream_events(eng, max_steps=4000):
        pass
    if eng.select_rule() is not None:
        return
    ref = reference_solve(program, max_depth=200, max_steps=100_000)
    if ref.capped:
        return
    assert multiset_alpha_equal(eng.answers, ref.answers)


def _check_peak(program, steps: int) -> int:
    tracemalloc.start()
    try:
        assert check_faithfulness(program, max_steps=steps).verdict == "limit-hit"
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_memory_grows_linearly_with_depth():
    # A runaway two-predicate recursion one box deeper per step, passing a
    # binding chain down as long as the tree is deep.  Memory per box must
    # not grow with its depth: double the steps, about double the peak.
    program = parse_program(
        "r0(f(a,Z),Y) :- r1(X,Y).\nr0(a,b).\n"
        "r1(g(c,Z),Y) :- r0(X,Y).\nr1(c,d).\n:- r0(A,B).\n"
    )
    short, long = _check_peak(program, 2000), _check_peak(program, 4000)
    assert long <= 2.5 * short, (short, long)
