import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxtrace.harness as harness_module
import boxtrace.terms as terms_module
from boxtrace import (
    Atom,
    Compound,
    DeterminismError,
    Engine,
    GenParams,
    Port,
    Rebuilder,
    RefResult,
    RuleId,
    StepDelta,
    TraceEvent,
    Variable,
    check_faithfulness,
    gen_program,
    alpha_equal,
    parse_program,
    parse_trace_text,
    reference_solve,
    render_event,
    render_program,
    render_term,
    stream_events,
)
from boxtrace.harness import _deltas_match, _first_answer_apart, program_digest
from boxtrace.terms import functor_key, rename_term
from tests import references as references_module
from tests.conftest import CHOICE_PROGRAM, events_of, nat_chain
from tests.references import unguarded_reference_solve


# -- reference oracle ---------------------------------------------------------


def test_reference_choice_program(choice_program):
    ref = reference_solve(choice_program, 1000)
    assert not ref.capped
    assert [render_term(t) for t in ref.answers] == ["goal"]


def test_reference_two_facts_in_source_order(two_facts):
    ref = reference_solve(two_facts, 1000)
    assert [render_term(t) for t in ref.answers] == ["p(a)", "p(b)"]


def test_reference_no_matching_clause(no_match):
    ref = reference_solve(no_match, 1000)
    assert ref.answers == () and not ref.capped


def test_reference_cap_marker():
    looping = parse_program("loop :- loop.\n:- loop.")
    ref = reference_solve(looping, 1000)
    assert ref.capped


def _same_in_order(xs, ys) -> bool:
    return len(xs) == len(ys) and all(alpha_equal(x, y) for x, y in zip(xs, ys))


def _unguarded_with_own_tries(program, **caps):
    """The unguarded reference's result, and how many of its tries were of
    the goal's own predicate: the tries the oracle makes on the same path."""
    own_tries = 0
    unify_into = references_module.unify_into

    def counting(goal, head, s, trail):
        nonlocal own_tries
        own_tries += functor_key(goal) == functor_key(head)
        return unify_into(goal, head, s, trail)

    with mock.patch.object(references_module, "unify_into", counting):
        return unguarded_reference_solve(program, **caps), own_tries


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.0, 0.15]))
def test_guarded_oracle_equals_unguarded(seed, recursion_prob):
    # The recursive reference has small caps, so that both capped and
    # completed searches occur (about one seed in five caps at
    # recursion_prob 0.15).  Both search in one order, and the oracle makes
    # only the reference's tries of a goal's own predicate: given just as
    # many, it finds the same answers in the same order, so a capped
    # reference's answers are a prefix of the oracle's, and a completed
    # reference search is the oracle's whole search.  The budget stops the
    # oracle where the reference stopped: past the reference's depth cap a
    # generated goal can double in size at each level.
    program = gen_program(GenParams(seed=seed, recursion_prob=recursion_prob))
    unguarded, own_tries = _unguarded_with_own_tries(program, max_depth=30, max_steps=2000)
    guarded = reference_solve(program, own_tries)
    assert _same_in_order(unguarded.answers, guarded.answers)
    if not unguarded.capped:
        assert not guarded.capped


def test_guarded_oracle_skips_another_predicates_clause_for_free():
    # Tries: p(Y) takes p(X) (1); q(X) takes q(a) (2), an answer; p(Y)
    # takes p(b) (3), an answer.  q(a) is never tried against p(Y), nor
    # p(X) and p(b) against q(X), so 3 tries finish where the unguarded
    # reference, which counts them, is capped after the first answer.
    program = parse_program("q(a).\np(X) :- q(X).\np(b).\n:- p(Y).")
    guarded = reference_solve(program, 3)
    assert not guarded.capped
    assert [render_term(t) for t in guarded.answers] == ["p(a)", "p(b)"]
    assert reference_solve(program, 2) == RefResult(guarded.answers[:1], capped=True)
    unguarded = unguarded_reference_solve(program, max_depth=30, max_steps=3)
    assert unguarded.capped
    assert [render_term(t) for t in unguarded.answers] == ["p(a)"]


def test_answers_are_compared_in_order():
    pa = Compound("p", (Atom("a"),))
    px = Compound("p", (Variable("X"),))
    py = Compound("p", (Variable("Y"),))
    assert _first_answer_apart([pa, px], [pa, py]) is None  # up to renaming
    assert _first_answer_apart([pa, px], [py, pa]) == 1  # the same answers, reordered
    assert _first_answer_apart([pa], [px]) == 1
    assert _first_answer_apart([pa, pa], [pa]) == 2  # the shorter list ends first
    assert _first_answer_apart([], []) is None


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


def test_gen_program_never_passes_one_variable_twice_in_a_cyclic_call():
    # At recursion_prob 1 every body goal that calls a defined predicate is
    # a possibly-cyclic call.
    for seed in range(200):
        program = gen_program(GenParams(seed=seed, recursion_prob=1.0))
        for clause in program.clauses:
            for goal in clause.body:
                if isinstance(goal, Compound) and len(goal.args) == 2:
                    x, y = goal.args
                    assert not (isinstance(x, Variable) and x == y), render_program(program)


def _tree_size_up_to(term, bound):
    """The node count of a term as a tree, counted only up to bound + 1."""
    count, todo = 0, [term]
    while todo and count <= bound:
        term = todo.pop()
        count += 1
        if isinstance(term, Compound):
            todo.extend(term.args)
    return count


@pytest.mark.parametrize("recursion_prob, max_steps", [(0.05, 200), (0.05, 4000), (0.15, 500)])
def test_seed_2483_goals_grow_linearly(recursion_prob, max_steps):
    # The settings of the three properties that can draw seed 2483.  Its
    # cyclic call drawn as `p3(X) :- p2(X,X)`, with `p2(X,Z) :- p3(g(Z,X))`,
    # would double the goal every two steps (131,071 nodes at step 32); as
    # `p3(X) :- p2(X,Y)` the goal grows by one `g` each cycle.
    program = gen_program(GenParams(seed=2483, recursion_prob=recursion_prob))
    eng = Engine(program)
    for _, event, _ in stream_events(eng, max_steps=max_steps):
        bound = 2 * event.chrono + 2
        assert _tree_size_up_to(event.goal, bound) <= bound, event.chrono
    assert event.chrono == max_steps and eng.select_rule() is not None


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


def test_check_reports_limit_hit():
    looping = parse_program("loop :- loop.\n:- loop.")
    report = check_faithfulness(looping, max_steps=64)
    assert report.verdict == "limit-hit"
    assert report.steps_checked == 63  # the final event has no lookahead


def test_oracle_budget_grows_with_the_run():
    # A fact-table join whose oracle search needs more than 200,000 clause
    # tries: the budget comes from the run, so the answers are still
    # compared.
    edges = [(i, (i + k) % 40) for i in range(40) for k in (1, 3, 7, 12, 20)]
    facts = "".join(f"e(n{a},n{b}).\n" for a, b in edges)
    program = parse_program(
        facts + "path(A,B,C,D) :- e(A,B),e(B,C),e(C,D).\n:- path(A,B,C,D).\n"
    )
    assert reference_solve(program, 200_000).capped
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


def test_report_digest_is_the_programs(choice_program):
    report = check_faithfulness(choice_program)
    assert report.program is choice_program
    assert report.program_digest == program_digest(choice_program)


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


@pytest.mark.parametrize("at", range(10))
def test_any_single_corrupted_goal_fails(choice_program, at):
    # The root's Call (0), the Fail (4) and the Redo (5) carry the goal their
    # box holds, which replay checks; every other goal changes a box, which
    # the step's delta shows.
    events = events_of(choice_program)
    e = events[at]
    events[at] = TraceEvent(e.chrono, e.node, e.depth, e.port, Compound("zzz", (Atom("q"),)))
    report = check_faithfulness(choice_program, events=events)
    assert report.verdict == "fail"
    if at in (0, 4, 5):
        divergence = report.first_divergence
        assert (divergence.chrono, divergence.note) == (
            at + 1,
            f"replay rejected the stream: {e.port.value} event's goal differs "
            f"from its box's (chrono {at + 1})",
        )


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
    events.append(TraceEvent(11, 1, 1, Port.EXIT, events[-1].goal))
    report = check_faithfulness(choice_program, events=events)
    assert report.verdict == "fail"
    assert report.first_divergence.chrono == 11
    assert report.first_divergence.note == (
        "replay rejected the stream: Exit event after an Exit at the root (chrono 11)"
    )


def test_stream_longer_than_a_capped_run_fails(choice_program):
    report = check_faithfulness(choice_program, max_steps=5, events=events_of(choice_program))
    assert report.verdict == "fail"
    assert report.first_divergence.chrono == 6
    assert report.first_divergence.note == "the stream has 10 events, the run 5 steps"


def _streams_against(program, cap):
    """The run's own stream (None) and four foreign ones, for a run of at most
    `cap` steps: an equal copy, one event short, one event long (the next
    event of a capped run; an Exit at the root after a completed one), and the
    swap control, whose events 3 and 4 trade places."""
    own = events_of(program, cap)
    longer = events_of(program, cap + 1)
    if len(longer) == len(own):
        longer.append(TraceEvent(len(own) + 1, 1, 1, Port.EXIT, own[-1].goal))
    swapped = list(own)
    e2, e3 = own[2], own[3]
    swapped[2] = TraceEvent(3, e3.node, e3.depth, e3.port, e3.goal)
    swapped[3] = TraceEvent(4, e2.node, e2.depth, e2.port, e2.goal)
    return {"own": None, "copy": own, "short": own[:-1], "long": longer, "swap": swapped}


_SWAP_REJECTED = "replay rejected the stream: Call followed by an older node (chrono 3)"


@pytest.mark.parametrize(
    "cap, stream, verdict, checked, chrono, note",
    [
        # The choice program's run is 10 steps long.
        (10_000, "own", "pass", 10, None, None),
        (10_000, "copy", "pass", 10, None, None),
        (10_000, "short", "fail", 8, 10, "the stream has 9 events, the run 10 steps"),
        (
            10_000,
            "long",
            "fail",
            9,
            11,
            "replay rejected the stream: Exit event after an Exit at the root (chrono 11)",
        ),
        # Chrono 2 diverges (Call2 against the run's Call1); the rest of the
        # stream is still replayed, and its rejection is reported.
        (10_000, "swap", "fail", 2, 3, _SWAP_REJECTED),
        # Capped runs compare all but their last step.
        (5, "own", "limit-hit", 4, None, None),
        (5, "copy", "limit-hit", 4, None, None),
        (5, "short", "fail", 3, 5, "the stream has 4 events, the run 5 steps"),
        # Event 6 is a Redo: the longer stream is a prefix that ends where
        # replay cannot classify it, which never hides the length.
        (5, "long", "fail", 4, 6, "the stream has 6 events, the run 5 steps"),
        (5, "swap", "fail", 2, 3, _SWAP_REJECTED),
        (4, "own", "limit-hit", 3, None, None),
        (4, "copy", "limit-hit", 3, None, None),
        (4, "short", "fail", 2, 4, "the stream has 3 events, the run 4 steps"),
        (4, "long", "fail", 3, 5, "the stream has 5 events, the run 4 steps"),
        (4, "swap", "fail", 2, 3, _SWAP_REJECTED),
    ],
)
def test_each_stream_against_a_completed_and_a_capped_run(
    choice_program, cap, stream, verdict, checked, chrono, note
):
    events = _streams_against(choice_program, cap)[stream]
    report = check_faithfulness(choice_program, max_steps=cap, events=events)
    divergence = report.first_divergence
    assert (report.verdict, report.steps_checked) == (verdict, checked)
    assert (divergence and divergence.chrono, divergence and divergence.note) == (chrono, note)
    assert report.detail == ("step cap hit; prefix checked only" if verdict == "limit-hit" else "")


def test_a_stream_cut_on_a_redo_with_no_earlier_divergence_is_rejected(choice_program):
    # The run's last event, the root's Exit, becomes a Redo of box 2, which
    # holds p(b): event 9 still classifies as the run's Exit1, and only the
    # final Redo is left, with no divergence before it.
    events = events_of(choice_program)
    events[9] = TraceEvent(10, 2, 2, Port.REDO, events[6].goal)
    report = check_faithfulness(choice_program, events=events)
    assert (report.verdict, report.steps_checked) == ("fail", 9)
    divergence = report.first_divergence
    assert (divergence.chrono, divergence.note) == (
        10,
        "replay rejected the stream: stream ends on a Redo event (chrono 10)",
    )


def test_only_a_foreign_stream_is_finished_after_a_divergence(choice_program, monkeypatch):
    # An engine that misreports where its Redo at chrono 6 leaves the current
    # node.  The run's own stream stops replaying at the divergence; a foreign
    # stream is replayed to its end, so that a later rejection would show.
    apply_rule = Engine.apply_rule
    finished = []
    finish = Rebuilder.finish

    def misreporting(self, rule):
        delta = apply_rule(self, rule)
        return delta._replace(current=99) if self.chrono == 6 else delta

    def counted(self):
        finished.append(self)
        return finish(self)

    monkeypatch.setattr(Engine, "apply_rule", misreporting)
    monkeypatch.setattr(Rebuilder, "finish", counted)
    for events, calls in ((None, 0), (events_of(choice_program), 1)):
        finished.clear()
        report = check_faithfulness(choice_program, events=events)
        assert report.verdict == "fail" and report.steps_checked == 6
        divergence = report.first_divergence
        assert (divergence.chrono, divergence.note) == (
            6,
            "state change differs between engine and replay",
        )
        assert len(finished) == calls


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
    ref = reference_solve(program, 100_000)
    if ref.capped:
        return
    assert _same_in_order(eng.answers, ref.answers)


def test_check_compares_the_answers_of_a_deep_run():
    # 2,001 nested boxes: no depth cap leaves the answers uncompared.
    report = check_faithfulness(parse_program(nat_chain(2000)))
    assert (report.verdict, report.steps_checked, report.detail) == ("pass", 4002, "")


def test_engine_answers_altered_on_a_deep_run_fail(monkeypatch):
    apply_rule = Engine.apply_rule
    wrong = Compound("nat", (Atom("z"),))

    def altered(self, rule):
        delta = apply_rule(self, rule)
        self.answers[:] = [wrong] * len(self.answers)
        return delta

    monkeypatch.setattr(Engine, "apply_rule", altered)
    report = check_faithfulness(parse_program(nat_chain(2000)))
    assert (report.verdict, report.steps_checked) == ("fail", 4002)
    assert report.first_divergence is None
    assert report.detail == "answers differ at answer 1: engine 1 vs oracle 1"


def test_an_oracle_out_of_budget_on_a_completed_run_fails(monkeypatch):
    # The budget is enough for the tree the run walked: an oracle that runs
    # out on a completed run searched another tree.
    budgets = []

    def capped(program, max_tries):
        budgets.append(max_tries)
        return RefResult((), capped=True)

    monkeypatch.setattr(harness_module, "reference_solve", capped)
    report = check_faithfulness(parse_program(nat_chain(2000)))
    assert budgets == [4002 * 2]
    assert (report.verdict, report.steps_checked) == ("fail", 4002)
    assert report.first_divergence is None
    assert report.detail == "oracle spent its budget of 8004 clause tries on a completed run"


def _oracle_peak(program) -> int:
    tracemalloc.start()
    try:
        ref = reference_solve(program, 10**6)
        assert not ref.capped and len(ref.answers) == 1
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_searches_a_deep_chain_in_linear_memory():
    # An explicit stack: no depth cap, and goal lists that share their
    # tails, so double the depth costs about double the memory.
    short = _oracle_peak(parse_program(nat_chain(10_000)))
    long = _oracle_peak(parse_program(nat_chain(20_000)))
    assert long <= 2.5 * short, (short, long)


def _check_peak(program, steps: int) -> int:
    tracemalloc.start()
    try:
        assert check_faithfulness(program, max_steps=steps).verdict == "limit-hit"
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A runaway two-predicate recursion one box deeper per step, passing a
# binding chain down as long as the tree is deep.
DEEP_RUNAWAY = (
    "r0(f(a,Z),Y) :- r1(X,Y).\nr0(a,b).\n"
    "r1(g(c,Z),Y) :- r0(X,Y).\nr1(c,d).\n:- r0(A,B).\n"
)


def test_check_memory_grows_linearly_with_depth():
    # Memory per box must not grow with its depth: double the steps, about
    # double the peak.
    program = parse_program(DEEP_RUNAWAY)
    short, long = _check_peak(program, 2000), _check_peak(program, 4000)
    assert long <= 2.5 * short, (short, long)


def test_self_check_walks_no_more_goals_per_step_as_the_tree_grows(monkeypatch):
    # Replay holds the engine's own goal objects, so identity decides every
    # goal comparison, the whole-state checkpoints over all live boxes
    # included: the goals walked per step stay the same.
    walks = []

    def counting(a, b, _walk=terms_module._alpha_walk):
        walks.append(a)
        return _walk(a, b)

    monkeypatch.setattr(terms_module, "_alpha_walk", counting)
    program = parse_program(DEEP_RUNAWAY)
    per_step = []
    for steps in (500, 4000):
        walks.clear()
        assert check_faithfulness(program, max_steps=steps).verdict == "limit-hit"
        per_step.append(len(walks) / steps)
    assert per_step[0] == per_step[1]


# -- the identity fast path skips no comparison -------------------------------------


# A goal nested 10,000 deep: read back from text, it is compared with the
# engine's at the checkpoints, and no comparison may recurse per level.
DEEP_GOAL = "p(X) :- q(X).\nq({}).\n:- p({}).\n".format(
    "f(" * 10_000 + "Z" + ")" * 10_000, "f(" * 10_000 + "W" + ")" * 10_000
)


@pytest.mark.parametrize(
    "text, steps, verdict",
    [(CHOICE_PROGRAM, 10_000, "pass"), (DEEP_RUNAWAY, 300, "limit-hit"), (DEEP_GOAL, 10, "pass")],
    ids=["choice", "deep-runaway", "deep-goal"],
)
def test_a_stream_read_back_from_text_passes(text, steps, verdict):
    # Every goal read back is another object than the engine's.
    program = parse_program(text)
    ran = events_of(program, steps)
    events = list(parse_trace_text("\n".join(render_event(e) for e in ran)))
    assert all(a.goal is not b.goal for a, b in zip(events, ran))
    report = check_faithfulness(program, max_steps=steps, events=events)
    assert report.verdict == verdict and report.first_divergence is None


def _with_goal(events, at, goal):
    events = list(events)
    events[at] = events[at]._replace(goal=goal)
    return events


def test_a_goal_swapped_for_a_variant_passes():
    # Box 5's Call goal r0(X_4,Y_4) becomes r0(X_1000000,Y_1000000): the
    # created goal and the checkpoint at step 39 reach `alpha_equal`.
    program = parse_program(DEEP_RUNAWAY)
    events = events_of(program, 40)
    goal = events[4].goal
    variant = rename_term(goal, 10**6)
    assert variant != goal and alpha_equal(variant, goal)
    report = check_faithfulness(program, max_steps=40, events=_with_goal(events, 4, variant))
    assert report.verdict == "limit-hit" and report.first_divergence is None


def test_a_goal_swapped_for_a_non_variant_fails():
    # r0(B,B) is no renaming of r0(X_4,Y_4): the Call2 at chrono 4 that
    # creates box 5 differs, as it did before goals were compared
    # identity first.
    program = parse_program(DEEP_RUNAWAY)
    events = events_of(program, 40)
    goal = events[4].goal
    other = Compound(goal.functor, (Variable("B"), Variable("B")))
    report = check_faithfulness(program, max_steps=40, events=_with_goal(events, 4, other))
    assert report.verdict == "fail"
    divergence = report.first_divergence
    assert (divergence.chrono, divergence.note) == (
        4,
        "state change differs between engine and replay",
    )


# -- check's own verdicts and comparisons ------------------------------------------

TWO_CHOICES = "goal :- p(X), q(Y), eq(Y,b).\np(a).\np(b).\nq(a).\nq(b).\neq(X,X).\n:- goal.\n"


def test_redo_to_an_older_choice_point_differs_in_tree_size():
    # At chrono 8 the run retries q(Y), box 3.  The foreign stream retries
    # p(X), box 2, an older live choice point, with the goal box 2 holds;
    # both are Redo1, but replay drops box 3 as well.  The stream stops at
    # chrono 9, so that nothing after it is rejected instead.
    program = parse_program(TWO_CHOICES)
    events = events_of(program)[:9]
    redo, exit_ = events[7], events[8]
    assert (redo.node, redo.port, exit_.node) == (3, Port.REDO, 3)
    box2 = events[2]
    assert (box2.node, box2.port, render_term(box2.goal)) == (2, Port.EXIT, "p(a)")
    events[7] = TraceEvent(8, 2, 2, Port.REDO, box2.goal)
    events[8] = TraceEvent(9, 2, 2, Port.EXIT, Compound("p", (Atom("b"),)))
    report = check_faithfulness(program, events=events)
    assert report.verdict == "fail"
    divergence = report.first_divergence
    assert (divergence.chrono, divergence.note) == (
        8,
        "replayed tree size differs from the engine's",
    )
    assert divergence.applied_rule is divergence.classified_rule is RuleId.REDO1


def test_answers_that_differ_from_the_oracles_fail(choice_program, monkeypatch):
    monkeypatch.setattr(
        harness_module, "reference_solve", lambda *args: RefResult((), capped=False)
    )
    report = check_faithfulness(choice_program)
    assert report.verdict == "fail"
    assert report.steps_checked == 10 and report.first_divergence is None
    assert report.detail == "answers differ at answer 1: engine 1 vs oracle 0"


def test_an_oracle_that_finds_the_answers_in_another_order_fails(two_facts, monkeypatch):
    reference = harness_module.reference_solve
    found = []

    def reversed_answers(program, max_tries):
        ref = reference(program, max_tries)
        found.append(ref.answers)
        return RefResult(ref.answers[::-1], ref.capped)

    monkeypatch.setattr(harness_module, "reference_solve", reversed_answers)
    report = check_faithfulness(two_facts)
    assert [render_term(t) for t in found[0]] == ["p(a)", "p(b)"]
    assert report.verdict == "fail" and report.first_divergence is None
    assert report.detail == "answers differ at answer 1: engine 2 vs oracle 2"


def test_an_engine_error_fails_the_check(choice_program, monkeypatch):
    select_rule = Engine.select_rule

    def overlapping(self):
        if self.chrono == 3:
            raise DeterminismError("rules ['Exit1', 'Exit2'] all apply at chrono 4")
        return select_rule(self)

    monkeypatch.setattr(Engine, "select_rule", overlapping)
    report = check_faithfulness(choice_program)
    assert report.verdict == "fail" and report.first_divergence is None
    assert report.steps_checked == 2  # replay finishes an event on the next one
    assert report.detail == "rules ['Exit1', 'Exit2'] all apply at chrono 4"


_DELTA = StepDelta(
    3, (4, 5), (6, 3, 2), Compound("p", (Variable("X"),)), (3, Compound("q", (Atom("a"),)))
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("current", 2),
        ("removed", (4,)),
        ("removed", ()),
        ("created", (6, 3, 1)),
        ("created", (7, 3, 2)),
        ("created", None),
        ("created_goal", Compound("p", (Atom("a"),))),
        ("created_goal", None),
        ("updated_goal", (2, Compound("q", (Atom("a"),)))),
        ("updated_goal", (3, Compound("q", (Atom("b"),)))),
        ("updated_goal", None),
    ],
)
def test_deltas_that_differ_in_one_field_do_not_match(field, value):
    other = _DELTA._replace(**{field: value})
    assert not _deltas_match(_DELTA, other) and not _deltas_match(other, _DELTA)


def test_deltas_match_up_to_renaming():
    renamed = _DELTA._replace(created_goal=Compound("p", (Variable("X", 7),)))
    assert _deltas_match(_DELTA, _DELTA) and _deltas_match(_DELTA, renamed)
