import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxtrace.engine as engine_module
from boxtrace import (
    Atom,
    Compound,
    Engine,
    GenParams,
    Rebuilder,
    RuleId,
    Variable,
    alpha_equal,
    gen_program,
    parse_program,
    parse_term_text,
    path_of,
    render_term,
    stream_events,
)
from boxtrace.terms import functor_key
from tests.references import useful_clauses
from tests.snapshots import dewey, record

X = Variable("X")


def names(rules):
    return [r.value for r in rules]


# -- Dewey path order and navigation -------------------------------------------


# Nodes are creation numbers; the root is 1.  `path_of` spells out a node's
# Dewey path from the engine's parent and child-index tables.
BRANCHING = "g :- p(X), q(X).\np(Y) :- r(Y), s(Y).\nr(a).\nr(b).\ns(b).\nq(b).\n:- g."


def box_trees(program):
    """(side, live state) after every step: the engine's own box tree, then
    that of a replay of its events (the same class, built from the stream
    alone)."""
    eng = Engine(program)
    while eng.step() is not None:
        yield "engine", eng
    reb = Rebuilder(program.goal)
    for _, event, _ in stream_events(Engine(program)):
        if reb.push(event) is not None:
            yield "replay", reb.state
    reb.finish()
    yield "replay", reb.state


def test_dewey_order_examples():
    # Dewey order is plain tuple order.  The creation-ordered list of live
    # nodes (`order`) relies on it matching creation order.
    assert () < (1,)  # root before everything
    assert (1, 1) < (1, 2)  # siblings by index
    assert not (2,) < (1, 1)  # (1,1) precedes (2,)
    assert (1,) < (1, 2)  # prefix before extension
    assert (1, 1) < (2,)
    sides = set()
    for side, state in box_trees(parse_program(BRANCHING)):
        sides.add(side)
        live = sorted(state.goals)
        assert live == state.order
        paths = [path_of(state, v) for v in live]
        assert paths == sorted(paths)
    assert sides == {"engine", "replay"}


def test_parent_path():
    # The parent table drops a node's last Dewey coordinate, the index table
    # holds it, the depth table counts the path's nodes, and child_count
    # counts the live children; on the engine and on replay alike.
    seen = {"engine": set(), "replay": set()}
    for side, state in box_trees(parse_program(BRANCHING)):
        tables = (state.parent, state.index, state.depth, state.child_count)
        assert all(table.keys() == state.goals.keys() for table in tables)
        for v in state.goals:
            path = path_of(state, v)
            seen[side].add(path)
            assert state.depth[v] == len(path) + 1
            children = [y for y in state.goals if y != 1 and state.parent[y] == v]
            assert state.child_count[v] == len(children)
            if v != 1:
                assert path_of(state, state.parent[v]) == path[:-1]
                assert state.index[v] == path[-1]
        assert state.parent[1] == 1 and path_of(state, 1) == ()  # the root is its own parent
    for paths in seen.values():
        assert {(), (1,), (1, 1), (1, 2), (2,)} <= paths


def test_new_sibling_path(choice_program):
    # Exit2 creates the next sibling: same parent, child index plus one.
    eng = Engine(choice_program)
    eng.step()
    eng.step()
    exited = eng.current
    rule, delta = eng.step()
    assert rule is RuleId.EXIT2
    assert delta.created == (3, eng.parent[exited], eng.index[exited] + 1) == (3, 1, 2)
    assert path_of(eng, 3) == (2,)
    # The root has no sibling: its exit is always Exit1.
    assert not eng.has_next_body_goal(1)


def test_paths_after(choice_program):
    tree = {(), (1,), (1, 1), (2,)}
    assert sorted(y for y in tree if y > (1,)) == [(1, 1), (2,)]
    assert [y for y in tree if y > (2,)] == []  # greatest node: nothing after
    # A jump back to a choice point discards exactly the nodes after it.
    eng = Engine(choice_program)
    for _ in range(5):  # through the Fail2 at eq(a,b)
        eng.step()
    before = dewey(eng)
    rule, delta = eng.step()
    assert rule is RuleId.REDO1 and path_of(eng, delta.current) == (1,)
    assert list(delta.removed) == [before[y] for y in sorted(before) if y > (1,)]


# -- the running example, step by step -----------------------------------------

CHOICE_RULES = [
    "Call2", "Call1", "Exit2", "Call1", "Fail2",
    "Redo1", "Exit2", "Call1", "Exit1", "Exit1",
]


def test_choice_program_rule_sequence(choice_program):
    result = record(choice_program)
    assert result.completed
    assert names(rule for rule, _ in result.steps) == CHOICE_RULES
    assert [render_term(t) for t in result.answers] == ["goal"]


def test_first_step_creates_child_box(choice_program):
    state = record(choice_program).steps[0][1]
    assert state.tree == {(), (1,)}
    assert state.current == (1,)
    assert state.last_number == 2
    assert state.numbers == {(): 1, (1,): 2}
    assert alpha_equal(state.goals[(1,)], Compound("p", (X,)))
    # clauses of the new box: p(a) and p(b), in source order
    assert [cl.source_index for cl in state.clauses[(1,)]] == [1, 2]
    assert state.clauses[()] == ()
    assert state.fresh[(1,)] and not state.fresh[()]


def test_choice_point_tracking_after_failure(choice_program):
    eng = Engine(choice_program)
    for _ in range(5):  # through the Fail2 at eq(a,b)
        eng.step()
    assert eng.current == 1
    assert eng.failing
    assert eng.greatest_choice_point(1) == 2 and path_of(eng, 2) == (1,)
    assert [cl.source_index for cl in eng.clauses[2]] == [2]


def test_redo_prunes_failed_sibling(choice_program):
    eng = Engine(choice_program)
    for _ in range(6):  # Redo1 applied
        eng.step()
    assert dewey(eng) == {(): 1, (1,): 2}
    assert eng.current == 2
    assert eng.clauses[2] == ()
    assert not eng.failing
    # the exited value is kept on the node until the next Exit overwrites it
    assert render_term(eng.goals[2]) == "p(a)"


def test_recreated_sibling_gets_fresh_number(choice_program):
    final = record(choice_program).steps[-1][1]
    assert final.tree == {(), (1,), (2,)}
    assert final.numbers == {(): 1, (1,): 2, (2,): 4}
    assert render_term(final.goals[(1,)]) == "p(b)"
    assert render_term(final.goals[(2,)]) == "eq(b,b)"
    assert final.done and final.current == ()


def test_sibling_position_controls_exit_variant(choice_program):
    # p(X) sits before eq(X,b) in the clause body: its exit spawns a sibling;
    # eq's exit walks up; the root has no sibling.
    eng = Engine(choice_program)
    eng.step()
    eng.step()  # Call p(X)
    assert eng.has_next_body_goal(dewey(eng)[(1,)])
    assert not eng.has_next_body_goal(1)
    for _ in range(6):
        eng.step()  # through Call eq(b,b)
    assert not eng.has_next_body_goal(dewey(eng)[(2,)])


# -- enumeration and degenerate programs ----------------------------------------


def test_two_facts_enumerates_both_answers(two_facts):
    result = record(two_facts)
    assert names(rule for rule, _ in result.steps) == [
        "Call1", "Exit1", "Redo1", "Exit1",
    ]
    assert [render_term(t) for t in result.answers] == ["p(a)", "p(b)"]
    assert result.completed


def test_goal_with_no_matching_clause(no_match):
    result = record(no_match)
    assert names(rule for rule, _ in result.steps) == ["Call1", "Fail2"]
    assert result.answers == ()
    final = result.steps[-1][1]
    assert final.done and final.failing and final.tree == {()}


def test_single_fact(single_fact):
    result = record(single_fact)
    assert names(rule for rule, _ in result.steps) == ["Call1", "Exit1"]
    assert [render_term(t) for t in result.answers] == ["a"]


def test_rule_choice_point_uses_redo2():
    program = parse_program("p(a).\np(X) :- q(X).\nq(b).\n:- p(Z).")
    result = record(program)
    assert names(rule for rule, _ in result.steps) == [
        "Call1", "Exit1", "Redo2", "Call1", "Exit1", "Exit1",
    ]
    assert [render_term(t) for t in result.answers] == ["p(a)", "p(b)"]


def test_deep_choice_point_jump():
    program = parse_program(
        "g :- p(X), q(X).\np(Y) :- r(Y).\nr(a).\nr(b).\nq(b).\n:- g."
    )
    result = record(program)
    assert [render_term(t) for t in result.answers] == ["g"]
    rules = names(rule for rule, _ in result.steps)
    # the Redo jumps straight into the r box two levels down
    assert "Redo1" in rules
    redo_at = rules.index("Redo1")
    state = result.steps[redo_at][1]
    assert state.current == (1, 1)


def test_bindings_restored_across_redo(two_facts):
    # After Redo at the root box, X must be free again so p(b) can bind it.
    result = record(two_facts)
    exits = [state for rule, state in result.steps if rule is RuleId.EXIT1]
    assert render_term(exits[0].goals[()]) == "p(a)"
    assert render_term(exits[1].goals[()]) == "p(b)"


# -- limits ----------------------------------------------------------------------


def test_step_limit_returns_valid_prefix():
    looping = parse_program("loop :- loop.\n:- loop.")
    eng = Engine(looping)
    events = [event for _, event, _ in stream_events(eng, max_steps=50)]
    assert eng.chrono == 50
    assert eng.select_rule() is not None  # stopped by the limit, not finished
    assert [e.chrono for e in events] == list(range(1, 51))


def test_solution_limit(two_facts):
    # Stopping the stream at the first answer leaves a resumable engine.
    eng = Engine(two_facts)
    for _ in stream_events(eng):
        if eng.answers:
            break
    assert [render_term(t) for t in eng.answers] == ["p(a)"]
    assert eng.select_rule() is RuleId.REDO1
    rest = [rule for rule, _, _ in stream_events(eng)]
    assert names(rest) == ["Redo1", "Exit1"]
    assert [render_term(t) for t in eng.answers] == ["p(a)", "p(b)"]


# -- invariants over whole runs ---------------------------------------------------


def assert_state_invariants(state):
    assert state.current in state.tree
    for mapping in (state.numbers, state.goals, state.clauses, state.fresh):
        assert set(mapping) == state.tree
    numbers = list(state.numbers.values())
    assert len(set(numbers)) == len(numbers)
    assert state.numbers[()] == 1
    assert state.last_number >= max(numbers)
    for v in state.tree:
        if v:
            assert v[:-1] in state.tree
        if state.fresh[v]:
            assert not any(y[: len(v)] == v for y in state.tree if y != v)


@pytest.mark.parametrize(
    "text",
    [
        None,  # use the choice program fixture
        "p(a).\np(b).\n:- p(X).",
        "g :- p(X), q(X).\np(Y) :- r(Y).\nr(a).\nr(b).\nq(b).\n:- g.",
        "p(a).\n:- q(a).",
        "n(z).\nn(s(X)) :- n(X).\n:- n(X).",
    ],
)
def test_invariants_hold_along_runs(text, choice_program):
    program = choice_program if text is None else parse_program(text)
    result = record(program, max_steps=60)
    chronos = [event.chrono for _, event, _ in stream_events(Engine(program), 60)]
    assert chronos == list(range(1, len(result.steps) + 1))
    assert_state_invariants(result.initial)
    for rule, state in result.steps:
        assert_state_invariants(state)
        if rule is RuleId.FAIL2:
            assert state.failing


def test_terminal_state_has_no_rule(choice_program):
    eng = Engine(choice_program)
    while eng.step() is not None:
        pass
    assert eng.select_rule() is None
    assert eng.done


# -- first-argument clause indexing ----------------------------------------------

# p/1 interleaves keyed and variable-first heads and mixes the atom `a` with
# the compound `a(...)`; p/2 shares p/1's name; r has arity 0.
MIXED_HEADS = """\
p(a).
p(X) :- q(X).
p(a(Y)).
p(f(a)).
p(Z, b).
p(a) :- q(a).
p(f(X)) :- q(X).
p(W).
p(a(b)) :- r.
q(b).
q(a(c)).
r.
r :- q(b).
:- p(V).
"""


def _filtered(program, goal):
    return Engine(program)._matching_clauses(goal)


@pytest.mark.parametrize(
    "goal, expected",
    [
        ("p(V)", [0, 1, 2, 3, 5, 6, 7, 8]),  # unbound first argument
        ("p(a)", [0, 1, 5, 7]),  # atom: never the compound a(...)
        ("p(a(c))", [1, 2, 7]),  # compound: never the atom a
        ("p(f(b))", [1, 6, 7]),
        ("p(zz)", [1, 7]),  # a key no clause has: variable-first only
        ("p(zz(a))", [1, 7]),
        ("q(a)", []),  # a key no clause has, no variable-first clause
        ("q(V)", [9, 10]),
        ("p(a,b)", [4]),
        ("r", [11, 12]),  # arity 0
        ("s(a)", []),  # no such predicate
    ],
)
def test_index_keeps_exactly_the_unifiable_clauses(goal, expected):
    program = parse_program(MIXED_HEADS)
    term = parse_term_text(goal)
    kept = _filtered(program, term)
    assert [program.clauses.index(c) for c in kept] == expected
    assert kept == tuple(useful_clauses(term, program, {}))


_VARIABLES = st.sampled_from([Variable("V"), Variable("W")])
_ATOMS = st.sampled_from(["a", "b", "c", "zz"]).map(Atom)


def _compounds(inner):
    return st.sampled_from([("f", 1), ("g", 2), ("a", 1), ("zz", 2)]).flatmap(
        lambda key: st.tuples(*[inner] * key[1]).map(lambda args: Compound(key[0], args))
    )


_TERMS = st.recursive(_VARIABLES | _ATOMS, _compounds, max_leaves=5)

_PROGRAMS = st.one_of(
    st.just(MIXED_HEADS).map(parse_program),
    st.integers(min_value=0, max_value=10_000).map(lambda seed: gen_program(GenParams(seed=seed))),
)


@settings(max_examples=300, deadline=None)
@given(_PROGRAMS, st.data())
def test_index_matches_useful_clauses(program, data):
    # First arguments cover unbound, atoms, compounds, and keys no head has.
    name, arity = data.draw(st.sampled_from(sorted({functor_key(c.head) for c in program.clauses})))
    if arity == 0:
        goal = Atom(name)
    else:
        goal = Compound(name, tuple(data.draw(_TERMS) for _ in range(arity)))
    assert _filtered(program, goal) == tuple(useful_clauses(goal, program, {}))


def test_bound_first_argument_tries_only_its_bucket(monkeypatch):
    facts = "".join(f"e(n{i},n{(i + k) % 20}).\n" for i in range(20) for k in (1, 2))
    program = parse_program(facts + ":- e(n3,Y).")
    eng = Engine(program)
    tried = []
    unify = engine_module.unify

    def counting_unify(goal, head, s):
        tried.append(head)
        return unify(goal, head, s)

    monkeypatch.setattr(engine_module, "unify", counting_unify)
    assert len(eng._matching_clauses(program.goal)) == 2
    assert len(tried) == 2  # the two e(n3,_) facts, not all forty
    tried.clear()
    assert len(eng._matching_clauses(parse_term_text("e(Y,n3)"))) == 2
    assert len(tried) == 40  # unbound first argument: every clause is tried
