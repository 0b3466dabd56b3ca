import ast
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxtrace.engine as engine_module
import boxtrace.terms as terms_module
from boxtrace import (
    Atom,
    Compound,
    Engine,
    GenParams,
    Port,
    Program,
    Rebuilder,
    RuleId,
    Variable,
    alpha_equal,
    cli,
    gen_program,
    parse_program,
    parse_term_text,
    render_event,
    render_term,
    stream_events,
)
from boxtrace.engine import ROOT
from boxtrace.terms import functor_key, unify_into
from tests.references import (
    climbing_has_choice_point,
    eager_untried_clauses,
    positions,
    untried_clauses,
    useful_clauses,
)
from tests.snapshots import dewey, path_of, record

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
    assert positions(choice_program, state.clauses[(1,)]) == [1, 2]
    assert state.clauses[()] == ()
    assert state.fresh[(1,)] and not state.fresh[()]


def test_choice_point_tracking_after_failure(choice_program):
    eng = Engine(choice_program)
    for _ in range(5):  # through the Fail2 at eq(a,b)
        eng.step()
    assert eng.current == 1
    assert eng.failing
    assert eng.greatest_choice_point(1) == 2 and path_of(eng, 2) == (1,)
    assert positions(choice_program, untried_clauses(eng, 2)) == [2]


def test_redo_prunes_failed_sibling(choice_program):
    eng = Engine(choice_program)
    for _ in range(6):  # Redo1 applied
        eng.step()
    assert dewey(eng) == {(): 1, (1,): 2}
    assert eng.current == 2
    assert untried_clauses(eng, 2) == ()
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


PROGRAM_FILES = sorted((Path(__file__).resolve().parents[1] / "programs").glob("*.pl"))


def assert_choice_point_test_matches_the_climb(program, max_steps=500):
    """At every state of a run: the creation-number test, forced at the
    current node and at the root, equals the climb; the current node's
    subtree holds the greatest live node (what makes the number test sound);
    every live box's untried clauses equal the eager filter's; and the run,
    forced tests included, has made no more trial unifications than eager
    filtering, which tried every candidate after a box's first bound one."""
    trials = eager = 0

    def counting(goal, head, s, *rest, _unify=engine_module.unify):
        nonlocal trials
        trials += 1
        return _unify(goal, head, s, *rest)

    eng = Engine(program)
    with mock.patch.object(engine_module, "unify", counting):
        while True:
            if eng.fresh:  # a new box: its bucket's candidates past the bound one
                candidates, position, _ = eng._scan[eng.current]
                eager += len(candidates) - position
            forced = [eng.has_choice_point(v) for v in (eng.current, ROOT)]
            assert trials <= eager
            counted = trials  # the references' trials are not the run's
            assert forced == [climbing_has_choice_point(eng, v) for v in (eng.current, ROOT)]
            for v in eng.goals:
                assert untried_clauses(eng, v) == eager_untried_clauses(eng, program, v)
            trials = counted
            current = path_of(eng, eng.current)
            assert path_of(eng, eng.order[-1])[: len(current)] == current
            if eng.chrono >= max_steps or eng.step() is None:
                return


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.0, 0.15]))
def test_choice_point_test_matches_the_climb(seed, recursion_prob):
    assert_choice_point_test_matches_the_climb(
        gen_program(GenParams(seed=seed, recursion_prob=recursion_prob))
    )


@pytest.mark.parametrize("path", PROGRAM_FILES, ids=lambda p: p.name)
def test_choice_point_test_matches_the_climb_on_program_files(path):
    assert_choice_point_test_matches_the_climb(parse_program(path.read_text()))


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
    """The clauses the engine keeps for `goal`: filtered as a root box."""
    return untried_clauses(Engine(Program(program.clauses, goal)), ROOT)


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


def _heads_tried(monkeypatch, names=("unify", "unify_into")):
    """The list of clause heads the engine unifies from now on: the bound
    ones (`unify_into`) and the trial ones (`unify`), or those of `names`."""
    tried = []
    for name in names:

        def counting(goal, head, *rest, _unify=getattr(engine_module, name)):
            tried.append(head)
            return _unify(goal, head, *rest)

        monkeypatch.setattr(engine_module, name, counting)
    return tried


def test_bound_first_argument_tries_only_its_bucket(monkeypatch):
    facts = "".join(f"e(n{i},n{(i + k) % 20}).\n" for i in range(20) for k in (1, 2))
    program = parse_program(facts + ":- e(n3,Y).")
    tried = _heads_tried(monkeypatch)
    assert len(_filtered(program, program.goal)) == 2
    assert len(tried) == 2  # the two e(n3,_) facts, not all forty
    tried.clear()
    assert len(_filtered(program, parse_term_text("e(Y,n3)"))) == 2
    assert len(tried) == 40  # unbound first argument: every clause is tried


def test_a_new_box_unifies_one_head(monkeypatch):
    # Each box of this runaway recursion has two candidate clauses.  The
    # first is bound while the box is filled and its Call binds nothing
    # again; nothing fails, so no guard asks for the second.
    tried = _heads_tried(monkeypatch)
    eng = Engine(
        parse_program(
            "r0(f(a,Z),Y) :- r1(X,Y).\nr0(a,b).\n"
            "r1(g(c,Z),Y) :- r0(X,Y).\nr1(c,d).\n:- r0(A,B).\n"
        )
    )
    for _ in range(1000):
        eng.step()
    assert eng.last_number == 1001  # one new box per step, and the root
    assert len(tried) == eng.last_number


def test_building_an_engine_renames_no_head(monkeypatch):
    # A head is unified as it is read, never renamed into a copy: not the
    # head the root binds, and no later fact's head while the engine is
    # built (a guard tries those only when it asks).
    program = parse_program("".join(f"p(c{i}).\n" for i in range(5_000)) + ":- p(X).\n")
    renamed = []

    def counting(term, *rest, _rename=terms_module.rename_term):
        renamed.append(term)
        return _rename(term, *rest)

    monkeypatch.setattr(terms_module, "rename_term", counting)
    monkeypatch.setattr(engine_module, "rename_term", counting)
    Engine(program)
    assert renamed == []


def test_the_first_answer_of_a_fact_table_tries_no_other_fact(monkeypatch, tmp_path, capsys):
    # Eager filtering trial-unified all 39,999 later facts before the first
    # answer; lazily, a later fact is tried only when a guard asks.
    path = tmp_path / "facts.pl"
    path.write_text("".join(f"p(c{i}).\n" for i in range(40_000)) + ":- p(X).\n")
    tried = _heads_tried(monkeypatch, ("unify",))
    assert cli.main(["trace", str(path), "--max-solutions", "1"]) == 0
    assert capsys.readouterr().out == "1 1 1 Call p(X)\n2 1 1 Exit p(c0)\n"
    assert tried == []
    eng = Engine(parse_program(path.read_text()))
    for _ in stream_events(eng):
        if eng.answers:
            break
    assert tried == []
    assert eng.select_rule() is RuleId.REDO1  # a Redo guard asks: one trial finds p(c1)
    assert len(tried) == 1


# -- a Redo installs the bindings its guard's trial found ---------------------


def _watch_redo_binds(monkeypatch):
    """Counts of the Redo binds that installed a trial's bindings and of
    those that fell back to unifying the head again.  Each one is checked
    against a fresh `unify_into` of the box's call goal with its head, on
    the store as the undo left it: the same bindings in the same order."""
    counts = {"installed": 0, "fallback": 0}
    bind, calls = Engine._bind, []

    def counting(*args, _unify_into=engine_module.unify_into):
        calls.append(args)
        return _unify_into(*args)

    def checking(self, v, clause, found=None):
        if found is None:  # a box being filled, not a Redo
            return bind(self, v, clause)
        s, trail, instance = dict(self.subst), list(self.trail), self.rename_counter + 1
        assert unify_into(self.call_goal[v], clause.head, s, trail, instance)
        del calls[:]
        assert bind(self, v, clause, found)
        counts["fallback" if calls else "installed"] += 1
        assert list(self.subst.items()) == list(s.items()) and self.trail == trail
        return True

    monkeypatch.setattr(engine_module, "unify_into", counting)
    monkeypatch.setattr(Engine, "_bind", checking)
    return counts


def test_every_redo_installs_what_binding_its_head_would(monkeypatch):
    counts = _watch_redo_binds(monkeypatch)
    for seed in range(150):
        for recursion_prob in (0.0, 0.15):
            program = gen_program(GenParams(seed=seed, recursion_prob=recursion_prob))
            for _ in stream_events(Engine(program), max_steps=500):
                pass
    assert counts["installed"] > 500 and counts["fallback"] == 0


_FORCED_PROGRAM = "p(a).\np(b).\nq(c).\ntop :- p(X),q(Y),r(X,Y).\n:- top.\n"


@pytest.mark.parametrize("seed", [None, *range(20)])
def test_a_choice_point_forced_early_takes_the_fallback(monkeypatch, seed):
    # Forced at every state, the test trials a box's next clause before
    # later boxes bind with the instance numbers the trial used; the Redo
    # then binds the head again, and the trace is the unforced one.
    if seed is None:
        program = parse_program(_FORCED_PROGRAM)
    else:
        program = gen_program(GenParams(seed=seed, recursion_prob=0.15))
    unforced = [event for _, event, _ in stream_events(Engine(program), max_steps=500)]
    counts = _watch_redo_binds(monkeypatch)
    eng, forced = Engine(program), []
    for _, event, _ in stream_events(eng, max_steps=500):
        forced.append(event)
        eng.has_choice_point(ROOT)
    assert [render_event(e) for e in forced] == [render_event(e) for e in unforced]
    if seed is None:
        assert counts == {"installed": 0, "fallback": 1}


# -- enum members are read once, at module level --------------------------------

_MEMBERS = {"RuleId": set(RuleId.__members__), "Port": set(Port.__members__)}


def member_reads_in_functions(source: str) -> list[str]:
    """Each `RuleId.<member>` or `Port.<member>` read inside a function body,
    as "RuleId.CALL2 at line 6".  On CPython 3.10 and 3.11 such a read goes
    through the enum class's Python-level `__getattr__`; a binding at module
    level is read once."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = func.body if isinstance(func.body, list) else [func.body]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.attr in _MEMBERS.get(node.value.id, ())
                ):
                    found.add((node.lineno, f"{node.value.id}.{node.attr} at line {node.lineno}"))
    return [text for _, text in sorted(found)]


def test_no_function_reads_a_rule_or_port_through_its_class():
    modules = sorted(Path(engine_module.__file__).parent.glob("*.py"))
    assert {"engine.py", "rebuild.py", "trace.py"} <= {m.name for m in modules}
    found = {m.name: member_reads_in_functions(m.read_text()) for m in modules}
    assert not any(found.values()), found


def test_the_member_read_check_flags_a_read_in_a_function():
    source = (
        "_CALL1, _EXIT = RuleId.CALL1, Port.EXIT\n"
        "NAMES = {rule: Port(rule.value[:-1]) for rule in RuleId}\n"
        "class Engine:\n"
        "    def select(self, rule):\n"
        "        if rule is _CALL1 or rule.value == 'Exit1':\n"
        "            return [r for r in RuleId], Port('Call')\n"
        "        return RuleId.CALL2\n"
    )
    assert member_reads_in_functions(source) == ["RuleId.CALL2 at line 7"]
    assert member_reads_in_functions("f = lambda p: p is Port.REDO\n") == ["Port.REDO at line 1"]
