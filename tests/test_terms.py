import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace import (
    Atom,
    Port,
    StepDelta,
    TraceEvent,
    Clause,
    Compound,
    Variable,
    alpha_equal,
    apply_subst,
    parse_program,
    render_term,
    unify,
)
from boxtrace.terms import instantiate, occurs, rename_term, unify_into
from tests.references import (
    is_instance_of,
    isinstance_instantiate,
    isinstance_occurs,
    isinstance_render_term,
    isinstance_rename_term,
    isinstance_unify_into,
    positions,
    rename_apart,
    useful_clauses,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Atom("a"), Atom("b")


def c(f, *args):
    return Compound(f, tuple(args))


# -- unify --------------------------------------------------------------------


def test_unify_binds_variable_to_atom():
    s = unify(c("p", X), c("p", a), {})
    assert s == {X: a}


def test_unify_clash_through_shared_variable():
    # eq(X,X) against eq(a,b): X cannot be both a and b.
    assert unify(c("eq", X, X), c("eq", a, b), {}) is None


def test_unify_identical_variables_is_noop():
    assert unify(X, X, {}) == {}


def test_unify_occurs_check():
    assert unify(X, c("f", X), {}) is None


def test_unify_extends_given_substitution():
    s = unify(X, a, {})
    s2 = unify(c("q", X, Y), c("q", a, b), s)
    assert s2 == {X: a, Y: b}
    # clash with the existing binding
    assert unify(c("q", X), c("q", b), s) is None


def test_unify_input_substitution_never_mutated():
    s = {X: a}
    unify(c("q", X, Y), c("q", a, b), s)
    assert s == {X: a}


def test_unify_into_matches_pure_unify_and_trails():
    store, trail = {}, []
    assert unify_into(c("p", X, Y), c("p", a, c("f", Z)), store, trail)
    assert store == unify(c("p", X, Y), c("p", a, c("f", Z)), {})
    assert set(trail) == set(store)


def test_unify_into_failure_leaves_no_bindings():
    store, trail = {}, []
    assert not unify_into(c("eq", X, X), c("eq", a, b), store, trail)
    assert store == {} and trail == []


# -- apply_subst --------------------------------------------------------------


def test_apply_subst_instantiates():
    assert apply_subst(c("eq", X, b), {X: a}) == c("eq", a, b)


def test_apply_subst_ground_term_unchanged():
    t = c("f", a)
    assert apply_subst(t, {}) is t
    assert apply_subst(a, {X: a}) is a


def test_apply_subst_leaves_unbound_variables():
    assert apply_subst(c("f", X, Y), {X: c("g", Y)}) == c("f", c("g", Y), Y)


def test_apply_subst_transitive_chain():
    assert apply_subst(X, {X: Y, Y: a}) == a


# -- rename_apart -------------------------------------------------------------


def test_rename_apart_preserves_sharing():
    clause = Clause(c("eq", X, X))
    renamed = rename_apart(clause, 7)
    arg1, arg2 = renamed.head.args
    assert arg1 == arg2 == Variable("X", 7)
    assert renamed.body == ()


def test_rename_term_deep_term():
    deep = X
    for _ in range(10_000):
        deep = c("f", deep, a)
    renamed = rename_term(deep, 7)
    assert render_term(renamed) == render_term(deep).replace("X", "X_7")


def test_rename_apart_ground_clause_unchanged():
    clause = Clause(c("p", a))
    assert rename_apart(clause, 3) is clause


def test_rename_apart_distinct_counters_give_distinct_variables():
    clause = Clause(c("q", X))
    one = rename_apart(clause, 1).head.args[0]
    two = rename_apart(clause, 2).head.args[0]
    assert one != two
    assert unify(one, two, {}) == {one: two} or unify(one, two, {}) == {two: one}


# -- useful_clauses -----------------------------------------------------------


def test_useful_clauses_on_choice_program(choice_program):
    kept = useful_clauses(c("p", X), choice_program, {})
    assert positions(choice_program, kept) == [1, 2]


def test_useful_clauses_failing_goal(choice_program):
    assert useful_clauses(c("eq", a, b), choice_program, {}) == []


def test_useful_clauses_undefined_predicate(choice_program):
    assert useful_clauses(Atom("q"), choice_program, {}) == []


def test_useful_clauses_applies_substitution(choice_program):
    # under X -> a, eq(X,b) has no matching clause
    assert useful_clauses(c("eq", X, b), choice_program, {X: a}) == []
    # unbound X: eq(X,b) matches eq(Y,Y)
    kept = useful_clauses(c("eq", X, b), choice_program, {})
    assert positions(choice_program, kept) == [3]


# -- rendering and comparison -------------------------------------------------


def test_render_term_canonical():
    assert render_term(c("f", c("g", Y), Y)) == "f(g(Y),Y)"
    assert render_term(Variable("X", 4)) == "X_4"
    assert render_term(a) == "a"


def test_alpha_equal():
    assert alpha_equal(c("p", X), c("p", Y))
    assert alpha_equal(c("p", X, X), c("p", Y, Y))
    assert not alpha_equal(c("p", X, X), c("p", X, Y))
    assert not alpha_equal(c("p", X), c("p", a))


def test_is_instance_of():
    assert is_instance_of(c("p", a), c("p", X))
    assert is_instance_of(c("p", X), c("p", X))
    assert not is_instance_of(c("p", X), c("p", a))


# -- property tests -----------------------------------------------------------

atoms = st.sampled_from([Atom("a"), Atom("b"), Atom("c")])
# Renamed variables too, so that a head and a goal can share a name.
variables = st.builds(Variable, st.sampled_from(["X", "Y", "Z"]), st.integers(0, 2))


def terms():
    return st.recursive(
        atoms | variables,
        lambda sub: st.builds(
            lambda f, args: Compound(f, tuple(args)),
            st.sampled_from(["f", "g"]),
            st.lists(sub, min_size=1, max_size=3),
        ),
        max_leaves=10,
    )


@given(terms(), terms())
def test_unify_symmetric_in_success(t1, t2):
    s12 = unify(t1, t2, {})
    s21 = unify(t2, t1, {})
    assert (s12 is None) == (s21 is None)
    if s12 is not None:
        assert alpha_equal(apply_subst(t1, s12), apply_subst(t1, s21))
        assert alpha_equal(apply_subst(t2, s12), apply_subst(t2, s21))


@given(terms(), terms())
def test_unifier_makes_terms_equal(t1, t2):
    s = unify(t1, t2, {})
    if s is not None:
        assert apply_subst(t1, s) == apply_subst(t2, s)


@given(terms(), terms())
def test_apply_subst_idempotent_after_unify(t1, t2):
    s = unify(t1, t2, {})
    if s is not None:
        once = apply_subst(t1, s)
        assert apply_subst(once, s) == once


@given(terms())
def test_useful_clauses_is_subsequence(goal):
    program = parse_program("f(a).\ng(a,b) :- f(X).\nf(g(a,b)).\n:- f(a).")
    kept = useful_clauses(goal, program, {}) if not isinstance(goal, Variable) else []
    indices = positions(program, kept)
    assert indices == sorted(indices)


# -- value semantics: what the frozen dataclasses guaranteed ------------------

EVENT = TraceEvent(1, 2, 3, Port.CALL, c("p", X))
DELTA = StepDelta(2, (3,), (4, 1, 1), a, (1, b))


@pytest.mark.parametrize(
    "value, fields",
    [
        (Variable("X", 1), ("name", "index")),
        (a, ("name",)),
        (c("f", X), ("functor", "args", "ground")),
        (EVENT, ("chrono", "node", "depth", "port", "goal")),
        (DELTA, ("current", "removed", "created", "created_goal", "updated_goal")),
    ],
    ids=["Variable", "Atom", "Compound", "TraceEvent", "StepDelta"],
)
def test_no_field_can_be_assigned(value, fields):
    # Terms share structure (ground subterms, subtrees instantiate kept), so
    # one assignment would change every term holding the value.
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_terms_of_different_classes_never_compare_equal():
    assert Atom("a") != Variable("a")
    assert Variable("X", 1) != Variable("X", 0)
    assert c("a", X) != Atom("a") and c("X", a) != Variable("X")
    for t, same in [
        (Variable("X", 3), Variable("X", 3)),
        (Atom("a"), Atom("a")),
        (c("f", X, c("g", a)), c("f", Variable("X"), c("g", Atom("a")))),
    ]:
        assert t == same and hash(t) == hash(same)


def test_compound_needs_an_argument():
    with pytest.raises(ValueError):
        Compound("f", ())


def test_repr_keeps_the_dataclass_form():
    assert repr(c("f", Variable("X", 2), a)) == (
        "Compound(functor='f', args=(Variable(name='X', index=2), Atom(name='a')))"
    )
    assert repr(EVENT) == (
        "TraceEvent(chrono=1, node=2, depth=3, port=<Port.CALL: 'Call'>, "
        "goal=Compound(functor='p', args=(Variable(name='X', index=0),)))"
    )
    assert repr(StepDelta(5)) == (
        "StepDelta(current=5, removed=(), created=None, created_goal=None, "
        "updated_goal=None)"
    )


def test_events_and_deltas_keep_their_fields_and_defaults():
    assert TraceEvent._fields == ("chrono", "node", "depth", "port", "goal")
    assert StepDelta._fields == ("current", "removed", "created", "created_goal", "updated_goal")
    assert StepDelta(7) == StepDelta(current=7, removed=(), created=None)
    assert (EVENT.node, EVENT.goal, DELTA.created, DELTA.updated_goal) == (
        2, c("p", X), (4, 1, 1), (1, b)
    )


def test_a_value_equals_its_plain_tuple():
    # Tuple-backed: no code may compare a term, event or delta with a plain
    # tuple and expect inequality.
    assert X == ("X", 0) and a == ("a",) and c("f", a) == ("f", (a,), True)
    assert EVENT == (1, 2, 3, Port.CALL, c("p", X))
    assert StepDelta(2) == (2, (), None, None, None)


@given(terms())
def test_copies_keep_class_and_value(t):
    for copied in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert copied == t and copied.__class__ is t.__class__


def _ground(t) -> bool:
    """Recursive reference for the cached flag; checks every subterm's flag."""
    if isinstance(t, Variable):
        return False
    if isinstance(t, Atom):
        return True
    ground = all([_ground(x) for x in t.args])
    assert t.ground == ground
    return ground


@given(terms())
def test_ground_flag_matches_a_recursive_check(t):
    _ground(t)


@pytest.mark.parametrize("cls", [Variable, Atom, Compound])
def test_term_classes_are_final(cls):
    # The kernels dispatch on exact class: a subclass would be misread.
    with pytest.raises(TypeError, match="final"):
        type("Sub", (cls,), {})


# -- the kernels against the isinstance kernels -------------------------------

@st.composite
def term_pairs(draw):
    """A term and one on its skeleton, where any subterm may be swapped for
    a variable, one of its own included, and any leaf for another: most
    such pairs get past the outermost functor, and some variable meets a
    term that contains it."""
    t = draw(terms())

    def other(x):
        swap = draw(st.integers(min_value=0, max_value=4))
        if swap == 0:
            return draw(variables)
        if swap == 4 and isinstance(x, Compound) and not x.ground:
            return draw(st.sampled_from(sorted(_variables(x))))
        if isinstance(x, Compound):
            return Compound(x.functor, tuple(other(y) for y in x.args))
        return draw(atoms | variables) if swap == 1 else x

    pair = (t, other(t))
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def stores(draw):
    """A substitution as the engine holds one: what a few unifications made
    in turn left bound, chains of bound variables included."""
    s, trail = {}, []
    for t1, t2 in draw(st.lists(term_pairs(), max_size=3)):
        isinstance_unify_into(t1, t2, s, trail)
    return s


def _variables(t):
    stack, found = [t], set()
    while stack:
        x = stack.pop()
        if isinstance(x, Variable):
            found.add(x)
        elif isinstance(x, Compound):
            stack.extend(x.args)
    return found


@settings(max_examples=200, deadline=None)
@given(term_pairs() | st.tuples(terms(), terms()), stores())
def test_unify_into_agrees_with_the_isinstance_kernel(pair, store):
    t1, t2 = pair
    before = Variable("W", 9)  # a binding made before the mark
    s, trail = {**store, before: a}, [before]
    ref_s, ref_trail = dict(s), list(trail)
    ok = unify_into(t1, t2, s, trail)
    assert ok == isinstance_unify_into(t1, t2, ref_s, ref_trail)
    # Equal dicts: the same variables bound, each to the same term.
    assert s == ref_s
    assert set(trail) == set(ref_trail) and len(trail) == len(ref_trail)
    if not ok:
        assert s == {**store, before: a} and trail == [before]


@settings(deadline=None)
@given(terms(), stores())
def test_occurs_agrees_with_the_isinstance_kernel(t, store):
    for v in _variables(t) | store.keys():
        assert occurs(v, t, store) == isinstance_occurs(v, t, store)


@settings(deadline=None)
@given(terms(), terms(), stores())
def test_instantiate_agrees_with_the_isinstance_kernel(t, earlier, store):
    # A memo warmed by an earlier instantiation against the same store.
    ref_memo: dict = {}
    isinstance_instantiate(earlier, store, ref_memo)
    memo = dict(ref_memo)
    got = instantiate(t, store, memo)
    want = isinstance_instantiate(t, store, ref_memo)
    assert got == want and memo == ref_memo
    assert (got is t) == (want is t)
    if not _variables(t) & store.keys():
        assert got is t


@given(terms(), st.integers(min_value=0, max_value=3))
def test_rename_and_render_agree_with_the_isinstance_kernels(t, index):
    renamed = rename_term(t, index)
    want = isinstance_rename_term(t, index)
    assert renamed == want  # the cached ground flag included
    assert (renamed is t) == (want is t)
    assert render_term(renamed) == isinstance_render_term(want)
    assert render_term(t) == isinstance_render_term(t)


@settings(max_examples=200, deadline=None)
@given(term_pairs() | st.tuples(terms(), terms()), stores(), st.integers(min_value=0, max_value=3))
def test_unify_into_reads_a_head_as_its_renamed_copy(pair, store, index):
    # The same verdict, the same bindings made in the same order, and the
    # same trail: renamed variable names in a trace follow all three.
    goal, head = pair
    before = Variable("W", 9)  # a binding made before the mark
    s, trail = {**store, before: a}, [before]
    copy_s, copy_trail = dict(s), list(trail)
    ok = unify_into(goal, head, s, trail, index)
    assert ok == unify_into(goal, rename_term(head, index), copy_s, copy_trail)
    assert list(s.items()) == list(copy_s.items())
    assert trail == copy_trail
    found, want = unify(goal, head, store, index), unify(goal, rename_term(head, index), store)
    assert (found is None) == (want is None)
    assert found is None or list(found.items()) == list(want.items())


@settings(deadline=None)
@given(terms(), terms(), stores(), st.integers(min_value=0, max_value=3))
def test_rename_under_a_store_equals_instantiating_the_copy(t, earlier, store, index):
    # One memo warmed by an earlier instantiation, copied for each side.
    warm: dict = {}
    instantiate(earlier, store, warm)
    one_pass = rename_term(t, index, store, dict(warm))
    two_passes = instantiate(rename_term(t, index), store, dict(warm))
    assert tuple(one_pass) == tuple(two_passes)  # ground flags included
    _ground(one_pass)


@settings(deadline=None)
@given(terms(), stores(), st.dictionaries(variables, atoms))
def test_instantiate_builds_the_ground_flag_of_compound_new(t, store, to_atoms):
    # Variables bound to atoms make ground instances of non-ground terms.
    stack = [instantiate(t, {**store, **to_atoms}, {})]
    while stack:
        x = stack.pop()
        if isinstance(x, Compound):
            assert x.ground == Compound(x.functor, x.args).ground
            stack.extend(x.args)


def test_kernels_agree_on_a_term_nested_10000_deep():
    # No kernel recurses: a goal can nest far deeper than the recursion
    # limit.  Deep terms are compared by their text, since == recurses.
    deep = X
    for i in range(10_000):
        deep = c("f", deep, Variable("Y", i % 3)) if i % 2 else c("g", deep)
    text = isinstance_render_term(deep)
    assert render_term(deep) == text

    renamed = rename_term(deep, 7)
    assert render_term(renamed) == isinstance_render_term(isinstance_rename_term(deep, 7))

    s, ref_s = {}, {}
    assert unify_into(deep, renamed, s, []) == isinstance_unify_into(deep, renamed, ref_s, [])
    assert s == ref_s and len(s) == 4  # X and the three Y, each bound to a variable
    s, trail = {}, []
    assert unify_into(deep, deep, s, trail, 7)  # the head read as `renamed`
    assert list(s.items()) == list(ref_s.items()) and trail == list(ref_s)

    store = {X: c("h", a), Variable("Y", 1): b}
    memo, ref_memo = {}, {}
    got = instantiate(deep, store, memo)
    assert render_term(got) == isinstance_render_term(isinstance_instantiate(deep, store, ref_memo))
    assert memo == ref_memo
    assert instantiate(deep, {Z: a}, {}) is deep
    renamed_store = {Variable("X", 7): c("h", a), Variable("Y", 7): b}
    got = rename_term(deep, 7, renamed_store, {})
    assert render_term(got) == render_term(instantiate(renamed, renamed_store, {}))

    # The occurs check walks the whole term.
    assert not unify_into(X, deep, {}, []) and not isinstance_unify_into(X, deep, {}, [])
    s, trail = {}, []
    assert unify_into(Z, deep, s, trail) and s[Z] is deep and trail == [Z]
