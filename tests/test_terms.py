from hypothesis import given
from hypothesis import strategies as st

from boxtrace import (
    Atom,
    Clause,
    Compound,
    Variable,
    alpha_equal,
    apply_subst,
    parse_program,
    render_term,
    rename_apart,
    unify,
)
from boxtrace.terms import rename_term, unify_into
from tests.references import is_instance_of, useful_clauses

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
    clause = Clause(c("eq", X, X), (), 3)
    renamed = rename_apart(clause, 7)
    arg1, arg2 = renamed.head.args
    assert arg1 == arg2 == Variable("X", 7)
    assert renamed.source_index == 3


def test_rename_term_deep_term():
    deep = X
    for _ in range(10_000):
        deep = c("f", deep, a)
    renamed = rename_term(deep, 7)
    assert render_term(renamed) == render_term(deep).replace("X", "X_7")


def test_rename_apart_ground_clause_unchanged():
    clause = Clause(c("p", a), (), 0)
    assert rename_apart(clause, 3) is clause


def test_rename_apart_distinct_counters_give_distinct_variables():
    clause = Clause(c("q", X), (), 0)
    one = rename_apart(clause, 1).head.args[0]
    two = rename_apart(clause, 2).head.args[0]
    assert one != two
    assert unify(one, two, {}) == {one: two} or unify(one, two, {}) == {two: one}


# -- useful_clauses -----------------------------------------------------------


def test_useful_clauses_on_choice_program(choice_program):
    kept = useful_clauses(c("p", X), choice_program, {})
    assert [cl.source_index for cl in kept] == [1, 2]


def test_useful_clauses_failing_goal(choice_program):
    assert useful_clauses(c("eq", a, b), choice_program, {}) == []


def test_useful_clauses_undefined_predicate(choice_program):
    assert useful_clauses(Atom("q"), choice_program, {}) == []


def test_useful_clauses_applies_substitution(choice_program):
    # under X -> a, eq(X,b) has no matching clause
    assert useful_clauses(c("eq", X, b), choice_program, {X: a}) == []
    # unbound X: eq(X,b) matches eq(Y,Y)
    kept = useful_clauses(c("eq", X, b), choice_program, {})
    assert [cl.source_index for cl in kept] == [3]


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
variables = st.sampled_from([X, Y, Z])


def terms(depth=3):
    return st.recursive(
        atoms | variables,
        lambda sub: st.builds(
            lambda f, args: Compound(f, tuple(args)),
            st.sampled_from(["f", "g"]),
            st.lists(sub, min_size=1, max_size=2),
        ),
        max_leaves=6,
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
    indices = [cl.source_index for cl in kept]
    assert indices == sorted(indices)
    assert all(program.clauses[i] is kept[k] for k, i in enumerate(indices))
