import pytest

from boxtrace import Engine, parse_program, stream_events

# The running example everywhere: one backtrack through a two-clause
# predicate, with one failing and one succeeding continuation.
CHOICE_PROGRAM = """\
goal :- p(X), eq(X,b).
p(a).
p(b).
eq(X,X).

:- goal.
"""

TWO_FACTS = "p(a).\np(b).\n:- p(X).\n"
NO_MATCH = "p(a).\n:- q(a).\n"
SINGLE_FACT = "a.\n:- a.\n"


def nat_chain(depth):
    """The natural-number program with a goal `depth` successors deep: a
    completed run of depth + 1 nested boxes and one answer."""
    return "nat(z).\nnat(s(X)) :- nat(X).\n:- nat(" + "s(" * depth + "z" + ")" * depth + ").\n"


def events_of(program, max_steps=None):
    """The event stream of a whole run (or its first max_steps events)."""
    return [event for _, event, _ in stream_events(Engine(program), max_steps)]


@pytest.fixture
def choice_program():
    return parse_program(CHOICE_PROGRAM)


@pytest.fixture
def two_facts():
    return parse_program(TWO_FACTS)


@pytest.fixture
def no_match():
    return parse_program(NO_MATCH)


@pytest.fixture
def single_fact():
    return parse_program(SINGLE_FACT)
