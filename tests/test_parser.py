import pytest

from boxtrace import Atom, Compound, ParseError, Variable, parse_program, render_program
from boxtrace.parser import parse_term_text
from tests.conftest import CHOICE_PROGRAM


def test_choice_program_shape(choice_program):
    assert len(choice_program.clauses) == 4
    assert choice_program.goal == Atom("goal")
    first = choice_program.clauses[0]
    assert first.head == Atom("goal")
    assert first.body == (
        Compound("p", (Variable("X"),)),
        Compound("eq", (Variable("X"), Atom("b"))),
    )
    assert [cl.source_index for cl in choice_program.clauses] == [0, 1, 2, 3]
    assert [cl.is_fact for cl in choice_program.clauses] == [False, True, True, True]


def test_minimal_program():
    program = parse_program("a.\n:- a.")
    assert len(program.clauses) == 1
    assert program.clauses[0].is_fact
    assert program.goal == Atom("a")


def test_two_facts_with_goal_variable():
    program = parse_program("p(a). p(b).\n:- p(X).")
    assert len(program.clauses) == 2
    assert program.goal == Compound("p", (Variable("X"),))


def test_variables_scoped_per_clause():
    program = parse_program("p(X) :- q(X).\nq(X).\n:- p(a).")
    c0, c1 = program.clauses
    # same written name, same Variable value; renaming separates uses
    assert c0.head.args[0] == c1.head.args[0] == Variable("X")


def test_comments_and_whitespace():
    program = parse_program("% leading\np(a). % trailing\n\n:- p(a). % goal\n")
    assert len(program.clauses) == 1


def test_missing_goal():
    with pytest.raises(ParseError, match="missing goal"):
        parse_program("p(a).")


def test_duplicate_goal():
    with pytest.raises(ParseError, match="duplicate goal"):
        parse_program(":- a.\na.\n:- a.")


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("p(a.\n:- p(a).")
    assert err.value.line == 1
    assert "expected" in str(err.value)


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_program("p(a) ? b.\n:- p(a).")
    assert err.value.line == 1


def test_variable_cannot_head_a_clause():
    with pytest.raises(ParseError, match="predication"):
        parse_program("X.\n:- a.")


def test_empty_program():
    with pytest.raises(ParseError, match="empty"):
        parse_program("   % nothing\n")


def test_render_parse_round_trip(choice_program):
    text = render_program(choice_program)
    assert parse_program(text) == choice_program
    assert parse_program(CHOICE_PROGRAM) == choice_program


def test_parse_term_text_decodes_rename_suffix():
    assert parse_term_text("p(X_3)", decode_renamed=True) == Compound(
        "p", (Variable("X", 3),)
    )
    # program mode keeps the name as written
    assert parse_term_text("p(X_3)") == Compound("p", (Variable("X_3"),))
    # underscore-initial names without a numeric tail stay whole
    assert parse_term_text("_1", decode_renamed=True) == Variable("_1")


def test_deep_term_round_trip():
    # Trace goals can nest far deeper than Python's recursion limit.
    from boxtrace import alpha_equal, render_term

    term = Variable("X", 3)
    for i in range(10_000):
        term = Compound("f", (term,)) if i % 2 else Compound("g", (Atom("a"), term))
    text = render_term(term)
    back = parse_term_text(text, decode_renamed=True)
    assert render_term(back) == text
    assert alpha_equal(back, term)
    with pytest.raises(ParseError, match="column"):
        parse_term_text(text[:-1])


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("p(a).\n\t? :- p(a).\n", "unexpected character '?'", 2, 2),
        ("p(1a).\n:- p(a).\n", "unexpected character '1'", 1, 3),
        ("p(a.\n:- p(a).\n", "expected ')', found '.'", 1, 4),
        ("p(a).\n:- p(a)", "expected '.', found end of input", 2, 8),
        # End of input is reported where the text ends, past a trailing comment.
        ("p(a).\n% no goal", "missing goal directive", 2, 10),
    ],
)
def test_parse_error_position(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"{message} (line {line}, column {column})"
