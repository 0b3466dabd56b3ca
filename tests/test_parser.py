from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace import (
    Atom,
    Compound,
    Engine,
    GenParams,
    ParseError,
    Variable,
    gen_program,
    parse_program,
    render_program,
    render_term,
    stream_events,
)
from boxtrace import parser
from boxtrace.parser import parse_term_text
from tests.conftest import CHOICE_PROGRAM
from tests.references import token_list_parse_program, token_list_parse_term_text


def test_choice_program_shape(choice_program):
    assert len(choice_program.clauses) == 4
    assert choice_program.goal == Atom("goal")
    first = choice_program.clauses[0]
    assert first.head == Atom("goal")
    assert first.body == (
        Compound("p", (Variable("X"),)),
        Compound("eq", (Variable("X"), Atom("b"))),
    )
    assert [not cl.body for cl in choice_program.clauses] == [False, True, True, True]


def test_minimal_program():
    program = parse_program("a.\n:- a.")
    assert len(program.clauses) == 1
    assert program.clauses[0].body == ()
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


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_program, "p(a) " + "b" * 1000 + ".\n:- p(a).", "expected '.' or ':-', found '"),
        (parse_term_text, "p(a) " + "b" * 1000, "trailing input '"),
    ],
    ids=["program", "goal"],
)
def test_a_long_token_is_quoted_in_part(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    # The quote is cut after 120 characters, its opening quote included.
    assert err.value.message == message + "b" * 119 + "..."


def test_a_token_quoted_in_120_characters_is_quoted_whole():
    with pytest.raises(ParseError) as err:
        parse_term_text("p(a) " + "b" * 118)
    assert err.value.message == "trailing input '" + "b" * 118 + "'"


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


@pytest.mark.parametrize("name", ["X_1", "X_0", "X_007", "__1", "Ab_2_3"])
def test_a_program_variable_may_not_read_as_a_rename(name):
    # A trace decodes each of these names to another variable, so a program
    # that used one would print as a run it is not.
    with pytest.raises(ParseError) as err:
        parse_program(f"p(a).\nq(Y) :- p({name}).\n:- q(b).")
    assert (err.value.line, err.value.column) == (2, 11)
    assert err.value.message.startswith(f"reserved variable name {name!r}")
    # A goal read outside a program keeps the name as written.
    assert parse_term_text(f"p({name})") == Compound("p", (Variable(name),))


@pytest.mark.parametrize("name", ["_7", "_", "X_", "X_a1", "X_" + "9" * 5_000])
def test_a_program_variable_that_reads_as_itself_is_kept(name):
    # No stem, no digit tail, or a tail too long for int(): the trace
    # reads the name back as the same variable.
    program = parse_program(f"p({name}).\n:- p(a).")
    assert program.clauses[0].head == Compound("p", (Variable(name),))
    assert parser._variable(name) == Variable(name)


def test_parse_term_text_decodes_rename_suffix():
    assert parse_term_text("p(X_3)", decode_renamed=True) == Compound(
        "p", (Variable("X", 3),)
    )
    # program mode keeps the name as written
    assert parse_term_text("p(X_3)") == Compound("p", (Variable("X_3"),))
    # underscore-initial names without a numeric tail stay whole
    assert parse_term_text("_1", decode_renamed=True) == Variable("_1")
    # a tail too long for int() stays in the name instead of raising
    name = "X_" + "9" * 5_000
    assert parse_term_text(f"p({name})", decode_renamed=True) == Compound("p", (Variable(name),))


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


# -- the one-pass reader against the token-list reader -------------------------

_PROGRAM_FILES = sorted((Path(__file__).resolve().parents[1] / "programs").glob("*.pl"))
_PROGRAM_TEXTS = [CHOICE_PROGRAM] + [path.read_text() for path in _PROGRAM_FILES] + [
    render_program(gen_program(GenParams(seed=seed))) for seed in range(4)
]
_GOAL_TEXTS = sorted(
    {
        render_term(event.goal)
        for seed in range(4)
        for _, event, _ in stream_events(Engine(gen_program(GenParams(seed=seed))), 60)
    }
)
# Characters of every token kind, the comment and line breaks, whitespace
# that is not a space, and characters no token may start with.
_ALPHABET = "(),.:-%_ \t\n\r\x0bXYaz09?'é"


@st.composite
def _mutated(draw, bases):
    """A text drawn from `bases` with a few characters inserted, deleted or
    replaced."""
    text = draw(bases)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        cut = draw(st.integers(min_value=0, max_value=2))
        piece = draw(st.text(alphabet=_ALPHABET, max_size=3))
        text = text[:at] + piece + text[at + cut:]
    return text


def _outcome(parse, *args):
    """What a reader makes of its input: the value, or the error's parts."""
    try:
        return parse(*args)
    except ParseError as err:
        return ("ParseError", err.message, err.line, err.column)


@settings(max_examples=400, deadline=None)
@given(_mutated(st.sampled_from(_PROGRAM_TEXTS)))
def test_program_reader_agrees_with_the_token_list_reader(text):
    assert _outcome(parse_program, text) == _outcome(token_list_parse_program, text)


@settings(max_examples=400, deadline=None)
@given(_mutated(st.sampled_from(_GOAL_TEXTS)), st.booleans())
def test_goal_reader_agrees_with_the_token_list_reader(text, decode_renamed):
    assert _outcome(parse_term_text, text, decode_renamed) == _outcome(
        token_list_parse_term_text, text, decode_renamed
    )


# -- the flat-goal path against the general reader -----------------------------


def _general_parse_term_text(text, decode_renamed):
    """`parse_term_text` without its flat-goal path: `_tokenize` + `_term`."""
    tokens = parser._tokenize(text)
    t, i = parser._term(text, tokens, 0, decode_renamed)
    if tokens[i]:
        raise parser._error(text, tokens, i, f"trailing input {parser._found(tokens[i])}")
    return t


def _classes(t):
    """A term with the class of every node spelt out: terms of different
    classes never compare equal, but a compound equals a plain tuple."""
    if t.__class__ is Compound:
        return ("Compound", t[0], tuple(_classes(a) for a in t[1]), t[2])
    return (t.__class__.__name__, *t)


def _read(parse, text, decode_renamed):
    try:
        return _classes(parse(text, decode_renamed))
    except ParseError as err:
        return ("ParseError", err.message, err.line, err.column)


_NAME = st.one_of(
    st.from_regex(r"[a-z][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.from_regex(r"[A-Z_][A-Za-z0-9_]{0,4}", fullmatch=True),
    # What the renderer writes for a renamed variable, leading zeros and
    # an empty stem included.
    st.from_regex(r"[A-Z_]?[A-Za-z0-9]{0,2}_[0-9]{1,4}", fullmatch=True),
)
# Flat compounds as the renderer writes them.
_FLAT_GOALS = st.builds(
    lambda functor, args: f"{functor}({','.join(args)})",
    st.from_regex(r"[a-z][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.lists(_NAME, min_size=1, max_size=4),
)


@settings(max_examples=500, deadline=None)
@given(_mutated(_FLAT_GOALS), st.booleans())
def test_flat_goal_reader_agrees_with_the_general_reader(text, decode_renamed):
    got = _read(parse_term_text, text, decode_renamed)
    assert got == _read(_general_parse_term_text, text, decode_renamed)
    if got[0] != "ParseError":
        assert got == _read(token_list_parse_term_text, text, decode_renamed)


_HUGE_INDEX = "X_" + "9" * 5_000  # a rename index too long for int()


@pytest.mark.parametrize(
    "text",
    [
        *(
            form.format(name)
            for name in ("_", "_7", "X_007", _HUGE_INDEX, "a_1")
            for form in ("{}", "p({})", "p(a,{})", "p({},b)")
        ),
        "p(a,)", "p()", "p(a))", "p(9)", "p(a b)", "p(a", "P(a)", "p( a)",
        "p(" + "a" * 200_000 + ")",
    ],
    ids=lambda text: text if len(text) < 20 else f"{text[:8]}...({len(text)})",
)
@pytest.mark.parametrize("decode_renamed", [False, True])
def test_flat_goal_reader_agrees_on_named_cases(text, decode_renamed):
    got = _read(parse_term_text, text, decode_renamed)
    assert got == _read(_general_parse_term_text, text, decode_renamed)
    # The token-list reader converts any digit tail, so it raises on one
    # longer than int() takes; the reader keeps such a tail in the name.
    if got[0] != "ParseError" and not (decode_renamed and _HUGE_INDEX in text):
        assert got == _read(token_list_parse_term_text, text, decode_renamed)


def test_a_flat_goal_is_read_without_the_tokenizer(monkeypatch):
    def no_tokenizer(text):
        raise AssertionError(f"tokenized {text!r}")

    monkeypatch.setattr(parser, "_tokenize", no_tokenizer)
    assert parse_term_text("e(n23,V2_17,_,X_007)", decode_renamed=True) == Compound(
        "e", (Atom("n23"), Variable("V2", 17), Variable("_"), Variable("X", 7))
    )
    assert parse_term_text("e(n23,V2_17)") == Compound("e", (Atom("n23"), Variable("V2_17")))
