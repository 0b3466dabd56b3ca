"""Reader for the pure-Prolog subset.

Grammar:

    program     := (clause | directive)+
    clause      := predication ("." | ":-" body ".")
    body        := predication ("," predication)*
    directive   := ":-" predication "."
    predication := atom | atom "(" term ("," term)* ")"
    term        := variable | atom | compound
    atom        := lowercase-initial identifier
    variable    := uppercase- or "_"-initial identifier

`%` starts a comment running to end of line.  No operators, lists, strings
or numbers.  A program must contain exactly one `:- goal.` directive, and
no variable whose name ends in `_` and digits (that `int` reads) after a
non-empty stem, such as `X_1`, `X_007` or `__1`: the trace writes the k-th
rename of `X` as `X_k`.

One reader serves programs and trace goals.  Tokenizing is one `findall`:
a token is a plain string, and its kind is read off its first character.
Line and column are worked out from a token's index only when an error is
raised.  A token that is neither punctuation nor letter- or `_`-initial is
an unexpected character, reported before any other error in the text, as a
tokenizer that stopped there would: the reader classifies every token it
consumes, so it looks for one only when it is about to raise.

A flat compound as `render_term` writes it (a lowercase-initial functor,
`(`, atom and variable names joined by commas, `)`) is read in one match
and one split; every other text, every malformed one included, goes
through the general reader, the one that reports errors.
"""

from __future__ import annotations

import itertools
import re
import string

from .terms import Atom, Clause, Compound, Program, Term, Variable


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


# Whitespace and comments are matched outside the group, so findall returns
# "" for them.  Each alternative is tried only at a token's start: a prefix
# such as `(?:\s|%[^\n]*)*` would backtrack into comments and whitespace,
# and its possessive form needs Python 3.11.
_TOKEN = re.compile(r"\s+|%[^\n]*|([A-Za-z0-9_]+|:-|.)", re.DOTALL)
_ATOM_START = frozenset(string.ascii_lowercase)
_VAR_START = frozenset(string.ascii_uppercase + "_")
_WORD_START = _ATOM_START | _VAR_START
_PUNCT = frozenset(("(", ")", ",", ".", ":-"))


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, then "" for the end of input."""
    tokens = list(filter(None, _TOKEN.findall(text)))
    tokens.append("")
    return tokens


def _error(text: str, tokens: list[str], i: int, message: str) -> ParseError:
    """The error at token i, or at the text's first unexpected character if
    it has one.  The position is the token's offset in `text`."""
    for j, tok in enumerate(tokens):
        if tok and tok[0] not in _WORD_START and tok not in _PUNCT:
            i, message = j, f"unexpected character {tok[0]!r}"
            break
    starts = (m.start() for m in _TOKEN.finditer(text) if m.group(1))
    pos = next(itertools.islice(starts, i, None), len(text))
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


_QUOTE_MAX = 120  # the most characters of a token an error message quotes


def _found(tok: str) -> str:
    if not tok:
        return "end of input"
    quoted = repr(tok)
    return quoted[:_QUOTE_MAX] + "..." if len(quoted) > _QUOTE_MAX else quoted


def _variable(name: str) -> Variable:
    """A trace goal's variable: a trailing _k is the rename index the
    canonical renderer attached."""
    stem, _, k = name.rpartition("_")
    if stem and k.isdigit():
        try:
            return Variable(stem, int(k))
        except ValueError:  # more digits than int() converts: no run's index
            pass
    return Variable(name)


def _term(
    text: str, tokens: list[str], i: int, decode_renamed: bool, source: bool = False
) -> tuple[Term, int]:
    """The term at tokens[i], and the index after it.  Iterative: trace
    goals can nest far deeper than the recursion limit (the engine builds
    them one answer at a time).  Trace goals decode the rename index
    (`decode_renamed`); other terms keep variable names as written, and a
    program (`source`) may not use a name its trace would decode as another
    variable's, such as `X_1`, the first rename of `X`."""
    # Compounds still reading their arguments: (functor, args).
    open_compounds: list[tuple[str, list[Term]]] = []
    while True:
        tok = tokens[i]
        i += 1
        if tok[:1] in _VAR_START:
            t: Term = _variable(tok) if decode_renamed else Variable(tok)
            if source and _variable(tok) != t:
                message = f"reserved variable name {_found(tok)}: a trace reads _k as rename k"
                raise _error(text, tokens, i - 1, message)
        elif tok[:1] in _ATOM_START:
            if tokens[i] == "(":
                i += 1
                open_compounds.append((tok, []))
                continue
            t = Atom(tok)
        else:
            raise _error(text, tokens, i - 1, f"expected a term, found {_found(tok)}")
        # t is complete: hand it to the innermost open compound, closing
        # compounds until one expects another argument.
        while open_compounds:
            open_compounds[-1][1].append(t)
            tok = tokens[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                raise _error(text, tokens, i - 1, f"expected ')', found {_found(tok)}")
            functor, args = open_compounds.pop()
            t = Compound(functor, tuple(args))
        else:
            return t, i


def _predication(text: str, tokens: list[str], i: int) -> tuple[Term, int]:
    if tokens[i][:1] not in _ATOM_START:
        raise _error(
            text, tokens, i, f"expected a predication (atom-initial), found {_found(tokens[i])}"
        )
    return _term(text, tokens, i, False, source=True)


def _expect(text: str, tokens: list[str], i: int, want: str) -> int:
    if tokens[i] != want:
        raise _error(text, tokens, i, f"expected {want!r}, found {_found(tokens[i])}")
    return i + 1


_FLAT = re.compile(r"[a-z][A-Za-z0-9_]*\((?:[A-Za-z_][A-Za-z0-9_]*,)*[A-Za-z_][A-Za-z0-9_]*\)")


def parse_term_text(text: str, decode_renamed: bool = False) -> Term:
    """Parse a single standalone term (used for trace goals)."""
    if _FLAT.fullmatch(text):
        functor, _, rest = text.partition("(")
        make_variable = _variable if decode_renamed else Variable
        return Compound(functor, tuple([
            Atom(name) if name[0] in _ATOM_START else make_variable(name)
            for name in rest[:-1].split(",")
        ]))
    tokens = _tokenize(text)
    t, i = _term(text, tokens, 0, decode_renamed)
    if tokens[i]:
        raise _error(text, tokens, i, f"trailing input {_found(tokens[i])}")
    return t


def parse_program(text: str) -> Program:
    """Parse program text into clauses (source order) plus the goal."""
    tokens = _tokenize(text)
    if not tokens[0]:
        raise _error(text, tokens, 0, "empty program")
    clauses: list[Clause] = []
    goal: Term | None = None
    i = 0
    while tokens[i]:
        if tokens[i] == ":-":
            directive = i
            g, i = _predication(text, tokens, i + 1)
            i = _expect(text, tokens, i, ".")
            if goal is not None:
                raise _error(text, tokens, directive, "duplicate goal directive")
            goal = g
            continue
        head, i = _predication(text, tokens, i)
        tok = tokens[i]
        i += 1
        if tok == ".":
            clauses.append(Clause(head))
            continue
        if tok == ":-":
            subgoal, i = _predication(text, tokens, i)
            body = [subgoal]
            while tokens[i] == ",":
                subgoal, i = _predication(text, tokens, i + 1)
                body.append(subgoal)
            i = _expect(text, tokens, i, ".")
            clauses.append(Clause(head, tuple(body)))
            continue
        raise _error(text, tokens, i - 1, f"expected '.' or ':-', found {_found(tok)}")
    if goal is None:
        raise _error(text, tokens, len(tokens) - 1, "missing goal directive")
    return Program(tuple(clauses), goal)
