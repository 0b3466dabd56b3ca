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
or numbers.  A program must contain exactly one `:- goal.` directive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .terms import Atom, Clause, Compound, Program, Term, Variable


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # "atom" | "var" | "punct" | "end"
    text: str
    line: int
    column: int


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RENAMED = re.compile(r"^(.+)_([0-9]+)$")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == ":" and i + 1 < n and text[i + 1] == "-":
            tokens.append(_Token("punct", ":-", line, col))
            i += 2
            col += 2
            continue
        if c in "(),.":
            tokens.append(_Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            word = m.group(0)
            kind = "var" if word[0].isupper() or word[0] == "_" else "atom"
            tokens.append(_Token(kind, word, line, col))
            i = m.end()
            col += len(word)
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], decode_renamed: bool = False):
        self.tokens = tokens
        self.pos = 0
        # When reading trace goals, a trailing _k on a variable name is the
        # rename index the canonical renderer attached; source programs keep
        # names as written.
        self.decode_renamed = decode_renamed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind == "end" or tok.text != text:
            got = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"expected {text!r}, found {got}", tok.line, tok.column)
        return tok

    def variable(self, tok: _Token) -> Variable:
        if self.decode_renamed:
            m = _RENAMED.match(tok.text)
            if m:
                return Variable(m.group(1), int(m.group(2)))
        return Variable(tok.text)

    def term(self) -> Term:
        """One term.  Iterative: trace goals can nest far deeper than the
        recursion limit (the engine builds them one answer at a time)."""
        # Compounds still reading their arguments: (functor token, args).
        open_compounds: list[tuple[_Token, list[Term]]] = []
        while True:
            tok = self.take()
            if tok.kind == "var":
                t: Term = self.variable(tok)
            elif tok.kind == "atom":
                if self.peek().text == "(" and self.peek().kind == "punct":
                    self.take()
                    open_compounds.append((tok, []))
                    continue
                t = Atom(tok.text)
            else:
                got = "end of input" if tok.kind == "end" else repr(tok.text)
                raise ParseError(f"expected a term, found {got}", tok.line, tok.column)
            # t is complete: hand it to the innermost open compound, closing
            # compounds until one expects another argument.
            while open_compounds:
                functor, args = open_compounds[-1]
                args.append(t)
                if self.peek().text == "," and self.peek().kind == "punct":
                    self.take()
                    break
                self.expect(")")
                open_compounds.pop()
                t = Compound(functor.text, tuple(args))
            else:
                return t

    def predication(self) -> Term:
        tok = self.peek()
        if tok.kind != "atom":
            got = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(
                f"expected a predication (atom-initial), found {got}",
                tok.line,
                tok.column,
            )
        return self.term()


def parse_term_text(text: str, decode_renamed: bool = False) -> Term:
    """Parse a single standalone term (used for trace goals)."""
    parser = _Parser(_tokenize(text), decode_renamed=decode_renamed)
    t = parser.term()
    tok = parser.take()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return t


def parse_program(text: str) -> Program:
    """Parse program text into clauses (source order) plus the goal."""
    parser = _Parser(_tokenize(text))
    clauses: list[Clause] = []
    goal: Term | None = None
    if parser.peek().kind == "end":
        tok = parser.peek()
        raise ParseError("empty program", tok.line, tok.column)
    while parser.peek().kind != "end":
        tok = parser.peek()
        if tok.kind == "punct" and tok.text == ":-":
            parser.take()
            g = parser.predication()
            parser.expect(".")
            if goal is not None:
                raise ParseError("duplicate goal directive", tok.line, tok.column)
            goal = g
            continue
        head = parser.predication()
        nxt = parser.take()
        if nxt.kind == "punct" and nxt.text == ".":
            clauses.append(Clause(head, (), len(clauses)))
            continue
        if nxt.kind == "punct" and nxt.text == ":-":
            body = [parser.predication()]
            while parser.peek().text == "," and parser.peek().kind == "punct":
                parser.take()
                body.append(parser.predication())
            parser.expect(".")
            clauses.append(Clause(head, tuple(body), len(clauses)))
            continue
        got = "end of input" if nxt.kind == "end" else repr(nxt.text)
        raise ParseError(f"expected '.' or ':-', found {got}", nxt.line, nxt.column)
    if goal is None:
        last = parser.tokens[-1]
        raise ParseError("missing goal directive", last.line, last.column)
    return Program(tuple(clauses), goal)
