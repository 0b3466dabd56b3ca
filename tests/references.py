"""References and helpers the tests compare against, kept out of the package
because nothing in it uses them.

`useful_clauses` is the plain clause filter the engine's first-argument
index must agree with; `match`/`is_instance_of` check that an Exit goal
instantiates its Call goal; `events_alpha_equal` compares event streams up
to variable renaming; `write_trace_text` renders a whole trace at once;
`unguarded_reference_solve` is the oracle that renames and tries every
clause for every goal, which the head-functor guard of `reference_solve`
must agree with exactly; `climbing_has_choice_point` is the tree climb that
the engine's creation-number test `has_choice_point` must agree with;
`token_list_parse_program` and `token_list_parse_term_text` are the reader
that builds a list of token tuples, tracking line and column as it goes,
which the one-pass reader must agree with exactly, errors included;
`positions` names clauses by their place in the program.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional

from boxtrace import Clause, Program, Subst, Term, TraceEvent, alpha_equal, apply_subst, unify
from boxtrace.harness import ORACLE_MAX_DEPTH, ORACLE_MIN_TRIES, RefResult, _CapExceeded
from boxtrace.parser import ParseError
from boxtrace.terms import (
    Atom,
    Compound,
    Variable,
    rename_term,
    trial_heads,
    unify_into,
    walk,
)
from boxtrace.trace import render_event


def rename_apart(clause: Clause, counter: int) -> Clause:
    """Fresh copy of a clause with every variable retagged to `counter`.

    Sharing between head and body is preserved (same source name, same
    renamed variable).  `counter` must not be in use by any live variable.
    A ground clause is returned as-is.
    """
    head = rename_term(clause.head, counter)
    body = tuple(rename_term(b, counter) for b in clause.body)
    if head is clause.head and all(a is b for a, b in zip(body, clause.body)):
        return clause
    return Clause(head=head, body=body)


def unguarded_reference_solve(
    program: Program,
    max_depth: int = ORACLE_MAX_DEPTH,
    max_steps: int = ORACLE_MIN_TRIES,
) -> RefResult:
    """Answers of a direct recursive search: leftmost goal, textual clause
    order, depth-first.  Deliberately not built on the engine; when a cap
    is hit the answers found so far are a lower bound only.
    """
    answers: list[Term] = []
    counters = {"steps": 0, "rename": 0}
    # One substitution, bound in place; each clause tried undoes its
    # bindings back to the trail mark it started from.
    s: Subst = {}
    trail: list[Variable] = []

    def solve(goals: tuple[Term, ...], depth: int):
        if not goals:
            answers.append(apply_subst(program.goal, s))
            return
        if depth > max_depth:
            raise _CapExceeded
        first, rest = goals[0], goals[1:]
        for clause in program.clauses:
            counters["steps"] += 1
            if counters["steps"] > max_steps:
                raise _CapExceeded
            counters["rename"] += 1
            instance = rename_apart(clause, counters["rename"])
            mark = len(trail)
            if unify_into(first, instance.head, s, trail):
                solve(instance.body + rest, depth + 1)
                for var in trail[mark:]:
                    del s[var]
                del trail[mark:]

    try:
        solve((program.goal,), 0)
    except _CapExceeded:
        return RefResult(tuple(answers), capped=True)
    return RefResult(tuple(answers), capped=False)


def match(pattern: Term, t: Term, s: Optional[Subst] = None) -> Optional[Subst]:
    """One-way matching: bind only variables of `pattern` so it equals t."""
    out = dict(s) if s else {}
    stack = [(pattern, t)]
    while stack:
        a, b = stack.pop()
        a = walk(a, out)
        if isinstance(a, Variable):
            out[a] = b
        elif isinstance(a, Atom):
            if not (isinstance(b, Atom) and b.name == a.name):
                return None
        else:
            if (
                not isinstance(b, Compound)
                or b.functor != a.functor
                or len(b.args) != len(a.args)
            ):
                return None
            stack.extend(zip(a.args, b.args))
    return out


def is_instance_of(t: Term, pattern: Term) -> bool:
    """True iff t equals pattern under some substitution of pattern's vars."""
    return match(pattern, t) is not None


def useful_clauses(goal: Term, program: Program, s: Subst) -> list[Clause]:
    """Clauses whose renamed-apart head unifies with the instantiated goal.

    Source order is preserved.  The trial renaming and trial substitution
    are throwaway: callers re-unify when they actually consume a clause.
    An empty result marks a goal no clause can solve.
    """
    target = apply_subst(goal, s)
    return [
        clause
        for clause, head in zip(program.clauses, trial_heads(program))
        if unify(target, head, {}) is not None
    ]


def positions(program: Program, clauses: Iterable[Clause]) -> list[int]:
    """Each clause's position in `program.clauses`, found by identity."""
    return [next(i for i, p in enumerate(program.clauses) if p is c) for c in clauses]


def write_trace_text(events: Iterable[TraceEvent]) -> str:
    lines = [render_event(e) for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


def events_alpha_equal(a: Iterable[TraceEvent], b: Iterable[TraceEvent]) -> bool:
    """Event-stream equality with goals compared up to variable renaming."""
    xs, ys = list(a), list(b)
    if len(xs) != len(ys):
        return False
    return all(
        x.chrono == y.chrono
        and x.node == y.node
        and x.depth == y.depth
        and x.port == y.port
        and alpha_equal(x.goal, y.goal)
        for x, y in zip(xs, ys)
    )


def climbing_has_choice_point(eng, v: int) -> bool:
    """True iff the greatest live node with untried clauses lies in v's
    subtree, found by climbing its parent chain to v's depth (usually zero
    or a few hops).  The choice point is found by scanning the clause
    tables, not read off the engine's choice-point list."""
    points = [y for y in eng.goals if eng.next_clause[y] < len(eng.clauses[y])]
    if not points:
        return False
    node = max(points)
    depth, parent = eng.depth, eng.parent
    k = depth[v]
    if depth[node] < k:
        return False
    while depth[node] > k:
        node = parent[node]
    return node == v


# -- the token-list reader ----------------------------------------------------


class _Token(NamedTuple):  # a tuple: one is built per token read
    kind: str  # "atom" | "var" | "punct" | "end"
    text: str
    line: int
    column: int


# One alternative per token kind, matched at the current offset: skipped
# whitespace and comments, punctuation, variables, atoms.
_TOKEN = re.compile(
    r"(?P<skip>(?:\s|%[^\n]*)+)"
    r"|(?P<punct>:-|[(),.])"
    r"|(?P<var>[A-Z_][A-Za-z0-9_]*)"
    r"|(?P<atom>[a-z][A-Za-z0-9_]*)"
)
_RENAMED = re.compile(r"^(.+)_([0-9]+)$")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    pos, n = 0, len(text)
    match = _TOKEN.match
    while pos < n:
        m = match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        end = m.end()
        if m.lastgroup == "skip":
            # Only skipped text holds newlines.
            last = text.rfind("\n", pos, end)
            if last >= 0:
                line += text.count("\n", pos, end)
                line_start = last + 1
        else:
            tokens.append(_Token(m.lastgroup, m.group(), line, pos - line_start + 1))
        pos = end
    tokens.append(_Token("end", "", line, pos - line_start + 1))
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


def token_list_parse_term_text(text: str, decode_renamed: bool = False) -> Term:
    """Parse a single standalone term (used for trace goals)."""
    parser = _Parser(_tokenize(text), decode_renamed=decode_renamed)
    t = parser.term()
    tok = parser.take()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return t


def token_list_parse_program(text: str) -> Program:
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
            clauses.append(Clause(head))
            continue
        if nxt.kind == "punct" and nxt.text == ":-":
            body = [parser.predication()]
            while parser.peek().text == "," and parser.peek().kind == "punct":
                parser.take()
                body.append(parser.predication())
            parser.expect(".")
            clauses.append(Clause(head, tuple(body)))
            continue
        got = "end of input" if nxt.kind == "end" else repr(nxt.text)
        raise ParseError(f"expected '.' or ':-', found {got}", nxt.line, nxt.column)
    if goal is None:
        last = parser.tokens[-1]
        raise ParseError("missing goal directive", last.line, last.column)
    return Program(tuple(clauses), goal)
