"""References and helpers the tests compare against, kept out of the package
because nothing in it uses them.

`useful_clauses` is the plain clause filter the engine's first-argument
index must agree with, and `eager_untried_clauses` applies it to a live box
the way the engine filtered before it scanned lazily; `untried_clauses`
reads the same list off the engine's lazy scan, without changing it;
`match` and `is_instance_of` check that an Exit goal instantiates its Call
goal;
`events_alpha_equal` compares event streams up to variable renaming;
`write_trace_text` renders a whole trace at once;
`unguarded_reference_solve` is the recursive oracle, with its own depth
cap, try floor and exception, that renames and tries every clause for every
goal: the stack search of `reference_solve`, which tries only a goal's own
predicate's clauses, must give its answers in its order up to renaming;
`climbing_has_choice_point` is the tree climb that the engine's
creation-number test `has_choice_point` must agree with;
`token_list_parse_program` and `token_list_parse_term_text` are the reader
that builds a list of token tuples, tracking line and column as it goes,
which the one-pass reader must agree with exactly, errors included (it
quotes a token whole; the package cuts a quote after 120 characters);
the `isinstance_*` kernels are `occurs`, `unify_into`, `instantiate`,
`rename_term`, `render_term`, `functor_key` and `alpha_equal` (its walk)
before exact-class dispatch, which the package's kernels must agree with
exactly, and `isinstance_walk`, the binding walk they and `match` follow;
`positions` names clauses by their place in the program.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Union

import boxtrace.engine as engine_module
from boxtrace import Clause, Program, Subst, Term, TraceEvent, alpha_equal, apply_subst, unify
from boxtrace.harness import RefResult
from boxtrace.parser import ParseError
from boxtrace.terms import (
    Atom,
    Compound,
    Variable,
    rename_term,
    unify_into,
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


# The recursive oracle's depth cap and its default try budget.
ORACLE_MAX_DEPTH = 250
ORACLE_MIN_TRIES = 200_000


class _CapExceeded(Exception):
    pass


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
        a = isinstance_walk(a, out)
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
    Heads are renamed with index -1, which no variable of a run has.  An
    empty result marks a goal no clause can solve.
    """
    target = apply_subst(goal, s)
    return [
        clause
        for clause in program.clauses
        if unify(target, rename_term(clause.head, -1), {}) is not None
    ]


def eager_untried_clauses(eng, program: Program, v: int) -> tuple[Clause, ...]:
    """Box v's untried clauses by the plain filter over the whole program:
    the clauses matching its call after the one it runs, or from that one on
    while it is fresh (bound when filled, not yet taken by its Call)."""
    useful = useful_clauses(eng.call_goal[v], program, {})
    if v not in eng.running:
        assert not useful, "a box left a matching clause unbound"
        return ()
    running = next(i for i, c in enumerate(useful) if c is eng.running[v][0])
    fresh = eng.fresh and v == eng.current
    return tuple(useful[running if fresh else running + 1:])


def untried_clauses(eng, v: int) -> tuple[Clause, ...]:
    """Box v's untried matching clauses, in order, read off the engine's
    `_scan` and `call_goal` by the engine's own trial `unify` (which tests
    count), changing nothing."""
    candidates, position, clause = eng._scan[v]
    goal, trial, instance = eng.call_goal[v], engine_module.unify, eng.rename_counter + 1
    rest = tuple(
        c
        for _, c in candidates[position:]
        if trial(goal, rename_term(c.head, instance), {}) is not None
    )
    return rest if clause is None else (clause,) + rest


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
    or a few hops).  The choice point is found by asking every live node
    for its untried clauses, not read off the engine's choice-point list."""
    points = [y for y in eng.goals if untried_clauses(eng, y)]
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


# -- the isinstance kernels ---------------------------------------------------
#
# The term kernels as they were before they dispatched on exact class:
# isinstance chains, named field reads, a walk call per side of every pair,
# an occurs check on every binding and an ops stack for every instantiated
# compound.  The package's kernels must agree with them exactly.


def isinstance_walk(t: Term, s: Subst) -> Term:
    """Follow variable bindings until an unbound variable or non-variable."""
    while isinstance(t, Variable):
        bound = s.get(t)
        if bound is None:
            return t
        t = bound
    return t


def isinstance_occurs(v: Variable, t: Term, s: Subst) -> bool:
    """True iff v occurs in t under s (iterative; terms can be deep)."""
    stack = [t]
    while stack:
        x = isinstance_walk(stack.pop(), s)
        if isinstance(x, Variable):
            if x == v:
                return True
        elif isinstance(x, Compound):
            stack.extend(x.args)
    return False


def isinstance_unify_into(t1: Term, t2: Term, s: Subst, trail: list[Variable]) -> bool:
    """Unify in place: bind into s directly, recording each bound variable
    on the trail so callers can undo back to a mark.

    On failure the bindings made so far are already undone.  Occurs-check
    is on: unify_into(X, f(X)) fails.
    """
    mark = len(trail)
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = isinstance_walk(a, s)
        b = isinstance_walk(b, s)
        if a is b:
            continue
        if isinstance(a, Variable):
            if isinstance(b, Variable) and a == b:
                continue
            if isinstance_occurs(a, b, s):
                break
            s[a] = b
            trail.append(a)
        elif isinstance(b, Variable):
            if isinstance_occurs(b, a, s):
                break
            s[b] = a
            trail.append(b)
        elif isinstance(a, Atom) and isinstance(b, Atom):
            if a.name != b.name:
                break
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor or len(a.args) != len(b.args):
                break
            stack.extend(zip(a.args, b.args))
        else:
            break
    else:
        return True
    for var in trail[mark:]:
        del s[var]
    del trail[mark:]
    return False


def isinstance_instantiate(term: Term, s: Subst, memo: dict[Variable, Term]) -> Term:
    """Replace every bound variable transitively; unbound variables stay.

    Unchanged subtrees are shared with the input, so repeated application
    over growing terms does not blow up memory.  Iterative: substituted
    terms can be arbitrarily deep.  `memo` holds already-expanded bound
    variables, so successive instantiations against one unchanged
    substitution (an exit cascade up a deep proof) share their work; the
    caller must drop the memo whenever s gains or loses a binding.
    """
    if not s:
        return term
    results: list[Term] = []
    # ops: 0 = visit, 1 = build compound, 2 = memoize the built value
    ops: list[tuple[int, Term]] = [(0, term)]
    while ops:
        op, node = ops.pop()
        if op == 0:
            finished = None
            while isinstance(node, Variable):
                hit = memo.get(node)
                if hit is not None:
                    finished = hit  # memo values are already fully applied
                    break
                bound = s.get(node)
                if bound is None:
                    finished = node
                    break
                ops.append((2, node))
                node = bound
            if finished is not None:
                results.append(finished)
            elif isinstance(node, Compound) and not node.ground:
                ops.append((1, node))
                ops.extend((0, a) for a in reversed(node.args))
            else:
                results.append(node)
        elif op == 1:
            assert isinstance(node, Compound)
            n = len(node.args)
            new_args = tuple(results[-n:])
            del results[-n:]
            if all(x is y for x, y in zip(new_args, node.args)):
                results.append(node)
            else:
                results.append(Compound(node.functor, new_args))
        else:
            memo[node] = results[-1]
    return results[0]


def isinstance_rename_term(term: Term, index: int) -> Term:
    """Copy of term with every variable's rename index set to `index`;
    renaming a clause's head and body goals with one index keeps their
    shared variables shared.  Ground subterms are shared.  Iterative: source
    terms can nest deeper than the recursion limit."""
    if isinstance(term, Variable):
        return Variable(term.name, index)
    if isinstance(term, Atom) or term.ground:
        return term
    # Frames: a compound being copied and its arguments copied so far.
    stack: list[tuple[Compound, list[Term]]] = [(term, [])]
    while True:
        node, done = stack[-1]
        for a in node.args[len(done):]:
            if isinstance(a, Variable):
                done.append(Variable(a.name, index))
            elif isinstance(a, Atom) or a.ground:
                done.append(a)
            else:
                stack.append((a, []))
                break
        else:
            stack.pop()
            built = Compound(node.functor, tuple(done))
            if not stack:
                return built
            stack[-1][1].append(built)


def isinstance_functor_key(t: Term) -> tuple[str, int]:
    """(name, arity) of a predication's outermost functor."""
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Compound):
        return (t.functor, len(t.args))
    raise ValueError("a variable has no functor")


def isinstance_alpha_equal(t1: Term, t2: Term) -> bool:
    """Structural equality up to a consistent bijective renaming of
    variables."""
    fwd: dict[Variable, Variable] = {}
    bwd: dict[Variable, Variable] = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if a is b and (isinstance(a, Atom) or (isinstance(a, Compound) and a.ground)):
            # Ground and identical: no variables to feed the bijection.
            continue
        if isinstance(a, Variable) and isinstance(b, Variable):
            if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
                return False
        elif isinstance(a, Atom) and isinstance(b, Atom):
            if a.name != b.name:
                return False
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        else:
            return False
    return True


def isinstance_render_term(t: Term) -> str:
    """Canonical text form, no internal spaces; renamed vars print Name_k."""
    parts: list[str] = []
    stack: list[Union[str, Term]] = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            parts.append(x)
        elif isinstance(x, Variable):
            parts.append(x.name if x.index == 0 else f"{x.name}_{x.index}")
        elif isinstance(x, Atom):
            parts.append(x.name)
        else:
            parts.append(x.functor)
            parts.append("(")
            tail: list[Union[str, Term]] = []
            for j, a in enumerate(x.args):
                if j:
                    tail.append(",")
                tail.append(a)
            tail.append(")")
            stack.extend(reversed(tail))
    return "".join(parts)


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
    def __init__(self, tokens: list[_Token], decode_renamed: bool = False, source: bool = False):
        self.tokens = tokens
        self.pos = 0
        # When reading trace goals, a trailing _k on a variable name is the
        # rename index the canonical renderer attached; other terms keep
        # names as written, and a program (`source`) may not use such a name.
        self.decode_renamed = decode_renamed
        self.source = source

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
        m = _RENAMED.match(tok.text)
        if m and self.decode_renamed:
            return Variable(m.group(1), int(m.group(2)))
        if m and self.source:
            try:
                int(m.group(2))
            except ValueError:  # a tail longer than int() reads is no index
                pass
            else:
                raise ParseError(
                    f"reserved variable name {tok.text!r}: a trace reads _k as rename k",
                    tok.line,
                    tok.column,
                )
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
    parser = _Parser(_tokenize(text), source=True)
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
