"""Terms, clauses, substitutions, and unification for the pure-Prolog subset.

A term is a variable, an atom, or a compound of arity >= 1 (a zero-arity
predicate is written as an atom).  Variables carry a rename index: index 0
is reserved for variables as written in source text; renamed-apart clause
instances use indexes >= 1, so instances of the same clause never share
variables.

Substitutions are plain dicts from Variable to Term.  `unify_into` binds
in place and records each binding on a trail, so callers undo back to a
mark; `unify` returns an extended copy and leaves its input as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class Variable:
    name: str
    index: int = 0


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]
    # Cached groundness lets instantiate skip whole subtrees in O(1).
    ground: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.args) < 1:
            raise ValueError("compound terms need at least one argument")
        object.__setattr__(self, "ground", all(is_ground(a) for a in self.args))


Term = Union[Variable, Atom, Compound]
Subst = dict[Variable, Term]


def is_ground(t: Term) -> bool:
    if isinstance(t, Variable):
        return False
    if isinstance(t, Atom):
        return True
    return t.ground


def walk(t: Term, s: Subst) -> Term:
    """Follow variable bindings until an unbound variable or non-variable."""
    while isinstance(t, Variable):
        bound = s.get(t)
        if bound is None:
            return t
        t = bound
    return t


def occurs(v: Variable, t: Term, s: Subst) -> bool:
    """True iff v occurs in t under s (iterative; terms can be deep)."""
    stack = [t]
    while stack:
        x = walk(stack.pop(), s)
        if isinstance(x, Variable):
            if x == v:
                return True
        elif isinstance(x, Compound):
            stack.extend(x.args)
    return False


def unify(t1: Term, t2: Term, s: Subst) -> Optional[Subst]:
    """Most general unifier extending s, or None on clash.

    Occurs-check is on: unify(X, f(X)) fails.  The input substitution is
    never mutated: unify_into works on a copy with a scratch trail.
    """
    out = dict(s)
    return out if unify_into(t1, t2, out, []) else None


def unify_into(t1: Term, t2: Term, s: Subst, trail: list[Variable]) -> bool:
    """Unify in place: bind into s directly, recording each bound variable
    on the trail so callers can undo back to a mark.

    On failure the bindings made so far are already undone.  Occurs-check
    is on: unify_into(X, f(X)) fails.
    """
    mark = len(trail)
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = walk(a, s)
        b = walk(b, s)
        if a is b:
            continue
        if isinstance(a, Variable):
            if isinstance(b, Variable) and a == b:
                continue
            if occurs(a, b, s):
                break
            s[a] = b
            trail.append(a)
        elif isinstance(b, Variable):
            if occurs(b, a, s):
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


def apply_subst(term: Term, s: Subst) -> Term:
    """Replace every bound variable transitively; unbound variables stay."""
    return instantiate(term, s, {})


def instantiate(term: Term, s: Subst, memo: dict[Variable, Term]) -> Term:
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


def alpha_equal(t1: Term, t2: Term) -> bool:
    """Structural equality up to a consistent bijective renaming of variables."""
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


def functor_key(t: Term) -> tuple[str, int]:
    """(name, arity) of a predication's outermost functor."""
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Compound):
        return (t.functor, len(t.args))
    raise ValueError("a variable has no functor")


@dataclass(frozen=True)
class Clause:
    """One program clause; an empty body makes it a fact."""

    head: Term
    body: tuple[Term, ...] = ()
    source_index: int = 0

    @property
    def is_fact(self) -> bool:
        return not self.body


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]
    goal: Term


def rename_term(term: Term, index: int) -> Term:
    """Copy of term with every variable's rename index set to `index`, the
    same mapping rename_apart applies to a whole clause; ground subterms
    are shared.  Iterative: source terms can nest deeper than the recursion
    limit."""
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
    return Clause(head=head, body=body, source_index=clause.source_index)


# Rename index reserved for throwaway filtering copies; live variables get
# consecutive small indexes, so this never collides.
TRIAL_INDEX = 2**61


def trial_heads(program: Program) -> list[Term]:
    """Heads of all clauses renamed into the reserved trial namespace,
    for reuse across many filtering calls."""
    return [rename_term(c.head, TRIAL_INDEX) for c in program.clauses]


def render_term(t: Term) -> str:
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


def render_clause(c: Clause) -> str:
    if c.is_fact:
        return f"{render_term(c.head)}."
    body = ",".join(render_term(b) for b in c.body)
    return f"{render_term(c.head)} :- {body}."


def render_program(p: Program) -> str:
    lines = [render_clause(c) for c in p.clauses]
    lines.append(f":- {render_term(p.goal)}.")
    return "\n".join(lines) + "\n"
