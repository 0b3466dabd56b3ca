"""Terms, clauses, substitutions, and unification for the pure-Prolog subset.

A term is a variable, an atom, or a compound of arity >= 1 (a zero-arity
predicate is written as an atom).  Variables carry a rename index: index 0
is reserved for variables as written in source text; renamed-apart clause
instances use indexes >= 1, so instances of the same clause never share
variables.

Terms are tuples (`Variable` is (name, index), `Atom` is (name,),
`Compound` is (functor, args, ground)), immutable by construction: ground
subterms are shared between terms and `instantiate` keeps unchanged
subtrees, which is sound only because no term is ever changed after it is
built.  Terms of different classes never compare equal (their lengths
differ), but a term does compare equal to the plain tuple of its fields.

Substitutions are plain dicts from Variable to Term.  `unify_into` binds
in place and records each binding on a trail, so callers undo back to a
mark; `unify` returns an extended copy and leaves its input as it was.

A clause instance is built once: given a rename index, `unify_into` reads
a head as renamed while it unifies, and given a substitution, `rename_term`
instantiates a body goal as it renames it.

The term kernels (`occurs`, `unify_into`, `instantiate`, `rename_term`,
`render_term`) run on every engine step, so they dispatch on exact class
(`t.__class__ is Variable`) and read fields by index.  That is sound only
because the three term classes are final: subclassing one raises
TypeError.  Two rules spare the kernels redundant work:

- `unify_into` binds an unbound variable to the other side with an occurs
  check only when that side is a non-ground compound.  An atom, a ground
  compound or a distinct unbound variable cannot contain the variable.
- A flat compound is done in one pass over its arguments; only a
  non-ground compound argument opens a frame on the kernel's stack.  For
  `instantiate` that is a compound whose arguments walk to atoms, ground
  compounds or unbound variables: it is rebuilt, or returned as is when no
  argument changed.  `rename_term` copies a compound whose arguments are
  atoms, ground compounds or variables the same way, and `render_term`
  renders a compound of atoms and variables with one `','.join`.  The
  kernels build a compound with its ground flag worked out as its
  arguments are, the flag `Compound.__new__` would compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Union


def _final(cls, **kwargs):
    """`__init_subclass__` of the term classes: the kernels dispatch on
    exact class, so a subclass would be misread."""
    raise TypeError(f"{cls.__name__}: Variable, Atom and Compound are final")


class Variable(tuple):
    """(name, rename index)."""

    __slots__ = ()
    __init_subclass__ = _final

    def __new__(cls, name: str, index: int = 0):
        return tuple.__new__(cls, (name, index))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Variable(name={self[0]!r}, index={self[1]!r})"

    name = property(itemgetter(0))
    index = property(itemgetter(1))


class Atom(tuple):
    """(name,)."""

    __slots__ = ()
    __init_subclass__ = _final

    def __new__(cls, name: str):
        return tuple.__new__(cls, (name,))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Atom(name={self[0]!r})"

    name = property(itemgetter(0))


class Compound(tuple):
    """(functor, args, ground).  `ground` is derived from the args and
    cached, so instantiate and rename skip whole ground subtrees in O(1)."""

    __slots__ = ()
    __init_subclass__ = _final

    def __new__(cls, functor: str, args: tuple["Term", ...]):
        if len(args) < 1:
            raise ValueError("compound terms need at least one argument")
        ground = True
        for a in args:
            if a.__class__ is Variable or (a.__class__ is Compound and not a[2]):
                ground = False
                break
        return tuple.__new__(cls, (functor, args, ground))

    def __getnewargs__(self):
        return self[:2]

    def __repr__(self):
        return f"Compound(functor={self[0]!r}, args={self[1]!r})"

    functor = property(itemgetter(0))
    args = property(itemgetter(1))
    ground = property(itemgetter(2))


Term = Union[Variable, Atom, Compound]
Subst = dict[Variable, Term]


def occurs(v: Variable, t: Term, s: Subst) -> bool:
    """True iff v occurs in t under s (iterative; terms can be deep)."""
    get = s.get
    stack = [t]
    while stack:
        x = stack.pop()
        while x.__class__ is Variable:
            bound = get(x)
            if bound is None:
                if x == v:
                    return True
                break
            x = bound
        else:
            if x.__class__ is Compound and not x[2]:
                stack.extend(x[1])
    return False


def unify(t1: Term, t2: Term, s: Subst, index: Optional[int] = None) -> Optional[Subst]:
    """Most general unifier extending s, or None on clash; `index` as in
    unify_into.

    Occurs-check is on: unify(X, f(X)) fails.  The input substitution is
    never mutated: unify_into works on a copy with a scratch trail, so the
    copy holds the new bindings in the order they were made.
    """
    out = dict(s)
    return out if unify_into(t1, t2, out, [], index) else None


def unify_into(
    t1: Term, t2: Term, s: Subst, trail: list[Variable], index: Optional[int] = None
) -> bool:
    """Unify in place: bind into s directly, recording each bound variable
    on the trail so callers can undo back to a mark.

    With `index`, t2 (a clause head) is read as `rename_term(t2, index)`
    without that copy being built: a head subterm is copied only when a
    variable of t1 is bound to it.  Pairs are taken and bound exactly as
    against the copy, so renamed variable names in a trace do not change.
    A head variable bound earlier in the call leads to a built term; a
    nested call unifies that pair, finishing it before any pair pushed
    earlier, as the stack would.

    On failure the bindings made so far are already undone.  Occurs-check
    is on: unify_into(X, f(X)) fails.
    """
    get = s.get
    mark = len(trail)
    # Pairs still to unify, taken last first.  Two compounds (a goal and a
    # head, as the engine calls it) put their argument pairs on directly.
    if t1.__class__ is Compound and t2.__class__ is Compound:
        if t1[0] != t2[0] or len(t1[1]) != len(t2[1]):
            return False
        stack = list(zip(t1[1], t2[1]))
    else:
        stack = [(t1, t2)]
    pop, push = stack.pop, stack.extend
    new = tuple.__new__
    while stack:
        a, b = pop()
        ca = a.__class__
        while ca is Variable:
            bound = get(a)
            if bound is None:
                break
            a = bound
            ca = a.__class__
        cb = b.__class__
        if index is None:
            while cb is Variable:
                bound = get(b)
                if bound is None:
                    break
                b = bound
                cb = b.__class__
            if a is b:
                continue
        elif cb is Variable:
            # A head variable, renamed; if bound, it leads to a built term.
            b = new(Variable, (b[0], index))
            bound = get(b)
            if bound is not None:
                if unify_into(a, bound, s, trail):
                    continue
                break
        # Only a non-ground compound can contain an unbound variable.  No
        # `a is b` shortcut on a head: a built term never holds a non-ground
        # head subterm, and a ground one binds nothing either way.
        if ca is Variable:
            if cb is Variable:
                if a == b:
                    continue
            elif cb is Compound and not b[2]:
                if index is not None:
                    b = rename_term(b, index)
                if occurs(a, b, s):
                    break
            s[a] = b
            trail.append(a)
        elif cb is Variable:
            if ca is Compound and not a[2] and occurs(b, a, s):
                break
            s[b] = a
            trail.append(b)
        elif ca is not cb or a[0] != b[0]:
            break
        elif ca is Compound:
            xs, ys = a[1], b[1]
            if len(xs) != len(ys):
                break
            push(zip(xs, ys))
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
    get, mget = s.get, memo.get
    if term.__class__ is Compound:
        if term[2]:
            return term
        frame = [term, iter(term[1]), [], None, True]
    elif term.__class__ is Variable:
        frame = [None, iter((term,)), [], None, True]
    else:
        return term
    # Frames: [compound, iterator over its arguments, their instances so
    # far, the bound variables that walked to it (memoized once it is
    # built), whether those instances are all ground].  A variable at the
    # top gets a frame with no compound.  A flat compound is done in one
    # pass of the loop below.
    new = tuple.__new__
    stack = [frame]
    while True:
        out, ground = frame[2], frame[4]
        for a in frame[1]:
            chain = None
            while a.__class__ is Variable:
                hit = mget(a)
                if hit is not None:
                    a = hit  # memo values are already fully applied
                    break
                bound = get(a)
                if bound is None:
                    break
                if chain is None:
                    chain = [a]
                else:
                    chain.append(a)
                a = bound
            else:
                if a.__class__ is Compound and not a[2]:
                    frame[4] = ground
                    frame = [a, iter(a[1]), [], chain, True]
                    stack.append(frame)
                    break
            if chain is not None:
                for var in chain:
                    memo[var] = a
            if a.__class__ is Variable or (a.__class__ is Compound and not a[2]):
                ground = False
            out.append(a)
        else:
            stack.pop()
            node = frame[0]
            if node is None:
                return out[0]
            for x, y in zip(out, node[1]):
                if x is not y:
                    node = new(Compound, (node[0], tuple(out), ground))
                    break
            chain = frame[3]
            if chain is not None:
                for var in chain:
                    memo[var] = node
            if not stack:
                return node
            frame = stack[-1]
            frame[2].append(node)
            frame[4] = frame[4] and node[2]


def alpha_equal(t1: Term, t2: Term) -> bool:
    """Structural equality up to a consistent bijective renaming of variables;
    a term is its own variant (the identity renaming), so it is not walked."""
    return t1 is t2 or _alpha_walk(t1, t2)


def _alpha_walk(t1: Term, t2: Term) -> bool:
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


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]
    goal: Term


def rename_term(
    term: Term, index: int, s: Optional[Subst] = None, memo: Optional[dict[Variable, Term]] = None
) -> Term:
    """Copy of term with every variable's rename index set to `index`;
    renaming a clause's head and body goals with one index keeps their
    shared variables shared.  Ground subterms are shared.  Iterative: source
    terms can nest deeper than the recursion limit.

    Given s (and instantiate's `memo`), each renamed variable is replaced by
    its instance under s, so the result equals
    `instantiate(rename_term(term, index), s, memo)`, built in one pass."""
    new = tuple.__new__
    if term.__class__ is Variable:
        term = new(Variable, (term[0], index))
        return instantiate(term, s, memo) if s else term
    if term.__class__ is Atom or term[2]:
        return term
    get = s.get if s else {}.get
    memo = {} if memo is None else memo
    # Frames: a compound being copied, an iterator over its arguments, the
    # arguments copied so far, and whether all of those are ground.
    frame = [term[0], iter(term[1]), [], True]
    stack = [frame]
    while True:
        done, ground = frame[2], frame[3]
        for a in frame[1]:
            if a.__class__ is Variable:
                a = new(Variable, (a[0], index))
                bound = get(a)
                if bound is None:
                    ground = False
                elif bound.__class__ is Atom or (bound.__class__ is Compound and bound[2]):
                    a = bound
                else:
                    a = instantiate(a, s, memo)
                    if a.__class__ is Variable or (a.__class__ is Compound and not a[2]):
                        ground = False
                done.append(a)
            elif a.__class__ is Atom or a[2]:
                done.append(a)
            else:
                frame[3] = ground
                frame = [a[0], iter(a[1]), [], True]
                stack.append(frame)
                break
        else:
            stack.pop()
            built = new(Compound, (frame[0], tuple(done), ground))
            if not stack:
                return built
            frame = stack[-1]
            frame[2].append(built)
            frame[3] = frame[3] and ground


def render_term(t: Term) -> str:
    """Canonical text form, no internal spaces; renamed vars print Name_k."""
    if t.__class__ is Variable:
        return f"{t[0]}_{t[1]}" if t[1] else t[0]
    if t.__class__ is Atom:
        return t[0]
    # A compound of atoms and variables: one join.
    texts = []
    for a in t[1]:
        if a.__class__ is Atom:
            texts.append(a[0])
        elif a.__class__ is Variable:
            texts.append(f"{a[0]}_{a[1]}" if a[1] else a[0])
        else:
            break
    else:
        return f"{t[0]}({','.join(texts)})"
    # Otherwise one list of parts: each argument is followed by a comma,
    # and a compound's last comma becomes its closing parenthesis.
    parts = [t[0], "("]
    push = parts.append
    stack = [iter(t[1])]
    while stack:
        for a in stack[-1]:
            if a.__class__ is Atom:
                push(a[0])
            elif a.__class__ is Variable:
                push(f"{a[0]}_{a[1]}" if a[1] else a[0])
            else:
                push(a[0])
                push("(")
                stack.append(iter(a[1]))
                break
            push(",")
        else:
            stack.pop()
            parts[-1] = ")"
            if stack:
                push(",")
    return "".join(parts)


def render_clause(c: Clause) -> str:
    if not c.body:
        return f"{render_term(c.head)}."
    body = ",".join(render_term(b) for b in c.body)
    return f"{render_term(c.head)} :- {body}."


def render_program(p: Program) -> str:
    lines = [render_clause(c) for c in p.clauses]
    lines.append(f":- {render_term(p.goal)}.")
    return "\n".join(lines) + "\n"
