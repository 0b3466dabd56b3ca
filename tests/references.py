"""References and helpers the tests compare against, kept out of the package
because nothing in it uses them.

`useful_clauses` is the plain clause filter the engine's first-argument
index must agree with; `match`/`is_instance_of` check that an Exit goal
instantiates its Call goal; `events_alpha_equal` compares event streams up
to variable renaming; `write_trace_text` renders a whole trace at once.
"""

from __future__ import annotations

from typing import Iterable, Optional

from boxtrace import Clause, Program, Subst, Term, TraceEvent, alpha_equal, apply_subst, unify
from boxtrace.terms import Atom, Compound, Variable, trial_heads, walk
from boxtrace.trace import render_event


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
