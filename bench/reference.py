"""A fixed reference program that gauges how fast the machine runs right now.

The benchmark's host is a shared virtual machine whose speed changes by up
to two times within seconds and from one minute to the next (see README,
Steadiness).  The run times this small program between operations.  It
has two parts, close in kind to what `boxtrace` does and independent of it,
so no change to the program under test changes them: a depth-first search
with substitution dicts over 160 `e/2` facts (tuples, dicts, recursion,
unification; what `join` and `fuzz` spend their time on), and a chain of
ever longer path tuples hashed into a dict (node identities 1,000 deep;
what `deep` spends its time on), kept to a few megabytes so that it does
not set a workload's peak memory.  Either part alone follows the machine's
speed well on one kind of workload only.
Nothing here may change without a new baseline: every timed metric is
scaled by it.
"""

from __future__ import annotations

import random


class Var:
    __slots__ = ("name",)

    def __init__(self, name: int) -> None:
        self.name = name


def _facts() -> list[tuple]:
    rng = random.Random("reference")
    nodes = [f"n{i}" for i in range(40)]
    return [("e", a, b) for a in nodes for b in rng.sample(nodes, 4)]


FACTS = _facts()
_V = [Var(i) for i in range(3)]
GOAL = (("e", _V[0], _V[1]), ("e", _V[1], _V[2]))
ANSWERS = 640  # every one of the 160 edges extends by 4
PATH_DEPTH = 1000
PATH_CHAINS = 4
PATH_SUM = sum(range(0, PATH_DEPTH, 4))


def _walk(term, subst):
    while isinstance(term, Var) and term in subst:
        term = subst[term]
    return term


def _unify(a, b, subst):
    a = _walk(a, subst)
    b = _walk(b, subst)
    if a is b:
        return subst
    if isinstance(a, Var):
        return {**subst, a: b}
    if isinstance(b, Var):
        return {**subst, b: a}
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        for x, y in zip(a, b):
            subst = _unify(x, y, subst)
            if subst is None:
                return None
        return subst
    return subst if a == b else None


def _solve(goals, subst):
    if not goals:
        yield subst
        return
    for fact in FACTS:
        found = _unify(goals[0], fact, subst)
        if found is not None:
            yield from _solve(goals[1:], found)


def _paths(depth: int) -> int:
    index: dict[tuple, int] = {}
    path: tuple = ()
    for i in range(depth):
        path = path + (i & 3,)
        index[path] = i
    return sum(index[p] for p in list(index)[::4])


def run() -> None:
    """One reference run: every 2-hop path over the facts, then the chains."""
    count = sum(1 for _ in _solve(GOAL, {}))
    if count != ANSWERS:
        raise AssertionError(f"reference solver found {count} paths, expected {ANSWERS}")
    for _ in range(PATH_CHAINS):
        if _paths(PATH_DEPTH) != PATH_SUM:
            raise AssertionError("reference path chain gave a wrong sum")
