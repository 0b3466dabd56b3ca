"""Resolution engine for the four-port box model.

Execution is a building-visit of a partial proof tree.  A node is named by
its creation number (the root is 1, as in the trace's `node` attribute);
integer tables give each node's parent, its index among its parent's
children and its depth, which place it in the Dewey-ordered tree (`path_of`
spells out the Dewey path).  That tree, with the node predications and the
current node, is `RestrictedState`: the part of the state the trace shows.
`Engine` extends it with the hidden parameters, and replay (rebuild.py)
holds one built from the events alone, so both sides grow and prune the
tree with the same code.  Each node is a box holding the called
predication and its not-yet-tried clauses.  Exactly one of seven transition
rules applies at every non-terminal state:

    Call1  enter a leaf whose next clause is a fact (or that has no clause
           at all: the degenerate call of a failed box)
    Call2  enter a leaf with a rule clause; create the first body child
    Exit1  leave a solved node upward (last body goal of its parent)
    Exit2  leave a solved node sideways: create the next body sibling
    Fail2  step up from a failed subtree with no choice point left
    Redo1  jump back to the latest choice point; its next clause is a fact
    Redo2  same jump, next clause is a rule; create its first body child

The visible state per node is: its place in the tree, predication, untried
clauses, and first-visit flag; plus the current node, the creation counter,
and the global `done` and `failing` bits.  Unification lives behind
the scenes: bindings go into one mutable store with an undo trail, and each
clause consumption records a trail mark so a jump back to a choice point
restores the bindings it started from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .terms import (
    Clause,
    Compound,
    Program,
    Subst,
    Term,
    Variable,
    functor_key,
    instantiate,
    rename_term,
    trial_heads,
    unify,
    unify_into,
)

# The root box is created first, so its number is 1.
ROOT = 1


def path_of(state, v: int) -> tuple[int, ...]:
    """Node v's Dewey path (child indices from the root down; the root's is
    `()`), read off `state.parent` and `state.index`.  O(depth): for display
    and tests, never for a step."""
    path = []
    while v != ROOT:
        path.append(state.index[v])
        v = state.parent[v]
    return tuple(reversed(path))


class EngineError(Exception):
    """Internal invariant broken; indicates a bug, not bad input."""


class DeterminismError(EngineError):
    """More than one transition rule guard held at the same state."""


class RuleId(enum.Enum):
    CALL1 = "Call1"
    CALL2 = "Call2"
    EXIT1 = "Exit1"
    EXIT2 = "Exit2"
    FAIL2 = "Fail2"
    REDO1 = "Redo1"
    REDO2 = "Redo2"


REDO_RULES = (RuleId.REDO1, RuleId.REDO2)


def _clause_index(program: Program):
    """Head functor/arity -> (every, by_first, var_first), each in source order.

    Entries are (source position, clause, trial-renamed head); the position
    orders a merge.  `every` holds all clauses of the predicate; `by_first`
    maps the principal functor of the first head argument (`functor_key`, so
    `a` and `a(...)` differ) to the clauses with that key; `var_first` holds
    the clauses whose first head argument is a variable.  Arity-0 heads go
    in `every` only.
    """
    index: dict[tuple[str, int], tuple[list, dict, list]] = {}
    for position, (clause, head) in enumerate(zip(program.clauses, trial_heads(program))):
        entry = (position, clause, head)
        every, by_first, var_first = index.setdefault(functor_key(head), ([], {}, []))
        every.append(entry)
        if isinstance(head, Compound):
            first = head.args[0]
            if isinstance(first, Variable):
                var_first.append(entry)
            else:
                by_first.setdefault(functor_key(first), []).append(entry)
    return index


@dataclass(frozen=True)
class StepDelta:
    """What one step changed in the visible tree-shaped state.

    `removed` lists discarded nodes in creation order, `created` a new node
    as (node, parent, child index) and `created_goal` its predication,
    `updated_goal` the solved node whose predication was overwritten on
    exit.  `current` is the node after the step.
    """

    current: int
    removed: tuple[int, ...] = ()
    created: Optional[tuple[int, int, int]] = None
    created_goal: Optional[Term] = None
    updated_goal: Optional[tuple[int, Term]] = None


class RestrictedState:
    """The box tree: the engine's visible state restricted to what the trace
    shows.  The engine extends it and replay holds one, so both build the
    tree with the same two operations.

    The live nodes are the keys of `goals`, named by creation number;
    `parent` and `index` place each in the tree (the root is its own parent,
    at index 0), which together with the numbers encodes the Dewey tree
    one to one (`path_of` spells a node's path out).  `depth` (nodes on the
    path from the root: the trace's depth attribute), `child_count` and the
    creation-ordered `order` of the live nodes follow from those.  Nodes are
    always created past everything alive, so for live nodes creation order
    and Dewey order coincide: creation appends to `order`, and a jump back
    to a choice point discards a suffix.
    """

    def __init__(self, goal: Term):
        self.current = ROOT
        self.goals: dict[int, Term] = {ROOT: goal}
        self.parent: dict[int, int] = {ROOT: ROOT}
        self.index: dict[int, int] = {ROOT: 0}
        self.depth: dict[int, int] = {ROOT: 1}
        self.child_count: dict[int, int] = {ROOT: 0}
        self.order: list[int] = [ROOT]

    def add_child(self, v: int, parent: int, goal: Term) -> tuple[int, int, int]:
        """Make node v, holding `goal`, the next child of `parent`; returns
        (node, parent, child index)."""
        index = self.child_count[parent] + 1
        self.order.append(v)
        self.goals[v] = goal
        self.parent[v] = parent
        self.index[v] = index
        self.depth[v] = self.depth[parent] + 1
        self.child_count[v] = 0
        self.child_count[parent] = index
        return v, parent, index

    def prune_after(self, v: int) -> tuple[int, ...]:
        """Discard every node after v in Dewey order; returns them in
        creation order.  v's predication is left as it is."""
        order = self.order
        removed_list = []
        while order[-1] > v:
            removed_list.append(order.pop())
        removed_list.reverse()
        removed = tuple(removed_list)
        for y in removed:
            # A surviving parent (numbered at most v) keeps the children
            # before its first removed one; only such parents can lose
            # children at all.
            p = self.parent[y]
            if p <= v and self.child_count[p] >= self.index[y]:
                self.child_count[p] = self.index[y] - 1
            del self.goals[y]
            del self.parent[y]
            del self.index[y]
            del self.depth[y]
            del self.child_count[y]
        return removed

    def copy(self) -> "RestrictedState":
        """A detached copy of the tree (an engine's hidden tables stay
        behind)."""
        new = RestrictedState(self.goals[ROOT])
        new.current = self.current
        new.goals = dict(self.goals)
        new.parent = dict(self.parent)
        new.index = dict(self.index)
        new.depth = dict(self.depth)
        new.child_count = dict(self.child_count)
        new.order = list(self.order)
        return new


class Engine(RestrictedState):
    """Single sequential run of one program.  Not thread-safe; distinct
    instances are independent."""

    def __init__(self, program: Program):
        super().__init__(program.goal)
        self.program = program
        self._predicates = _clause_index(program)
        goal = program.goal
        self.last_number = 1
        self.clauses: dict[int, tuple[Clause, ...]] = {
            ROOT: self._matching_clauses(goal)
        }
        self.fresh: dict[int, bool] = {ROOT: True}
        self.done = False
        self.failing = False
        self.chrono = 0
        self.answers: list[Term] = []
        # Bookkeeping hidden from the visible state: the substitution store,
        # per-node call-time predication (never overwritten), the clause
        # instance a node is currently running, and the trail mark each node
        # saw just before it last consumed a clause (the undo point).
        self.subst: Subst = {}
        self.trail: list[Variable] = []
        # Expansion cache for instantiating goals; valid only while the
        # substitution is untouched (version bumps on bind and undo).
        self._inst_memo: dict[Variable, Term] = {}
        self._subst_version = 0
        self._memo_version = -1
        self.rename_counter = 0
        self.call_goal: dict[int, Term] = {ROOT: goal}
        self.active_clause: dict[int, tuple[Clause, int]] = {}
        self.saved_mark: dict[int, int] = {}
        # Creation-ordered list of the live nodes with untried clauses (a
        # subsequence of `order`).
        self._cp_order: list[int] = [ROOT] if self.clauses[ROOT] else []

    def _matching_clauses(self, goal: Term) -> tuple[Clause, ...]:
        """Clauses whose renamed head unifies with the instantiated goal, in order.

        Candidates come from first-argument indexing (the abstract machine's
        `switch_on_term`): a bound first argument selects the clauses whose
        first head argument has its principal functor, merged with those
        whose first head argument is a variable; an unbound first argument,
        or a goal of arity 0, takes every clause of the predicate.  Only
        clauses that cannot unify are skipped: each candidate is still
        trial-unified, so the result equals a filter over the whole program.
        """
        predicate = self._predicates.get(functor_key(goal))
        if predicate is None:
            return ()
        candidates, by_first, var_first = predicate
        # An instantiated goal has no bound variables: a Variable is unbound.
        if isinstance(goal, Compound) and not isinstance(goal.args[0], Variable):
            keyed = by_first.get(functor_key(goal.args[0]))
            if keyed is None:
                candidates = var_first
            elif var_first:
                # Merged per call: storing every merged bucket would cost
                # keys x variable-first clauses of memory.
                candidates = sorted(keyed + var_first)
            else:
                candidates = keyed
        kept = []
        for _, clause, head in candidates:
            if unify(goal, head, {}) is not None:
                kept.append(clause)
        return tuple(kept)

    # -- predicates over the current state ---------------------------------

    def has_next_body_goal(self, v: int) -> bool:
        """True iff v's goal is not the last one in its parent's running
        clause body, i.e. solving v must spawn a sibling."""
        if v == ROOT:
            return False
        return self.index[v] < len(self.active_clause[self.parent[v]][0].body)

    def has_choice_point(self, v: int) -> bool:
        # The current node's subtree holds the Dewey-greatest live node, so
        # the greatest choice point overall is in v's subtree or nowhere.
        # Membership is checked by climbing the choice point's parent chain
        # to v's depth (usually zero or a few hops).
        if not self._cp_order:
            return False
        node = self._cp_order[-1]
        depth, parent = self.depth, self.parent
        k = depth[v]
        if depth[node] < k:
            return False
        while depth[node] > k:
            node = parent[node]
        return node == v

    def greatest_choice_point(self, v: int) -> int:
        if not self.has_choice_point(v):
            raise EngineError(f"no choice point below node {v}")
        return self._cp_order[-1]

    def instantiated_goal(self, v: int) -> Term:
        """The node's call-time predication under the current bindings."""
        return self._instantiate(self.call_goal[v])

    def _instantiate(self, term: Term) -> Term:
        if self._memo_version != self._subst_version:
            self._inst_memo.clear()
            self._memo_version = self._subst_version
        return instantiate(term, self.subst, self._inst_memo)

    # -- rule selection -----------------------------------------------------

    def select_rule(self) -> Optional[RuleId]:
        """The unique applicable rule, or None at a terminal state.

        Evaluates all seven guards and raises DeterminismError if more than
        one holds; the exclusivity claim is checked on every step.
        """
        u = self.current
        fresh = self.fresh[u]
        leaf = self.child_count[u] == 0
        cl = self.clauses[u]
        fact_next = bool(cl) and not cl[0].body
        done, failing = self.done, self.failing
        # A leaf solved its call iff it consumed a clause (consumption only
        # happens after its head unified); a non-leaf is only ever current
        # under not-failing right after its last child exited, which makes
        # its subtree a finished proof.  A leaf that never consumed and has
        # no clause is the box nothing can serve: the failure origin.
        consumed = u in self.active_clause
        failed_leaf = leaf and not cl and not consumed
        # hcp only decides the Fail2 and Redo guards, whose other conjuncts
        # are known first; skipping it elsewhere changes no guard's truth.
        if not fresh and (failed_leaf or failing or done):
            hcp = self.has_choice_point(u)
        else:
            hcp = False

        applicable = []
        # The empty-clause alternative on Call1 is the degenerate call of a
        # box no clause can serve; it is immediately followed by Fail2.
        if fresh and leaf and not done and (fact_next or not cl):
            applicable.append(RuleId.CALL1)
        if fresh and leaf and not done and cl and not fact_next:
            applicable.append(RuleId.CALL2)
        if not fresh and not done and not failing and (consumed if leaf else True):
            if self.has_next_body_goal(u):
                applicable.append(RuleId.EXIT2)
            else:
                applicable.append(RuleId.EXIT1)
        if not fresh and not done and not hcp and (failed_leaf or failing):
            applicable.append(RuleId.FAIL2)
        if not fresh and hcp and (failing or done):
            target = self._cp_order[-1]
            target_cl = self.clauses[target]
            if not target_cl[0].body:
                applicable.append(RuleId.REDO1)
            else:
                applicable.append(RuleId.REDO2)
        if len(applicable) > 1:
            raise DeterminismError(
                f"rules {[r.value for r in applicable]} all apply at chrono "
                f"{self.chrono + 1}"
            )
        if not applicable:
            if not (self.done and not self.has_choice_point(ROOT)):
                raise EngineError(f"stuck in a non-terminal state at node {u}")
            return None
        return applicable[0]

    # -- state updates ------------------------------------------------------

    def _consume_clause(self, v: int) -> Clause:
        """Pop the next untried clause at v and unify its renamed head with
        v's call predication.  Filtering guarantees this cannot fail."""
        cl = self.clauses[v]
        if not cl:
            raise EngineError(f"no clause left to consume at node {v}")
        head_clause, rest = cl[0], cl[1:]
        self.clauses[v] = rest
        if not rest:
            # Consumption happens at the newest box or at the greatest
            # choice point, both of which sit at the end of the order.
            if not self._cp_order or self._cp_order[-1] != v:
                raise EngineError(f"node {v} emptied but is not the last choice point")
            self._cp_order.pop()
        self.rename_counter += 1
        head = rename_term(head_clause.head, self.rename_counter)
        self.saved_mark[v] = len(self.trail)
        self._subst_version += 1
        if not unify_into(self.call_goal[v], head, self.subst, self.trail):
            raise EngineError(f"head of a filtered clause failed to unify at node {v}")
        self.active_clause[v] = (head_clause, self.rename_counter)
        return head_clause

    def _create_child(self, parent: int) -> tuple[tuple[int, int, int], Term]:
        """Make the next child box of `parent`: number it, call the matching
        body goal under the current bindings, and fill it with the clauses
        that can serve the call.  Returns (node, parent, index) and the goal."""
        clause, instance = self.active_clause[parent]
        body_goal = clause.body[self.child_count[parent]]
        goal = self._instantiate(rename_term(body_goal, instance))
        self.last_number += 1
        v = self.last_number
        created = self.add_child(v, parent, goal)
        self.call_goal[v] = goal
        cl = self._matching_clauses(goal)
        self.clauses[v] = cl
        if cl:
            self._cp_order.append(v)
        self.fresh[v] = True
        return created, goal

    def _prune_after(self, v: int) -> tuple[int, ...]:
        """Discard every node after v in Dewey order with its hidden
        bookkeeping, and undo the bindings made since v last consumed a
        clause.  v's call-time predication stays in `call_goal`."""
        removed = self.prune_after(v)
        while self._cp_order and self._cp_order[-1] > v:
            self._cp_order.pop()
        for y in removed:
            del self.clauses[y]
            del self.fresh[y]
            del self.call_goal[y]
            self.active_clause.pop(y, None)
            self.saved_mark.pop(y, None)
        mark = self.saved_mark[v]
        self._subst_version += 1
        for var in self.trail[mark:]:
            del self.subst[var]
        del self.trail[mark:]
        return removed

    def apply_rule(self, rule: RuleId) -> StepDelta:
        """Apply `rule` (which select_rule just returned) and report what
        changed in the visible tree-shaped state."""
        u = self.current
        self.chrono += 1
        if rule is RuleId.CALL1:
            if self.clauses[u]:
                self._consume_clause(u)
            self.fresh[u] = False
            self.failing = False
            return StepDelta(current=u)
        if rule is RuleId.CALL2:
            self._consume_clause(u)
            self.fresh[u] = False
            self.failing = False
            created, goal = self._create_child(u)
            self.current = created[0]
            return StepDelta(current=self.current, created=created, created_goal=goal)
        if rule is RuleId.EXIT1:
            solved = self.instantiated_goal(u)
            self.goals[u] = solved
            self.current = self.parent[u]
            if u == ROOT:
                self.done = True
                self.answers.append(solved)
            return StepDelta(current=self.current, updated_goal=(u, solved))
        if rule is RuleId.EXIT2:
            solved = self.instantiated_goal(u)
            self.goals[u] = solved
            created, goal = self._create_child(self.parent[u])
            if created[2] != self.index[u] + 1:
                raise EngineError(f"sibling mismatch: {created!r} after node {u}")
            self.current = created[0]
            return StepDelta(
                current=self.current,
                created=created,
                created_goal=goal,
                updated_goal=(u, solved),
            )
        if rule is RuleId.FAIL2:
            self.current = self.parent[u]
            if u == ROOT:
                self.done = True
            self.failing = True
            return StepDelta(current=self.current)
        if rule is RuleId.REDO1:
            v = self.greatest_choice_point(u)
            removed = self._prune_after(v)
            self._consume_clause(v)
            self.current = v
            self.done = False
            self.failing = False
            return StepDelta(current=v, removed=removed)
        if rule is RuleId.REDO2:
            v = self.greatest_choice_point(u)
            removed = self._prune_after(v)
            self._consume_clause(v)
            created, goal = self._create_child(v)
            self.current = created[0]
            self.done = False
            self.failing = False
            return StepDelta(
                current=self.current,
                removed=removed,
                created=created,
                created_goal=goal,
            )
        raise EngineError(f"unknown rule {rule!r}")

    def step(self) -> Optional[tuple[RuleId, StepDelta]]:
        rule = self.select_rule()
        if rule is None:
            return None
        return rule, self.apply_rule(rule)
