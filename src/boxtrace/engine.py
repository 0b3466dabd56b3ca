"""Resolution engine for the four-port box model.

Execution is a building-visit of a partial proof tree of boxes, each
holding a called predication and its untried clauses.  A box is named by
its creation number (the root is 1, the trace's `node` attribute); integer
tables place it in the Dewey-ordered tree, `RestrictedState`: the part of
the state the trace shows, which replay (rebuild.py) builds from the events
alone with the same grow and prune code.  Exactly one of seven transition
rules applies at every non-terminal state:

    Call1  enter a leaf whose next clause is a fact (or that has no clause
           at all: the degenerate call of a failed box)
    Call2  enter a leaf with a rule clause; create the first body child
    Exit1  leave a solved node upward (last body goal of its parent)
    Exit2  leave a solved node sideways: create the next body sibling
    Fail2  step up from a failed subtree with no choice point left
    Redo1  jump back to the latest choice point; its next clause is a fact
    Redo2  same jump, next clause is a rule; create its first body child

`Engine` adds the first-visit flag `fresh` (only the box the last step
created can be fresh; its next step is its Call), the global `done` and
`failing` bits, one binding store with an undo trail, and three hidden
per-node tables: `call_goal` (the call-time predication), `running` (the
clause instance whose head the node bound last, with the trail mark it was
bound from, so a jump back to a choice point restores its bindings) and
`_scan` (its candidate clauses, a scan position and the next matching
clause once found).  A box binds its first matching clause when it is
filled, at creation; a later one is trial-unified only when a guard asks
whether a choice point is left, and the Redo that takes it installs the
bindings the trial made.

Each clause instance is built once: a head is unified as it is read, under
its instance number (`unify_into`'s `index`), and a body goal is renamed
and instantiated in one pass (`rename_term` given the store).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

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
    unify,
    unify_into,
)

# The root box is created first, so its number is 1.
ROOT = 1


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

    __hash__ = object.__hash__  # members compare by identity; hashed in C


REDO_RULES = (RuleId.REDO1, RuleId.REDO2)


def _clause_index(program: Program):
    """Head functor/arity -> (every, by_first, var_first), each in source order.

    Entries are (source position, clause); the position orders a merge.
    `every` holds all clauses of the predicate; `by_first` maps the
    principal functor of the first head argument (`functor_key`, so `a` and
    `a(...)` differ) to the clauses with that key; `var_first` holds the
    clauses whose first head argument is a variable.  Arity-0 heads go in
    `every` only.
    """
    index: dict[tuple[str, int], tuple[list, dict, list]] = {}
    for entry in enumerate(program.clauses):
        head = entry[1].head
        every, by_first, var_first = index.setdefault(functor_key(head), ([], {}, []))
        every.append(entry)
        if isinstance(head, Compound):
            first = head.args[0]
            if isinstance(first, Variable):
                var_first.append(entry)
            else:
                by_first.setdefault(functor_key(first), []).append(entry)
    return index


class StepDelta(NamedTuple):
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
    shows; the engine extends it and replay holds one.

    The live nodes are the keys of `goals`; `parent` and `index` place each
    in the tree (the root is its own parent, at index 0), and `depth` (the
    trace's depth attribute), `child_count` and the creation-ordered `order`
    follow from those.  Nodes are always created past everything alive, so
    for live nodes creation order and Dewey order coincide: creation appends
    to `order`, and a jump back to a choice point discards a suffix.
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
        self._predicates = _clause_index(program)
        goal = program.goal
        self.last_number = 1
        # The first-visit flag of the current node; no other node is fresh.
        self.fresh = True
        self.done = False
        self.failing = False
        self.chrono = 0
        self.answers: list[Term] = []
        # The hidden store and tables (module docstring); `call_goal` is
        # never overwritten, `running[v]` is (clause, rename instance, trail
        # mark just before the head was bound).
        self.subst: Subst = {}
        self.trail: list[Variable] = []
        # Expansion cache for instantiating goals; cleared wherever the store
        # changes (binds in `_bind`, the undo in `_prune_after`).
        self._inst_memo: dict[Variable, Term] = {}
        self.rename_counter = 0
        self.call_goal: dict[int, Term] = {ROOT: goal}
        self.running: dict[int, tuple[Clause, int, int]] = {}
        # `_scan[v]`: [v's index bucket (shared, never copied), position of
        # its first candidate not yet tried, next matching clause or None].
        self._scan: dict[int, list] = {}
        # Creation-ordered live nodes that may have untried clauses (a
        # subsequence of `order`); `has_choice_point` drops those with none.
        self._cp_order: list[int] = []
        # The last successful trial: (node, instance number, its bindings).
        self._found: Optional[tuple[int, int, Subst]] = None
        self._fill_box(ROOT, goal)

    def _fill_box(self, v: int, goal: Term) -> None:
        """Give box v its candidate clauses and bind the first whose head,
        read as renamed, unifies with its instantiated goal.

        Candidates come from first-argument indexing (the abstract machine's
        `switch_on_term`): a bound first argument selects the clauses whose
        first head argument has its principal functor, merged with those
        whose first head argument is a variable; an unbound first argument,
        or a goal of arity 0, takes every clause of the predicate.  Each
        candidate is tried at most once, so the untried clauses equal a filter
        over the whole program: until one binds for real (`_bind`, as v's
        Call, the next step, would), and after that, only when a guard asks,
        by `has_choice_point`'s trial `unify` of the head under the instance
        number the next `_bind` would use.
        """
        candidates, by_first, var_first = self._predicates.get(functor_key(goal), ((), {}, ()))
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
        for position, (_, clause) in enumerate(candidates, 1):
            if self._bind(v, clause):
                self._scan[v] = [candidates, position, clause]
                self._cp_order.append(v)
                return
        self._scan[v] = [candidates, len(candidates), None]

    def _bind(self, v: int, clause: Clause, found: Optional[tuple] = None) -> bool:
        """Bind clause's head, renamed with the next instance number, to v's
        call predication and make it v's running clause; a clash changes
        nothing.  `found` is a guard's successful trial (`_found`): if it
        ran for v and for this instance number, its bindings are installed
        as they are, in the order the trial made them."""
        instance, mark = self.rename_counter + 1, len(self.trail)
        if found is not None and found[0] == v and found[1] == instance:
            self.subst.update(found[2])
            self.trail.extend(found[2])
        elif not unify_into(self.call_goal[v], clause.head, self.subst, self.trail, instance):
            return False
        self.rename_counter = instance
        self.running[v] = (clause, instance, mark)
        self._inst_memo.clear()
        return True

    # -- predicates over the current state ---------------------------------

    def has_next_body_goal(self, v: int) -> bool:
        """True iff v's goal is not the last one in its parent's running
        clause body, i.e. solving v must spawn a sibling."""
        if v == ROOT:
            return False
        return self.index[v] < len(self.running[self.parent[v]][0].body)

    def has_choice_point(self, v: int) -> bool:
        """True iff v's subtree holds a node with untried clauses; v must be
        the current node or the root.  The current node's subtree holds the
        greatest live node and creation order is Dewey order, so the live
        nodes numbered v or more are exactly v's subtree.  The newest
        `_cp_order` entry is resolved on demand: its later candidates are
        trial-unified until one matches, and an entry with none is dropped.
        A trial reads the head under the next instance number, as `_bind`
        would, so it shares no variable with any live goal.  It unifies
        against an empty store: the box's call goal was instantiated when
        the box was made, and the Redo that takes the clause first undoes
        every binding made since.  So the trial's bindings are the ones that
        Redo would make; the last successful trial keeps them in `_found`
        with its node and instance number, and the Redo installs them."""
        cp_order = self._cp_order
        while cp_order and cp_order[-1] >= v:
            w = cp_order[-1]
            scan = self._scan[w]
            if scan[2] is not None:
                return True
            candidates, goal = scan[0], self.call_goal[w]
            instance = self.rename_counter + 1
            for position in range(scan[1], len(candidates)):
                clause = candidates[position][1]
                bindings = unify(goal, clause.head, {}, instance)
                if bindings is not None:
                    scan[1], scan[2] = position + 1, clause
                    self._found = (w, instance, bindings)
                    return True
            scan[1] = len(candidates)
            cp_order.pop()
        return False

    def greatest_choice_point(self, v: int) -> int:
        if not self.has_choice_point(v):
            raise EngineError(f"no choice point below node {v}")
        return self._cp_order[-1]

    # -- rule selection -----------------------------------------------------

    def select_rule(self) -> Optional[RuleId]:
        """The unique applicable rule, or None at a terminal state.

        Evaluates all seven guards and raises DeterminismError if more than
        one holds; the exclusivity claim is checked on every step.
        """
        u = self.current
        fresh = self.fresh
        leaf = self.child_count[u] == 0
        done, failing = self.done, self.failing
        # A box binds its first matching clause when filled, so it has a
        # clause at all iff it bound one (`running`), and a fresh box's Call
        # takes that one.  A called leaf solved its call iff it bound; a
        # non-leaf is only current under not-failing right after its last
        # child exited, which makes its subtree a finished proof.  A leaf
        # that never bound is the box nothing can serve: the failure origin.
        consumed = u in self.running
        untried = fresh and consumed
        fact_next = untried and not self.running[u][0].body
        failed_leaf = leaf and not consumed
        # Only there can Fail2 or a Redo guard hold.
        hcp = not fresh and (failing or done or failed_leaf) and self.has_choice_point(u)

        applicable = []
        # The empty-clause alternative on Call1 is the degenerate call of a
        # box no clause can serve; it is immediately followed by Fail2.
        if fresh and leaf and not done and (fact_next or not untried):
            applicable.append(RuleId.CALL1)
        if fresh and leaf and not done and untried and not fact_next:
            applicable.append(RuleId.CALL2)
        if not fresh and not done and not failing and (consumed if leaf else True):
            if self.has_next_body_goal(u):
                applicable.append(RuleId.EXIT2)
            else:
                applicable.append(RuleId.EXIT1)
        if not fresh and not done and not hcp and (failed_leaf or failing):
            applicable.append(RuleId.FAIL2)
        if not fresh and hcp and (failing or done):
            if not self._scan[self._cp_order[-1]][2].body:
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
        """Take v's next clause, found when v was filled (its Call) or by
        the guard of a Redo, and return it."""
        scan = self._scan[v]
        clause = scan[2]
        if clause is None:
            raise EngineError(f"no clause left to consume at node {v}")
        scan[2] = None
        if scan[1] == len(scan[0]):
            # Consumption happens at the newest box or at the greatest
            # choice point, both of which sit at the end of the order.
            if not self._cp_order or self._cp_order[-1] != v:
                raise EngineError(f"node {v} emptied but is not the last choice point")
            self._cp_order.pop()
        return clause

    def _create_child(self, parent: int) -> tuple[tuple[int, int, int], Term]:
        """Make the next child box of `parent` and make it current: number
        it, call the matching body goal under the current bindings, and fill
        it with the clauses that can serve the call.  Returns (node, parent,
        index) and the goal."""
        clause, instance, _ = self.running[parent]
        body_goal = clause.body[self.child_count[parent]]
        goal = rename_term(body_goal, instance, self.subst, self._inst_memo)
        self.last_number += 1
        v = self.last_number
        created = self.add_child(v, parent, goal)
        self.call_goal[v] = goal
        self._fill_box(v, goal)
        self.current = v
        self.fresh = True
        return created, goal

    def _prune_after(self, v: int) -> tuple[int, ...]:
        """Discard every node after v, the greatest choice point, in Dewey
        order with its hidden bookkeeping (no discarded node is in
        `_cp_order`), and undo the bindings made since v last consumed a
        clause.  v's call-time predication stays in `call_goal`."""
        removed = self.prune_after(v)
        for y in removed:
            del self._scan[y]
            del self.call_goal[y]
            self.running.pop(y, None)
        mark = self.running[v][2]
        self._inst_memo.clear()
        for var in self.trail[mark:]:
            del self.subst[var]
        del self.trail[mark:]
        return removed

    def apply_rule(self, rule: RuleId) -> StepDelta:
        """Apply `rule` (which select_rule just returned) and report what
        changed in the visible tree-shaped state: one switch over the port
        pairs, as replay's `Rebuilder._finish_one` decides an event."""
        u = self.current
        self.chrono += 1
        removed: tuple[int, ...] = ()
        created = created_goal = updated_goal = None
        if rule is RuleId.CALL1 or rule is RuleId.CALL2:
            # The clause was bound when u was filled; Call1 on a box no
            # clause can serve consumes nothing.
            if u in self.running:
                self._consume_clause(u)
            self.fresh = self.failing = False
            if rule is RuleId.CALL2:
                created, created_goal = self._create_child(u)
        elif rule is RuleId.EXIT1 or rule is RuleId.EXIT2:
            solved = instantiate(self.call_goal[u], self.subst, self._inst_memo)
            self.goals[u] = solved
            updated_goal = (u, solved)
            if rule is RuleId.EXIT1:
                self.current = self.parent[u]
                if u == ROOT:
                    self.done = True
                    self.answers.append(solved)
            else:
                created, created_goal = self._create_child(self.parent[u])
                if created[2] != self.index[u] + 1:
                    raise EngineError(f"sibling mismatch: {created!r} after node {u}")
        elif rule is RuleId.FAIL2:
            self.current = self.parent[u]
            if u == ROOT:
                self.done = True
            self.failing = True
        elif rule in REDO_RULES:
            # Back to the greatest choice point, which select_rule found.
            v = self._cp_order[-1]
            removed = self._prune_after(v)
            # The guard's trial found the clause and its bindings.  A trial
            # forced out of turn can be stale; then the head is unified again.
            if not self._bind(v, self._consume_clause(v), self._found):
                raise EngineError(f"head of a filtered clause failed to unify at node {v}")
            self.current = v
            self.done = self.failing = False
            if rule is RuleId.REDO2:
                created, created_goal = self._create_child(v)
        else:
            raise EngineError(f"unknown rule {rule!r}")
        return tuple.__new__(StepDelta, (self.current, removed, created, created_goal, updated_goal))

    def step(self) -> Optional[tuple[RuleId, StepDelta]]:
        rule = self.select_rule()
        if rule is None:
            return None
        return rule, self.apply_rule(rule)
