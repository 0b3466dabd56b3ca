"""Trace replay: rebuild the proof-tree state from the event stream alone.

A reader of the trace can recover, per event, the Dewey tree, the current
node, the creation numbers, and the node predications — without seeing
clauses, bindings, or the engine at all.  Nodes are named by their creation
numbers, the trace's `node` attribute; each node's parent and index among
its parent's children place it in the tree.  Classification of which rule
produced an event needs one event of lookahead: the next event's node
number r' against the current one's r decides between the paired rules
(same node -> the fact variant, a fresh higher number -> the expanding
variant).  The depth attribute is never consulted for replay; it is
checked separately against the replayed tree (`Rebuilder.depth_mismatches`).

Replay state per node: place in the tree (parent, child index) and
predication; plus the current node.  Rebuilt states match the engine's
visible state restricted to exactly those parameters, step by step (the
property the harness checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import ROOT, RuleId, StepDelta
from .terms import Term, alpha_equal
from .trace import Port, TraceEvent


class CorruptTraceError(Exception):
    def __init__(self, message: str, chrono: int):
        super().__init__(f"{message} (chrono {chrono})")
        self.chrono = chrono


class TraceTruncatedError(CorruptTraceError):
    """The stream stopped where a completed run could not have."""


@dataclass(frozen=True)
class Lookahead:
    """Node number and goal of the next event; absent only at stream end."""

    node: int
    goal: Term


@dataclass
class RestrictedState:
    """The engine's visible state restricted to what replay recovers.

    The live nodes are the keys of `goals`, named by creation number;
    `parent` and `index` place each in the tree (the root is its own parent,
    at index 0), which together with the numbers encodes the Dewey tree
    one to one (`engine.path_of` spells a node's path out).
    """

    current: int
    goals: dict[int, Term]
    parent: dict[int, int]
    index: dict[int, int]

    @classmethod
    def initial(cls, goal: Term) -> "RestrictedState":
        return cls(ROOT, {ROOT: goal}, {ROOT: ROOT}, {ROOT: 0})

    def copy(self) -> "RestrictedState":
        return RestrictedState(
            self.current, dict(self.goals), dict(self.parent), dict(self.index)
        )

    def matches(self, other: "RestrictedState") -> bool:
        """Structural equality, predications compared up to renaming."""
        if (
            self.current != other.current
            or self.parent != other.parent
            or self.index != other.index
            or self.goals.keys() != other.goals.keys()
        ):
            return False
        return all(alpha_equal(self.goals[k], other.goals[k]) for k in self.goals)


def _classify(
    event: TraceEvent,
    lookahead: Optional[Lookahead],
    current: int,
    redo_target_known: bool,
) -> RuleId:
    """Which rule produced `event`, given one event of lookahead.

    At stream end: an Exit at the root and any Fail close a run legally; a
    final Call or below-root Exit can only come from a cut-off stream and
    classifies best-effort; a final Redo is rejected (a completed run never
    stops on one).
    """
    chrono = event.chrono
    port = event.port
    if port is not Port.REDO and event.node != current:
        raise CorruptTraceError(
            f"{port.value} event names node {event.node} but the current "
            f"node is numbered {current}",
            chrono,
        )
    if port is Port.CALL:
        if lookahead is None or lookahead.node == event.node:
            return RuleId.CALL1
        if lookahead.node > event.node:
            return RuleId.CALL2
        raise CorruptTraceError("Call followed by an older node", chrono)
    if port is Port.EXIT:
        if current == ROOT:
            return RuleId.EXIT1
        if lookahead is None or lookahead.node < event.node:
            return RuleId.EXIT1
        if lookahead.node > event.node:
            return RuleId.EXIT2
        raise CorruptTraceError("Exit below the root repeats its node number", chrono)
    if port is Port.FAIL:
        return RuleId.FAIL2
    # Redo
    if not redo_target_known:
        raise CorruptTraceError(f"Redo names unknown node {event.node}", chrono)
    if lookahead is None:
        raise TraceTruncatedError("stream ends on a Redo event", chrono)
    if lookahead.node == event.node:
        return RuleId.REDO1
    if lookahead.node > event.node:
        return RuleId.REDO2
    raise CorruptTraceError("Redo followed by an older node", chrono)


class Rebuilder:
    """Streaming fold over an event stream with one-event lookahead.

    Replay starts from the root box holding `goal`, and the stream must
    begin with a Call at chrono 1.  push() buffers the newest event and
    finishes the previous one, returning its (rule, delta); finish() flushes
    the last event once the stream ends.  `state` is the live accumulator;
    copy() it to keep a snapshot.  After finish(), `truncated` tells whether
    the stream stopped where a completed run could not have, and status()
    how the run ended.  The depth attribute plays no part in replay:
    `depth_mismatches` collects (chrono, expected, actual) for every event
    whose depth disagrees with the replayed tree.
    """

    def __init__(self, goal: Term):
        self.state = RestrictedState.initial(goal)
        # Creation order doubles as Dewey order for live nodes (creation
        # always happens past everything alive), so this list appends on
        # creation and drops a suffix on Redo.
        self._tree_order: list[int] = [ROOT]
        self._child_count: dict[int, int] = {ROOT: 0}
        self._depth: dict[int, int] = {ROOT: 1}
        self._pending: Optional[TraceEvent] = None
        self._expected_chrono = 1
        self.truncated = False
        self.last_event: Optional[TraceEvent] = None
        self.depth_mismatches: list[tuple[int, int, int]] = []

    # -- incremental API -----------------------------------------------------

    def push(self, event: TraceEvent) -> Optional[tuple[RuleId, StepDelta]]:
        if self._expected_chrono == 1 and (
            event.chrono != 1 or event.port is not Port.CALL
        ):
            raise CorruptTraceError(
                "trace must begin with a Call at chrono 1", event.chrono
            )
        if event.chrono != self._expected_chrono:
            raise CorruptTraceError(
                f"chrono {event.chrono} out of order (expected "
                f"{self._expected_chrono})",
                event.chrono,
            )
        self._expected_chrono += 1
        prev, self._pending = self._pending, event
        if prev is None:
            return None
        return self._finish_one(prev, Lookahead(event.node, event.goal))

    def finish(self) -> Optional[tuple[RuleId, StepDelta]]:
        prev, self._pending = self._pending, None
        if prev is None:
            return None
        out = self._finish_one(prev, None)
        # A completed run can only stop on an Exit or Fail at the root.
        if prev.port is Port.CALL or prev.node != ROOT:
            self.truncated = True
        return out

    def _finish_one(
        self, event: TraceEvent, lookahead: Optional[Lookahead]
    ) -> tuple[RuleId, StepDelta]:
        rule = _classify(
            event,
            lookahead,
            current=self.state.current,
            redo_target_known=event.port is not Port.REDO
            or event.node in self.state.goals,
        )
        # Classification has checked that event.node is live: the current
        # node, or the Redo's choice point.
        depth = self._depth[event.node]
        if event.depth != depth:
            self.depth_mismatches.append((event.chrono, depth, event.depth))
        delta = self._apply(rule, event, lookahead)
        self.last_event = event
        return rule, delta

    # -- state updates -------------------------------------------------------

    def _add_node(
        self, v: int, parent: int, index: int, goal: Term, chrono: int
    ) -> tuple[int, int, int]:
        """Create node v as child `index` of `parent`; returns the delta's
        (node, parent, index)."""
        if v in self.state.goals:
            raise CorruptTraceError(f"creation number {v} assigned twice", chrono)
        if v < self._tree_order[-1]:
            raise CorruptTraceError(
                f"creation number {v} is older than a live node", chrono
            )
        st = self.state
        self._tree_order.append(v)
        st.goals[v] = goal
        st.parent[v] = parent
        st.index[v] = index
        self._depth[v] = self._depth[parent] + 1
        self._child_count[v] = 0
        self._child_count[parent] = index
        st.current = v
        return v, parent, index

    def _prune_after(self, v: int) -> tuple[int, ...]:
        st = self.state
        removed_list = []
        while self._tree_order[-1] > v:
            removed_list.append(self._tree_order.pop())
        removed_list.reverse()
        removed = tuple(removed_list)
        for y in removed:
            # A surviving parent (numbered at most v) keeps the children
            # before its first removed one.
            p = st.parent[y]
            if p <= v and self._child_count[p] >= st.index[y]:
                self._child_count[p] = st.index[y] - 1
            del st.goals[y]
            del st.parent[y]
            del st.index[y]
            del self._depth[y]
            del self._child_count[y]
        return removed

    def _apply(
        self, rule: RuleId, event: TraceEvent, lookahead: Optional[Lookahead]
    ) -> StepDelta:
        st = self.state
        chrono = event.chrono
        if rule is RuleId.CALL1:
            return StepDelta(current=st.current)
        if rule is RuleId.CALL2:
            assert lookahead is not None
            u = st.current
            created = self._add_node(
                lookahead.node, u, self._child_count[u] + 1, lookahead.goal, chrono
            )
            return StepDelta(
                current=st.current, created=created, created_goal=lookahead.goal
            )
        if rule is RuleId.EXIT1:
            u = st.current
            st.goals[u] = event.goal
            st.current = st.parent[u]
            return StepDelta(current=st.current, updated_goal=(u, event.goal))
        if rule is RuleId.EXIT2:
            assert lookahead is not None
            u = st.current
            if u == ROOT:
                raise CorruptTraceError("sibling creation at the root", chrono)
            st.goals[u] = event.goal
            created = self._add_node(
                lookahead.node, st.parent[u], st.index[u] + 1, lookahead.goal, chrono
            )
            return StepDelta(
                current=st.current,
                created=created,
                created_goal=lookahead.goal,
                updated_goal=(u, event.goal),
            )
        if rule is RuleId.FAIL2:
            st.current = st.parent[st.current]
            return StepDelta(current=st.current)
        if rule is RuleId.REDO1:
            removed = self._prune_after(event.node)
            st.current = event.node
            return StepDelta(current=st.current, removed=removed)
        if rule is RuleId.REDO2:
            assert lookahead is not None
            v = event.node
            removed = self._prune_after(v)
            created = self._add_node(
                lookahead.node, v, self._child_count[v] + 1, lookahead.goal, chrono
            )
            return StepDelta(
                current=st.current,
                removed=removed,
                created=created,
                created_goal=lookahead.goal,
            )
        raise CorruptTraceError(f"unhandled rule {rule!r}", chrono)

    # -- derived status ------------------------------------------------------

    def status(self) -> str:
        """'success' or 'failure' when the replayed run plainly finished at
        the root, else 'unknown'."""
        e = self.last_event
        if e is not None and not self.truncated and e.node == ROOT:
            if e.port is Port.EXIT:
                return "success"
            if e.port is Port.FAIL:
                return "failure"
        return "unknown"

