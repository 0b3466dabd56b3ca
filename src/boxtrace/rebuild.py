"""Trace replay: rebuild the proof-tree state from the event stream alone.

A reader of the trace can recover, per event, the Dewey tree, the current
node, the creation numbers, and the node predications — without seeing
clauses, bindings, or the engine at all.  Classification of which rule
produced an event needs one event of lookahead: the next event's node
number r' against the current one's r decides between the paired rules
(same node -> the fact variant, a fresh higher number -> the expanding
variant).  The depth attribute is never consulted for replay; it is
checked separately against the replayed tree (`Rebuilder.depth_mismatches`).

Replay state per node: tree membership, creation number, predication; plus
the current node.  Rebuilt states match the engine's visible state
restricted to exactly those parameters, step by step (the property the
harness checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .engine import (
    ROOT,
    Path,
    RuleId,
    StepDelta,
    child_of,
    parent_path,
)
from .terms import Term, alpha_equal
from .trace import Port, TraceEvent, node_depth


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
    tree: set[Path]
    current: Path
    numbers: dict[Path, int]
    goals: dict[Path, Term]

    @classmethod
    def initial(cls, goal: Term) -> "RestrictedState":
        return cls(tree={ROOT}, current=ROOT, numbers={ROOT: 1}, goals={ROOT: goal})

    def copy(self) -> "RestrictedState":
        return RestrictedState(
            set(self.tree), self.current, dict(self.numbers), dict(self.goals)
        )

    def matches(self, other: "RestrictedState") -> bool:
        """Structural equality, predications compared up to renaming."""
        if (
            self.tree != other.tree
            or self.current != other.current
            or self.numbers != other.numbers
            or self.goals.keys() != other.goals.keys()
        ):
            return False
        return all(alpha_equal(self.goals[k], other.goals[k]) for k in self.goals)


def _classify(
    event: TraceEvent,
    lookahead: Optional[Lookahead],
    current_is_root: bool,
    current_number: int,
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
    if port is not Port.REDO and event.node != current_number:
        raise CorruptTraceError(
            f"{port.value} event names node {event.node} but the current "
            f"node is numbered {current_number}",
            chrono,
        )
    if port is Port.CALL:
        if lookahead is None or lookahead.node == event.node:
            return RuleId.CALL1
        if lookahead.node > event.node:
            return RuleId.CALL2
        raise CorruptTraceError("Call followed by an older node", chrono)
    if port is Port.EXIT:
        if current_is_root:
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

    push() buffers the newest event and finishes the previous one, returning
    its (rule, delta); finish() flushes the last event once the stream ends.
    `state` is the live accumulator; copy() it to keep a snapshot.  After
    finish(), `truncated` tells whether the stream stopped where a completed
    run could not have, and status() how the run ended.  The depth
    attribute plays no part in replay: `depth_mismatches` collects
    (chrono, expected, actual) for every event whose depth disagrees with
    the replayed tree.
    """

    def __init__(self, initial: RestrictedState):
        self.state = initial.copy()
        self._by_number = {n: p for p, n in self.state.numbers.items()}
        # Creation order doubles as Dewey order for live nodes (creation
        # always happens past everything alive), so the mirror list below
        # appends on creation and drops a suffix on Redo.
        self._tree_order = sorted(
            (n, p) for p, n in self.state.numbers.items()
        )
        self._child_count: dict[Path, int] = {p: 0 for p in self.state.tree}
        self._parent_of: dict[Path, Path] = {}
        for p in sorted(self.state.tree, key=len):
            above = parent_path(p) if p else p
            self._parent_of[p] = above
            if p:
                self._child_count[above] = max(self._child_count[above], p[-1])
        self._pending: Optional[TraceEvent] = None
        self._expected_chrono = 1
        self.truncated = False
        self.last_event: Optional[TraceEvent] = None
        self.depth_mismatches: list[tuple[int, int, int]] = []

    # -- incremental API -----------------------------------------------------

    def push(self, event: TraceEvent) -> Optional[tuple[RuleId, StepDelta]]:
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
        # A completed run can only stop on an Exit or Fail at the root
        # (the root is always numbered 1).
        at_root = prev.node == 1
        if prev.port is Port.CALL or not at_root:
            self.truncated = True
        return out

    def _finish_one(
        self, event: TraceEvent, lookahead: Optional[Lookahead]
    ) -> tuple[RuleId, StepDelta]:
        rule = _classify(
            event,
            lookahead,
            current_is_root=self.state.current == ROOT,
            current_number=self.state.numbers[self.state.current],
            redo_target_known=event.port is not Port.REDO
            or event.node in self._by_number,
        )
        subject = (
            self._by_number[event.node]
            if event.port is Port.REDO
            else self.state.current
        )
        if event.depth != node_depth(subject):
            self.depth_mismatches.append(
                (event.chrono, node_depth(subject), event.depth)
            )
        delta = self._apply(rule, event, lookahead)
        self.last_event = event
        return rule, delta

    # -- state updates -------------------------------------------------------

    def _add_node(
        self, path: Path, number: int, goal: Term, chrono: int
    ) -> None:
        if number in self._by_number:
            raise CorruptTraceError(
                f"creation number {number} assigned twice", chrono
            )
        if self._tree_order and number < self._tree_order[-1][0]:
            raise CorruptTraceError(
                f"creation number {number} is older than a live node", chrono
            )
        st = self.state
        st.tree.add(path)
        self._tree_order.append((number, path))
        st.numbers[path] = number
        st.goals[path] = goal
        self._by_number[number] = path
        self._child_count[path] = 0
        # Callers create only non-root nodes and record their parent first.
        self._child_count[self._parent_of[path]] = path[-1]

    def _new_child(self, parent: Path) -> Path:
        child = child_of(parent, self._child_count[parent] + 1)
        self._parent_of[child] = parent
        return child

    def _prune_after(self, v: Path) -> tuple[Path, ...]:
        st = self.state
        keep = st.numbers[v]
        removed_list = []
        while self._tree_order and self._tree_order[-1][0] > keep:
            removed_list.append(self._tree_order.pop()[1])
        removed_list.reverse()
        removed = tuple(removed_list)
        removed_set = set(removed)
        for y in removed:
            p = self._parent_of[y]
            if p not in removed_set and self._child_count.get(p, 0) >= y[-1]:
                self._child_count[p] = y[-1] - 1
            st.tree.discard(y)
            del self._by_number[st.numbers.pop(y)]
            st.goals.pop(y, None)
            self._child_count.pop(y, None)
            self._parent_of.pop(y, None)
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
            child = self._new_child(st.current)
            self._add_node(child, lookahead.node, lookahead.goal, chrono)
            st.current = child
            return StepDelta(
                current=child,
                created=child,
                created_number=lookahead.node,
                created_goal=lookahead.goal,
            )
        if rule is RuleId.EXIT1:
            u = st.current
            st.goals[u] = event.goal
            st.current = self._parent_of.get(u, ROOT)
            return StepDelta(current=st.current, updated_goal=(u, event.goal))
        if rule is RuleId.EXIT2:
            assert lookahead is not None
            u = st.current
            if u == ROOT:
                raise CorruptTraceError("sibling creation at the root", chrono)
            st.goals[u] = event.goal
            parent = self._parent_of.get(u, ROOT)
            sibling = child_of(parent, u[-1] + 1)
            self._parent_of[sibling] = parent
            self._add_node(sibling, lookahead.node, lookahead.goal, chrono)
            st.current = sibling
            return StepDelta(
                current=sibling,
                created=sibling,
                created_number=lookahead.node,
                created_goal=lookahead.goal,
                updated_goal=(u, event.goal),
            )
        if rule is RuleId.FAIL2:
            st.current = self._parent_of.get(st.current, ROOT)
            return StepDelta(current=st.current)
        if rule is RuleId.REDO1:
            v = self._by_number[event.node]
            removed = self._prune_after(v)
            st.current = v
            return StepDelta(current=v, removed=removed)
        if rule is RuleId.REDO2:
            assert lookahead is not None
            v = self._by_number[event.node]
            removed = self._prune_after(v)
            child = self._new_child(v)
            self._add_node(child, lookahead.node, lookahead.goal, chrono)
            st.current = child
            return StepDelta(
                current=child,
                removed=removed,
                created=child,
                created_number=lookahead.node,
                created_goal=lookahead.goal,
            )
        raise CorruptTraceError(f"unhandled rule {rule!r}", chrono)

    # -- derived status ------------------------------------------------------

    def status(self) -> str:
        """'success' or 'failure' when the replayed run plainly finished at
        the root, else 'unknown'."""
        e = self.last_event
        if e is not None and not self.truncated and e.node == 1:
            if e.port is Port.EXIT:
                return "success"
            if e.port is Port.FAIL:
                return "failure"
        return "unknown"


def initial_state_for(events: Iterable[TraceEvent]) -> RestrictedState:
    """The replay start state implied by a stream's first event."""
    events = list(events)
    if not events:
        raise CorruptTraceError("empty trace", 0)
    first = events[0]
    if first.chrono != 1 or first.port is not Port.CALL:
        raise CorruptTraceError("trace must begin with a Call at chrono 1", first.chrono)
    return RestrictedState.initial(first.goal)
