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

Replay state is the engine's own tree class, `RestrictedState`: per node its
place in the tree (parent, child index) and predication, plus the current
node.  Only the tree operations are shared (`add_child`, `prune_after`);
which node a Redo prunes after, which number, parent and goal a new box
gets, and which rule applied are decided here from the events alone.
Rebuilt states match the engine's state restricted to exactly those
parameters, step by step (`states_match`; the property the harness checks).
"""

from __future__ import annotations

from typing import Optional

from .engine import ROOT, RestrictedState, RuleId, StepDelta
from .terms import Term, alpha_equal
from .trace import Port, TraceEvent


class CorruptTraceError(Exception):
    def __init__(self, message: str, chrono: int):
        super().__init__(f"{message} (chrono {chrono})")
        self.chrono = chrono


class TraceTruncatedError(CorruptTraceError):
    """The stream stopped where a completed run could not have."""


def states_match(a: RestrictedState, b: RestrictedState) -> bool:
    """Equality of two box trees on {tree, current, numbers, predications},
    predications compared up to renaming."""
    if (
        a.current != b.current
        or a.parent != b.parent
        or a.index != b.index
        or a.goals.keys() != b.goals.keys()
    ):
        return False
    return all(alpha_equal(a.goals[k], b.goals[k]) for k in a.goals)


def _classify(
    event: TraceEvent,
    lookahead: Optional[TraceEvent],
    current: int,
    redo_target_known: bool,
) -> RuleId:
    """Which rule produced `event`, given the next event as lookahead.

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
    the last event once the stream ends.  `state` is the live accumulator,
    of the engine's own tree class; copy() it to keep a snapshot.  After
    finish(), `truncated` tells whether the stream stopped where a completed
    run could not have, and status() how the run ended.  The depth
    attribute plays no part in replay: `depth_mismatches` collects (chrono,
    expected, actual) for every event whose depth disagrees with the
    replayed tree.
    """

    def __init__(self, goal: Term):
        self.state = RestrictedState(goal)
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
        return self._finish_one(prev, event)

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
        self, event: TraceEvent, lookahead: Optional[TraceEvent]
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
        depth = self.state.depth[event.node]
        if event.depth != depth:
            self.depth_mismatches.append((event.chrono, depth, event.depth))
        delta = self._apply(rule, event, lookahead)
        self.last_event = event
        return rule, delta

    # -- state updates -------------------------------------------------------

    def _add_child(
        self, parent: int, lookahead: TraceEvent, chrono: int
    ) -> tuple[int, int, int]:
        """Create the lookahead's node as the next child of `parent` and make
        it current; returns the delta's (node, parent, index)."""
        st = self.state
        v = lookahead.node
        if v in st.goals:
            raise CorruptTraceError(f"creation number {v} assigned twice", chrono)
        if v < st.order[-1]:
            raise CorruptTraceError(
                f"creation number {v} is older than a live node", chrono
            )
        st.current = v
        return st.add_child(v, parent, lookahead.goal)

    def _apply(
        self, rule: RuleId, event: TraceEvent, lookahead: Optional[TraceEvent]
    ) -> StepDelta:
        st = self.state
        chrono = event.chrono
        if rule is RuleId.CALL1:
            return StepDelta(current=st.current)
        if rule is RuleId.CALL2:
            assert lookahead is not None
            created = self._add_child(st.current, lookahead, chrono)
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
            # The current node is the last child of its parent, so the new
            # sibling's index is u's plus one.
            created = self._add_child(st.parent[u], lookahead, chrono)
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
            removed = st.prune_after(event.node)
            st.current = event.node
            return StepDelta(current=st.current, removed=removed)
        if rule is RuleId.REDO2:
            assert lookahead is not None
            v = event.node
            removed = st.prune_after(v)
            created = self._add_child(v, lookahead, chrono)
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

