"""Trace replay: rebuild the proof-tree state from the event stream alone.

A reader of the trace can recover, per event, the Dewey tree, the current
node, the creation numbers, and the node predications — without seeing
clauses, bindings, or the engine at all.  Nodes are named by their creation
numbers, the trace's `node` attribute.  Replay decides and applies each
event in one switch on its port (`Rebuilder._finish_one`).  Each port has
two rules, and one event of lookahead picks between them: a fresh, higher
node number r' in the next event means the rule that creates box r'
(Call2, Exit2, Redo2); the event's own number means the fact variant that
stays on the node (Call1, Redo1), and for an Exit a lower one means going
up (Exit1).  A Fail is always Fail2.  The depth attribute is never
consulted for replay; it is checked separately against the replayed tree
(`Rebuilder.depth_mismatches`).

Replay state is the engine's own tree class, `RestrictedState`.  Only the
tree operations are shared (`add_child`, `prune_after`); which node a Redo
prunes after, which number, parent and goal a new box gets, and which rule
applied are decided here from the events alone.  Rebuilt states match the
engine's state restricted to exactly those parameters, step by step
(`states_match`; the property the harness checks).
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


class Rebuilder:
    """Streaming fold over an event stream with one-event lookahead.

    Replay starts from the root box holding `goal`, and the stream must
    begin with a Call at chrono 1.  push() buffers the newest event and
    finishes the previous one, returning its (rule, delta); finish() flushes
    the last event once the stream ends.  Finishing an event is one switch
    on its port that rejects a corrupt event, picks the port's rule from the
    next event's node number and applies that rule's visible effect.
    `state` is the live accumulator, of the engine's own tree class; copy()
    it to keep a snapshot.  After finish(), `truncated` tells whether the
    stream stopped where a completed run could not have, and status() how
    the run ended.  The depth attribute plays no part in replay:
    `depth_mismatches` collects (chrono, expected, actual) for every event
    whose depth disagrees with the replayed tree.
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
        self, event: TraceEvent, nxt: Optional[TraceEvent]
    ) -> tuple[RuleId, StepDelta]:
        """Classify and apply one event, given the next one (None at stream
        end).  At stream end an Exit at the root and any Fail close a run
        legally; a final Call or below-root Exit can only come from a cut-off
        stream and classifies best-effort; a final Redo is rejected, since a
        completed run never stops on one."""
        st = self.state
        chrono, port, v = event.chrono, event.port, event.node
        # The subject is live: the current node, or the choice point a Redo
        # jumps back to.
        if port is Port.REDO:
            if v not in st.goals:
                raise CorruptTraceError(f"Redo names unknown node {v}", chrono)
        elif v != st.current:
            raise CorruptTraceError(
                f"{port.value} event names node {v} but the current "
                f"node is numbered {st.current}",
                chrono,
            )
        depth = st.depth[v]
        if event.depth != depth:
            self.depth_mismatches.append((chrono, depth, event.depth))

        removed: tuple[int, ...] = ()
        created = updated_goal = None
        if port is Port.CALL:
            if nxt is not None and nxt.node < v:
                raise CorruptTraceError("Call followed by an older node", chrono)
            if nxt is None or nxt.node == v:
                rule = RuleId.CALL1
            else:
                rule, created = RuleId.CALL2, self._add_child(v, nxt, chrono)
        elif port is Port.EXIT:
            # Every Exit at the root goes up: the next event may be a Redo
            # anywhere below it.
            if v != ROOT and nxt is not None and nxt.node == v:
                raise CorruptTraceError("Exit below the root repeats its node number", chrono)
            st.goals[v] = event.goal
            updated_goal = (v, event.goal)
            if v == ROOT or nxt is None or nxt.node < v:
                rule = RuleId.EXIT1
                st.current = st.parent[v]
            else:
                # v is the last child of its parent: the new sibling follows it.
                rule, created = RuleId.EXIT2, self._add_child(st.parent[v], nxt, chrono)
        elif port is Port.FAIL:
            rule = RuleId.FAIL2
            st.current = st.parent[v]
        else:  # Redo: back to the choice point v, dropping every node after it.
            if nxt is None:
                raise TraceTruncatedError("stream ends on a Redo event", chrono)
            if nxt.node < v:
                raise CorruptTraceError("Redo followed by an older node", chrono)
            removed = st.prune_after(v)
            if nxt.node == v:
                rule = RuleId.REDO1
                st.current = v
            else:
                rule, created = RuleId.REDO2, self._add_child(v, nxt, chrono)
        self.last_event = event
        created_goal = None if created is None else nxt.goal
        return rule, StepDelta(st.current, removed, created, created_goal, updated_goal)

    def _add_child(self, parent: int, nxt: TraceEvent, chrono: int) -> tuple[int, int, int]:
        """Create the next event's node as the next child of `parent` and make
        it current; returns the delta's (node, parent, index)."""
        st = self.state
        v = nxt.node
        if v in st.goals:
            raise CorruptTraceError(f"creation number {v} assigned twice", chrono)
        if v < st.order[-1]:
            raise CorruptTraceError(f"creation number {v} is older than a live node", chrono)
        st.current = v
        return st.add_child(v, parent, nxt.goal)

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

