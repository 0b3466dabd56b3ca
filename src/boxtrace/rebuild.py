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
    """The stream ends on a Redo the port order allows: a prefix of a longer
    run, whose last event's rule only the next event would decide."""


# Bound once: reading a member through its enum class costs 0.16 us on
# CPython 3.10 and 3.11, so no function in the package reads one that way
# (engine.py and trace.py bind theirs too; a test in test_engine.py checks).
_CALL, _EXIT, _FAIL, _REDO = Port.CALL, Port.EXIT, Port.FAIL, Port.REDO
_CALL1, _CALL2, _EXIT1, _EXIT2 = RuleId.CALL1, RuleId.CALL2, RuleId.EXIT1, RuleId.EXIT2
_FAIL2, _REDO1, _REDO2 = RuleId.FAIL2, RuleId.REDO1, RuleId.REDO2
_new = tuple.__new__  # a NamedTuple built in C, without its Python-level __new__

# The box model's port order, as the ports the next event may have after
# each kind of event, with the reason a message gives: the box the previous
# event created (the root before any event: the engine's one first-visit
# bit) is called next and no other box is; after a Fail comes a Fail or a
# Redo; nothing comes after a Fail at the root, and only a Redo after an
# Exit there.
_NEW_BOX = ((_CALL,), "before the Call of the box the previous event created")
_NO_NEW_BOX = ((_EXIT, _FAIL, _REDO), "where the previous event created no box")
_AFTER_FAIL = ((_FAIL, _REDO), "after a Fail")
_AFTER_ROOT_FAIL = ((), "after a Fail at the root")
_AFTER_ROOT_EXIT = ((_REDO,), "after an Exit at the root")
# The ports whose event carries the predication its box already holds (an
# Exit carries the solved one).
_HOLDS_BOX_GOAL = (_CALL, _FAIL, _REDO)


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
    finishes the previous one (`_finish_one`), returning its (rule, delta);
    finish() flushes the last event once the stream ends.  `state` is the
    live accumulator; copy() it to keep a snapshot.  After finish(),
    `truncated` tells whether the stream stopped where a completed run could
    not have, and status() how the run ended; a stream that ends on a Redo
    makes finish() raise TraceTruncatedError with `truncated` set and the
    tree as before the Redo.  `depth_mismatches` counts the events whose
    depth disagrees with the replayed tree; `first_depth_mismatch` is the
    first one's (chrono, expected, actual).
    """

    def __init__(self, goal: Term):
        self.state = RestrictedState(goal)
        self._pending: Optional[TraceEvent] = None
        self._expected_chrono = 1
        self.truncated = False
        # The ports the next event may have, and why: at first, the root's Call.
        self._next_ports = _NEW_BOX
        # The greatest creation number seen: no run reuses one a Redo freed.
        self._last_number = ROOT
        self.depth_mismatches = 0
        self.first_depth_mismatch: Optional[tuple[int, int, int]] = None

    # -- incremental API -----------------------------------------------------

    def push(self, event: TraceEvent) -> Optional[tuple[RuleId, StepDelta]]:
        chrono = event.chrono
        expected = self._expected_chrono
        if expected == 1 and (chrono != 1 or event.port is not _CALL):
            raise CorruptTraceError("trace must begin with a Call at chrono 1", chrono)
        if chrono != expected:
            raise CorruptTraceError(
                f"chrono {chrono} out of order (expected {expected})", chrono
            )
        self._expected_chrono = expected + 1
        prev, self._pending = self._pending, event
        if prev is None:
            return None
        return self._finish_one(prev, event)

    @property
    def pushed(self) -> int:
        """The number of events pushed so far."""
        return self._expected_chrono - 1

    def finish(self) -> Optional[tuple[RuleId, StepDelta]]:
        prev, self._pending = self._pending, None
        if prev is None:
            return None
        # A completed run can only stop on an Exit or Fail at the root.
        self.truncated = prev.node != ROOT or prev.port in (_CALL, _REDO)
        return self._finish_one(prev, None)

    def _finish_one(self, event: TraceEvent, nxt: Optional[TraceEvent]) -> tuple[RuleId, StepDelta]:
        """Classify and apply one event, given the next one (None at stream
        end), then check its port against the order the box model allows.
        At stream end an Exit at the root and any Fail close a run legally; a
        final Call or below-root Exit can only come from a cut-off stream and
        classifies best-effort; a final Redo raises TraceTruncatedError, as
        only the next event decides its rule.  A Call, Fail or Redo whose
        goal differs from its box's up to renaming is rejected; the trace
        reader hands a held goal text back as the same term, so the identity
        test almost always decides."""
        st = self.state
        chrono, v, event_depth, port, event_goal = event
        if nxt is not None:
            _, new, _, _, new_goal = nxt
        # The subject is live: the current node, or the choice point a Redo
        # jumps back to.
        if port is _REDO:
            if v not in st.goals:
                raise CorruptTraceError(f"Redo names unknown node {v}", chrono)
        elif v != st.current:
            raise CorruptTraceError(
                f"{port.value} event names node {v} but the current "
                f"node is numbered {st.current}",
                chrono,
            )
        if port in _HOLDS_BOX_GOAL:
            goal = st.goals[v]
            if not alpha_equal(event_goal, goal):
                raise CorruptTraceError(
                    f"{port.value} event's goal differs from its box's", chrono
                )
        depth = st.depth[v]
        if event_depth != depth:
            if not self.depth_mismatches:
                self.first_depth_mismatch = (chrono, depth, event_depth)
            self.depth_mismatches += 1

        removed: tuple[int, ...] = ()
        created = created_goal = updated_goal = None
        follows = _NO_NEW_BOX
        if port is _CALL:
            if nxt is not None and new < v:
                raise CorruptTraceError("Call followed by an older node", chrono)
            if nxt is None or new == v:
                rule = _CALL1
            else:
                rule, created = _CALL2, self._add_child(v, new, new_goal, chrono)
        elif port is _EXIT:
            # Every Exit at the root goes up: the next event may be a Redo
            # anywhere below it.
            if v != ROOT and nxt is not None and new == v:
                raise CorruptTraceError("Exit below the root repeats its node number", chrono)
            st.goals[v] = event_goal
            updated_goal = (v, event_goal)
            if v == ROOT or nxt is None or new < v:
                rule = _EXIT1
                st.current = st.parent[v]
                if v == ROOT:
                    follows = _AFTER_ROOT_EXIT
            else:
                # v is the last child of its parent: the new sibling follows it.
                rule, created = _EXIT2, self._add_child(st.parent[v], new, new_goal, chrono)
        elif port is _FAIL:
            rule = _FAIL2
            st.current = st.parent[v]
            follows = _AFTER_ROOT_FAIL if v == ROOT else _AFTER_FAIL
        elif nxt is None:  # a final Redo: its rule needs the next event
            rule = None
        else:  # Redo: back to the choice point v, dropping every node after it.
            if new < v:
                raise CorruptTraceError("Redo followed by an older node", chrono)
            removed = st.prune_after(v)
            if new == v:
                rule = _REDO1
                st.current = v
            else:
                rule, created = _REDO2, self._add_child(v, new, new_goal, chrono)
        ports, reason = self._next_ports
        if port not in ports:
            raise CorruptTraceError(f"{port.value} event {reason}", chrono)
        if rule is None:
            raise TraceTruncatedError("stream ends on a Redo event", chrono)
        if created is None:
            self._next_ports = follows
        else:
            self._next_ports = _NEW_BOX
            created_goal = new_goal
        return rule, _new(StepDelta, (st.current, removed, created, created_goal, updated_goal))

    def _add_child(self, parent: int, v: int, goal: Term, chrono: int) -> tuple[int, int, int]:
        """Create node `v` holding `goal` as the next child of `parent` and
        make it current; returns the delta's (node, parent, index)."""
        st = self.state
        if v in st.goals:
            raise CorruptTraceError(f"creation number {v} assigned twice", chrono)
        if v < st.order[-1]:
            raise CorruptTraceError(f"creation number {v} is older than a live node", chrono)
        if v <= self._last_number:
            raise CorruptTraceError(f"creation number {v} was used before", chrono)
        self._last_number = v
        st.current = v
        return st.add_child(v, parent, goal)

    # -- derived status ------------------------------------------------------

    def status(self) -> str:
        """'success' or 'failure' when the replayed run plainly finished at
        the root, else 'unknown'."""
        # The port order after the last event finished tells whether it was
        # an Exit or a Fail at the root.
        if not self.truncated and self._next_ports is _AFTER_ROOT_EXIT:
            return "success"
        if not self.truncated and self._next_ports is _AFTER_ROOT_FAIL:
            return "failure"
        return "unknown"

