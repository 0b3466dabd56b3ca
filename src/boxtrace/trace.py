"""Trace events: produced from a running engine, and (de)serialized.

Every engine step yields exactly one trace event with five attributes:
chrono, node number, depth, port, goal.  Ports follow the classic box
picture: Call and Exit mark entering and leaving a box forwards, Redo and
Fail mark re-entering and leaving it backwards.  The subject node is the
pre-step current node, except for Redo events, whose subject is the choice
point being jumped to.  Exit events carry the solved predication; all
other ports carry the predication as stored before the step.

Text format, one event per line:  `<chrono> <node> <depth> <port> <goal>`.
JSON-lines uses keys chrono, node, depth, port, goal (goal as canonical
term text).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .engine import REDO_RULES, Engine, RuleId, StepDelta
from .parser import ParseError, parse_term_text
from .terms import Term, render_term


class Port(enum.Enum):
    CALL = "Call"
    EXIT = "Exit"
    FAIL = "Fail"
    REDO = "Redo"


_PORT_OF_RULE = {
    RuleId.CALL1: Port.CALL,
    RuleId.CALL2: Port.CALL,
    RuleId.EXIT1: Port.EXIT,
    RuleId.EXIT2: Port.EXIT,
    RuleId.FAIL2: Port.FAIL,
    RuleId.REDO1: Port.REDO,
    RuleId.REDO2: Port.REDO,
}


@dataclass(frozen=True)
class TraceEvent:
    chrono: int
    node: int
    depth: int
    port: Port
    goal: Term


def stream_events(
    eng: Engine, max_steps: int | None = None
) -> Iterator[tuple[RuleId, TraceEvent, StepDelta]]:
    """Drive an engine and emit one (rule, event, delta) per step.

    Stops at a terminal state or once the engine has taken `max_steps`
    steps.  Keeps nothing beyond the engine's own state.
    """
    while True:
        rule = eng.select_rule()
        if rule is None:
            return
        if max_steps is not None and eng.chrono >= max_steps:
            return
        if rule in REDO_RULES:
            subject = eng.greatest_choice_point(eng.current)
        else:
            subject = eng.current
        chrono = eng.chrono + 1
        depth = eng.depth[subject]
        port = _PORT_OF_RULE[rule]
        goal = eng.goals[subject]
        delta = eng.apply_rule(rule)
        if port is Port.EXIT:
            goal = eng.goals[subject]
        yield rule, TraceEvent(chrono, subject, depth, port, goal), delta


# -- text and JSON-lines forms ----------------------------------------------


def render_event(e: TraceEvent) -> str:
    return f"{e.chrono} {e.node} {e.depth} {e.port.value} {render_term(e.goal)}"


def _event(line: str, chrono, node, depth, port, goal) -> TraceEvent:
    """One event from its five fields, as text or as JSON values: the one
    validator of both trace forms.  `line` is the raw line, for messages."""
    try:
        # Through str, so that a JSON float or boolean is no integer either.
        chrono, node, depth = int(str(chrono)), int(str(node)), int(str(depth))
    except ValueError:
        raise ParseError(f"non-integer event field in {line!r}", 1, 1) from None
    if chrono < 1 or node < 1 or depth < 1:
        raise ParseError(f"event fields must be positive in {line!r}", 1, 1)
    try:
        port = Port(port)
    except ValueError:
        raise ParseError(f"unknown port {port!r}", 1, 1) from None
    if not isinstance(goal, str):
        raise ParseError(f"goal is not term text in {line!r}", 1, 1)
    return TraceEvent(chrono, node, depth, port, parse_term_text(goal, decode_renamed=True))


def parse_event(line: str) -> TraceEvent:
    fields = line.split()
    if len(fields) != 5:
        raise ParseError(f"expected 5 fields, found {len(fields)}", 1, 1)
    return _event(line, *fields)


def render_events_pretty(events: Iterable[TraceEvent]) -> list[str]:
    """Column-aligned text lines (parses back the same as the plain form)."""
    rows = [
        (str(e.chrono), str(e.node), str(e.depth), e.port.value, render_term(e.goal))
        for e in events
    ]
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    return [
        f"{c:>{widths[0]}} {n:>{widths[1]}} {d:>{widths[2]}} {p:<{widths[3]}} {g}"
        for c, n, d, p, g in rows
    ]


def event_to_json(e: TraceEvent) -> str:
    return json.dumps(
        {
            "chrono": e.chrono,
            "node": e.node,
            "depth": e.depth,
            "port": e.port.value,
            "goal": render_term(e.goal),
        }
    )


def event_from_json(line: str) -> TraceEvent:
    try:
        obj = json.loads(line)
        fields = [obj[key] for key in ("chrono", "node", "depth", "port", "goal")]
    except (json.JSONDecodeError, KeyError, TypeError):
        raise ParseError(f"malformed JSON event {line!r}", 1, 1) from None
    return _event(line, *fields)


def parse_trace_text(lines: str | Iterable[str], fmt: str = "text") -> Iterator[TraceEvent]:
    """Parse a trace (``text`` or ``jsonl``) lazily, one event per line read;
    blank lines are skipped.  `lines` is the whole text or any iterable of
    lines, such as an open file, so a trace streams in constant memory."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    parse = event_from_json if fmt == "jsonl" else parse_event
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        try:
            event = parse(line)
        except ParseError as err:
            raise ParseError(f"bad trace line: {err.message}", lineno, 1) from None
        yield event
