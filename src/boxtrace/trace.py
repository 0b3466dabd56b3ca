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


def parse_event(line: str) -> TraceEvent:
    fields = line.split()
    if len(fields) != 5:
        raise ParseError(f"expected 5 fields, found {len(fields)}", 1, 1)
    raw_chrono, raw_node, raw_depth, raw_port, raw_goal = fields
    try:
        chrono, node, depth = int(raw_chrono), int(raw_node), int(raw_depth)
    except ValueError:
        raise ParseError(f"non-integer event field in {line!r}", 1, 1) from None
    if chrono < 1 or node < 1 or depth < 1:
        raise ParseError(f"event fields must be positive in {line!r}", 1, 1)
    try:
        port = Port(raw_port)
    except ValueError:
        raise ParseError(f"unknown port {raw_port!r}", 1, 1) from None
    goal = parse_term_text(raw_goal, decode_renamed=True)
    return TraceEvent(chrono, node, depth, port, goal)


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
        chrono, node, depth = int(obj["chrono"]), int(obj["node"]), int(obj["depth"])
        raw_port, raw_goal = obj["port"], obj["goal"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        raise ParseError(f"malformed JSON event {line!r}", 1, 1) from None
    try:
        port = Port(raw_port)
    except ValueError:
        raise ParseError(f"unknown port {raw_port!r}", 1, 1) from None
    return TraceEvent(chrono, node, depth, port, parse_term_text(raw_goal, decode_renamed=True))


def write_trace_text(events: Iterable[TraceEvent], pretty: bool = False) -> str:
    if pretty:
        lines = render_events_pretty(events)
    else:
        lines = [render_event(e) for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


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
            raise ParseError(f"bad trace line: {err}", lineno, 1) from None
        yield event


def events_alpha_equal(a: Iterable[TraceEvent], b: Iterable[TraceEvent]) -> bool:
    """Event-stream equality with goals compared up to variable renaming."""
    from .terms import alpha_equal

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
