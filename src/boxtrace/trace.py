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
import io
import json
import re
from typing import Iterable, Iterator, NamedTuple

from .engine import REDO_RULES, Engine, RuleId, StepDelta
from .parser import ParseError, parse_term_text
from .terms import Term, Variable, render_term


class Port(enum.Enum):
    CALL = "Call"
    EXIT = "Exit"
    FAIL = "Fail"
    REDO = "Redo"

    __hash__ = object.__hash__  # as RuleId's; `_value_` skips the `.value` property


# A rule is named after the port of its event: Call1 and Call2 show a Call.
_PORT_OF_RULE = {rule: Port(rule.value[:-1]) for rule in RuleId}


class TraceEvent(NamedTuple):
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
    new = tuple.__new__
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
        yield rule, new(TraceEvent, (chrono, subject, depth, port, goal)), delta


# -- text and JSON-lines forms ----------------------------------------------


def render_event(e: TraceEvent) -> str:
    return f"{e.chrono} {e.node} {e.depth} {e.port._value_} {render_term(e.goal)}"


_PORTS = {port.value: port for port in Port}
_MESSAGE_MAX = 120  # the most characters of a bad line's message
_NUMBERS = re.compile("-?[0-9]+ -?[0-9]+ -?[0-9]+")
# The most digits of a line's three numbers the reader takes in place; more,
# up to what `int` refuses (4,300 digits by default), go to `_check_fields`.
_DIGITS_MAX = 64


def _check_fields(line: str, fields) -> tuple[int, int, int, Port, str]:
    """An event's five fields, checked: the one validator of both trace
    forms.  Numbers come as text (a JSON value as its repr) and must match
    `-?[0-9]+`.  The goal stays text.  `line` is the raw line, for messages."""
    if len(fields) != 5:
        raise ParseError(f"expected 5 fields, found {len(fields)}", 1, 1)
    chrono, node, depth, port, goal = fields
    try:  # ValueError: no match, or more digits than `int` reads
        numbers = chrono + node + depth  # ASCII digits alone, the common case, skip the pattern
        if not (numbers.isascii() and numbers.isdigit() or _NUMBERS.fullmatch(f"{chrono} {node} {depth}")):
            raise ValueError
        chrono, node, depth = int(chrono), int(node), int(depth)
    except ValueError:
        raise ParseError(f"non-integer event field in {line!r}", 1, 1) from None
    if chrono < 1 or node < 1 or depth < 1:
        raise ParseError(f"event fields must be positive in {line!r}", 1, 1)
    try:
        port = _PORTS[port]
    except (KeyError, TypeError):  # TypeError: a JSON list or object
        raise ParseError(f"unknown port {port!r}", 1, 1) from None
    if not isinstance(goal, str):
        raise ParseError(f"goal is not term text in {line!r}", 1, 1)
    return chrono, node, depth, port, goal


def render_events_pretty(events: Iterable[TraceEvent]) -> list[str]:
    """Column-aligned text lines (parses back the same as the plain form):
    `render_event`'s lines with their first four fields padded."""
    rows = [render_event(e).split(" ", 4) for e in events]
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
            "port": e.port._value_,
            "goal": render_term(e.goal),
        }
    )


def _json_values(line: str) -> list:
    """A JSON line's five values, as `_check_fields` takes them."""
    try:
        obj = json.loads(line)
        return [repr(obj["chrono"]), repr(obj["node"]), repr(obj["depth"]), obj["port"], obj["goal"]]
    # ValueError: bad JSON, or an integer too long to convert; RecursionError:
    # nesting deeper than the decoder's stack.
    except (ValueError, RecursionError, KeyError, TypeError):
        raise ParseError(f"malformed JSON event {line!r}", 1, 1) from None


# Bounds of the reader's map of recent goal texts, whatever the trace: at 4,096
# texts the constant-memory test in tests/test_cli.py saw the peak grow.
GOAL_TEXTS_MAX = 512  # texts held; the map is emptied when full
GOAL_TEXT_LONGEST = 256  # characters in the longest text held


def parse_trace_text(lines: str | Iterable[str], fmt: str = "text") -> Iterator[TraceEvent]:
    """Parse a trace (``text`` or ``jsonl``) lazily, one event per line read;
    blank lines are skipped.  `lines` is the whole text or any iterable of
    lines, such as an open file, so a trace streams in constant memory.  A
    text's lines end where a file's do in text mode: at a line feed, a
    carriage return, or both.

    A text line is split once; a JSON line is only stripped, to find a blank
    one.  Five fields with positive numbers of ASCII digits, at most
    _DIGITS_MAX of them together, and a known port are taken in place; every
    other line, and every JSON line, is read by `_check_fields`, the one
    validator.

    A goal text is parsed once while the reader holds it (terms are
    immutable): per node number the node's last goal, so a Fail or Redo is
    never parsed again (a Redo of node v drops the nodes after v, the last
    entries), and a bounded map of recent texts (GOAL_TEXTS_MAX) for a goal
    called again in a new box.
    """
    if isinstance(lines, str):
        lines = io.StringIO(lines, newline=None)
    jsonl = fmt == "jsonl"
    split = str.strip if jsonl else str.split
    held: dict[int, tuple[str, Term]] = {}
    goals: dict[str, Term] = {}
    ports = _PORTS
    redo = Port.REDO
    new = tuple.__new__
    for lineno, line in enumerate(lines, start=1):
        fields = split(line)
        if not fields:
            continue
        try:
            port = None
            if len(fields) == 5 and not jsonl:
                chrono, node, depth, name, text = fields
                numbers = chrono + node + depth
                if numbers.isascii() and numbers.isdigit() and len(numbers) <= _DIGITS_MAX:
                    chrono, node, depth = int(chrono), int(node), int(depth)
                    if chrono and node and depth:  # digits alone are never negative
                        port = ports.get(name)
            if port is None:  # every other line, and every JSON line
                line = line.rstrip("\r\n")
                values = _json_values(line) if jsonl else fields
                chrono, node, depth, port, text = _check_fields(line, values)
            if port is redo:
                while held and next(reversed(held)) > node:
                    held.popitem()
            last = held.get(node)
            if last is not None and last[0] == text:
                goal = last[1]
            else:
                goal = goals.get(text)
                if goal is None:
                    goal = parse_term_text(text, decode_renamed=True)
                    if isinstance(goal, Variable):  # no box holds a variable
                        raise ParseError(f"goal {text!r} is a variable", 1, 1)
                    if len(text) <= GOAL_TEXT_LONGEST:
                        if len(goals) == GOAL_TEXTS_MAX:
                            goals.clear()
                        goals[text] = goal
                held[node] = (text, goal)
        except ParseError as err:
            message = err.message
            if len(message) > _MESSAGE_MAX:  # it may quote a line of any length
                message = message[:_MESSAGE_MAX] + "..."
            raise ParseError(f"bad trace line: {message}", lineno, 1) from None
        yield new(TraceEvent, (chrono, node, depth, port, goal))
