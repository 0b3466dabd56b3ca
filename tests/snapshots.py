"""Snapshot-based reference for the event stream.

Records the engine's whole visible state after every step and derives each
event from the two states around it, the way the box model defines events.
`stream_events` reads the live engine instead; tests compare the two
derivations.  Snapshots are Dewey-shaped: nodes are keyed by their Dewey
paths, built from the engine's integer tables with `path_of`, which tests
also use to name a node by its place in the tree.  A snapshot per step
costs memory in the run length, so this is for small test runs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from boxtrace import Engine, Port, RuleId, TraceEvent
from boxtrace.engine import ROOT
from boxtrace.terms import Clause, Term

from tests.references import untried_clauses

Path = tuple[int, ...]

_PORTS = {rule: Port(rule.value[:-1]) for rule in RuleId}  # Call1 -> Call


@dataclass(frozen=True)
class Snapshot:
    """The engine's visible state after one step."""

    tree: frozenset[Path]
    current: Path
    last_number: int
    numbers: dict[Path, int]
    goals: dict[Path, Term]
    clauses: dict[Path, tuple[Clause, ...]]
    fresh: dict[Path, bool]
    done: bool
    failing: bool

    def greatest_choice_point(self) -> Optional[Path]:
        """Dewey-greatest node below (or at) `current` with untried clauses."""
        u = self.current
        best: Optional[Path] = None
        for p, cl in self.clauses.items():
            if cl and p[: len(u)] == u and (best is None or p > best):
                best = p
        return best


def path_of(state, v: int) -> Path:
    """Node v's Dewey path (child indices from the root down; the root's is
    `()`), read off `state.parent` and `state.index`: O(depth)."""
    path = []
    while v != ROOT:
        path.append(state.index[v])
        v = state.parent[v]
    return tuple(reversed(path))


def node_depth(v: Path) -> int:
    """Nodes on the path from the root to v: the root has depth 1."""
    return len(v) + 1


def dewey(state) -> dict[Path, int]:
    """{Dewey path: creation number} over the live nodes of an engine or a
    replayed state."""
    return {path_of(state, v): v for v in state.goals}


def snapshot(eng: Engine) -> Snapshot:
    numbers = dewey(eng)
    paths = {v: p for p, v in numbers.items()}
    return Snapshot(
        frozenset(numbers), paths[eng.current], eng.last_number, numbers,
        {paths[v]: g for v, g in eng.goals.items()},
        {paths[v]: untried_clauses(eng, v) for v in eng.goals},
        # One first-visit bit: only the current node can be fresh.
        {p: eng.fresh and v == eng.current for v, p in paths.items()},
        eng.done, eng.failing,
    )


@dataclass(frozen=True)
class Recording:
    initial: Snapshot
    steps: tuple[tuple[RuleId, Snapshot], ...]  # step i has chrono i + 1
    answers: tuple[Term, ...]
    completed: bool


def record(program, max_steps: int = 100_000) -> Recording:
    """Run through Engine.step, keeping a snapshot after every step."""
    eng = Engine(program)
    initial = snapshot(eng)
    steps = []
    while len(steps) < max_steps and (stepped := eng.step()) is not None:
        steps.append((stepped[0], snapshot(eng)))
    return Recording(initial, tuple(steps), tuple(eng.answers), eng.select_rule() is None)


def event_of(rule: RuleId, pre: Snapshot, post: Snapshot, chrono: int) -> TraceEvent:
    """The event of one step: its subject is the pre-step current node, or
    for a Redo the choice point jumped to; an Exit carries the solved goal."""
    port = _PORTS[rule]
    subject = pre.greatest_choice_point() if port is Port.REDO else pre.current
    assert subject is not None, "redo step recorded without a choice point"
    goal = post.goals[subject] if port is Port.EXIT else pre.goals[subject]
    return TraceEvent(chrono, pre.numbers[subject], node_depth(subject), port, goal)


def reference_events(recording: Recording) -> list[TraceEvent]:
    events = []
    pre = recording.initial
    for chrono, (rule, post) in enumerate(recording.steps, start=1):
        events.append(event_of(rule, pre, post, chrono))
        pre = post
    return events
