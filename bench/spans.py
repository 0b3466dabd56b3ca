"""Per-layer spans recorded from outside the program.

The traced run replaces the public functions and methods at each layer
boundary with wrappers that time every call.  Spans are kept in memory,
aggregated per (name, parent name), because the engine's clause filter
alone makes hundreds of thousands of calls per run.  A span's self time is
its duration minus the time of the spans it directly contains.

Nothing here edits the program: wrappers are set as module or class
attributes for the run and put back afterwards.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable, Optional

# (span name, [(module, attribute)]).  A module attribute is wrapped where
# the calling module looks it up, so "unify as the engine calls it" is
# boxtrace.engine.unify and leaves the oracle's own unify calls alone.
# "Class.method" attributes wrap the method for every caller.
BOUNDARIES: list[tuple[str, list[tuple[str, str]]]] = [
    ("cli", [("boxtrace.cli", "main")]),
    ("parser", [("boxtrace.cli", "parse_program"), ("boxtrace.trace", "parse_term_text")]),
    ("terms.unify", [("boxtrace.engine", "unify")]),
    ("terms.unify_into", [("boxtrace.engine", "unify_into")]),
    ("terms.instantiate", [("boxtrace.engine", "instantiate")]),
    ("terms.rename", [("boxtrace.engine", "rename_term")]),
    ("terms.alpha_equal", [("boxtrace.harness", "alpha_equal"), ("boxtrace.rebuild", "alpha_equal")]),
    ("engine.init", [("boxtrace.engine", "Engine.__init__")]),
    ("engine.select_rule", [("boxtrace.engine", "Engine.select_rule")]),
    ("engine.apply_rule", [("boxtrace.engine", "Engine.apply_rule")]),
    ("trace.stream", [("boxtrace.cli", "stream_events"), ("boxtrace.harness", "stream_events")]),
    ("trace.render", [("boxtrace.cli", "render_event"), ("boxtrace.cli", "event_to_json")]),
    ("trace.parse", [("boxtrace.cli", "parse_trace_text")]),
    ("rebuild.init", [("boxtrace.rebuild", "Rebuilder.__init__")]),
    ("rebuild.push", [("boxtrace.rebuild", "Rebuilder.push"), ("boxtrace.rebuild", "Rebuilder.finish")]),
    ("harness.check", [("boxtrace.cli", "check_faithfulness"), ("boxtrace.harness", "check_faithfulness")]),
    ("harness.oracle", [("boxtrace.harness", "reference_solve")]),
    ("harness.gen", [("boxtrace.harness", "gen_program")]),
]

# Span names whose calls return a generator; each next() is timed instead.
GENERATORS = {"trace.stream"}


class Recorder:
    """In-memory span aggregate plus exact counts taken at the boundaries."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, Optional[str]], list] = {}
        self.counts: Counter = Counter()
        self.max_depth = 0
        self._stack: list[list] = []

    def _close(self, frame: list, duration: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        key = (frame[0], parent[0] if parent is not None else None)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter
        close = self._close
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, clock() - started)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn: Callable, observe: Callable) -> Callable:
        clock = time.perf_counter
        close = self._close
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                started = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close(frame, clock() - started)
                observe(self, item)
                yield item

        return wrapper

    # -- aggregates -----------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum((v[1] for (n, _), v in self.stats.items() if n == name), 0.0)

    def self_time(self, name: str) -> float:
        return sum((v[2] for (n, _), v in self.stats.items() if n == name), 0.0)

    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.stats.items() if n == name)

    def top_level(self) -> float:
        return sum((v[1] for (_, parent), v in self.stats.items() if parent is None), 0.0)

    def spans(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2]}
            for (n, p), v in sorted(self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]


# -- observers: exact counts taken where the work happens ----------------------


def _count_filter(rec: Recorder, args, result) -> None:
    if result is not None:
        rec.counts["terms.filter_kept"] += 1


def _count_rule(rec: Recorder, args, result) -> None:
    rec.counts["engine.rule." + args[1].value] += 1
    rec.counts["engine.pruned_nodes"] += len(result.removed)


def _count_bytes(rec: Recorder, args, result) -> None:
    rec.counts["trace.bytes"] += len(result.encode()) + 1  # plus its newline


def _observe_event(rec: Recorder, item) -> None:
    depth = item[1].depth
    if depth > rec.max_depth:
        rec.max_depth = depth


OBSERVERS = {
    "terms.unify": _count_filter,
    "engine.apply_rule": _count_rule,
    "trace.render": _count_bytes,
    "trace.stream": _observe_event,
}


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for a boundary, or None if absent."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if leaf not in vars(owner):
        return None
    return owner, leaf


class Installed:
    """Wrappers set for one recorder; `remove()` restores the originals."""

    def __init__(self, rec: Recorder) -> None:
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        for name, places in BOUNDARIES:
            for module_name, attr in places:
                found = _resolve(module_name, attr)
                if found is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                owner, leaf = found
                original = vars(owner)[leaf]
                if name in GENERATORS:
                    wrapped = rec.wrap_generator(name, original, OBSERVERS[name])
                else:
                    wrapped = rec.wrap(name, original, OBSERVERS.get(name))
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, wrapped)

    def remove(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()
