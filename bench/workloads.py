"""The four workloads: seeded inputs, one operation, and a reference check.

Each workload makes its inputs from the benchmark's seed, writes what the
command line needs into a work directory, and exposes one pass of
operations.  An operation calls the entry point the matching `boxtrace`
subcommand uses and returns its raw result; `check` then judges that result
against a reference that does not come from the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from boxtrace import cli, harness
from boxtrace import Engine, GenParams, parse_program, render_event, stream_events


@dataclass
class Checked:
    """What one operation produced, judged.

    `events` counts the trace events the operation emitted, replayed or
    checked; `fingerprint` identifies its output so traced and untraced runs
    can be compared; `error` is empty when the output is correct.
    """

    events: int
    fingerprint: object
    error: str = ""


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`boxtrace <argv>` in this process, output sent to in-memory sinks."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- join: k-hop paths over a random fact database ------------------------------

NODES = 40
DEGREE = 4  # every node has this many out-edges and this many in-edges
HOPS = 3
MARKS = 10
SENTINEL = ("end",) * (HOPS + 1)


def join_graph(seed: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges and marked nodes.  The graph is regular (a relabelled circulant
    with random offsets), so every seed yields the same number of paths and
    the same amount of work; only which nodes they visit differs."""
    rng = random.Random(f"join-{seed}")
    offsets = rng.sample(range(NODES), DEGREE)
    label = list(range(NODES))
    rng.shuffle(label)
    edges = [(label[i], label[(i + off) % NODES]) for i in range(NODES) for off in offsets]
    rng.shuffle(edges)
    return edges, rng.sample(range(NODES), MARKS)


def join_text(edges: list[tuple[int, int]], marks: list[int]) -> str:
    """Facts, then one rule asking for every HOPS-edge path that ends at a
    marked node.  A final fact clause makes the run end on an answer, so
    the replayed status is `success`."""
    vs = [f"V{i}" for i in range(HOPS + 1)]
    lines = [f"e(n{a},n{b})." for a, b in edges]
    lines += [f"mark(n{m})." for m in marks]
    hops = ",".join(f"e({vs[i]},{vs[i + 1]})" for i in range(HOPS))
    lines.append(f"path({','.join(vs)}) :- {hops},mark({vs[-1]}).")
    lines.append(f"path({','.join(SENTINEL)}).")
    lines.append(f":- path({','.join(vs)}).")
    return "\n".join(lines) + "\n"


def join_reference(edges: list[tuple[int, int]], marks: list[int]) -> Counter:
    """Every path, enumerated straight from the edge list."""
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    marked = set(marks)
    paths: Counter = Counter()
    walks = [(v,) for v in range(NODES)]
    for _ in range(HOPS):
        walks = [w + (b,) for w in walks for b in succ.get(w[-1], ())]
    for w in walks:
        if w[-1] in marked:
            paths[tuple(f"n{v}" for v in w)] += 1
    paths[SENTINEL] += 1
    return paths


_ANSWER = re.compile(r"^path\((.*)\)$")


def check_trace_output(code: int, out: str, err: str, expected: Counter) -> Checked:
    lines = out.splitlines()
    checked = Checked(len(lines), _digest(out))
    if code != 0 or err:
        checked.error = f"exit {code}, stderr {err.strip()!r}"
        return checked
    answers: Counter = Counter()
    for number, line in enumerate(lines, start=1):
        fields = line.split(" ")
        if len(fields) != 5 or fields[0] != str(number):
            checked.error = f"malformed event line {number}: {line!r}"
            return checked
        if fields[1] == "1" and fields[3] == "Exit":
            m = _ANSWER.match(fields[4])
            if m is None:
                checked.error = f"unexpected answer {fields[4]!r}"
                return checked
            answers[tuple(m.group(1).split(","))] += 1
    if answers != expected:
        missing = sum((expected - answers).values())
        extra = sum((answers - expected).values())
        checked.error = f"answers differ from the reference: {missing} missing, {extra} extra"
    elif not lines or lines[-1].split(" ")[1:4] != ["1", "1", "Exit"]:
        checked.error = "run did not end on an answer at the root"
    return checked


class Join:
    """`boxtrace trace` on the k-hop join; every answer is checked."""

    name = "join"

    def setup(self, seed: int, workdir: Path) -> None:
        edges, marks = join_graph(seed)
        self.program = workdir / "join.pl"
        self.program.write_text(join_text(edges, marks))
        self.expected = join_reference(edges, marks)

    def ops(self) -> list[Callable]:
        argv = ["trace", str(self.program)]
        return [lambda: run_cli(argv)]

    def check(self, index: int, raw) -> Checked:
        return check_trace_output(*raw, self.expected)


# -- replay: the join trace, read back ------------------------------------------


def check_rebuild_output(code: int, out: str, err: str, expected_rules: list[str]) -> Checked:
    lines = out.splitlines()
    try:
        end = lines.index("final tree:")
    except ValueError:
        end = len(lines)
    checked = Checked(end, _digest(out))
    if code != 0 or err:
        checked.error = f"exit {code}, stderr {err.strip()!r}"
        return checked
    rules = []
    for number, line in enumerate(lines[:end], start=1):
        fields = line.split()
        if len(fields) != 2 or fields[0] != str(number):
            checked.error = f"malformed rule line {number}: {line!r}"
            return checked
        rules.append(fields[1])
    if rules != expected_rules:
        first = next(
            (i for i, (a, b) in enumerate(zip(rules, expected_rules), 1) if a != b),
            min(len(rules), len(expected_rules)) + 1,
        )
        checked.error = f"replayed rule differs from the applied one at event {first}"
    elif not lines or lines[-1] != "status: success":
        checked.error = f"final status line {lines[-1] if lines else ''!r}, expected success"
    return checked


class Replay:
    """`boxtrace rebuild` on the join trace, recorded once at set-up along
    with the rule the engine applied for each event."""

    name = "replay"

    def setup(self, seed: int, workdir: Path) -> None:
        edges, marks = join_graph(seed)
        engine = Engine(parse_program(join_text(edges, marks)))
        self.trace = workdir / "join.trace"
        self.rules = []
        with self.trace.open("w", encoding="utf-8") as handle:
            for rule, event, _ in stream_events(engine):
                self.rules.append(rule.value)
                handle.write(render_event(event) + "\n")

    def ops(self) -> list[Callable]:
        argv = ["rebuild", str(self.trace)]
        return [lambda: run_cli(argv)]

    def check(self, index: int, raw) -> Checked:
        return check_rebuild_output(*raw, self.rules)


# -- deep: runaway recursion, one more box per Call ------------------------------

# One program of a 2-predicate cycle, checked to 5,000 steps (about 5,000
# boxes deep): a check takes under a second, so a run repeats it about 19
# times.  At 10,000 steps, or with three programs, the repeats were too few
# for a steady median (see README).
DEEP_CYCLES = (2,)
DEEP_CAP = 5_000


def deep_text(rng: random.Random, size: int) -> str:
    """A cycle of `size` predicates, each calling the next with a fresh first
    argument that the callee's head binds to a compound, and passing the
    second argument down unchanged (a binding chain as long as the tree is
    deep).  Arguments stay flat.  The fact clause after each rule is never
    tried, since nothing fails, but keeps a choice point open; filtering
    sees 2 clauses.  The seed picks names and constants only, so every
    seed does the same work."""
    consts = ("a", "b", "c", "d")
    lines = []
    for i in range(size):
        functor = rng.choice(("f", "g", "h"))
        lines.append(f"r{i}({functor}({rng.choice(consts)},Z),Y) :- r{(i + 1) % size}(X,Y).")
        lines.append(f"r{i}({rng.choice(consts)},{rng.choice(consts)}).")
    lines.append(":- r0(A,B).")
    return "\n".join(lines) + "\n"


_REPORT = re.compile(r"^program ([0-9a-f]+): (\S+), (\d+) steps checked$")


def check_deep_output(code: int, out: str, err: str) -> Checked:
    # The verdict is read from the report, not the exit status: `check`
    # exits 1 on a limit-hit.
    lines = out.splitlines()
    m = _REPORT.match(lines[0]) if lines else None
    steps = int(m.group(3)) if m else 0
    checked = Checked(steps, _digest(out))
    if m is None or err:
        checked.error = f"unexpected report {out.strip()!r} / {err.strip()!r}"
    elif m.group(2) != "limit-hit":
        checked.error = f"verdict {m.group(2)}, expected limit-hit"
    elif any(line.startswith("first divergence") for line in lines):
        checked.error = "report names a divergence"
    elif not DEEP_CAP - 1 <= steps <= DEEP_CAP:
        checked.error = f"{steps} steps checked at a cap of {DEEP_CAP}"
    return checked


class Deep:
    """`boxtrace check` on a runaway program, capped about 5,000 boxes deep."""

    name = "deep"

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"deep-{seed}")
        self.programs = []
        for size in DEEP_CYCLES:
            path = workdir / f"deep{size}.pl"
            path.write_text(deep_text(rng, size))
            self.programs.append(path)

    def ops(self) -> list[Callable]:
        def op(path: Path) -> Callable:
            argv = ["check", str(path), "--max-steps", str(DEEP_CAP)]
            return lambda: run_cli(argv)

        return [op(path) for path in self.programs]

    def check(self, index: int, raw) -> Checked:
        return check_deep_output(*raw)


# -- fuzz: many small acyclic generated programs --------------------------------

FUZZ_PROGRAMS = 5000
FUZZ_CAP = 1000  # steps per program


def fuzz_params(program_seed: int) -> GenParams:
    """The acceptance campaign's program shape, without recursion."""
    return GenParams(
        seed=program_seed,
        predicate_count=3 + program_seed % 3,
        max_body_len=2 + program_seed % 2,
        recursion_prob=0.0,
    )


def check_report(report) -> Checked:
    checked = Checked(
        report.steps_checked,
        (report.verdict, report.steps_checked, report.program_digest, report.detail),
    )
    if report.verdict == "pass" and report.detail:
        checked.error = f"pass without an oracle comparison: {report.detail}"
    elif report.verdict not in ("pass", "limit-hit"):
        checked.error = f"verdict {report.verdict} ({report.program_digest}): {report.detail}"
    return checked


class Fuzz:
    """`check_faithfulness` (what `boxtrace fuzz` runs) on each program."""

    name = "fuzz"

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"fuzz-{seed}")
        seeds = [rng.randrange(2**32) for _ in range(FUZZ_PROGRAMS)]
        self.programs = [harness.gen_program(fuzz_params(s)) for s in seeds]

    def ops(self) -> list[Callable]:
        def op(program) -> Callable:
            return lambda: harness.check_faithfulness(program, max_steps=FUZZ_CAP)

        return [op(program) for program in self.programs]

    def check(self, index: int, raw) -> Checked:
        return check_report(raw)


WORKLOADS = {w.name: w for w in (Join, Replay, Deep, Fuzz)}
