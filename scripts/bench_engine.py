#!/usr/bin/env python3
"""Step-rate smoke benchmark.

Four workload shapes:
  * bounded-depth combinatorial backtracking (choice-point churn) --
    the shape that accidental quadratic tree bookkeeping would wreck;
  * a deep enumerator (tree depth grows with every solution);
  * runaway recursion, one box deeper per step, reported in depth bands:
    the step rate over the 1,000 steps that end at depth 1k, 10k and 40k.
    Cost per step should not grow with depth, so the bands should agree;
  * a fact table `p(c0). ... p(cK). :- p(X).` run to the end at 5k, 10k,
    20k and 40k facts: one Redo per fact, all through one box.  Cost per
    step should not grow with the number of clauses, so the bands should
    agree too.

Deterministic lines are printed too: for `check_faithfulness` on a
deep-shaped runaway program (the bench's deep workload: a binding chain as
long as the tree is deep), the `unify_into` calls and the goals
`alpha_equal` walks (it returns at once on a term compared with itself)
per step at 2.5k and 40k steps; the `parse_term_text` calls per event of
one read by the trace reader of two traces: the bench's join trace (seed
11), where a goal comes back in new boxes, and a failing chain 1,000 boxes
deep, where each box's Fail comes thousands of texts after its Call; and
the trial `unify` calls the engine makes up to the first answer of the 5k
and 40k fact tables (a later fact is tried only when a guard asks).  All
are counted under cProfile.  More timed lines follow: `check`'s rate on
that deep-shaped program at 2.5k and 40k steps, flagged as the depth bands
are; the trace reader's time per event on the join trace, with the time
inside `parse_term_text` timed apart; the first answer's time on the fact
tables, with building the clause index (`_clause_index`, linear in the
program) timed apart; and `rebuild`'s time per event on failing chains 250
and 2,000 boxes deep, whose final tree lists every box (its printing timed
apart).

Each line is the median of RUNS fresh runs, with their min-max: single
runs on a small shared machine can differ by 2x, so no absolute rate is
judged.  The advisory check is relative instead: a depth band, a
fact-table band or `check`'s 40k-step rate is flagged when its median is
more than 20% off the median of its smallest band (depth 1k, 5k facts, or
2.5k steps).  The script reports, it does not fail.  Run from the
repository root: `python3 scripts/bench_engine.py`.
"""

import cProfile
import contextlib
import gc
import os
import pstats
import statistics
import sys
import tempfile
import time

sys.path[:0] = ["src", "bench"]

from boxtrace import (
    check_faithfulness,
    cli,
    parse_program,
    parse_trace_text,
    render_event,
    stream_events,
    trace,
)
from boxtrace.engine import Engine, _clause_index
from workloads import join_graph, join_text

BACKTRACKING = """
p(a). p(b). p(c). p(d).
g :- p(A), p(B), p(C), p(D), p(E), p(F), nope.
:- g.
"""

DEEP_ENUMERATOR = """
n(z).
n(s(X)) :- n(X).
:- n(X).
"""

# Every step is a Call2 one box deeper; the fact leaves a choice point in
# every box.
RUNAWAY = """
loop :- loop.
loop.
:- loop.
"""
# Every step is a Call2 one box deeper, whose head binds the caller's
# fresh first argument; the second argument is passed down unchanged.
DEEP_CHECK = """
r0(f(a,Z),Y) :- r1(X,Y).
r0(a,b).
r1(g(b,Z),Y) :- r0(X,Y).
r1(c,d).
:- r0(A,B).
"""
DEPTH_BANDS = (1_000, 10_000, 40_000)
CALL_COUNT_STEPS = (2_500, 40_000)
JOIN_SEED = 11


def failing_chain(depth: int) -> str:
    return "".join(f"e(n{i},n{i + 1}).\n" for i in range(depth)) + (
        "path(X) :- e(X,Y), path(Y).\n:- path(n0).\n"
    )


FAILING_CHAIN = failing_chain(1_000)
REBUILD_CHAIN_DEPTHS = (250, 2_000)
FIRST_ANSWER_SIZES = (5_000, 40_000)
BAND_WIDTH = 1_000
FACT_TABLE_SIZES = (5_000, 10_000, 20_000, 40_000)
RUNS = 5
# Largest advisory distance of a band's median from its smallest band's.
BAND_TOLERANCE = 0.20


def fact_table(size: int) -> str:
    return "".join(f"p(c{i}).\n" for i in range(size)) + ":- p(X).\n"


def rate(text: str, cap: int) -> tuple[int, float]:
    eng = Engine(parse_program(text))
    started = time.perf_counter()
    steps = 0
    while steps < cap and eng.step() is not None:
        steps += 1
    return steps, steps / (time.perf_counter() - started)


def depth_bands(text: str) -> list[tuple[int, float]]:
    """(depth, steps/s over the BAND_WIDTH steps ending there) per band."""
    eng = Engine(parse_program(text))
    bands = []
    for depth in DEPTH_BANDS:
        while eng.chrono < depth - BAND_WIDTH:
            eng.step()
        started = time.perf_counter()
        while eng.chrono < depth:
            eng.step()
        bands.append((depth, BAND_WIDTH / (time.perf_counter() - started)))
    return bands


def calls_per_step(text: str, steps: int) -> dict[str, float]:
    """`unify_into` calls and `alpha_equal` walks (`_alpha_walk` calls) per
    step of one `check_faithfulness` run, counted under cProfile."""
    profile = cProfile.Profile()
    profile.runcall(check_faithfulness, parse_program(text), max_steps=steps)
    calls = {"unify_into": 0, "_alpha_walk": 0}
    for (_, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
        if name in calls:
            calls[name] += ncalls
    return {name: n / steps for name, n in calls.items()}


def parse_calls(text: str) -> tuple[int, int]:
    """`parse_term_text` calls, and events, of one read of the trace of
    program `text`, counted under cProfile."""
    engine = Engine(parse_program(text))
    lines = [render_event(event) for _, event, _ in stream_events(engine)]
    profile = cProfile.Profile()
    events = profile.runcall(lambda: sum(1 for _ in parse_trace_text(lines)))
    calls = sum(
        ncalls
        for (_, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items()
        if name == "parse_term_text"
    )
    return calls, events


def check_rate(text: str, steps: int) -> float:
    """Steps/s of one `check_faithfulness` run capped at `steps`."""
    program = parse_program(text)
    started = time.perf_counter()
    report = check_faithfulness(program, max_steps=steps)
    return report.steps_checked / (time.perf_counter() - started)


def read_time(lines: list[str]) -> tuple[float, float]:
    """Microseconds per event of one read of `lines` by the trace reader,
    and of a second read the microseconds per event in `parse_term_text`."""
    started = time.perf_counter()
    events = sum(1 for _ in parse_trace_text(lines))
    total = time.perf_counter() - started
    parsing = 0.0
    parse = trace.parse_term_text

    def timed(*args, **kwargs):
        nonlocal parsing
        started = time.perf_counter()
        try:
            return parse(*args, **kwargs)
        finally:
            parsing += time.perf_counter() - started

    trace.parse_term_text = timed
    try:
        sum(1 for _ in parse_trace_text(lines))
    finally:
        trace.parse_term_text = parse
    return total / events * 1e6, parsing / events * 1e6


def first_answer(text: str) -> tuple[float, float]:
    """Seconds to build the engine and step to its first answer, and
    seconds to build its clause index alone."""
    program = parse_program(text)
    gc.collect()
    started = time.perf_counter()
    eng = Engine(program)
    while not eng.answers:
        eng.step()
    answered = time.perf_counter() - started
    del eng
    gc.collect()
    started = time.perf_counter()
    _clause_index(program)
    return answered, time.perf_counter() - started


def first_answer_trials(text: str) -> int:
    """Trial `unify` calls up to the first answer, counted under cProfile."""
    eng = Engine(parse_program(text))
    profile = cProfile.Profile()
    profile.enable()
    for _ in stream_events(eng):
        if eng.answers:
            break
    profile.disable()
    return sum(
        ncalls
        for (path, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items()
        if name == "unify" and path.endswith("terms.py")
    )


def rebuild_chain(path: str, events: int) -> tuple[float, float]:
    """`rebuild` of a trace file, stdout discarded: microseconds per event,
    and milliseconds spent printing the final tree."""
    printing = []
    print_final_tree = cli._print_final_tree

    def timed(*args):
        started = time.perf_counter()
        print_final_tree(*args)
        printing.append(time.perf_counter() - started)

    cli._print_final_tree = timed
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            started = time.perf_counter()
            cli.main(["rebuild", path])
            total = time.perf_counter() - started
    finally:
        cli._print_final_tree = print_final_tree
    return total / events * 1e6, printing[0] * 1e3


def spread(rates: list[float]) -> str:
    return (
        f"{statistics.median(rates):>10,.0f} steps/s"
        f"  (min {min(rates):,.0f}, max {max(rates):,.0f}, {len(rates)} runs)"
    )


def band_flag(rates: list[float], smallest: list[float]) -> str:
    off = statistics.median(rates) / statistics.median(smallest) - 1
    return "ok" if abs(off) <= BAND_TOLERANCE else f"{off:+.0%} OFF SMALLEST BAND"


def main() -> int:
    runs = [rate(BACKTRACKING, 200_000) for _ in range(RUNS)]
    rates = [per_sec for _, per_sec in runs]
    print(f"backtracking : {runs[0][0]:>7} steps {spread(rates)}")

    runs = [rate(DEEP_ENUMERATOR, 50_000) for _ in range(RUNS)]
    rates = [per_sec for _, per_sec in runs]
    print(f"deep counter : {runs[0][0]:>7} steps {spread(rates)}")

    bands = [depth_bands(RUNAWAY) for _ in range(RUNS)]
    smallest = [run[0][1] for run in bands]
    for i, depth in enumerate(DEPTH_BANDS):
        rates = [run[i][1] for run in bands]
        print(f"runaway at depth {depth:>6,} : {spread(rates)}  [{band_flag(rates, smallest)}]")

    for steps in CALL_COUNT_STEPS:
        calls = calls_per_step(DEEP_CHECK, steps)
        print(
            f"check calls per step at {steps:>6,} steps :"
            f" unify_into {calls['unify_into']:.3f}, alpha_equal walks {calls['_alpha_walk']:.3f}"
        )
    low, high = CALL_COUNT_STEPS
    rates = {steps: [check_rate(DEEP_CHECK, steps) for _ in range(RUNS)] for steps in CALL_COUNT_STEPS}
    print(
        f"check rate : {statistics.median(rates[low]):,.0f} steps/s at {low:,} steps,"
        f" {statistics.median(rates[high]):,.0f} at {high:,}  ({RUNS} runs, medians)"
        f"  [{band_flag(rates[high], rates[low])}]"
    )
    join = join_text(*join_graph(JOIN_SEED))
    lines = [render_event(event) + "\n" for _, event, _ in stream_events(Engine(parse_program(join)))]
    runs = [read_time(lines) for _ in range(RUNS)]
    print(
        f"join trace (seed {JOIN_SEED}) reader : {statistics.median(us for us, _ in runs):.2f} us/event,"
        f" parse_term_text {statistics.median(us for _, us in runs):.2f} of it  ({RUNS} runs, medians)"
    )
    for name, text in [
        (f"join trace (seed {JOIN_SEED})", join),
        ("failing chain trace", FAILING_CHAIN),
    ]:
        parsed, events = parse_calls(text)
        print(f"{name} read : parse_term_text calls {parsed:,} / {events:,} events")

    trials = [first_answer_trials(fact_table(size)) for size in FIRST_ANSWER_SIZES]
    print(
        "first answer trial unify calls : "
        + ", ".join(f"{n:,} at {size:,} facts" for n, size in zip(trials, FIRST_ANSWER_SIZES))
    )
    timings = []
    for size in FIRST_ANSWER_SIZES:
        runs = [first_answer(fact_table(size)) for _ in range(RUNS)]
        answer = statistics.median(t for t, _ in runs) * 1e3
        index = statistics.median(t for _, t in runs) * 1e3
        timings.append(f"{answer:.1f} ms at {size:,} facts (clause index {index:.1f} ms)")
    print(f"first answer time : {', '.join(timings)}  ({RUNS} runs, medians)")
    timings = []
    with tempfile.TemporaryDirectory() as scratch:
        for depth in REBUILD_CHAIN_DEPTHS:
            engine = Engine(parse_program(failing_chain(depth)))
            lines = [render_event(event) + "\n" for _, event, _ in stream_events(engine)]
            path = os.path.join(scratch, f"chain{depth}.trace")
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
            runs = [rebuild_chain(path, len(lines)) for _ in range(RUNS)]
            per_event = statistics.median(us for us, _ in runs)
            tree = statistics.median(ms for _, ms in runs)
            timings.append(f"{per_event:.1f} us/event at {depth:,} deep (final tree {tree:.1f} ms)")
    print(f"rebuild of a failing chain : {', '.join(timings)}  ({RUNS} runs, medians)")

    smallest = []
    for size in FACT_TABLE_SIZES:
        # Two steps per fact (Exit1, then Redo1), so the cap is never hit.
        runs = [rate(fact_table(size), 2 * size + 2) for _ in range(RUNS)]
        rates = [per_sec for _, per_sec in runs]
        smallest = smallest or rates
        print(
            f"fact table of {size:>6,} : {runs[0][0]:>7} steps {spread(rates)}"
            f"  [{band_flag(rates, smallest)}]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
