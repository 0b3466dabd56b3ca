#!/usr/bin/env python3
"""Step-rate smoke benchmark.

Three workload shapes:
  * bounded-depth combinatorial backtracking (choice-point churn) --
    the shape that accidental quadratic tree bookkeeping would wreck;
  * a deep enumerator (tree depth grows with every solution);
  * runaway recursion, one box deeper per step, reported in depth bands:
    the step rate over the 1,000 steps that end at depth 1k, 10k and 40k.
    Cost per step should not grow with depth, so the bands should agree.

Each line is the median of RUNS fresh runs, with their min-max: single
runs on a small shared machine can differ by 2x.  The advisory floor is
1e5 steps/s (median) on the backtracking workload; the script reports, it
does not fail.  Run from the repository root:
`python3 scripts/bench_engine.py`.
"""

import statistics
import sys
import time

sys.path.insert(0, "src")

from boxtrace import parse_program
from boxtrace.engine import Engine

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
DEPTH_BANDS = (1_000, 10_000, 40_000)
BAND_WIDTH = 1_000
RUNS = 5


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


def spread(rates: list[float]) -> str:
    return (
        f"{statistics.median(rates):>10,.0f} steps/s"
        f"  (min {min(rates):,.0f}, max {max(rates):,.0f}, {len(rates)} runs)"
    )


def main() -> int:
    runs = [rate(BACKTRACKING, 200_000) for _ in range(RUNS)]
    rates = [per_sec for _, per_sec in runs]
    flag = "ok" if statistics.median(rates) >= 1e5 else "BELOW ADVISORY FLOOR"
    print(f"backtracking : {runs[0][0]:>7} steps {spread(rates)}  [{flag}]")

    runs = [rate(DEEP_ENUMERATOR, 50_000) for _ in range(RUNS)]
    rates = [per_sec for _, per_sec in runs]
    print(f"deep counter : {runs[0][0]:>7} steps {spread(rates)}")

    bands = [depth_bands(RUNAWAY) for _ in range(RUNS)]
    for i, depth in enumerate(DEPTH_BANDS):
        print(f"runaway at depth {depth:>6,} : {spread([run[i][1] for run in bands])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
