#!/usr/bin/env python3
"""Step-rate smoke benchmark.

Three workload shapes:
  * bounded-depth combinatorial backtracking (choice-point churn) --
    the shape that accidental quadratic tree bookkeeping would wreck;
  * a deep enumerator (tree depth grows with every solution);
  * runaway recursion, one box deeper per step, reported in depth bands:
    the step rate over the 1,000 steps that end at depth 1k, 10k and 40k.
    Cost per step should not grow with depth, so the bands should agree.

The advisory floor is 1e5 steps/s on the backtracking workload; the script
reports, it does not fail.  Run from the repository root:
`python3 scripts/bench_engine.py`.
"""

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


def main() -> int:
    steps, per_sec = rate(BACKTRACKING, 200_000)
    flag = "ok" if per_sec >= 1e5 else "BELOW ADVISORY FLOOR"
    print(f"backtracking : {steps:>7} steps  {per_sec:>10,.0f} steps/s  [{flag}]")

    steps, per_sec = rate(DEEP_ENUMERATOR, 50_000)
    print(f"deep counter : {steps:>7} steps  {per_sec:>10,.0f} steps/s")

    for depth, per_sec in depth_bands(RUNAWAY):
        print(f"runaway at depth {depth:>6,} : {per_sec:>10,.0f} steps/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
