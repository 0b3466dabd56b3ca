"""The per-layer benchmark (bench/spans.py) times the program by wrapping
functions and methods it looks up by name.  A renamed or deleted name would
only show up as `missing_boundaries` in a traced benchmark run, so every
name it looks up must still resolve."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


def test_every_benchmark_boundary_resolves():
    places = [place for _, places in spans.BOUNDARIES for place in places]
    assert places
    missing = [f"{module}.{attr}" for module, attr in places if spans._resolve(module, attr) is None]
    assert missing == []
