#!/usr/bin/env python3
"""Layered benchmark for boxtrace: trace, rebuild and check.

    python3 bench/run.py --workload {join,replay,deep,fuzz,all} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from its
`src/`.  One process runs one workload, single-threaded.  It sets up the
inputs from the seed (several times, to time set-up), runs operations for
`--seconds` with a reference program timed between them (reference.py),
checks every output, and prints the metrics by name with their units.  The
last line of standard output is one JSON object: `{"correct", "attempted",
"failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` spends half the
time untraced and half with every layer boundary wrapped (see spans.py),
reports the per-layer metrics and the tracing overhead, and writes the
spans to `.bench_out/`.  `--workload all` runs each workload in its own
process, one after another.  The exit status is nonzero if any output was
wrong or the run could not be made.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
from spans import Installed, Recorder

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_BEYOND = 100  # programs beyond the tail percentile; see README, Steadiness
REFERENCE_NOMINAL_S = 0.06  # reference.run() on the build box, about its fastest
BATCH_S = 0.2  # operation time between two reference runs (at least one operation)
WORKLOAD_NAMES = ("join", "replay", "deep", "fuzz")

RULES = ("Call1", "Call2", "Exit1", "Exit2", "Fail2", "Redo1", "Redo2")
# Counts that must repeat exactly for one seed: span call counts...
COUNTED_CALLS = {
    "parser.calls": "parser",
    "terms.filter_attempts": "terms.unify",
    "terms.unify_into.calls": "terms.unify_into",
    "terms.rename.calls": "terms.rename",
    "harness.oracle.calls": "harness.oracle",
}
# ...and counts taken by the boundary observers.
OBSERVED = ["terms.filter_kept", "engine.pruned_nodes", "trace.bytes"] + [
    f"engine.rule.{r}" for r in RULES
]
BUSY = ["parser", "terms.unify", "terms.unify_into", "terms.instantiate", "terms.rename",
        "terms.alpha_equal", "engine.init", "trace.render", "rebuild.init", "harness.oracle"]
SELF = ["engine.select_rule", "engine.apply_rule", "trace.stream", "trace.parse",
        "rebuild.push", "harness.check", "cli"]


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> float:
    """Import boxtrace from this checkout's src/; returns the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    try:
        import boxtrace  # noqa: F401
        from boxtrace import cli, harness  # noqa: F401
    except ImportError as err:
        fail(f"cannot import boxtrace from {src}: {err}")
    elapsed = time.perf_counter() - started
    if not Path(boxtrace.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"boxtrace was imported from {boxtrace.__file__}, not from {src}")
    return elapsed


# -- provenance -------------------------------------------------------------------


def git_commit() -> str:
    """HEAD's commit read from .git without running git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, so results name the code they ran."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def children_usage() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime, usage.ru_stime


def assert_single_process(children_before: tuple[float, float]) -> None:
    """No threads besides this one, and no child process ran since start
    (the usage of children reaped before exec carries over, hence the
    comparison)."""
    if threading.active_count() != 1:
        fail(f"{threading.active_count()} threads alive; the benchmark is single-threaded")
    if children_usage() != children_before:
        fail("a child process ran; the benchmark is single-process")


# -- measurement --------------------------------------------------------------------


class Gauge:
    """Times the reference program (reference.py) and scales a time measured
    between two of its runs to the machine at nominal speed: the time over
    the mean of the two reference times, times REFERENCE_NOMINAL_S."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def mark(self) -> int:
        """Runs the reference once; returns the index of this run."""
        gc.collect()
        started = time.perf_counter()
        reference.run()
        self.times.append(time.perf_counter() - started)
        return len(self.times) - 1

    def scale(self, seconds: float, before: int) -> float:
        speed = (self.times[before] + self.times[before + 1]) / 2
        return seconds * REFERENCE_NOMINAL_S / speed


class Phase:
    """Operations run back to back, round robin, each timed and then
    checked, with a reference run after every BATCH_S of them.  An
    operation's time is the median of its scaled repeats (see README,
    Steadiness); every repeat must give the same output as the first."""

    def __init__(self, workload, ops) -> None:
        self.workload = workload
        self.ops = ops
        self.gauge = Gauge()
        self.latencies: list[float] = []
        self.batches: list[int] = []  # per operation: the reference run before it
        self.events: list[int] = []
        self.fingerprints: list[object] = []
        self.errors: list[str] = []

    def run(self, seconds: float, min_ops: int = 1) -> None:
        clock = time.perf_counter
        deadline = clock() + seconds
        count = len(self.ops)
        before = self.gauge.mark()
        batch = 0.0
        while len(self.latencies) < min_ops or clock() < deadline:
            if batch >= BATCH_S:
                before = self.gauge.mark()
                batch = 0.0
            index = len(self.latencies) % count
            gc.collect()  # each operation starts from the same heap, untimed
            t0 = clock()
            try:
                raw, error = self.ops[index](), ""
            except Exception as err:  # a crash is a failed operation, not the end of the run
                raw, error = None, f"raised {err!r}"
            latency = clock() - t0
            self.latencies.append(latency)
            self.batches.append(before)
            batch += latency
            events, fingerprint = 0, None
            if not error:
                checked = self.workload.check(index, raw)
                events, fingerprint, error = checked.events, checked.fingerprint, checked.error
            self.events.append(events)
            self.fingerprints.append(fingerprint)
            if error:
                self.errors.append(f"op {len(self.latencies)}: {error}")
            elif len(self.latencies) > count and fingerprint != self.fingerprints[index]:
                self.errors.append(f"op {len(self.latencies)}: output differs from its first run")
        self.gauge.mark()

    def times(self) -> list[float]:
        """Each operation's time: the median of its scaled repeats."""
        count = len(self.ops)
        scaled = [self.gauge.scale(t, b) for t, b in zip(self.latencies, self.batches)]
        return [statistics.median(scaled[i::count]) for i in range(min(count, len(scaled)))]

    def events_per_s(self) -> float:
        """Events of one pass over the operations over its time."""
        return sum(self.events[: len(self.ops)]) / sum(self.times())

    def unscaled_events_per_s(self) -> float:
        count = len(self.ops)
        times = [statistics.median(self.latencies[i::count]) for i in range(count)]
        return sum(self.events[:count]) / sum(times)

    def programs_per_s(self) -> float:
        times = self.times()
        return len(times) / sum(times)

    def tail(self) -> tuple[float, float, int]:
        """(seconds, percentile, programs) at the highest percentile of
        TAIL_PERCENTILES with at least TAIL_BEYOND program times beyond it;
        the median when even p50 has fewer."""
        ordered = sorted(self.times())
        n = len(ordered)
        for percentile in TAIL_PERCENTILES:
            rank = math.ceil(percentile / 100 * n)
            if n - rank >= TAIL_BEYOND:
                return ordered[rank - 1], percentile, n
        return statistics.median(ordered), 50.0, n


def time_setup(workload, seed: int, workdir: Path) -> list[float]:
    """Import plus set-up, SETUP_REPEATS times, each between two reference
    runs and scaled.  Each import loads the package's modules afresh and
    then puts the first ones back, so the workload and the traced run keep
    using one set of modules."""
    loaded = {k: m for k, m in sys.modules.items() if k == "boxtrace" or k.startswith("boxtrace.")}
    gauge = Gauge()
    times = []
    for _ in range(SETUP_REPEATS):
        for name in loaded:
            del sys.modules[name]
        before = gauge.mark()
        started = time.perf_counter()
        importlib.import_module("boxtrace.cli")
        importlib.import_module("boxtrace.harness")
        workload.setup(seed, workdir)
        elapsed = time.perf_counter() - started
        sys.modules.update(loaded)
        gauge.mark()
        times.append(gauge.scale(elapsed, before))
    return times


def pass_counts(rec) -> dict[str, int]:
    counts = {name: rec.calls(span) for name, span in COUNTED_CALLS.items()}
    counts.update({name: rec.counts[name] for name in OBSERVED})
    counts["engine.max_depth"] = rec.max_depth
    return counts


def traced_phase(workload, ops, seconds: float, reference: list[object]):
    """At least one whole pass with every boundary wrapped.  Counts of each
    pass must equal the first pass's, and each output must equal the
    untraced output of the same operation."""
    rec = Recorder()
    phase = Phase(workload, ops)
    installed = Installed(rec)
    passes: list[dict[str, int]] = []
    try:
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            before = pass_counts(rec)
            rec.max_depth = 0
            phase.run(0, min_ops=len(phase.latencies) + len(ops))
            after = pass_counts(rec)
            counts = {k: after[k] - before[k] for k in after}
            counts["engine.max_depth"] = after["engine.max_depth"]
            if passes and counts != passes[0]:
                phase.errors.append(f"pass {len(passes) + 1} counts differ from pass 1")
            passes.append(counts)
    finally:
        installed.remove()
    for i, fingerprint in enumerate(phase.fingerprints):
        if fingerprint != reference[i % len(reference)]:
            phase.errors.append(f"traced op {i + 1} output differs from the untraced output")
    return rec, phase, passes, installed.missing


def layer_metrics(rec, phase: Phase, passes, untraced: Phase, setup_rec) -> dict[str, tuple]:
    n = len(passes)
    counts = passes[0]
    metrics: dict[str, tuple] = {}
    for span in BUSY:
        metrics[f"{span}.busy_s"] = (rec.busy(span) / n, "s")
    for span in SELF:
        metrics[f"{span}.self_s"] = (rec.self_time(span) / n, "s")
    metrics["harness.gen.busy_s"] = (setup_rec.busy("harness.gen"), "s")
    metrics["bench.untimed_s"] = ((sum(phase.latencies) - rec.top_level()) / n, "s")
    for name, value in counts.items():
        unit = "bytes" if name == "trace.bytes" else "count"
        metrics[name] = (value, unit)
    metrics["engine.steps"] = (sum(counts[f"engine.rule.{r}"] for r in RULES), "count")
    attempts = counts["terms.filter_attempts"]
    metrics["terms.filter_kept_ratio"] = (
        counts["terms.filter_kept"] / attempts if attempts else 0.0, "ratio")
    metrics["trace_overhead"] = (untraced.events_per_s() / phase.events_per_s(), "ratio")
    return metrics


def run_workload(args) -> int:
    children_before = children_usage()
    import_s = import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(), "commit": git_commit(),
        "src_sha256": source_digest(), "first_import_s": import_s,
    }
    try:
        setup_times = time_setup(workload, args.seed, workdir)
        ops = workload.ops()
        # Set-up's objects stay alive for the run; frozen, the collector
        # skips them, as it would in a process holding only the inputs.
        gc.collect()
        gc.freeze()
        untraced = Phase(workload, ops)
        if not args.trace:
            untraced.run(args.seconds, min_ops=len(ops))
            phases = [untraced]
        else:
            untraced.run(args.seconds / 2, min_ops=len(ops))
            setup_rec = Recorder()
            installed = Installed(setup_rec)
            try:
                workload.setup(args.seed, workdir)
            finally:
                installed.remove()
            gc.collect()
            gc.freeze()
            rec, traced, passes, missing = traced_phase(
                workload, ops, args.seconds / 2, untraced.fingerprints[: len(ops)])
            phases = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    errors = [e for p in phases for e in p.errors]
    if not args.trace:
        tail_s, percentile, samples = untraced.tail()
        metrics = {
            "events_per_s": (untraced.events_per_s(), "events/s"),
            "programs_per_s": (untraced.programs_per_s(), "programs/s"),
            "verdict_ms_p50": (statistics.median(untraced.times()) * 1000, "ms"),
            "verdict_ms_tail": (tail_s * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        provenance["samples"] = {
            "operations": len(untraced.latencies),
            "setups": len(setup_times),
            "verdict_ms_tail": {"percentile": percentile, "programs": samples},
            "reference_runs": len(untraced.gauge.times),
        }
        provenance["unscaled_events_per_s"] = untraced.unscaled_events_per_s()
        provenance["reference_median_s"] = statistics.median(untraced.gauge.times)
    else:
        metrics = layer_metrics(rec, traced, passes, untraced, setup_rec)
        provenance["samples"] = {"passes": len(passes), "ops_per_pass": len(ops)}
        provenance["missing_boundaries"] = missing
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"provenance": provenance, "passes": passes, "spans": rec.spans()}, indent=1))
        provenance["spans_file"] = str(spans_path.relative_to(ROOT))
        for boundary in missing:
            print(f"warning: boundary {boundary} not found; its layer reads 0", file=sys.stderr)
    provenance["failed_ratio"] = len(errors) / attempted
    assert_single_process(children_before)

    for error in errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"# provenance {json.dumps(provenance)}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:,}" if isinstance(value, int) else f"{value:,.6f}"
        print(f"# {name:<28} {shown:>18} {unit}")
    print(f"# failed_ratio {provenance['failed_ratio']} ({len(errors)}/{attempted})")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, so each
    peak_rss_mb belongs to a process that ran only that workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            return done.returncode or 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        status = status or done.returncode
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "boxtrace").is_dir():
        fail(f"no boxtrace sources under {ROOT / 'src'}; run from a source checkout")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
