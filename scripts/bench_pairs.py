#!/usr/bin/env python3
"""Parent/change benchmark pairs, written as a BENCH_<n>.json record.

Runs `bench/run.py --workload all` in alternating pairs: the parent side
is an export (`git archive`) of the parent commit, and the change side the
same export with this checkout's `src/` laid over it, so `bench/` is the
same on both sides.  Every `__pycache__` under a side is removed before
each of its runs.  Odd seeds run the parent first, even seeds the change.
After the pairs, each side runs one traced pass of one workload (parent
first) for its per-layer spans.

The record keeps, for every end-to-end metric, the quartiles of both
sides, the median change, how many pairs the change won, whether the gap
between medians exceeds the parent's interquartile range, and whether the
change is worse than the metric's bound in BENCHMARK.json.  Quartiles are
`statistics.quantiles(..., method="inclusive")`.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --parent HEAD --seeds 2301-2310 \\
        --claim join.events_per_s --out BENCH_23.json --title "..."

Ten pairs at 25 seconds a workload take about 45 minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_RUN = ["bench/run.py", "--workload"]
# Metrics whose change the `result` line reports for every workload, beside
# the claimed one.
RESULT_METRICS = ("programs_per_s", "peak_rss_mb", "setup_s")


def export(commit: str, dest: Path, src_from: Path | None) -> None:
    """`git archive` of `commit` unpacked at dest; with `src_from`, its
    `src/` replaced by that directory's."""
    data = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)
    if src_from is not None:
        shutil.rmtree(dest / "src")
        shutil.copytree(src_from, dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def clean(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    clean(tree)
    argv = [sys.executable, *BENCH_RUN, workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {
        "exit": done.returncode,
        "last_json_line": last,
        "provenance": [line for line in lines if line.startswith("# provenance ")],
    }


def provenance(run: dict) -> dict:
    return json.loads(run["provenance"][0][len("# provenance "):])


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:  # one pair, as a smoke run makes: before 3.13 quantiles raises
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(pairs: list[dict], bounds: dict[str, tuple[str, float]]) -> dict:
    summary = {}
    for name, first in pairs[0]["parent"]["last_json_line"]["metrics"].items():
        better, bound = bounds[name.split(".", 1)[1]]
        parent = [p["parent"]["last_json_line"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["last_json_line"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better == "higher" else -1
        p_q, c_q = quartiles(parent), quartiles(change)
        delta = (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "unit": first["unit"],
            "better": better,
            "parent_q1_median_q3": p_q,
            "change_q1_median_q3": c_q,
            "median_change": round(delta, 4),
            "change_wins": f"{wins}/{len(pairs)}",
            "median_gap_exceeds_parent_iqr": sign * (c_q[1] - p_q[1]) > p_q[2] - p_q[0],
            "worse_than_bound": -sign * delta > bound,
        }
    return summary


def result_line(summary: dict, claim: str, failed: dict, workloads: list[str]) -> str:
    def pct(name: str) -> str:
        return f"{summary[name]['median_change'] * 100:+.1f}%"

    c = summary[claim]
    met = int(c["change_wins"].split("/")[0]) >= 9 and c["median_gap_exceeds_parent_iqr"]
    workload, metric = claim.split(".", 1)
    parts = [
        f"claim {'met' if met else 'not met'}: {workload} {metric} median "
        f"{c['change_q1_median_q3'][1]:,.0f} against {c['parent_q1_median_q3'][1]:,.0f} "
        f"({pct(claim)}), the change winning {c['change_wins']} pairs, the gap "
        f"{'wider' if c['median_gap_exceeds_parent_iqr'] else 'not wider'} than the "
        f"parent's interquartile range"
    ]
    others = [f"{w} {pct(f'{w}.{metric}')} ({summary[f'{w}.{metric}']['change_wins']})"
              for w in workloads if w != workload]
    if others:
        parts.append(", ".join(others))
    for name in RESULT_METRICS:
        parts.append(f"{name} " + ", ".join(f"{w} {pct(f'{w}.{name}')}" for w in workloads))
    worse = [name for name, s in summary.items() if s["worse_than_bound"]]
    parts.append(f"metrics worse than their bound: {', '.join(worse) or 'none'}")
    parts.append(f"failed parent {failed['parent']}, change {failed['change']}")
    return "; ".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--seeds", required=True, help="a range such as 2301-2310")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--claim", required=True, help="workload.metric, e.g. join.events_per_s")
    parser.add_argument("--trace-workload", help="workload of the traced pass (default: the claim's)")
    parser.add_argument("--title", required=True)
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--workdir", help="where the two exports go (default: a temporary directory)")
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    claim_workload = args.claim.split(".", 1)[0]
    trace_workload = args.trace_workload or claim_workload
    parent_commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                   stdout=subprocess.PIPE, text=True).stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    sides = {"parent": work / "parent", "change": work / "change"}
    for tree in sides.values():
        if tree.exists():
            shutil.rmtree(tree)
    export(parent_commit, sides["parent"], None)
    export(parent_commit, sides["change"], ROOT / "src")

    pairs = []
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(sides[side], "all", seed, args.seconds, 0)
            line = pair[side]["last_json_line"]
            print(f"seed {seed} {side}: exit {pair[side]['exit']}, {args.claim} "
                  f"{line['metrics'][args.claim]['value'] if line else 'missing'}", flush=True)
        pairs.append(pair)
    broken = [(p["seed"], s) for p in pairs for s in sides
              if p[s]["last_json_line"] is None or "metrics" not in p[s]["last_json_line"]]
    if broken:
        print(f"error: runs without a result: {broken}", file=sys.stderr)
        return 1

    traced = {"command": f"python3 bench/run.py --workload {trace_workload} --seed 1 "
                         f"--seconds 8 --trace 1",
              "note": "busy and self times are raw seconds per pass, not reference-scaled; "
                      "parent first, right after the pairs."}
    traced[trace_workload] = {}
    for side in sides:
        run = run_side(sides[side], trace_workload, 1, 8, 1)
        values = {name.split(".", 1)[1] if name.startswith(trace_workload + ".") else name:
                  m["value"] for name, m in run["last_json_line"]["metrics"].items()}
        values["src_sha256"] = provenance(run)["src_sha256"]
        traced[trace_workload][side] = values

    first = provenance(pairs[0]["parent"])
    failed = {side: f"{sum(p[side]['last_json_line']['failed'] for p in pairs)}/"
                    f"{sum(p[side]['last_json_line']['attempted'] for p in pairs)}"
              for side in sides}
    summary = summarize(pairs, bounds)
    record = {
        "title": args.title,
        "claim": {
            "workload": claim_workload,
            "metric": args.claim.split(".", 1)[1],
            "better": summary[args.claim]["better"],
            "threshold": "the change ahead in at least 9 of 10 pairs, the gap between "
                         "medians wider than the parent's interquartile range",
        },
        "result": result_line(summary, args.claim, failed, workloads),
        "command": f"python3 bench/run.py --workload all --seed <seed> --seconds {args.seconds:g}",
        "procedure": "alternating parent/change pairs, odd seeds run the parent first; every "
                     "__pycache__ under the export removed before each run; each side an export "
                     "(git archive) of the parent commit, the change side with the change's src/ "
                     "copied over the parent's, so bench/ is the same on both "
                     "(scripts/bench_pairs.py)",
        "machine": {k: first[k] for k in ("nproc", "python", "implementation")},
        "parent_commit": parent_commit,
        "note": "the bench provenance prints commit \"unknown\" because each side ran from an "
                "export, not a git checkout; src_sha256 identifies the measured trees",
        "seeds": seeds,
        "src_sha256": {side: provenance(pairs[0][side])["src_sha256"] for side in sides},
        "failed_over_attempted": failed,
        "summary": summary,
        "traced": traced,
        "pairs": pairs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(record["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
