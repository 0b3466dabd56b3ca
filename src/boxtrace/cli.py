"""Command line front end.

Subcommands:

    trace <prog.pl>       print the event stream of a program run
    rebuild <trace file>  replay a stored trace: per-event rules + final tree
    check <prog.pl>       run the full faithfulness check on one program
    fuzz                  run generated-program checks for a seed range

Exit status: 0 on success (a check that hits its step cap included), 1 on a
divergence/failure report, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .engine import ROOT, Engine, Path
from .harness import GenParams, check_faithfulness, gen_program
from .parser import ParseError, parse_program
from .rebuild import (
    CorruptTraceError,
    Rebuilder,
    RestrictedState,
    TraceTruncatedError,
    initial_state_for,
)
from .terms import render_term
from .trace import (
    event_to_json,
    parse_trace_text,
    render_event,
    render_events_pretty,
    stream_events,
)


@dataclass
class CliConfig:
    subcommand: str
    program_path: Optional[str] = None
    trace_path: Optional[str] = None
    max_steps: int = 100_000
    max_solutions: Optional[int] = None
    format: str = "text"
    pretty: bool = False
    seed: int = 1
    count: int = 100


def _path_label(v: Path) -> str:
    return "ε" if v == ROOT else ".".join(str(i) for i in v)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_program(path: str):
    return parse_program(_read_file(path))


def cmd_trace(cfg: CliConfig) -> int:
    program = _load_program(cfg.program_path)
    eng = Engine(program)
    events = []
    for _, event, _ in stream_events(eng, max_steps=cfg.max_steps):
        if cfg.pretty and cfg.format == "text":
            events.append(event)
        elif cfg.format == "jsonl":
            print(event_to_json(event))
        else:
            print(render_event(event))
        if cfg.max_solutions is not None and len(eng.answers) >= cfg.max_solutions:
            break
    if cfg.pretty and cfg.format == "text":
        for line in render_events_pretty(events):
            print(line)
    if eng.select_rule() is not None and (
        cfg.max_solutions is None or len(eng.answers) < cfg.max_solutions
    ):
        print(f"note: stopped after {eng.chrono} steps (limit)", file=sys.stderr)
    return 0


def _print_final_tree(state: RestrictedState, status: str, as_json: bool) -> None:
    nodes = sorted(state.tree)
    if as_json:
        print(
            json.dumps(
                {
                    "final": [
                        {
                            "path": _path_label(v) if v else "",
                            "number": state.numbers[v],
                            "goal": render_term(state.goals[v]),
                        }
                        for v in nodes
                    ],
                    "status": status,
                }
            )
        )
        return
    print("final tree:")
    for v in nodes:
        indent = "  " * len(v)
        print(f"{indent}{_path_label(v)} #{state.numbers[v]} {render_term(state.goals[v])}")
    print(f"status: {status}")


def cmd_rebuild(cfg: CliConfig) -> int:
    events = parse_trace_text(_read_file(cfg.trace_path), fmt=cfg.format)
    if not events:
        print("error: empty trace", file=sys.stderr)
        return 1
    reb = Rebuilder(initial_state_for(events))
    as_json = cfg.format == "jsonl"

    def emit(chrono: int, rule) -> None:
        if as_json:
            print(json.dumps({"chrono": chrono, "rule": rule.value}))
        else:
            print(f"{chrono:>5}  {rule.value}")

    try:
        chrono = 0
        for event in events:
            done = reb.push(event)
            if done is not None:
                chrono += 1
                emit(chrono, done[0])
        done = reb.finish()
        if done is not None:
            chrono += 1
            emit(chrono, done[0])
    except TraceTruncatedError as err:
        print(f"error: truncated trace: {err}", file=sys.stderr)
        return 1
    except CorruptTraceError as err:
        print(f"error: corrupt trace: {err}", file=sys.stderr)
        return 1
    if reb.truncated:
        print("note: trace is a prefix of a longer run", file=sys.stderr)
    _print_final_tree(reb.state, reb.status(), as_json)
    return 0


def cmd_check(cfg: CliConfig) -> int:
    program = _load_program(cfg.program_path)
    report = check_faithfulness(program, max_steps=cfg.max_steps)
    print(f"program {report.program_digest}: {report.verdict}, "
          f"{report.steps_checked} steps checked")
    if report.detail:
        print(report.detail)
    if report.first_divergence is not None:
        d = report.first_divergence
        print(f"first divergence at chrono {d.chrono}: {d.note}")
        if d.applied_rule is not None or d.classified_rule is not None:
            applied = d.applied_rule.value if d.applied_rule else "-"
            classified = d.classified_rule.value if d.classified_rule else "-"
            print(f"  applied {applied}, classified {classified}")
    return 1 if report.verdict == "fail" else 0


def cmd_fuzz(cfg: CliConfig) -> int:
    passed = limited = failed = 0
    for seed in range(cfg.seed, cfg.seed + cfg.count):
        program = gen_program(GenParams(seed=seed))
        report = check_faithfulness(program, max_steps=cfg.max_steps)
        if report.verdict == "pass":
            passed += 1
        elif report.verdict == "limit-hit":
            limited += 1
        else:
            failed += 1
            print(f"seed {seed} ({report.program_digest}): FAIL")
            if report.first_divergence is not None:
                print(f"  chrono {report.first_divergence.chrono}: "
                      f"{report.first_divergence.note}")
            elif report.detail:
                print(f"  {report.detail}")
    print(f"{cfg.count} programs: {passed} pass, {limited} limit-hit, {failed} fail")
    return 0 if failed == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxtrace",
        description="Trace, replay, and check pure-Prolog box-model executions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_trace = sub.add_parser("trace", help="print the event stream of a program")
    p_trace.add_argument("program", help="program file (.pl subset)")
    p_trace.add_argument("--max-steps", type=int, default=100_000)
    p_trace.add_argument("--max-solutions", type=int, default=None)
    p_trace.add_argument("--format", choices=("text", "jsonl"), default="text")
    p_trace.add_argument("--pretty", action="store_true",
                         help="column-aligned text output")

    p_rebuild = sub.add_parser("rebuild", help="replay a stored trace file")
    p_rebuild.add_argument("trace", help="trace file")
    p_rebuild.add_argument("--format", choices=("text", "jsonl"), default="text")

    p_check = sub.add_parser("check", help="faithfulness check for one program")
    p_check.add_argument("program", help="program file (.pl subset)")
    p_check.add_argument("--max-steps", type=int, default=100_000)

    p_fuzz = sub.add_parser("fuzz", help="check generated programs")
    p_fuzz.add_argument("--seed", type=int, default=1)
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--max-steps", type=int, default=10_000)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cfg = CliConfig(
        subcommand=args.subcommand,
        program_path=getattr(args, "program", None),
        trace_path=getattr(args, "trace", None),
        max_steps=getattr(args, "max_steps", 100_000),
        max_solutions=getattr(args, "max_solutions", None),
        format=getattr(args, "format", "text"),
        pretty=getattr(args, "pretty", False),
        seed=getattr(args, "seed", 1),
        count=getattr(args, "count", 100),
    )
    try:
        if cfg.subcommand == "trace":
            return cmd_trace(cfg)
        if cfg.subcommand == "rebuild":
            return cmd_rebuild(cfg)
        if cfg.subcommand == "check":
            return cmd_check(cfg)
        if cfg.subcommand == "fuzz":
            return cmd_fuzz(cfg)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
