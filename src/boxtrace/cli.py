"""Command line front end.

Subcommands:

    trace <prog.pl>       print the event stream of a program run
    rebuild <trace file>  replay a stored trace (`-` reads stdin): per-event
                          rules + final tree
    check <prog.pl>       run the full faithfulness check on one program
    fuzz                  run generated-program checks for a seed range

Exit status: 0 on success (a check that hits its step cap included), 1 on a
divergence/failure report, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional

from .engine import ROOT, Engine, RestrictedState, RuleId
from .harness import GenParams, check_faithfulness, gen_program
from .parser import ParseError, parse_program
from .rebuild import CorruptTraceError, Rebuilder, TraceTruncatedError
from .terms import render_term
from .trace import (
    event_to_json,
    parse_trace_text,
    render_event,
    render_events_pretty,
    stream_events,
)


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def cmd_trace(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    eng = Engine(program)
    events = []
    write = sys.stdout.write
    for _, event, _ in stream_events(eng, max_steps=args.max_steps):
        if args.pretty and args.format == "text":
            events.append(event)
        elif args.format == "jsonl":
            write(event_to_json(event) + "\n")
        else:
            write(render_event(event) + "\n")
        if args.max_solutions is not None and len(eng.answers) >= args.max_solutions:
            break
    if args.pretty and args.format == "text":
        for line in render_events_pretty(events):
            print(line)
    if (
        args.max_solutions is None or len(eng.answers) < args.max_solutions
    ) and eng.select_rule() is not None:
        print(f"note: stopped after {eng.chrono} steps (limit)", file=sys.stderr)
    return 0


def _print_final_tree(state: RestrictedState, status: str, as_json: bool) -> None:
    # Live nodes in creation order are in Dewey order, so each node's path
    # label extends its parent's, made before it.
    nodes = state.order
    labels = {ROOT: ""}
    for v in nodes[1:]:
        above = labels[state.parent[v]]
        labels[v] = f"{above}.{state.index[v]}" if above else str(state.index[v])
    if as_json:
        print(
            json.dumps(
                {
                    "final": [
                        {"path": labels[v], "number": v, "goal": render_term(state.goals[v])}
                        for v in nodes
                    ],
                    "status": status,
                }
            )
        )
        return
    print("final tree:")
    for v in nodes:
        print(f"{'  ' * (state.depth[v] - 1)}{labels[v] or 'ε'} #{v} {render_term(state.goals[v])}")
    print(f"status: {status}")


def _open_trace(path: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8")


def cmd_rebuild(args: argparse.Namespace) -> int:
    as_json = args.format == "jsonl"
    # One write per rule line: the line's text after its chrono, made once
    # per rule.
    if as_json:
        line = '{"chrono": %d%s'
        labels = {rule: f', "rule": {json.dumps(rule.value)}}}\n' for rule in RuleId}
    else:
        line = "%5d%s"
        labels = {rule: f"  {rule.value}\n" for rule in RuleId}
    write = sys.stdout.write

    with _open_trace(args.trace) as lines:
        events = parse_trace_text(lines, fmt=args.format)
        first = next(events, None)
        if first is None:
            print("error: empty trace", file=sys.stderr)
            return 1
        reb = Rebuilder(first.goal)
        push = reb.push
        try:
            push(first)  # finishes no event: the next one decides its rule
            chrono = 0
            for chrono, event in enumerate(events, start=1):
                write(line % (chrono, labels[push(event)[0]]))
            write(line % (chrono + 1, labels[reb.finish()[0]]))
        except TraceTruncatedError:
            pass  # a prefix that ends on a Redo, reported as any other prefix
        except CorruptTraceError as err:
            print(f"error: corrupt trace: {err}", file=sys.stderr)
            return 1
    if reb.truncated:
        print("note: trace is a prefix of a longer run", file=sys.stderr)
    if reb.depth_mismatches:  # replay never reads depth; a lint, not an error
        print(f"note: {reb.depth_mismatches} event depth(s) disagree with the replayed "
              f"tree, first at chrono {reb.first_depth_mismatch[0]}", file=sys.stderr)
    _print_final_tree(reb.state, reb.status(), as_json)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    report = check_faithfulness(program, max_steps=args.max_steps)
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


def cmd_fuzz(args: argparse.Namespace) -> int:
    passing = limited = failed = 0
    for seed in range(args.seed, args.seed + args.count):
        program = gen_program(GenParams(seed=seed))
        report = check_faithfulness(program, max_steps=args.max_steps)
        if report.verdict == "pass":
            passing += 1
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
    print(f"{args.count} programs: {passing} pass, {limited} limit-hit, {failed} fail")
    return 0 if failed == 0 else 1


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxtrace",
        description="Trace, replay, and check pure-Prolog box-model executions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_trace = sub.add_parser("trace", help="print the event stream of a program")
    p_trace.set_defaults(run=cmd_trace)
    p_trace.add_argument("program", help="program file (.pl subset)")
    p_trace.add_argument("--max-steps", type=_at_least(0), default=100_000)
    p_trace.add_argument("--max-solutions", type=_at_least(1), default=None)
    p_trace.add_argument("--format", choices=("text", "jsonl"), default="text")
    p_trace.add_argument("--pretty", action="store_true",
                         help="column-aligned text output; the one mode that does "
                         "not stream: it holds every event until the run ends")

    p_rebuild = sub.add_parser("rebuild", help="replay a stored trace file")
    p_rebuild.set_defaults(run=cmd_rebuild)
    p_rebuild.add_argument("trace", help="trace file, or - for standard input")
    p_rebuild.add_argument("--format", choices=("text", "jsonl"), default="text")

    p_check = sub.add_parser("check", help="faithfulness check for one program")
    p_check.set_defaults(run=cmd_check)
    p_check.add_argument("program", help="program file (.pl subset)")
    p_check.add_argument("--max-steps", type=_at_least(0), default=100_000)

    p_fuzz = sub.add_parser("fuzz", help="check generated programs")
    p_fuzz.set_defaults(run=cmd_fuzz)
    p_fuzz.add_argument("--seed", type=int, default=1)
    p_fuzz.add_argument("--count", type=_at_least(0), default=100)
    p_fuzz.add_argument("--max-steps", type=_at_least(0), default=10_000)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (OSError, ParseError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
