"""Differential checking: engine -> events -> replay, against each other
and against an independent resolution oracle.

`check_faithfulness` runs the engine and replays an event stream beside it,
the run's own or any stream handed in, on one path: each step is compared
once replay has classified its event, the stream's length is compared once,
the last event is classified once, and a stream replay rejects anywhere
fails.  A completed run's answers are additionally compared, in the order they
were found, against `reference_solve`, a depth-first resolution search over
an explicit stack that shares nothing with the engine beyond terms,
unification and `functor_key`, by which it tries a goal only against its
own predicate's clauses.

`gen_program` produces small random programs in the supported subset,
deterministically from a seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .engine import (
    Engine,
    EngineError,
    RestrictedState,
    RuleId,
    StepDelta,
)
from .rebuild import (
    CorruptTraceError,
    Rebuilder,
    TraceTruncatedError,
    states_match,
)
from .terms import (
    Atom,
    Clause,
    Compound,
    Program,
    Subst,
    Term,
    Variable,
    alpha_equal,
    apply_subst,
    functor_key,
    render_program,
    rename_term,
    unify_into,
)
from .trace import TraceEvent, stream_events


# -- independent resolution oracle -------------------------------------------


@dataclass(frozen=True)
class RefResult:
    answers: tuple[Term, ...]
    capped: bool


def reference_solve(program: Program, max_tries: int) -> RefResult:
    """Answers of a direct depth-first search: leftmost goal, textual clause
    order, one loop over an explicit stack of choice points.  Deliberately
    not built on the engine.  A goal tries only its own predicate's clauses
    (by `functor_key`), each renamed with its try number; once `max_tries`
    are spent it stops capped, and its answers are a lower bound only.
    """
    by_key: dict[tuple[str, int], list[Clause]] = {}
    for clause in program.clauses:
        by_key.setdefault(functor_key(clause.head), []).append(clause)
    answers: list[Term] = []
    tries = 0  # also the rename number of the clause tried
    # One substitution, bound in place; each clause tried undoes its
    # bindings back to the trail mark its choice point started from.
    s: Subst = {}
    trail: list[Variable] = []
    # A choice point: the goals still to solve as (goal, rest) pairs ending
    # in (), so that every goal list shares its tail; the first goal's
    # untried clauses; and the trail mark.
    goal = program.goal
    stack = [((goal, ()), iter(by_key.get(functor_key(goal), ())), 0)]
    while stack:
        (first, rest), clauses, mark = stack[-1]
        for var in trail[mark:]:
            del s[var]
        del trail[mark:]
        clause = next(clauses, None)
        if clause is None:
            stack.pop()
            continue
        tries += 1
        if tries > max_tries:
            return RefResult(tuple(answers), capped=True)
        if unify_into(first, clause.head, s, trail, tries):
            for body_goal in reversed(clause.body):
                rest = (rename_term(body_goal, tries), rest)
            if rest:
                stack.append((rest, iter(by_key.get(functor_key(rest[0]), ())), len(trail)))
            else:
                answers.append(apply_subst(goal, s))
    return RefResult(tuple(answers), capped=False)


# -- random program generation ------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    seed: int
    predicate_count: int = 4
    max_body_len: int = 3
    recursion_prob: float = 0.15

    def __post_init__(self):
        if min(self.predicate_count, self.max_body_len) < 1:
            raise ValueError("all size bounds must be >= 1")
        if not 0.0 <= self.recursion_prob <= 1.0:
            raise ValueError("recursion_prob must be in [0, 1]")


# Fixed shape of every generated program: clauses per predicate, head term
# depth, and the constants and variable names terms draw from.
_MAX_CLAUSES = 3
_MAX_TERM_DEPTH = 2
_CONSTS = ("a", "b", "c")
_VAR_NAMES = ("X", "Y", "Z")


def gen_program(gp: GenParams) -> Program:
    """A syntactically valid random program, deterministic in the seed.

    With recursion_prob 0 every body goal calls a strictly later predicate
    (or one with no clauses), so the call graph is acyclic.  A possibly-
    cyclic call has flat arguments and never passes one variable twice,
    which beside a wrapping call (`p3(X) :- p2(X,X)` with
    `p2(X,Z) :- p3(g(Z,X))`) doubles the goal every two steps.  A cycle
    through a call that wraps its arguments still grows the goal by a
    constant each round, so a capped run's cost grows faster than its cap.
    A variable repeated elsewhere on a cycle can still double the goal: in a
    call (`p1(X) :- p2(g(X,X))` with `p2(Y) :- p1(Y)`) or in a head
    (`p(g(Y,Y)) :- q(Y)` with `q(T) :- p(T)`).
    """
    rng = random.Random(gp.seed)
    arities = [rng.randint(0, 2) for _ in range(gp.predicate_count)]

    def make_term(depth: int) -> Term:
        roll = rng.random()
        if roll < 0.35:
            return Atom(rng.choice(_CONSTS))
        if roll < 0.7 or depth <= 0:
            return Variable(rng.choice(_VAR_NAMES))
        functor = rng.choice(("f", "g"))
        arity = 1 if functor == "f" else 2
        return Compound(functor, tuple(make_term(depth - 1) for _ in range(arity)))

    def predication(idx: int, max_depth: int) -> Term:
        name = f"p{idx}"
        arity = arities[idx]
        if arity == 0:
            return Atom(name)
        args = tuple(make_term(rng.randint(0, max_depth)) for _ in range(arity))
        return Compound(name, args)

    clauses: list[Clause] = []
    for idx in range(gp.predicate_count):
        n_clauses = rng.randint(1, _MAX_CLAUSES)
        for _ in range(n_clauses):
            head = predication(idx, _MAX_TERM_DEPTH - 1)
            body_len = rng.randint(0, gp.max_body_len)
            body = []
            for _ in range(body_len):
                if rng.random() < 0.08:
                    # A call nothing defines: a guaranteed failure box.
                    body.append(Atom(f"missing{rng.randint(0, 1)}"))
                    continue
                if rng.random() < gp.recursion_prob:
                    # Possibly-cyclic call: flat arguments, never one
                    # variable twice.
                    callee = rng.randint(0, gp.predicate_count - 1)
                    goal = predication(callee, 0)
                    if goal.__class__ is Compound and len(goal.args) == 2:
                        x, y = goal.args
                        if x == y and x.__class__ is Variable:
                            other = next(name for name in _VAR_NAMES if name != x.name)
                            goal = Compound(goal.functor, (x, Variable(other)))
                    body.append(goal)
                elif idx + 1 < gp.predicate_count:
                    # Acyclic call: structure in the arguments is safe.
                    callee = rng.randint(idx + 1, gp.predicate_count - 1)
                    body.append(predication(callee, 1))
                else:
                    body.append(Atom(f"missing{rng.randint(0, 1)}"))
            clauses.append(Clause(head, tuple(body)))
    goal = predication(0, 1)
    return Program(tuple(clauses), goal)


# -- the faithfulness check ----------------------------------------------------

# Whole restricted states are compared at chrono 1, every this many steps and
# at the end; the per-step delta comparison covers the steps in between.
FULL_COMPARE_EVERY = 8192


@dataclass
class Divergence:
    """Where replay and engine parted.  `engine_state` is the engine's tree
    after `chrono` steps (at the run's end if it is shorter);
    `rebuilt_state` is replay's, where a step or the final state was compared.
    """

    chrono: int
    note: str
    applied_rule: Optional[RuleId] = None
    classified_rule: Optional[RuleId] = None
    engine_state: Optional[RestrictedState] = None
    rebuilt_state: Optional[RestrictedState] = None


def program_digest(program: Program) -> str:
    return hashlib.sha256(render_program(program).encode()).hexdigest()[:12]


@dataclass
class FaithfulnessReport:
    program: Program
    steps_checked: int
    verdict: str  # "pass" | "fail" | "limit-hit"
    first_divergence: Optional[Divergence] = None
    detail: str = ""

    @property
    def program_digest(self) -> str:
        """The module-level `program_digest` of the checked program, computed
        when read: most reports never show it."""
        return program_digest(self.program)


def _deltas_match(a: StepDelta, b: StepDelta) -> bool:
    # Both sides report removals in creation order, and a created node with
    # its parent and child index, so equal deltas place every box alike.
    if a.current != b.current or a.removed != b.removed or a.created != b.created:
        return False
    x, y = a.created_goal, b.created_goal
    if (x is None) != (y is None) or (x is not None and not alpha_equal(x, y)):
        return False
    x, y = a.updated_goal, b.updated_goal
    if (x is None) != (y is None):
        return False
    return x is None or (x[0] == y[0] and alpha_equal(x[1], y[1]))


def _first_answer_apart(xs, ys) -> Optional[int]:
    """The 1-based place of the first answer where two answer lists part, up
    to renaming (one past the shorter list if it is the longer's prefix), or
    None if they are equal."""
    for place, (x, y) in enumerate(zip(xs, ys), start=1):
        if not alpha_equal(x, y):
            return place
    return None if len(xs) == len(ys) else min(len(xs), len(ys)) + 1


def _engine_state_at(program: Program, chrono: int) -> RestrictedState:
    """The engine's tree after `chrono` steps, from a fresh (deterministic)
    re-run: the engine side of a divergence, built only on failure."""
    eng = Engine(program)
    while eng.chrono < chrono and eng.step() is not None:
        pass
    return eng.copy()


def check_faithfulness(
    program: Program,
    max_steps: int = 10_000,
    events: Optional[Iterable[TraceEvent]] = None,
) -> FaithfulnessReport:
    """Run the engine, replay an event stream and compare the two step by
    step; then compare the answers with the oracle's, in order.

    The stream replayed is the run's own, unless `events` is given: then
    that stream is replayed against the run instead (negative controls feed
    mutated streams this way).  Both take one path:
    - `compare` checks each step once replay has classified its event:
      applied vs classified rule, tree sizes, the step deltas on {tree,
      current, numbers, predications}, and whole states against a copy of
      the engine's taken at chrono 1, every FULL_COMPARE_EVERY steps and at
      step `max_steps - 1` (a capped run's last compared step);
    - a foreign stream is replayed to its end, past a divergence too, and
      its length is then compared with the run's, both ways;
    - `finish()` classifies the last event: compared, and the final state
      against the live engine, when the run completed; replayed only, so
      that a rejection shows, when a foreign stream has already failed.
    A stream that replay rejects anywhere fails with that rejection, but
    one that ends on a Redo is a prefix: that never hides a divergence
    already found.  A completed run's answers must equal the oracle's, one
    by one up to renaming: both searches take the leftmost goal and the
    clauses in source order, so they find the same answers in the same order.
    """
    eng = Engine(program)
    run = stream_events(eng, max_steps=max_steps)
    feed = None if events is None else iter(events)
    reb = Rebuilder(program.goal)

    # Replay finishes an event only once the engine has taken the next step,
    # so per step only the engine's rule, delta, tree size and (at a
    # checkpoint) a copy of its state are kept, for its last two steps.
    previous: Optional[tuple] = None
    latest: Optional[tuple] = None
    steps = checked = 0
    divergence: Optional[Divergence] = None
    completed = True

    def compare(chrono: int, engine_step: tuple, rebuilt) -> Optional[Divergence]:
        nonlocal checked
        checked += 1
        applied, eng_delta, size, checkpoint = engine_step
        classified, reb_delta = rebuilt
        if classified is not applied:
            note = "classified rule differs from applied rule"
        elif size != len(reb.state.goals):
            note = "replayed tree size differs from the engine's"
        elif not _deltas_match(eng_delta, reb_delta):
            note = "state change differs between engine and replay"
        elif checkpoint is not None and not states_match(checkpoint, reb.state):
            note = "restricted states diverged"
        else:
            return None
        return Divergence(chrono, note, applied, classified, rebuilt_state=reb.state.copy())

    try:
        for rule, event, delta in run:
            steps += 1
            checkpoint = None
            if steps == 1 or steps % FULL_COMPARE_EVERY == 0 or steps == max_steps - 1:
                checkpoint = eng.copy()
            previous, latest = latest, (rule, delta, len(eng.goals), checkpoint)
            if feed is not None:
                event = next(feed, None)
                if event is None:  # the stream is shorter than the run
                    break
            done = reb.push(event)
            if done is not None:
                divergence = compare(steps - 1, previous, done)
                if divergence:
                    break
        else:
            completed = eng.select_rule() is None
        if feed is not None:
            # Replay what is left of the stream: one that replay rejects is
            # reported as rejected, even where it differed from the run earlier.
            for event in feed:
                reb.push(event)
            if divergence is None:
                steps += sum(1 for _ in run)  # the run's steps past a short stream
                streamed = reb.pushed
                if streamed != steps:
                    divergence = Divergence(
                        min(streamed, steps) + 1,
                        f"the stream has {streamed} events, the run {steps} steps",
                    )
        # Capped runs stop comparing one event early, and the run's own
        # stream is not replayed past a divergence.
        if (divergence is None and completed) or (divergence is not None and feed is not None):
            done = reb.finish()
            if divergence is None:
                divergence = compare(steps, latest, done)
                if divergence is None and not states_match(eng, reb.state):
                    divergence = Divergence(
                        steps, "final restricted states diverged", rebuilt_state=reb.state.copy()
                    )
    except EngineError as err:  # DeterminismError included
        return FaithfulnessReport(program, checked, "fail", detail=str(err))
    except CorruptTraceError as err:
        if divergence is None or not isinstance(err, TraceTruncatedError):
            divergence = Divergence(err.chrono, f"replay rejected the stream: {err}")

    if divergence is not None:
        divergence.engine_state = _engine_state_at(program, divergence.chrono)
        return FaithfulnessReport(program, checked, "fail", first_divergence=divergence)

    if completed:
        # Both searches walk the same tree, and the oracle tries each clause
        # at most once per box: this budget only runs out on another tree.
        tries = steps * len(program.clauses)
        ref = reference_solve(program, tries)
        detail = ""
        if ref.capped:
            detail = f"oracle spent its budget of {tries} clause tries on a completed run"
        elif (apart := _first_answer_apart(eng.answers, ref.answers)) is not None:
            detail = (
                f"answers differ at answer {apart}: "
                f"engine {len(eng.answers)} vs oracle {len(ref.answers)}"
            )
        return FaithfulnessReport(program, checked, "fail" if detail else "pass", detail=detail)
    return FaithfulnessReport(
        program, checked, "limit-hit", detail="step cap hit; prefix checked only"
    )
