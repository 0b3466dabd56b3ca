"""Differential checking: engine -> events -> replay, against each other
and against an independent resolution oracle.

`check_faithfulness` runs the engine, replays its event stream (or any
stream handed in) alongside it, and asserts per step that the classified
rule equals the applied one and that replay changed its tree as the engine
changed its own.  Whole states are compared against the engine's own
tables: a copy taken at chrono 1, every FULL_COMPARE_EVERY steps and at a
capped run's last compared step, and the live engine at the end of a
completed run.  Answers are additionally compared against
`reference_solve`, a plain recursive resolution search that shares nothing
with the engine beyond terms and unification.

`gen_program` produces small random programs in the supported subset,
deterministically from a seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .engine import (
    DeterminismError,
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
    render_program,
    rename_apart,
    unify_into,
)
from .trace import TraceEvent, stream_events


# -- independent resolution oracle -------------------------------------------

# The oracle's recursion depth cap, and the fewest clause tries it may spend.
# On a completed run the try budget grows with the run: both searches walk
# the same tree, so the oracle needs at most one try per clause per box.
ORACLE_MAX_DEPTH = 250
ORACLE_MIN_TRIES = 200_000


class _CapExceeded(Exception):
    pass


@dataclass(frozen=True)
class RefResult:
    answers: tuple[Term, ...]
    capped: bool


def reference_solve(
    program: Program,
    max_depth: int = ORACLE_MAX_DEPTH,
    max_steps: int = ORACLE_MIN_TRIES,
) -> RefResult:
    """Answers of a direct recursive search: leftmost goal, textual clause
    order, depth-first.  Deliberately not built on the engine; when a cap
    is hit the answers found so far are a lower bound only.
    """
    answers: list[Term] = []
    counters = {"steps": 0, "rename": 0}
    # One substitution, bound in place; each clause tried undoes its
    # bindings back to the trail mark it started from.
    s: Subst = {}
    trail: list[Variable] = []

    def solve(goals: tuple[Term, ...], depth: int):
        if not goals:
            answers.append(apply_subst(program.goal, s))
            return
        if depth > max_depth:
            raise _CapExceeded
        first, rest = goals[0], goals[1:]
        for clause in program.clauses:
            counters["steps"] += 1
            if counters["steps"] > max_steps:
                raise _CapExceeded
            counters["rename"] += 1
            instance = rename_apart(clause, counters["rename"])
            mark = len(trail)
            if unify_into(first, instance.head, s, trail):
                solve(instance.body + rest, depth + 1)
                for var in trail[mark:]:
                    del s[var]
                del trail[mark:]

    try:
        solve((program.goal,), 0)
    except _CapExceeded:
        return RefResult(tuple(answers), capped=True)
    return RefResult(tuple(answers), capped=False)


def multiset_alpha_equal(xs, ys) -> bool:
    """Multiset equality over terms, each pair compared up to renaming."""
    pool = list(ys)
    if len(xs) != len(pool):
        return False
    for x in xs:
        for i, y in enumerate(pool):
            if alpha_equal(x, y):
                del pool[i]
                break
        else:
            return False
    return True


# -- random program generation ------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    seed: int
    predicate_count: int = 4
    max_clauses: int = 3
    max_body_len: int = 3
    max_term_depth: int = 2
    constant_pool: int = 3
    recursion_prob: float = 0.15

    def __post_init__(self):
        if min(
            self.predicate_count,
            self.max_clauses,
            self.max_body_len,
            self.max_term_depth,
            self.constant_pool,
        ) < 1:
            raise ValueError("all size bounds must be >= 1")
        if not 0.0 <= self.recursion_prob <= 1.0:
            raise ValueError("recursion_prob must be in [0, 1]")


_VAR_NAMES = ("X", "Y", "Z")


def gen_program(gp: GenParams) -> Program:
    """A syntactically valid random program, deterministic in the seed.

    With recursion_prob 0 every body goal calls a strictly later predicate
    (or one with no clauses), so the call graph is acyclic.
    """
    rng = random.Random(gp.seed)
    consts = [chr(ord("a") + i) if i < 26 else f"c{i}" for i in range(gp.constant_pool)]
    arities = [rng.randint(0, 2) for _ in range(gp.predicate_count)]

    def make_term(depth: int) -> Term:
        roll = rng.random()
        if roll < 0.35:
            return Atom(rng.choice(consts))
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
        n_clauses = rng.randint(1, gp.max_clauses)
        for _ in range(n_clauses):
            head = predication(idx, gp.max_term_depth - 1)
            body_len = rng.randint(0, gp.max_body_len)
            body = []
            for _ in range(body_len):
                if rng.random() < 0.08:
                    # A call nothing defines: a guaranteed failure box.
                    body.append(Atom(f"missing{rng.randint(0, 1)}"))
                    continue
                if rng.random() < gp.recursion_prob:
                    # Possibly-cyclic call.  Arguments stay flat so a
                    # non-terminating descent cannot also grow its terms
                    # without bound (capped runs stay desk-affordable).
                    callee = rng.randint(0, gp.predicate_count - 1)
                    body.append(predication(callee, 0))
                elif idx + 1 < gp.predicate_count:
                    # Acyclic call: structure in the arguments is safe.
                    callee = rng.randint(idx + 1, gp.predicate_count - 1)
                    body.append(predication(callee, 1))
                else:
                    body.append(Atom(f"missing{rng.randint(0, 1)}"))
            clauses.append(Clause(head, tuple(body), len(clauses)))
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
    `rebuilt_state` is replay's, where whole states or deltas were compared.
    """

    chrono: int
    note: str
    applied_rule: Optional[RuleId] = None
    classified_rule: Optional[RuleId] = None
    engine_state: Optional[RestrictedState] = None
    rebuilt_state: Optional[RestrictedState] = None


@dataclass
class FaithfulnessReport:
    program_digest: str
    steps_checked: int
    verdict: str  # "pass" | "fail" | "limit-hit"
    first_divergence: Optional[Divergence] = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def program_digest(program: Program) -> str:
    return hashlib.sha256(render_program(program).encode()).hexdigest()[:12]


def _deltas_match(a: StepDelta, b: StepDelta) -> bool:
    # Both sides report removals in creation order, and a created node with
    # its parent and child index, so equal deltas place every box alike.
    if a.current != b.current or a.removed != b.removed or a.created != b.created:
        return False
    if (a.created_goal is None) != (b.created_goal is None):
        return False
    if a.created_goal is not None and not alpha_equal(a.created_goal, b.created_goal):
        return False
    if (a.updated_goal is None) != (b.updated_goal is None):
        return False
    if a.updated_goal is not None:
        if a.updated_goal[0] != b.updated_goal[0]:
            return False
        if not alpha_equal(a.updated_goal[1], b.updated_goal[1]):
            return False
    return True


def _length_mismatch(streamed: int, ran: int) -> Divergence:
    return Divergence(
        min(streamed, ran) + 1, f"the stream has {streamed} events, the run {ran} steps"
    )


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
    step; then cross-check the answer multiset against the oracle.

    The stream replayed is the run's own, unless `events` is given: then
    that stream is replayed against the run instead (negative controls feed
    mutated streams this way).  A stream shorter or longer than the run
    fails, and so does one that replay rejects anywhere.

    Comparison per step: applied vs classified rule, tree sizes, then the
    step deltas on {tree, current, numbers, predications}.  Whole restricted
    states are compared against a copy of the engine's taken at chrono 1,
    every FULL_COMPARE_EVERY steps and at step `max_steps - 1` (a capped
    run's last compared step), and against the live engine at the end of a
    completed run.
    """
    digest = program_digest(program)
    eng = Engine(program)
    run = stream_events(eng, max_steps=max_steps)
    feed = None if events is None else iter(events)
    reb = Rebuilder(program.goal)

    # Replay finishes an event only once the engine has taken the next step,
    # so per step only the engine's rule, delta, tree size and (at a
    # checkpoint) a copy of its state are kept, for its last two steps.
    previous: Optional[tuple] = None
    latest: Optional[tuple] = None
    steps = 0
    divergence: Optional[Divergence] = None
    checked = 0
    completed = True

    def compare_one(chrono: int, engine_step: tuple, rebuilt) -> Optional[Divergence]:
        applied, eng_delta, size, checkpoint = engine_step
        classified, reb_delta = rebuilt
        if classified is not applied:
            return Divergence(
                chrono,
                "classified rule differs from applied rule",
                applied_rule=applied,
                classified_rule=classified,
            )
        if size != len(reb.state.goals):
            return Divergence(
                chrono,
                "replayed tree size differs from the engine's",
                applied_rule=applied,
                classified_rule=classified,
            )
        if not _deltas_match(eng_delta, reb_delta):
            note = "state change differs between engine and replay"
        elif checkpoint is not None and not states_match(checkpoint, reb.state):
            note = "restricted states diverged"
        else:
            return None
        return Divergence(
            chrono,
            note,
            applied_rule=applied,
            classified_rule=classified,
            rebuilt_state=reb.state.copy(),
        )

    try:
        for rule, event, delta in run:
            steps += 1
            checkpoint = None
            if steps == 1 or steps % FULL_COMPARE_EVERY == 0 or steps == max_steps - 1:
                checkpoint = eng.copy()
            previous, latest = latest, (rule, delta, len(eng.goals), checkpoint)
            if feed is not None:
                event = next(feed, None)
                if event is None:
                    divergence = _length_mismatch(steps - 1, steps + sum(1 for _ in run))
                    break
            done = reb.push(event)
            if done is not None:
                divergence = compare_one(steps - 1, previous, done)
                checked += 1
                if divergence:
                    break
        else:
            completed = eng.select_rule() is None
        if feed is not None:
            # Replay what is left of the stream: one that replay rejects is
            # reported as rejected, even where it differed from the run earlier.
            rest = 0
            for event in feed:
                reb.push(event)
                rest += 1
            if divergence is None and rest:
                divergence = _length_mismatch(steps + rest, steps)
            if divergence is not None:
                reb.finish()
    except (DeterminismError, EngineError) as err:
        return FaithfulnessReport(digest, checked, "fail", detail=str(err))
    except (TraceTruncatedError, CorruptTraceError) as err:
        divergence = Divergence(err.chrono, f"replay rejected the stream: {err}")

    if divergence is None and steps and completed:
        # The final event only classifies without lookahead on a completed
        # run; capped runs stop comparing one event early.
        try:
            done = reb.finish()
        except (TraceTruncatedError, CorruptTraceError) as err:
            done = None
            divergence = Divergence(err.chrono, f"replay rejected the stream: {err}")
        if done is not None:
            divergence = compare_one(steps, latest, done)
            checked += 1
            if divergence is None and not states_match(eng, reb.state):
                divergence = Divergence(
                    steps, "final restricted states diverged", rebuilt_state=reb.state.copy()
                )

    if divergence is not None:
        divergence.engine_state = _engine_state_at(program, divergence.chrono)
        return FaithfulnessReport(digest, checked, "fail", first_divergence=divergence)

    detail = ""
    if completed:
        tries = max(ORACLE_MIN_TRIES, steps * len(program.clauses))
        ref = reference_solve(program, ORACLE_MAX_DEPTH, tries)
        if ref.capped:
            detail = "oracle hit its cap; answers not compared"
        elif not multiset_alpha_equal(eng.answers, ref.answers):
            return FaithfulnessReport(
                digest,
                checked,
                "fail",
                detail=(
                    "answer multisets differ: engine "
                    f"{len(eng.answers)} vs oracle {len(ref.answers)}"
                ),
            )
        return FaithfulnessReport(digest, checked, "pass", detail=detail)
    return FaithfulnessReport(
        digest, checked, "limit-hit", detail="step cap hit; prefix checked only"
    )
