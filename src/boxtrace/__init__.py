"""boxtrace: a tracing pure-Prolog interpreter built around the classic
four-port box model, with an event stream, its replay, and a faithfulness
checker tying the two together."""

from .engine import (
    DeterminismError,
    Engine,
    EngineError,
    RuleId,
    StepDelta,
    path_of,
)
from .harness import (
    FaithfulnessReport,
    GenParams,
    RefResult,
    check_faithfulness,
    gen_program,
    multiset_alpha_equal,
    reference_solve,
)
from .parser import ParseError, parse_program, parse_term_text
from .rebuild import (
    CorruptTraceError,
    Lookahead,
    Rebuilder,
    RestrictedState,
    TraceTruncatedError,
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
    is_instance_of,
    render_clause,
    render_program,
    render_term,
    rename_apart,
    unify,
    useful_clauses,
)
from .trace import (
    Port,
    TraceEvent,
    event_from_json,
    event_to_json,
    events_alpha_equal,
    parse_event,
    parse_trace_text,
    render_event,
    stream_events,
    write_trace_text,
)

__version__ = "0.1.0"
