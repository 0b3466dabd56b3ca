"""boxtrace: a tracing pure-Prolog interpreter built around the classic
four-port box model, with an event stream, its replay, and a faithfulness
checker tying the two together."""

from .engine import (
    DeterminismError,
    Engine,
    EngineError,
    RestrictedState,
    RuleId,
    StepDelta,
)
from .harness import (
    FaithfulnessReport,
    GenParams,
    RefResult,
    check_faithfulness,
    gen_program,
    reference_solve,
)
from .parser import ParseError, parse_program, parse_term_text
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
    render_clause,
    render_program,
    render_term,
    unify,
)
from .trace import (
    Port,
    TraceEvent,
    event_to_json,
    parse_trace_text,
    render_event,
    stream_events,
)

__version__ = "0.1.0"
