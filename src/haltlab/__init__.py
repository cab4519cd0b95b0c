"""Workbench for loop detection, recursive functions, and halting experiments.

The package is a small stack: a Turing-machine model with immutable
configurations (machine), a repetition-recording oracle with replay
audits (oracle), partial recursive function expressions with two
independent evaluators (recfun), text formats for both (dsl), checkable
nowhere-zero certificates (proofs), a deterministic three-way
cooperative searcher (trio), and exhaustive classification experiments
with CSV reports (experiments).
"""

from .machine import (
    BLANK,
    InstantaneousDescription,
    LEFT,
    Machine,
    MachineError,
    RIGHT,
    initial_id,
    step,
)
from .oracle import (
    BudgetExceeded,
    Halted,
    LoopDetected,
    OracleRun,
    RunOutcome,
    replay_verify,
    run,
    run_with_oracle,
)
from .recfun import (
    ADD,
    ArityError,
    CompiledTerm,
    Compose,
    EQ_CHAR,
    FuelExhausted,
    MONUS,
    MUL,
    Mu,
    PRED,
    PrimRec,
    Proj,
    RecExpr,
    SIGN,
    SUCC,
    Succ,
    ZERO,
    Zero,
    arity,
    const_expr,
    evaluate,
    evaluate_costed,
    oracle_evaluate,
)
from .dsl import (
    ParseError,
    Program,
    format_machine,
    format_program,
    format_term,
    load_program,
    parse_program,
)
from .proofs import (
    Certificate,
    Statement,
    check_certificate,
    enumerate_certificates,
)
from .trio import (
    Exhausted,
    Found,
    Proved,
    SelfTerminated,
    TrioRecord,
    TrioRun,
    TrioTask,
    TrioVerdict,
    UNDETERMINED,
    Undetermined,
    classify_corpus_entry,
    extend,
    run_trio,
)
from .experiments import (
    ClassificationReport,
    MachineClass,
    bouncer,
    classify_all,
    enumerate_class,
    falsify_demo,
    machine_code,
    report_to_csv,
    right_runner,
    run_fixture_suite,
)

__version__ = "0.1.0"
