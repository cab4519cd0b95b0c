"""Workbench for loop detection, recursive functions, and halting experiments.

The package is a small stack: a Turing-machine model with immutable
configurations (machine), a repetition-recording oracle with replay
audits (oracle), partial recursive function expressions with two
independent evaluators (recfun), text formats for both (dsl), checkable
nowhere-zero certificates (proofs), a deterministic three-way
cooperative searcher (trio), and exhaustive classification experiments
with CSV reports (experiments).

Each public name has one home: import it from its module, as in
``from haltlab.oracle import run_with_oracle`` or
``from haltlab.experiments import classify_all``.  The package itself
exports only ``__version__``.
"""

__version__ = "0.1.0"
