"""Differential fuzzing for the Concord reproduction.

Two seeded generators (:mod:`repro.fuzz.srcgen` for MiniC++ sources,
:mod:`repro.fuzz.irgen` for verifier-clean IR), the differential targets
declared in :data:`repro.fuzz.oracle.TARGETS` with the one runner that
executes them (:func:`repro.fuzz.oracle.divergences`), a spec-tree
reducer (:mod:`repro.fuzz.reduce`), and a deterministic campaign driver
(:mod:`repro.fuzz.driver`) that writes reduced reproducers into
``tests/corpus/``.

Entry point: ``python -m repro fuzz --seed N --iterations K --target T``
with ``T`` ``all`` or a name in ``TARGETS``.
"""

from .driver import (
    Divergence,
    FuzzDriver,
    FuzzReport,
    load_corpus_entry,
    write_reproducer,
)
from .irgen import BUF_SLOTS, IRProgram, build_ir, generate_ir_program
from .oracle import (
    IR_PASS_NAMES,
    TARGETS,
    FrontendRejected,
    Outcome,
    Target,
    Variant,
    divergences,
    heap_digest,
    run_ir_function,
    run_source_program,
    trace_signature,
)
from .reduce import ReductionResult, reduce_spec
from .srcgen import SourceProgram, generate_source_program, render_source

__all__ = [
    "BUF_SLOTS",
    "Divergence",
    "FrontendRejected",
    "FuzzDriver",
    "FuzzReport",
    "IRProgram",
    "IR_PASS_NAMES",
    "Outcome",
    "ReductionResult",
    "SourceProgram",
    "TARGETS",
    "Target",
    "Variant",
    "build_ir",
    "divergences",
    "generate_ir_program",
    "generate_source_program",
    "heap_digest",
    "load_corpus_entry",
    "reduce_spec",
    "render_source",
    "run_ir_function",
    "run_source_program",
    "trace_signature",
    "write_reproducer",
]
