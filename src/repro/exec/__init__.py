"""Scalar IR execution engines shared by the CPU/GPU simulators and host.

Two interchangeable backends execute the same IR over the same shared
region:

* :class:`Interpreter` — the reference backend: a direct tree walk over
  the IR object graph, easy to audit, used as the oracle in equivalence
  tests (``ConcordRuntime(engine="reference")``).
* :class:`CompiledEngine` — the generated-code backend (default): each
  function is translated once per program into Python source — one
  Python function per IR function, printed from its region tree
  (:mod:`repro.ir.structure`, :class:`~repro.exec.compiled.JitCode`) —
  every runtime's :class:`CodeCache` binds that code to its region, and
  a launch replays it over all its work-items with one engine
  (``run_launch`` / ``run_chunk``; per launch: the engine, the lookup,
  the event buffer and count columns — per lane: ``global_id``, private
  memory and, on the GPU, sequence numbers, step count and event cap).
  See :mod:`repro.exec.compiled` and ``docs/ENGINE.md``.

:class:`~repro.exec.regions.RegionInterpreter` is the reference
interpreter walking that region tree instead of the block graph: the
oracle of the tree itself, used by tests and the ``structure`` fuzz
target only.

A third, batch-oriented engine executes every lane of a GPU chunk at
once instead of lane-at-a-time:

* :class:`VectorFunction` / :class:`VectorCodeCache` — columnar NumPy
  code generated from the same op table, one function per superblock,
  with mask-based divergence (``ConcordRuntime(engine="vector")`` selects
  the :class:`repro.backend.vector.VectorBackend` that drives it).  See
  :mod:`repro.exec.vector` and ``docs/VECTOR.md``.
"""

from .buffers import (
    DEFAULT_MEM_EVENT_CAP,
    MemEventColumns,
    PrivateMemoryPool,
)
from .compiled import CodeCache, CompiledEngine, CompiledFunction
from .interp import (
    AddressSpace,
    ExecTrace,
    ExecutionError,
    Interpreter,
    MemEvent,
)
from .vector import (
    VectorCodeCache,
    VectorFallback,
    VectorFunction,
    classify_kernel,
    run_vectorized,
)

__all__ = [
    "AddressSpace",
    "CodeCache",
    "CompiledEngine",
    "CompiledFunction",
    "DEFAULT_MEM_EVENT_CAP",
    "ExecTrace",
    "ExecutionError",
    "Interpreter",
    "MemEvent",
    "MemEventColumns",
    "PrivateMemoryPool",
    "VectorCodeCache",
    "VectorFallback",
    "VectorFunction",
    "classify_kernel",
    "run_vectorized",
]
