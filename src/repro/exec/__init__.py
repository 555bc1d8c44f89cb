"""IR execution engines: the lane runners under the CPU/GPU backends.

A backend is a device; an engine runs the lanes.  Every engine executes
the same IR over the same shared region through one contract —
``call_function`` (one invocation into ``self.trace``, an
:class:`ExecTrace` the engine owns) and ``run_launch`` (a GPU launch, a
CPU chunk or a reduction's joins, returned as a
:class:`~repro.exec.buffers.LaunchTrace`, the only trace the backends,
the runtime and its ``trace_log`` see) — and records memory events in
one layout, :class:`MemEventColumns`.  The runtime picks the engine
class once (``ConcordRuntime._make_engine``):

* :class:`Interpreter` — the reference engine: a direct tree walk over
  the IR object graph, easy to audit, used as the oracle in equivalence
  tests (``ConcordRuntime(engine="reference")``).
* :class:`CompiledEngine` — the generated-code engine (default): each
  function is translated once per program into Python source — one
  Python function per IR function, printed from its region tree
  (:mod:`repro.ir.structure`, :class:`~repro.exec.compiled.JitCode`) —
  every runtime's :class:`CodeCache` binds that code to its region, and
  a launch runs all its work-items in one generated loop
  (``run_launch`` calls the kernel's lanes entry; per launch: the
  engine, the lookup, the event buffer — per lane, locals of that one
  frame: ``global_id``, private memory, sequence numbers, step count,
  unit counts and event cap).
  See :mod:`repro.exec.compiled` and ``docs/ENGINE.md``.

:class:`~repro.exec.regions.RegionInterpreter` is the reference
interpreter walking that region tree instead of the block graph: the
oracle of the tree itself, used by tests and the ``structure`` fuzz
target only.

A third, batch-oriented engine executes every lane of a GPU launch at
once instead of lane-at-a-time:

* :class:`VectorEngine` — a :class:`CompiledEngine` whose ``run_launch``
  runs :class:`VectorFunction` code (columnar NumPy generated from the
  same op table and region tree, one function per IR function, branches
  as lane partitions, kept per program in a :class:`VectorCodeCache`)
  and falls back to the scalar launch per kernel
  (``ConcordRuntime(engine="vector")``).  See
  :mod:`repro.exec.vector` and ``docs/VECTOR.md``.
"""

from .buffers import (
    DEFAULT_MEM_EVENT_CAP,
    MemEvent,
    MemEventColumns,
    PrivateMemoryPool,
)
from .compiled import CodeCache, CompiledEngine, CompiledFunction
from .interp import (
    AddressSpace,
    ExecTrace,
    ExecutionError,
    Interpreter,
)
from .vector import (
    VectorCodeCache,
    VectorEngine,
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
    "VectorEngine",
    "VectorFallback",
    "VectorFunction",
    "classify_kernel",
    "run_vectorized",
]
