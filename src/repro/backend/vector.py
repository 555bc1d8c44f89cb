"""The vectorized GPU backend: columnar NumPy execution per chunk.

``VectorBackend`` is a drop-in replacement for :class:`GpuBackend` that
executes every lane of a chunk at once through ``repro.exec.vector``
(one ndarray column per virtual register, mask-based divergence) instead
of running the scalar engine once per work-item.  Everything
outside lane execution — JIT cache, timing, spans, reduction scratch,
observer bookkeeping — is inherited unchanged, because the timing models
are a pure function of the traces and the vector machine materializes a
launch trace bit-identical to the one the scalar engine's lanes
concatenate into.

Per-kernel decision flow (auditable via the ``vector.*`` counters and
the ``vector_classify`` span):

* first launch classifies the kernel (``regular`` / ``maskable`` /
  ``gnarly``); gnarly kernels — irreducible or unsupported constructs,
  un-devirtualized virtual calls, recursion, device-side allocation —
  permanently fall back to the scalar :class:`CompiledEngine` path;
* vectorizable kernels run optimistically; a runtime trap (semantics the
  columnar lowering cannot reproduce for *these* inputs) rolls back every
  store and re-runs the chunk on the scalar path, so results never
  diverge; sticky traps (cross-lane hazards) disable the kernel for the
  rest of the program object's life.

The generated columnar code and these per-kernel verdicts belong to the
``CompiledProgram`` (``vector_code``, transient like ``jit_code``): every
runtime over one program object shares them, nothing else does.
"""

from __future__ import annotations

from typing import Optional

from ..exec.buffers import LaunchTrace
from .gpu import GpuBackend

# Below this active-lane-slot ratio the dense segments are so small that
# per-ufunc overhead beats the scalar engine; measured on a kernel's vector
# launches, and from the first one under it the kernel is routed scalar.
_MIN_OCCUPANCY = 0.12


class VectorBackend(GpuBackend):
    """GPU backend that executes chunks through the columnar engine."""

    name = "vector"
    capabilities = frozenset({"for", "reduce", "jit"})

    def __init__(self, rt):
        super().__init__(rt)
        #: kernels whose classification this runtime's counters have seen
        self._counted: set = set()

    # -- classification ----------------------------------------------------

    def _code(self):
        """The program's vector code and routing verdicts: created by the
        first vector runtime over the program object, shared by every
        later one, dropped with it (``CompiledProgram.vector_code``)."""
        program = self.rt.program
        if program.vector_code is None:
            from ..exec.vector import VectorCodeCache

            program.vector_code = VectorCodeCache()
        return program.vector_code

    def _classify(self, code, kernel):
        """``classify_kernel``'s answer from the program's code cache; the
        first ask by this runtime is the one its span and counters show."""
        from ..exec.vector import classify_kernel

        if kernel in self._counted:
            return classify_kernel(code, kernel)
        self._counted.add(kernel)
        with self.rt._span("vector_classify", "vector", kernel=kernel.name):
            got = classify_kernel(code, kernel)
        counters = self._counters()
        if counters is not None:
            if got[0] == "gnarly":
                counters.add("vector.kernels_gnarly")
            else:
                counters.add("vector.kernels_vectorized")
        return got

    # -- lane execution ----------------------------------------------------

    def _gpu_traces(self, kernel, span: range, args_of, budget=None) -> LaunchTrace:
        rt = self.rt
        if len(span) == 0:
            return super()._gpu_traces(kernel, span, args_of, budget)
        counters = self._counters()
        code = self._code()
        if kernel in code.scalar:
            # A past launch of this program hit a cross-lane hazard or ran
            # at an occupancy where columnar execution loses; skip even
            # the classification and go straight to the scalar path.
            if counters is not None:
                counters.add("vector.fallbacks")
            return super()._gpu_traces(kernel, span, args_of, budget)
        kind, _reason, vfn = self._classify(code, kernel)
        if kind == "gnarly":
            if counters is not None:
                counters.add("vector.fallbacks")
            return super()._gpu_traces(kernel, span, args_of, budget)

        from ..exec.vector import VectorFallback, run_vectorized

        # Mirror the scalar path's lazy device-heap reservation *before*
        # executing, so region layout is identical whichever path runs
        # (the scalar fallback would otherwise reserve it mid-construct).
        if rt.program.config.device_alloc:
            rt.device_heap()
        try:
            with rt._span(
                "vector_launch", "vector", kernel=kernel.name, n=len(span)
            ):
                machine, trace = run_vectorized(
                    rt,
                    vfn,
                    span,
                    args_of,
                    num_cores=rt.system.gpu.num_eus,
                    budget=rt.mem_event_cap if budget is None else budget,
                )
        except VectorFallback as fb:
            if fb.sticky:
                code.scalar[kernel] = str(fb)
            if counters is not None:
                counters.add("vector.fallbacks")
            return super()._gpu_traces(kernel, span, args_of, budget)

        n = len(span)
        if (
            machine.occ_slots
            and machine.occ_active / machine.occ_slots < _MIN_OCCUPANCY
        ):
            # This launch already ran (and its results stand), but the
            # mask occupancy says columnar execution loses to the scalar
            # engine here — route future launches of this kernel scalar.
            code.scalar[kernel] = "low mask occupancy"
        if counters is not None:
            # The scalar engines bump engine.invocations once per
            # call_function; one vector launch is n of those.
            counters.add("engine.invocations", n)
            counters.add("engine.invocations.gpu", n)
            counters.add("vector.lanes_retired", n)
            # Occupancy ratio = vector.mask_occupancy / vector.mask_slots:
            # active lane-steps over issued lane-slots across all units.
            counters.add("vector.mask_occupancy", int(machine.occ_active))
            counters.add("vector.mask_slots", int(machine.occ_slots))
        if rt.keep_traces:
            rt.trace_log.extend(trace.lanes())
        return trace
