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
  rest of the runtime.
"""

from __future__ import annotations

from typing import Optional

from ..exec.buffers import LaunchTrace
from .gpu import GpuBackend

# Process-wide state shared by every VectorBackend instance.  Compiled
# VectorFunctions depend only on the IR (which ``Workload.compile``
# caches per process) and the region's SVM translation constant, so the
# compile cost is paid once per program, not once per runtime.  The
# scalar memo remembers kernels the optimistic path gave up on — a
# cross-lane hazard or an occupancy too low for columnar execution to
# win — so later runtimes skip the doomed vector attempt entirely
# (either path yields bit-identical traces; this is purely a heuristic).
#
# All three are keyed by the program's content-hash ``program_id``
# (``repro.runtime.compiler``): two different programs can never alias an
# entry (the old shape-based key collided for same-named kernels with
# equal block/instruction counts), while recompiles of the same
# (source, options) pair — including warm loads from the artifact store —
# share the memos, exactly as intended.
_SHARED_CACHES: dict = {}  # (program_id, svm_const) -> VectorCodeCache
_SCALAR_KERNELS: dict = {}  # (program_id, kernel name) -> reason string
_GNARLY_KERNELS: dict = {}  # (program_id, kernel name) -> gnarly reason


def _memo_key(program_id, kernel):
    """Stable across recompiles *and* processes for the same
    (source, options) pair — ``program_id`` is a content hash — while
    distinguishing same-named kernels from different programs (fuzz
    generators reuse class names)."""
    return (program_id, kernel.name)


def clear_memos() -> None:
    """Drop the process-wide classification/fallback memos (test support:
    differential oracles clear them so every run exercises the optimistic
    vector path from scratch)."""
    _SCALAR_KERNELS.clear()
    _GNARLY_KERNELS.clear()


def reset_process_caches() -> None:
    """Reset *every* process-wide vector-engine cache, not just the
    classification memos: ``_SHARED_CACHES`` keeps compiled columnar
    kernels keyed by svm_const, which :func:`clear_memos` never touched —
    an oracle run could therefore replay a kernel compiled under an
    earlier iteration's region layout.  Fuzz oracles call this between
    runs so each one starts from a genuinely cold process state."""
    clear_memos()
    _SHARED_CACHES.clear()

# Below this active-lane-slot ratio the dense segments are so small that
# per-ufunc overhead beats the scalar engine; measured once on the first
# vector launch of a kernel, then routed scalar for the process.
_MIN_OCCUPANCY = 0.12


class VectorBackend(GpuBackend):
    """GPU backend that executes chunks through the columnar engine."""

    name = "vector"
    capabilities = frozenset({"for", "reduce", "jit"})

    def __init__(self, rt):
        super().__init__(rt)
        # kernel name -> ("gnarly", reason, None) | (kind, "", VectorFunction)
        self._status: dict = {}
        self._sticky: set = set()

    # -- classification ----------------------------------------------------

    def _vector_cache(self):
        from ..exec.vector import VectorCodeCache

        key = (self.rt.program.program_id, int(self.rt.region.svm_const))
        cache = _SHARED_CACHES.get(key)
        if cache is None:
            cache = _SHARED_CACHES[key] = VectorCodeCache(self.rt.region)
        return cache

    def _classify(self, kernel):
        got = self._status.get(kernel.name)
        if got is not None:
            return got
        memo = _memo_key(self.rt.program.program_id, kernel)
        reason = _GNARLY_KERNELS.get(memo)
        if reason is not None:
            got = ("gnarly", reason, None)
        else:
            from ..exec.vector import classify_kernel

            with self.rt._span(
                "vector_classify", "vector", kernel=kernel.name
            ):
                got = classify_kernel(self._vector_cache(), kernel)
            if got[0] == "gnarly":
                _GNARLY_KERNELS[memo] = got[1]
        self._status[kernel.name] = got
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
        memo = _memo_key(rt.program.program_id, kernel)
        if kernel.name in self._sticky or memo in _SCALAR_KERNELS:
            # A past launch hit a cross-lane hazard or ran at an
            # occupancy where columnar execution loses; skip even the
            # classification compile and go straight to the scalar path.
            if counters is not None:
                counters.add("vector.fallbacks")
            return super()._gpu_traces(kernel, span, args_of, budget)
        kind, _reason, vfn = self._classify(kernel)
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
                self._sticky.add(kernel.name)
                _SCALAR_KERNELS[memo] = str(fb)
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
            _SCALAR_KERNELS[memo] = "low mask occupancy"
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
