"""Integrated-GPU backend (offload through the paper's runtime API).

Owns the ``gpu_function_t`` JIT cache (keyed ``(program_id,
kernel_name)`` — kernel names repeat across compiled programs), the
launch's trace collection under its global mem-event cap budget
(:func:`~repro.backend.base.run_lanes`: one engine per launch, whichever
the runtime picked, returns one columnar
:class:`~repro.exec.buffers.LaunchTrace` from ``run_launch``), and the
section 3.3 reduction scaffolding (private copies, per-work-group tree
join, sequential host join) that :func:`~repro.backend.base.run_construct`
lays out around a reduction's chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..cpu.timing import time_cpu_execution
from ..exec.buffers import LaunchTrace
from ..gpu.timing import KernelFacts, time_gpu_kernel
from .base import LaunchResult, _runtime_mod, run_construct, run_lanes, warn_unjoined, whole


@dataclass
class GpuFunctionCache:
    """gpu_function_t: cached per-kernel JIT result (section 3.4), and
    what the timing model reads off the kernel's IR once for all its
    launches."""

    facts: KernelFacts
    finalized: bool = False
    jit_seconds: float = 0.0
    launches: int = 0


@dataclass
class JoinResult:
    """What the post-launch reduction join produced (see
    :meth:`GpuBackend.join_copies`)."""

    joined: bool = False
    local_cycles: float = 0.0
    local_seconds: float = 0.0
    host_trace: object = None
    #: the host join priced by the CPU model (only under an observer)
    host_seconds: float = 0.0


class GpuBackend:
    name = "gpu"

    # -- chunk-level primitives -------------------------------------------

    def _function(self, rt, kinfo) -> GpuFunctionCache:
        """The kernel's gpu_function_t entry, created on first use."""
        key = (rt.program.program_id, kinfo.gpu_kernel.name)
        cache = rt._gpu_function_cache.get(key)
        if cache is None:
            cache = rt._gpu_function_cache[key] = GpuFunctionCache(
                KernelFacts.of(kinfo.gpu_kernel)
            )
        return cache

    def prepare(self, rt, kinfo) -> float:
        """One-time OpenCL -> GPU ISA JIT per kernel (gpu_function_t cache)."""
        cache = self._function(rt, kinfo)
        cache.launches += 1
        if cache.finalized:
            return 0.0
        cache.jit_seconds = self.jit_preview(rt, kinfo)
        cache.finalized = True
        return cache.jit_seconds

    def jit_preview(self, rt, kinfo) -> float:
        """The JIT cost :meth:`prepare` *would* charge for this kernel,
        without finalizing the cache entry — the task graph's compile-ahead
        lane prices queued compilations with it at submission time."""
        key = (rt.program.program_id, kinfo.gpu_kernel.name)
        cache = rt._gpu_function_cache.get(key)
        if cache is not None and cache.finalized:
            return 0.0
        instructions = sum(
            len(block.instructions) for block in kinfo.gpu_kernel.blocks
        )
        return instructions * _runtime_mod().JIT_SECONDS_PER_INSTRUCTION

    def _traces(self, rt, kernel, span: range, args_of, budget=None) -> LaunchTrace:
        """One launch's trace (:func:`~repro.backend.base.run_lanes`).
        The device heap, when the program allocates on the device, is
        reserved before any lane runs, so the region layout is the same
        whichever engine runs them."""
        allocator = rt.device_heap() if rt.program.config.device_alloc else None
        return run_lanes(
            rt, self.name, kernel, span, args_of, budget,
            num_cores=rt.system.gpu.num_eus, allocator=allocator,
        )

    def _chunk(self, rt, kinfo, span, args_of, timing_cache, budget) -> LaunchResult:
        trace = self._traces(rt, kinfo.gpu_kernel, span, args_of, budget)
        report = time_gpu_kernel(
            rt.system.gpu,
            self._function(rt, kinfo).facts,
            trace,
            l3=timing_cache,
            counters=rt.counters,
        )
        return LaunchResult(report=report, traces=[trace])

    def launch(
        self,
        rt,
        kinfo,
        span: range,
        body_addr: int,
        timing_cache=None,
        budget: Optional[int] = None,
    ) -> LaunchResult:
        """Run ``operator()`` for every index of ``span`` against the body
        at ``body_addr`` and price it.  ``timing_cache`` threads one L3
        model through a construct's chunks; ``budget`` caps the mem events
        this chunk may retain.  The kernel receives the body pointer in
        CPU representation (the paper's ``CpuPtr cpu_ptr`` argument) and
        translates it itself."""
        return self._chunk(
            rt, kinfo, span, lambda index: [body_addr, index], timing_cache, budget
        )

    def reduce(
        self,
        rt,
        kinfo,
        span: range,
        copies: list,
        timing_cache=None,
        budget: Optional[int] = None,
    ) -> LaunchResult:
        """Reduction lanes, each into its private body copy
        ``copies[index]`` (section 3.3: one copy per work-item)."""
        return self._chunk(
            rt, kinfo, span, lambda index: [copies[index], index], timing_cache, budget
        )

    # -- reduction scratch management --------------------------------------

    def alloc_copies(self, rt, kinfo, body_addr: int, n: int) -> list:
        """One private body copy per work-item, initialized from the body
        payload.  The copies live in the shared region for the simulation;
        on hardware they sit in private/local memory, so their accesses
        are excluded from the global-memory trace via fresh offsets."""
        struct = kinfo.body_class.struct_type
        size = struct.size()
        payload = rt.region.read_bytes(body_addr, size)
        copies = [rt.allocator.malloc(size, struct.align()) for _ in range(n)]
        for copy_addr in copies:
            rt.region.write_bytes(copy_addr, payload)
        return copies

    def free_copies(self, rt, copies: list) -> None:
        for copy_addr in copies:
            rt.allocator.free(copy_addr)

    def join_copies(self, rt, kinfo, body_addr: int, copies: list) -> JoinResult:
        """Tree reduction within each work-group (local memory: charge a
        small per-level cost rather than global traffic), then the
        sequential host join of group leaders.  The GPU join form falls
        back to the host join when SVM lowering was skipped; when
        *neither* form exists, :func:`~repro.backend.base.warn_unjoined`.
        Must run inside the caller's construct span; each phase span is
        stamped with its simulated seconds."""
        n = len(copies)
        group = _runtime_mod().REDUCTION_GROUP_SIZE
        num_groups = (n + group - 1) // group
        join_fn = kinfo.gpu_join_kernel or kinfo.join_kernel
        if join_fn is None:
            warn_unjoined(kinfo)
            return JoinResult()
        result = JoinResult(joined=True)
        with rt._span("reduce_tree", "phase", groups=num_groups) as tree_span:
            join_interp = rt._make_engine(
                device="gpu" if join_fn.attributes.get("svm_lowered") else "cpu",
                collect_mem_events=False,
            )
            for group_index in range(num_groups):
                base = group_index * group
                members = copies[base : base + group]
                stride = 1
                while stride < len(members):
                    for offset in range(0, len(members) - stride, stride * 2):
                        into = members[offset]
                        source = members[offset + stride]
                        join_interp.call_function(join_fn, [into, source])
                    stride *= 2
            join_interp.release_private_memory()
            # local-memory reduction cost: log2(group) levels of cheap traffic
            levels = max(1, int(math.ceil(math.log2(group))))
            result.local_cycles = num_groups * levels * 8.0 / rt.system.gpu.num_eus
            result.local_seconds = result.local_cycles / rt.system.gpu.frequency_hz
            tree_span.sim_seconds = result.local_seconds

        # Sequential join of group leaders on the host, one CPU launch over
        # them (original join; the device form is a last-resort
        # stand-in), counting blocks but no events.  The host join's
        # simulated cost is only measured for the profile —
        # ExecutionReport keeps its historical meaning (device time + JIT).
        with rt._span("host_join", "phase") as host_span:
            host_trace = run_lanes(
                rt, "cpu", kinfo.join_kernel or join_fn, range(num_groups),
                lambda group_index: [body_addr, copies[group_index * group]], None,
                allocator=rt.allocator, collect_mem_events=False,
            )
            if rt.obs is not None:
                result.host_trace = host_trace
                result.host_seconds = time_cpu_execution(rt.system.cpu, [host_trace]).seconds
                host_span.sim_seconds = result.host_seconds
        return result

    # -- whole constructs: one chunk on the GPU ------------------------------

    def run_for(self, rt, kinfo, n: int, body):
        return run_construct(rt, kinfo, n, body, "for", whole("gpu", n))

    def run_reduce(self, rt, kinfo, n: int, body):
        """Hierarchical reduction (section 3.3): private body copies, local
        memory tree reduction per work-group, sequential join of group
        results."""
        return run_construct(rt, kinfo, n, body, "reduce", whole("gpu", n))
