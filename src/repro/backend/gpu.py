"""Integrated-GPU backend (offload through the paper's runtime API).

Owns the ``gpu_function_t`` JIT cache (keyed ``(program_id,
kernel_name)`` — kernel names repeat across compiled programs), the
launch's trace collection under its global mem-event cap budget (one
engine per launch, whichever the runtime picked, returns one columnar
:class:`~repro.exec.buffers.LaunchTrace` from ``run_launch``), and the
section 3.3 hierarchical reduction (private copies → per-work-group tree
join → sequential host join).  The construct-level paths reproduce the
pre-refactor ``_offload`` / ``_offload_reduce`` byte for byte; the
chunk-level ``launch`` / ``reduce`` / ``alloc_copies`` / ``join_copies``
pieces are what the hybrid scheduler composes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from ..cpu.timing import time_cpu_execution
from ..exec.buffers import LaunchTrace
from ..gpu.timing import KernelFacts, time_gpu_kernel
from ..svm import address_of
from .base import Backend, LaunchResult


def _runtime_mod():
    # Deferred: repro.runtime.runtime imports this package.  Constants
    # (JIT_SECONDS_PER_INSTRUCTION, REDUCTION_GROUP_SIZE) are read through
    # the module at call time so tests can monkeypatch them where they
    # always lived.
    from ..runtime import runtime

    return runtime


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
    host_fn: object = None
    host_trace: object = None
    tree_span: object = None
    host_span: object = None


class GpuBackend(Backend):
    name = "gpu"
    capabilities = frozenset({"for", "reduce", "jit"})

    def _counters(self):
        obs = self.rt.obs
        return obs.counters if obs is not None else None

    # -- chunk-level primitives -------------------------------------------

    def _function(self, kinfo) -> GpuFunctionCache:
        """The kernel's gpu_function_t entry, created on first use."""
        rt = self.rt
        key = (rt.program.program_id, kinfo.gpu_kernel.name)
        cache = rt._gpu_function_cache.get(key)
        if cache is None:
            cache = rt._gpu_function_cache[key] = GpuFunctionCache(
                KernelFacts.of(kinfo.gpu_kernel)
            )
        return cache

    def prepare(self, kinfo) -> float:
        """One-time OpenCL -> GPU ISA JIT per kernel (gpu_function_t cache)."""
        cache = self._function(kinfo)
        cache.launches += 1
        if cache.finalized:
            return 0.0
        instructions = sum(
            len(block.instructions) for block in kinfo.gpu_kernel.blocks
        )
        cache.jit_seconds = (
            instructions * _runtime_mod().JIT_SECONDS_PER_INSTRUCTION
        )
        cache.finalized = True
        return cache.jit_seconds

    def jit_preview(self, kinfo) -> float:
        """The JIT cost :meth:`prepare` *would* charge for this kernel,
        without finalizing the cache entry — the task graph's compile-ahead
        lane prices queued compilations with it at submission time."""
        rt = self.rt
        key = (rt.program.program_id, kinfo.gpu_kernel.name)
        cache = rt._gpu_function_cache.get(key)
        if cache is not None and cache.finalized:
            return 0.0
        instructions = sum(
            len(block.instructions) for block in kinfo.gpu_kernel.blocks
        )
        return instructions * _runtime_mod().JIT_SECONDS_PER_INSTRUCTION

    def _gpu_traces(self, kernel, span: range, args_of, budget=None) -> LaunchTrace:
        """One launch's trace: one engine runs the work-item loop
        (``engine.run_launch``) under the launch's global event budget.
        The device heap, when the program allocates on the device, is
        reserved before any lane runs, so the region layout is the same
        whichever engine runs them."""
        rt = self.rt
        if budget is None:
            budget = rt.mem_event_cap
        allocator = (
            rt.device_heap() if rt.program.config.device_alloc else None
        )
        engine = rt._make_engine(
            device="gpu", num_cores=rt.system.gpu.num_eus, allocator=allocator
        )
        try:
            trace = engine.run_launch(kernel, span, args_of, budget)
        except BaseException as exc:
            # Cold path: lane context for the flight recorder.
            if not hasattr(exc, "trap_device"):
                exc.trap_device = self.name
                exc.trap_kernel = kernel.name
                exc.trap_global_id = engine.global_id
            raise
        if rt.keep_traces:
            rt.trace_log.extend(trace.lanes())
        return trace

    def launch(
        self,
        kinfo,
        span: range,
        body_addr: int,
        timing_cache=None,
        budget: Optional[int] = None,
    ) -> LaunchResult:
        # The kernel receives the body pointer in CPU representation (the
        # paper's ``CpuPtr cpu_ptr`` argument) and translates it itself.
        trace = self._gpu_traces(
            kinfo.gpu_kernel, span, lambda index: [body_addr, index], budget
        )
        report = time_gpu_kernel(
            self.rt.system.gpu,
            self._function(kinfo).facts,
            trace,
            l3=timing_cache,
            counters=self._counters(),
        )
        return LaunchResult(report=report, traces=[trace])

    def reduce(
        self,
        kinfo,
        span: range,
        copies: list,
        timing_cache=None,
        budget: Optional[int] = None,
    ) -> LaunchResult:
        trace = self._gpu_traces(
            kinfo.gpu_kernel,
            span,
            lambda index: [copies[index], index],
            budget,
        )
        report = time_gpu_kernel(
            self.rt.system.gpu,
            self._function(kinfo).facts,
            trace,
            l3=timing_cache,
            counters=self._counters(),
        )
        return LaunchResult(report=report, traces=[trace])

    # -- reduction scratch management (shared with the hybrid scheduler) --

    def alloc_copies(self, kinfo, body_addr: int, n: int) -> list:
        """One private body copy per work-item, initialized from the body
        payload.  The copies live in the shared region for the simulation;
        on hardware they sit in private/local memory, so their accesses
        are excluded from the global-memory trace via fresh offsets."""
        rt = self.rt
        struct = kinfo.body_class.struct_type
        size = struct.size()
        payload = rt.region.read_bytes(body_addr, size)
        copies = [rt.allocator.malloc(size, struct.align()) for _ in range(n)]
        for copy_addr in copies:
            rt.region.write_bytes(copy_addr, payload)
        return copies

    def free_copies(self, copies: list) -> None:
        for copy_addr in copies:
            self.rt.allocator.free(copy_addr)

    def join_copies(self, kinfo, body_addr: int, copies: list) -> JoinResult:
        """Tree reduction within each work-group (local memory: charge a
        small per-level cost rather than global traffic), then the
        sequential host join of group leaders.  The GPU join form falls
        back to the host join when SVM lowering was skipped; when
        *neither* form exists, combining the private copies is impossible
        — warn and leave the body unreduced instead of crashing
        mid-construct (section 3.3's sequential fallback contract:
        degrade, don't die).  Must run inside the caller's construct
        span; the returned spans carry the phase timings."""
        rt = self.rt
        n = len(copies)
        group = _runtime_mod().REDUCTION_GROUP_SIZE
        num_groups = (n + group - 1) // group
        join_fn = kinfo.gpu_join_kernel or kinfo.join_kernel
        if join_fn is None:
            warnings.warn(
                f"reduce body {kinfo.body_class.name} has no join "
                "kernel on any device; group results were left "
                "uncombined (sequential host-join fallback unavailable)",
                _runtime_mod().ConcordWarning,
                stacklevel=3,
            )
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
        result.tree_span = tree_span
        # local-memory reduction cost: log2(group) levels of cheap traffic
        levels = max(1, int(math.ceil(math.log2(group))))
        result.local_cycles = num_groups * levels * 8.0 / rt.system.gpu.num_eus
        result.local_seconds = result.local_cycles / rt.system.gpu.frequency_hz

        # Sequential join of group leaders on the host (original join; the
        # device form is a last-resort stand-in).  The host join's
        # simulated cost is only measured for the profile —
        # ExecutionReport keeps its historical meaning (device time + JIT).
        result.host_fn = kinfo.join_kernel or join_fn
        if rt.obs is not None:
            result.host_trace = rt._new_trace()
        with rt._span("host_join", "phase") as host_span:
            host = rt._host_interpreter(trace=result.host_trace)
            for group_index in range(num_groups):
                leader = copies[group_index * group]
                host.call_function(result.host_fn, [body_addr, leader])
            host.release_private_memory()
        result.host_span = host_span
        return result

    # -- construct-level entry points -------------------------------------

    def run_for(self, kinfo, n: int, body):
        rt = self.rt
        kernel_name = kinfo.gpu_kernel.name
        with rt._span(
            f"construct:{kernel_name}", "construct", device="gpu", n=n
        ) as cspan:
            with rt._span("jit", "phase") as jit_span:
                jit_seconds = self.prepare(kinfo)
            addr = address_of(body)
            with rt._span("launch", "phase") as launch_span:
                result = self.launch(kinfo, range(n), addr)
        report = result.report
        rt.total_gpu_report += report
        if rt.obs is not None:
            rt._record_construct(
                cspan,
                kernel_name,
                "for",
                "gpu",
                n,
                seconds=report.seconds + jit_seconds,
                energy_joules=report.energy_joules,
                phases={"jit": jit_seconds, "launch": report.seconds},
                traces=result.traces,
                span_seconds=[
                    (jit_span, jit_seconds),
                    (launch_span, report.seconds),
                ],
                line_samples=[(kinfo.gpu_kernel, "gpu", result.traces)],
            )
        return _runtime_mod().ExecutionReport(
            device="gpu", n=n, report=report, jit_seconds=jit_seconds
        )

    def run_reduce(self, kinfo, n: int, body):
        """Hierarchical reduction (section 3.3): private body copies, local
        memory tree reduction per work-group, sequential join of group
        results."""
        rt = self.rt
        kernel_name = kinfo.gpu_kernel.name
        with rt._span(
            f"construct:{kernel_name}", "construct", device="gpu", n=n
        ) as cspan:
            with rt._span("jit", "phase") as jit_span:
                jit_seconds = self.prepare(kinfo)
            addr = address_of(body)
            copies = self.alloc_copies(kinfo, addr, n)
            with rt._span("launch", "phase") as launch_span:
                result = self.reduce(kinfo, range(n), copies)
            report = result.report
            launch_seconds = report.seconds
            join = self.join_copies(kinfo, addr, copies)
            if join.joined:
                report.cycles += join.local_cycles
                report.seconds += join.local_seconds
            self.free_copies(copies)

        rt.total_gpu_report += report
        if rt.obs is not None:
            host_join_seconds = 0.0
            if join.host_trace is not None:
                host_join_seconds = time_cpu_execution(
                    rt.system.cpu, [join.host_trace]
                ).seconds
            total_seconds = report.seconds + jit_seconds + host_join_seconds
            traces = result.traces + (
                [join.host_trace] if join.host_trace is not None else []
            )
            line_samples = [(kinfo.gpu_kernel, "gpu", result.traces)]
            if join.host_trace is not None:
                line_samples.append((join.host_fn, "cpu", [join.host_trace]))
            rt._record_construct(
                cspan,
                kernel_name,
                "reduce",
                "gpu",
                n,
                seconds=total_seconds,
                energy_joules=report.energy_joules,
                phases={
                    "jit": jit_seconds,
                    "launch": launch_seconds,
                    "reduce_tree": join.local_seconds,
                    "host_join": host_join_seconds,
                },
                traces=traces,
                span_seconds=[
                    (jit_span, jit_seconds),
                    (launch_span, launch_seconds),
                    (join.tree_span, join.local_seconds),
                    (join.host_span, host_join_seconds),
                ],
                line_samples=line_samples,
            )
        return _runtime_mod().ExecutionReport(
            device="gpu", n=n, report=report, jit_seconds=jit_seconds
        )
