"""Multicore-CPU backend (the paper's ``on_cpu=True`` path).

All iterations of a chunk run through one engine and one trace (the
engine's ``run_chunk``, whichever engine the runtime picked) — the
timing model's multicore scaling (``cores × parallel_efficiency``)
represents TBB-style work distribution, so per-lane traces would model
nothing extra.  Per chunk: the engine, the trace, the sequence numbers
and the step count; per work-item: ``global_id`` and private memory.
The construct-level paths reproduce the pre-refactor ``_run_cpu`` /
``_run_cpu_reduce`` byte for byte.
"""

from __future__ import annotations

from typing import Optional

from ..cpu.timing import time_cpu_execution
from ..svm import address_of
from .base import Backend, LaunchResult


def _runtime_mod():
    # Deferred: repro.runtime.runtime imports this package.  Constants
    # (REDUCTION_GROUP_SIZE etc.) are read through the module at call time
    # so tests can monkeypatch them where they always lived.
    from ..runtime import runtime

    return runtime


class CpuBackend(Backend):
    name = "cpu"
    capabilities = frozenset({"for", "reduce"})

    def _counters(self):
        obs = self.rt.obs
        return obs.counters if obs is not None else None

    # -- chunk-level primitives -------------------------------------------

    def prepare(self, kinfo) -> float:
        return 0.0  # host code is already compiled; nothing to JIT

    def _run_lanes(self, engine, kernel, span, args_of) -> None:
        """Run ``kernel`` for every index of ``span`` through one engine
        and into its one trace (``engine.run_chunk``: each work-item
        starts with its own empty private memory, and the buffer goes
        back to the pool at the end).  A trap leaves with its lane's
        context for the flight recorder."""
        try:
            engine.run_chunk(kernel, span, args_of)
        except BaseException as exc:
            # Cold path: the innermost stamp wins.
            if not hasattr(exc, "trap_device"):
                exc.trap_device = self.name
                exc.trap_kernel = kernel.name
                exc.trap_global_id = engine.global_id
            raise

    def _chunk(self, kinfo, span, args_of, timing_cache, budget) -> LaunchResult:
        rt = self.rt
        trace = rt._new_trace(budget)
        interp = rt._make_engine(
            device="cpu",
            trace=trace,
            num_cores=rt.system.cpu.cores,
            allocator=rt.allocator,
        )
        self._run_lanes(interp, kinfo.kernel, span, args_of)
        interp.release_private_memory()
        if rt.keep_traces:
            rt.trace_log.append(trace)
        report = time_cpu_execution(
            rt.system.cpu, [trace], llc=timing_cache, counters=self._counters()
        )
        return LaunchResult(report=report, traces=[trace])

    def launch(
        self,
        kinfo,
        span: range,
        body_addr: int,
        timing_cache=None,
        budget: Optional[int] = None,
    ) -> LaunchResult:
        return self._chunk(
            kinfo, span, lambda index: [body_addr, index], timing_cache, budget
        )

    def reduce(
        self,
        kinfo,
        span: range,
        copies: list,
        timing_cache=None,
        budget: Optional[int] = None,
    ) -> LaunchResult:
        """Reduction lanes in the GPU's one-copy-per-work-item layout
        (used by the hybrid scheduler so both devices fill the same
        scratch copies; the full-CPU construct below keeps its TBB-style
        one-copy-per-core layout instead)."""
        return self._chunk(
            kinfo, span, lambda index: [copies[index], index], timing_cache, budget
        )

    # -- construct-level entry points -------------------------------------

    def run_for(self, kinfo, n: int, body):
        rt = self.rt
        kernel_name = kinfo.kernel.name
        with rt._span(
            f"construct:{kernel_name}", "construct", device="cpu", n=n
        ) as cspan:
            with rt._span("launch", "phase") as launch_span:
                result = self.launch(kinfo, range(n), address_of(body))
        report = result.report
        rt.total_cpu_report += report
        if rt.obs is not None:
            rt._record_construct(
                cspan,
                kernel_name,
                "for",
                "cpu",
                n,
                seconds=report.seconds,
                energy_joules=report.energy_joules,
                phases={"launch": report.seconds},
                traces=result.traces,
                span_seconds=[(launch_span, report.seconds)],
                line_samples=[(kinfo.kernel, "cpu", result.traces)],
            )
        return _runtime_mod().ExecutionReport(device="cpu", n=n, report=report)

    def run_reduce(self, kinfo, n: int, body):
        # TBB-style: each worker runs iterations into (a copy of) the body
        # and joins; we model one body copy per core joined at the end.
        rt = self.rt
        kernel_name = kinfo.kernel.name
        with rt._span(
            f"construct:{kernel_name}", "construct", device="cpu", n=n
        ) as cspan:
            with rt._span("launch", "phase") as launch_span:
                struct = kinfo.body_class.struct_type
                size = struct.size()
                addr = address_of(body)
                cores = rt.system.cpu.cores
                trace = rt._new_trace()
                interp = rt._make_engine(
                    device="cpu",
                    trace=trace,
                    num_cores=cores,
                    allocator=rt.allocator,
                )
                copies = []
                payload = rt.region.read_bytes(addr, size)
                for _ in range(min(cores, max(1, n))):
                    copy_addr = rt.allocator.malloc(size, struct.align())
                    rt.region.write_bytes(copy_addr, payload)
                    copies.append(copy_addr)
                self._run_lanes(
                    interp,
                    kinfo.kernel,
                    range(n),
                    lambda index: [copies[index % len(copies)], index],
                )
                join = kinfo.join_kernel
                for copy_addr in copies:
                    if join is not None:
                        interp.call_function(join, [addr, copy_addr])
                for copy_addr in copies:
                    rt.allocator.free(copy_addr)
                interp.release_private_memory()
                if rt.keep_traces:
                    rt.trace_log.append(trace)
                report = time_cpu_execution(
                    rt.system.cpu, [trace], counters=self._counters()
                )
        rt.total_cpu_report += report
        if rt.obs is not None:
            rt._record_construct(
                cspan,
                kernel_name,
                "reduce",
                "cpu",
                n,
                seconds=report.seconds,
                energy_joules=report.energy_joules,
                phases={"launch": report.seconds},
                traces=[trace],
                span_seconds=[(launch_span, report.seconds)],
                line_samples=[(kinfo.kernel, "cpu", [trace])],
            )
        return _runtime_mod().ExecutionReport(device="cpu", n=n, report=report)
