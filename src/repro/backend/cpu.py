"""Multicore-CPU backend (the paper's ``on_cpu=True`` path).

A chunk is a launch, as on the GPU: one engine, whichever the runtime
picked, runs its work-items (:func:`~repro.backend.base.run_lanes`), each
from its own sequence numbers, step count and private memory and under
a cap that is the whole budget the lanes before it left
(:func:`~repro.exec.buffers.per_item_cap`).  The timing model's
multicore scaling (``cores × parallel_efficiency``) represents TBB-style
work distribution.  A ``for`` construct is one chunk through
:func:`~repro.backend.base.run_construct`; a whole-CPU reduction keeps
its own TBB-style body (one body copy per core, joined by a second
launch over the copies and priced with the lanes).
"""

from __future__ import annotations

from typing import Optional

from ..cpu.timing import time_cpu_execution
from ..exec.buffers import LaunchTrace
from ..svm import address_of
from .base import LaunchResult, _runtime_mod, run_construct, run_lanes, warn_unjoined, whole


class CpuBackend:
    name = "cpu"

    # -- chunk-level primitives -------------------------------------------

    def prepare(self, rt, kinfo) -> float:
        return 0.0  # host code is already compiled; nothing to JIT

    def _traces(self, rt, kernel, span, args_of, budget=None) -> LaunchTrace:
        """One chunk's trace (:func:`~repro.backend.base.run_lanes`)."""
        return run_lanes(
            rt, self.name, kernel, span, args_of, budget,
            num_cores=rt.system.cpu.cores, allocator=rt.allocator,
        )

    def _chunk(self, rt, kinfo, span, args_of, timing_cache, budget) -> LaunchResult:
        trace = self._traces(rt, kinfo.kernel, span, args_of, budget)
        report = time_cpu_execution(
            rt.system.cpu, [trace], llc=timing_cache, counters=rt.counters
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
        """Reduction lanes in the GPU's one-copy-per-work-item layout
        (a split reduction's CPU chunks fill the same scratch copies as
        its GPU chunks; the whole-CPU construct below keeps its TBB-style
        one-copy-per-core layout instead)."""
        return self._chunk(
            rt, kinfo, span, lambda index: [copies[index], index], timing_cache, budget
        )

    # -- whole constructs ---------------------------------------------------

    def run_for(self, rt, kinfo, n: int, body):
        return run_construct(rt, kinfo, n, body, "for", whole("cpu", n))

    def run_reduce(self, rt, kinfo, n: int, body):
        # TBB-style: each worker runs iterations into (a copy of) the body
        # and joins; we model one body copy per core joined at the end.
        kernel_name = kinfo.kernel.name
        with rt._span(
            f"construct:{kernel_name}", "construct", device="cpu", n=n
        ) as cspan:
            with rt._span("launch", "phase") as launch_span:
                struct = kinfo.body_class.struct_type
                size = struct.size()
                addr = address_of(body)
                cores = rt.system.cpu.cores
                copies = []
                payload = rt.region.read_bytes(addr, size)
                for _ in range(min(cores, max(1, n))):
                    copy_addr = rt.allocator.malloc(size, struct.align())
                    rt.region.write_bytes(copy_addr, payload)
                    copies.append(copy_addr)
                lanes = self._traces(
                    rt,
                    kinfo.kernel,
                    range(n),
                    lambda index: [copies[index % len(copies)], index],
                )
                traces = [lanes]
                if kinfo.join_kernel is not None:
                    # the joins: one launch over the copies, under what the
                    # lanes left of the budget
                    joins = self._traces(
                        rt, kinfo.join_kernel, range(len(copies)),
                        lambda index: [addr, copies[index]],
                        max(0, rt.mem_event_cap - lanes.kept_events),
                    )
                    traces.append(joins)
                else:
                    warn_unjoined(kinfo)
                for copy_addr in copies:
                    rt.allocator.free(copy_addr)
                # one L1/LLC state: the lanes first, then the joins
                report = time_cpu_execution(rt.system.cpu, traces, counters=rt.counters)
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
                traces=traces,
                span_seconds=[(launch_span, report.seconds)],
                line_samples=[(kinfo.kernel, "cpu", traces)],
            )
        return _runtime_mod().ExecutionReport(device="cpu", n=n, report=report)
