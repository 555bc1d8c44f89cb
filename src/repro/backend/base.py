"""A device runs chunks; one body runs a construct.

A backend (:class:`~repro.backend.CpuBackend`,
:class:`~repro.backend.GpuBackend`) is a device: ``launch`` / ``reduce``
run a contiguous index range through the engine the runtime picked and
price it with the device's timing model, returning a
:class:`LaunchResult` without touching the observer.

:func:`run_construct` is a whole construct: the construct span, the JIT
when the GPU may run, the section 3.3 scratch copies of a reduction, the
chunks, the join, the device totals, the observer record and the
:class:`~repro.runtime.ExecutionReport`.  A :class:`Plan` decides only
*where* each chunk runs: the backends' ``run_for`` / ``run_reduce`` feed
it one chunk (:func:`whole`), the scheduler's ``run_split`` its
earliest-completion chunks.  The CPU's TBB-style reduction (one body
copy per core, joined by a second launch after the lanes) is the one
construct with a body of its own, ``CpuBackend.run_reduce``.

Backends are stateless and hold no runtime: every engine, trace,
allocator and counter comes from the :class:`ConcordRuntime` passed as
each call's first argument, so the two backends share its code cache,
private pool and SVM region, and nothing the runtime owns points back
at it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Generator

from ..exec.buffers import LaunchTrace
from ..gpu.cache import CacheModel
from ..gpu.timing import DeviceReport
from ..svm import address_of


def _runtime_mod():
    # Deferred: repro.runtime.runtime imports this package.  Constants
    # (JIT_SECONDS_PER_INSTRUCTION, REDUCTION_GROUP_SIZE) are read through
    # the module at call time so tests can monkeypatch them where they
    # always lived.
    from ..runtime import runtime

    return runtime


def warn_unjoined(kinfo) -> None:
    """A reduction whose body has no join kernel on any device cannot
    combine its private copies: warn and leave the body unreduced instead
    of crashing mid-construct (section 3.3's sequential fallback
    contract: degrade, don't die)."""
    warnings.warn(
        f"reduce body {kinfo.body_class.name} has no join kernel on any "
        "device; its private copies were left uncombined (sequential "
        "join fallback unavailable)",
        _runtime_mod().ConcordWarning,
        stacklevel=4,
    )


@dataclass
class LaunchResult:
    """What one chunk of work cost: the device report plus the
    :class:`~repro.exec.buffers.LaunchTrace` it was priced from, on
    either device (its ``counter_totals()`` / ``block_totals()`` feed
    counter harvesting and source-line attribution)."""

    report: DeviceReport
    traces: list = field(default_factory=list)

    @property
    def kept_events(self) -> int:
        """Mem events retained across this chunk's traces (charged against
        the construct's global cap budget)."""
        return sum(trace.kept_events for trace in self.traces)


def run_lanes(rt, device: str, kernel, span, args_of, budget, **engine) -> LaunchTrace:
    """One chunk's trace: one engine on ``device`` (``engine`` are its
    further keywords) runs ``kernel`` for every index of ``span`` as one
    launch under the chunk's event ``budget`` (the runtime's cap when
    ``None``).  A trap leaving the lanes gets its lane's context for the
    flight recorder (the innermost stamp wins), and ``keep_traces``
    keeps the launch in ``rt.trace_log``, which nothing else writes."""
    engine = rt._make_engine(device=device, **engine)
    try:
        trace = engine.run_launch(
            kernel, span, args_of, rt.mem_event_cap if budget is None else budget
        )
    except BaseException as exc:
        if not hasattr(exc, "trap_device"):
            exc.trap_device = device
            exc.trap_kernel = kernel.name
            exc.trap_global_id = engine.global_id
        raise
    if rt.keep_traces:
        rt.trace_log.append(trace)
    return trace


def parallel_report(parts, device: str = "hybrid") -> DeviceReport:
    """Merge per-device totals modeled as executing *concurrently*: wall
    seconds/cycles take the max (the devices overlap), while event counts
    and energy sum.  Compare ``DeviceReport.__add__``, which models
    *sequential* composition by summing seconds."""
    parts = [part for part in parts if part is not None]
    if not parts:
        return DeviceReport(device=device, seconds=0.0, energy_joules=0.0)
    return DeviceReport(
        device=device,
        seconds=max(part.seconds for part in parts),
        energy_joules=sum(part.energy_joules for part in parts),
        cycles=max(part.cycles for part in parts),
        instructions=sum(part.instructions for part in parts),
        issue_slots=sum(part.issue_slots for part in parts),
        mem_transactions=sum(part.mem_transactions for part in parts),
        l3_hits=sum(part.l3_hits for part in parts),
        l3_misses=sum(part.l3_misses for part in parts),
        contention_events=sum(part.contention_events for part in parts),
        contention_cycles=sum(part.contention_cycles for part in parts),
        divergence_waste=sum(part.divergence_waste for part in parts),
        translations=sum(part.translations for part in parts),
    )


@dataclass
class Plan:
    """Where one construct's chunks run.  ``chunks`` is a generator that
    yields ``(device, range)`` in global index order and is sent each
    chunk's :class:`LaunchResult` before it names the next."""

    #: "cpu" | "gpu" | "hybrid": the device the record and report name
    label: str
    #: the devices it may use; more than one overlap in modeled time
    devices: tuple
    chunks: Generator
    #: further attributes of the construct span
    attrs: dict = field(default_factory=dict)


def whole(device: str, n: int) -> Plan:
    """All of ``range(n)`` as one chunk on ``device``."""

    def chunks():
        yield device, range(n)

    return Plan(device, (device,), chunks())


def run_construct(rt, kinfo, n: int, body, construct: str, plan: Plan):
    """Run one ``for`` / ``reduce`` construct as ``plan`` places it (see
    module docstring).  Chunks execute sequentially in global index
    order, so the region bytes do not depend on the plan; each device's
    chunks price against one cache model, like consecutive slices of a
    single launch, and under one construct-global mem-event budget."""
    gpu = rt.backends["gpu"]
    gpu_runs = "gpu" in plan.devices
    kernel = kinfo.gpu_kernel if gpu_runs else kinfo.kernel
    gdev, cdev = rt.system.gpu, rt.system.cpu
    caches = {
        "gpu": CacheModel(gdev.l3_size_bytes, gdev.l3_line_bytes, gdev.l3_assoc),
        "cpu": CacheModel(cdev.llc_size_bytes, cdev.llc_line_bytes, cdev.llc_assoc),
    }
    budget = rt.mem_event_cap
    totals: dict = {}  # device -> DeviceReport of its chunks
    traces: dict = {"gpu": [], "cpu": []}
    phases: dict = {}
    span_seconds: list = []
    jit_seconds = 0.0
    join = None
    with rt._span(
        f"construct:{kernel.name}", "construct", device=plan.label, n=n, **plan.attrs
    ) as cspan:
        if gpu_runs:
            with rt._span("jit", "phase") as jit_span:
                jit_seconds = gpu.prepare(rt, kinfo)
            phases["jit"] = jit_seconds
            span_seconds.append((jit_span, jit_seconds))
        addr = address_of(body)
        copies = None
        if construct == "reduce":
            copies = gpu.alloc_copies(rt, kinfo, addr, n)
        with rt._span("launch", "phase") as launch_span:
            result = None
            index = 0
            while True:
                try:
                    device, span = plan.chunks.send(result)
                except StopIteration:
                    break
                backend = rt.backends[device]
                with rt._span(
                    f"launch:{device}", "phase", chunk=index, lo=span.start, items=len(span)
                ) as chunk_span:
                    if copies is None:
                        result = backend.launch(
                            rt, kinfo, span, addr, timing_cache=caches[device], budget=budget
                        )
                    else:
                        result = backend.reduce(
                            rt, kinfo, span, copies, timing_cache=caches[device], budget=budget
                        )
                budget = max(0, budget - result.kept_events)
                report = result.report
                span_seconds.append((chunk_span, report.seconds))
                totals[device] = totals[device] + report if device in totals else report
                traces[device].extend(result.traces)
                index += 1
        if len(plan.devices) > 1:
            total = parallel_report([totals.get(device) for device in plan.devices])
        else:
            total = totals[plan.devices[0]]
        phases["launch"] = total.seconds
        span_seconds.append((launch_span, total.seconds))
        if copies is not None:
            join = gpu.join_copies(rt, kinfo, addr, copies)
            if join.joined:
                # The work-group tree runs on the GPU after every chunk.
                tree = DeviceReport(
                    device="gpu",
                    seconds=join.local_seconds,
                    energy_joules=0.0,
                    cycles=join.local_cycles,
                )
                total = total + tree
                totals["gpu"] = totals["gpu"] + tree if "gpu" in totals else tree
            gpu.free_copies(rt, copies)
            phases["reduce_tree"] = join.local_seconds
            phases["host_join"] = join.host_seconds
            span_seconds += [
                (join.tree_span, join.local_seconds),
                (join.host_span, join.host_seconds),
            ]

    if "gpu" in totals:
        rt.total_gpu_report += totals["gpu"]
    if "cpu" in totals:
        rt.total_cpu_report += totals["cpu"]
    if rt.obs is not None:
        line_samples = [
            (kinfo.gpu_kernel, "gpu", traces["gpu"]),
            (kinfo.kernel, "cpu", traces["cpu"]),
        ]
        host = []
        if join is not None and join.host_trace is not None:
            host = [join.host_trace]
            line_samples.append((join.host_fn, "cpu", host))
        rt._record_construct(
            cspan,
            kernel.name,
            construct,
            plan.label,
            n,
            seconds=total.seconds + jit_seconds + phases.get("host_join", 0.0),
            energy_joules=total.energy_joules,
            phases=phases,
            traces=traces["gpu"] + traces["cpu"] + host,
            span_seconds=span_seconds,
            line_samples=[sample for sample in line_samples if sample[2]],
        )
    # A split's per-device occupancy lets the task graph overlap its
    # halves with other constructs; one device's is the report itself.
    device_seconds = None
    if len(plan.devices) > 1:
        device_seconds = {
            device: totals[device].seconds for device in plan.devices if device in totals
        }
    return _runtime_mod().ExecutionReport(
        device=plan.label,
        n=n,
        report=total,
        jit_seconds=jit_seconds,
        device_seconds=device_seconds,
    )
