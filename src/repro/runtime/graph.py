"""Async task-graph runtime: inter-construct overlap over declared regions.

The paper's Concord model runs each parallel construct to completion
before the host proceeds; the runtime's ``parallel_for_hetero`` /
``parallel_reduce_hetero`` mirror that.  Heteroflow and StarPU (see
PAPERS.md) both show that expressing work as a *dependency graph* over
declared data accesses unlocks CPU+GPU overlap that per-construct
scheduling cannot reach.  This module adds that layer on top of the
existing scheduler:

* :meth:`ConcordRuntime.submit` enqueues one construct with declared
  region read/write sets and returns a :class:`ConstructFuture`;
  :meth:`ConstructFuture.result` / :meth:`ConcordRuntime.wait` force
  completion.
* Dependencies are *inferred* from the declared sets: a later construct
  gets a RAW edge to any earlier construct whose writes overlap its
  reads, a WAW edge on write/write overlap and a WAR edge on read/write
  overlap.  Omitted sets fall back to a conservative whole-region
  access, which serializes the construct against everything pending —
  exactly the synchronous semantics.
* Functional execution is deterministic: deferred constructs run in
  submission order (always a valid topological order — edges only point
  backward), each dispatched through the existing ``repro.sched``
  policies.  Region bytes and traces are therefore bit-identical to
  synchronous submission.
* *Modeled time* overlaps: the graph keeps one virtual clock per device
  (plus a host JIT lane).  A construct's virtual start is the latest of
  its dependencies' finishes, the clocks of the devices it occupies and
  — for GPU work — its kernel's compile-ahead finish; wall time is the
  max of the final clocks, not the sum of per-construct walls.
  Independent constructs placed on different devices (or the CPU/GPU
  halves of hybrid constructs) genuinely overlap.
* JIT **compile-ahead**: submitting a construct immediately queues its
  kernel on the host JIT lane (the ``(program_id, kernel_name)``
  gpu_function_t cache), so by the time its dependencies finish the
  binary is usually ready and the sync-mode JIT stall disappears.

Placement is ``"policy"`` by default — every construct dispatches
through the runtime's configured scheduler policy, exactly like a
synchronous call, which is what makes graph mode bit-identical.  The
opt-in ``"ect"`` placement instead picks, per ready construct, the
single-device policy (``cpu`` or ``gpu``) with the earliest estimated
completion given the current clocks and the scheduler's throughput
history — whole independent constructs then land on different devices
and overlap.  See ``docs/GRAPH.md``.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from ..exec.buffers import iter_access_events

__all__ = [
    "ConstructFuture",
    "DeclaredSetViolation",
    "GraphError",
    "GraphStats",
    "RegionSpan",
    "TaskGraph",
    "as_span",
]

#: Graph placement modes (see module docstring).
PLACEMENTS = ("policy", "ect")

#: Dependency edge kinds, in reporting order.
EDGE_KINDS = ("raw", "war", "waw")


class GraphError(RuntimeError):
    """Misuse of the task-graph API (bad spans, unknown constructs)."""


class DeclaredSetViolation(GraphError):
    """A kernel touched shared-region bytes outside its construct's
    declared read/write spans (``declared_check="trap"``)."""


#: At most this many violations are reported in detail per construct
#: (events/warnings); the ``graph.declared_violations`` counter always
#: carries the full count.
MAX_VIOLATION_DETAILS = 16


@dataclass(frozen=True)
class RegionSpan:
    """A half-open byte range ``[addr, addr + size)`` of the shared
    region, the unit of declared read/write sets."""

    addr: int
    size: int

    def overlaps(self, other: "RegionSpan") -> bool:
        return (
            self.size > 0
            and other.size > 0
            and self.addr < other.addr + other.size
            and other.addr < self.addr + self.size
        )


def as_span(obj) -> RegionSpan:
    """Normalize one declared region: an :class:`~repro.svm.ArrayView`,
    :class:`~repro.svm.StructView`, ``RegionSpan`` or ``(addr, size)``
    tuple."""
    if isinstance(obj, RegionSpan):
        return obj
    addr = getattr(obj, "addr", None)
    if addr is not None:
        element = getattr(obj, "element", None)
        if element is not None:  # ArrayView
            return RegionSpan(addr, element.size() * obj.count)
        struct = getattr(obj, "struct_type", None)
        if struct is not None:  # StructView
            return RegionSpan(addr, struct.size())
    if isinstance(obj, tuple) and len(obj) == 2:
        addr, size = obj
        if isinstance(addr, int) and isinstance(size, int) and size >= 0:
            return RegionSpan(addr, size)
    raise GraphError(
        f"cannot interpret {obj!r} as a region span; pass an ArrayView, "
        "StructView, RegionSpan or (addr, size) tuple"
    )


def _overlap_any(a: tuple, b: tuple) -> bool:
    for x in a:
        for y in b:
            if x.overlaps(y):
                return True
    return False


def _merge_intervals(spans) -> tuple:
    """Sorted, coalesced ``(starts, ends)`` arrays for binary-search
    containment tests over a declared span set."""
    intervals = sorted(
        (span.addr, span.addr + span.size) for span in spans if span.size > 0
    )
    starts: list[int] = []
    ends: list[int] = []
    for start, end in intervals:
        if ends and start <= ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            starts.append(start)
            ends.append(end)
    return starts, ends


def _contains(starts: list, ends: list, addr: int, size: int) -> bool:
    index = bisect_right(starts, addr) - 1
    return index >= 0 and addr + size <= ends[index]


@dataclass
class ConstructFuture:
    """One submitted construct: its declared accesses, inferred
    dependencies, and — once forced — its report and virtual schedule."""

    index: int
    kernel: str
    construct: str  # "for" | "reduce"
    n: int
    reads: tuple = ()
    writes: tuple = ()
    conservative: bool = False
    #: indices of constructs this one must wait for, by edge kind
    edges: dict = field(default_factory=dict)
    wave: int = 0
    #: virtual schedule, filled at execution: device -> seconds
    start: float = 0.0
    finish: dict = field(default_factory=dict)
    report: object = None
    _graph: object = None
    _body: object = None
    _kinfo: object = None
    _on_cpu: bool = False
    _policy: Optional[str] = None

    @property
    def deps(self) -> tuple:
        """All dependency indices, deduplicated, ascending."""
        seen: set = set()
        for kind in EDGE_KINDS:
            seen.update(self.edges.get(kind, ()))
        return tuple(sorted(seen))

    @property
    def done(self) -> bool:
        return self.report is not None

    @property
    def finish_seconds(self) -> float:
        """Virtual completion time (the construct is done when its last
        device part finishes)."""
        if not self.finish:
            return self.start
        return max(self.finish.values())

    def result(self):
        """Force this construct (and, transitively, its dependencies) and
        return its :class:`~repro.runtime.runtime.ExecutionReport`."""
        if self.report is None:
            self._graph.force(self.index)
        return self.report


@dataclass
class GraphStats:
    """One snapshot of the graph's accounting (see :meth:`TaskGraph.stats`)."""

    constructs: int = 0
    executed: int = 0
    edges: dict = field(default_factory=lambda: {k: 0 for k in EDGE_KINDS})
    conservative: int = 0
    waves: int = 0
    wall_seconds: float = 0.0
    sync_seconds: float = 0.0
    device_busy: dict = field(default_factory=dict)
    jit_ahead_seconds: float = 0.0

    @property
    def overlap_savings(self) -> float:
        """Virtual seconds hidden by inter-construct overlap (sync-mode
        serial wall minus graph wall)."""
        return max(0.0, self.sync_seconds - self.wall_seconds)

    @property
    def speedup(self) -> float:
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.sync_seconds / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "constructs": self.constructs,
            "executed": self.executed,
            "edges": dict(self.edges),
            "conservative": self.conservative,
            "waves": self.waves,
            "wall_seconds": self.wall_seconds,
            "sync_seconds": self.sync_seconds,
            "overlap_savings": self.overlap_savings,
            "speedup": self.speedup,
            "device_busy": dict(self.device_busy),
            "jit_ahead_seconds": self.jit_ahead_seconds,
        }


class TaskGraph:
    """The per-runtime task graph executor (see module docstring).

    Owned lazily by :class:`~repro.runtime.runtime.ConcordRuntime`
    (``rt.task_graph``); most callers go through ``rt.submit`` /
    ``rt.wait``.  Placement and the declared-set check are the runtime's
    ``options.graph_placement`` / ``options.declared_check``.
    """

    def __init__(self, rt):
        self.rt = rt
        self.futures: list[ConstructFuture] = []
        #: per-device virtual clocks (seconds); the wall time is their max
        self.clocks: dict[str, float] = {"gpu": 0.0, "cpu": 0.0}
        #: host JIT lane: one compile at a time, queued at submission
        self.jit_clock = 0.0
        #: (program_id, kernel) -> compile-ahead finish time
        self._jit_ready: dict = {}
        self._sync_seconds = 0.0
        self._jit_ahead = 0.0
        #: futures already folded into graph_wave spans by a wait()
        self._reported = 0

    # -- plumbing ----------------------------------------------------------

    def _whole_region(self) -> tuple:
        region = self.rt.region
        return (RegionSpan(region.cpu_base, region.size),)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        n: int,
        body,
        construct: str = "for",
        reads=None,
        writes=None,
        on_cpu: bool = False,
        policy: Optional[str] = None,
    ) -> ConstructFuture:
        """Enqueue one construct; execution is deferred until forced by
        :meth:`ConstructFuture.result`, :meth:`wait` or :meth:`barrier`.

        ``reads``/``writes`` declare the region byte ranges the kernel
        may access (ArrayView/StructView/``(addr, size)``).  When either
        set is omitted the construct conservatively reads *and* writes
        the whole region, serializing it against everything pending.
        """
        rt = self.rt
        if construct not in ("for", "reduce"):
            raise GraphError(
                f"unknown construct {construct!r} (expected 'for' or 'reduce')"
            )
        kinfo = rt._kernel_of(body)
        if construct == "reduce" and kinfo.construct != "reduce":
            raise TypeError(
                f"{kinfo.body_class.name} has no join method; submit with "
                "construct='for'"
            )
        conservative = reads is None or writes is None
        if conservative:
            read_spans = write_spans = self._whole_region()
        else:
            read_spans = tuple(as_span(obj) for obj in reads)
            write_spans = tuple(as_span(obj) for obj in writes)
        # The body struct itself is always read (the kernel loads its
        # fields); fold it into the read set so sibling constructs that
        # *write* the body serialize correctly.
        if not conservative:
            read_spans = read_spans + (as_span(body),)
        future = ConstructFuture(
            index=len(self.futures),
            kernel=kinfo.gpu_kernel.name,
            construct=construct,
            n=n,
            reads=read_spans,
            writes=write_spans,
            conservative=conservative,
            _graph=self,
            _body=body,
            _kinfo=kinfo,
            _on_cpu=on_cpu,
            _policy=policy,
        )
        self._infer_edges(future)
        future.wave = (
            0
            if not future.deps
            else 1 + max(self.futures[d].wave for d in future.deps)
        )
        self.futures.append(future)
        self._compile_ahead(kinfo)
        counters = self.rt.counters
        if counters is not None:
            counters.add("graph.submitted")
            if conservative:
                counters.add("graph.conservative")
            for kind in EDGE_KINDS:
                count = len(future.edges.get(kind, ()))
                if count:
                    counters.add(f"graph.edges.{kind}", count)
        return future

    def _infer_edges(self, future: ConstructFuture) -> None:
        """RAW/WAR/WAW edges against every earlier construct whose
        declared sets overlap this one's."""
        edges: dict = {kind: [] for kind in EDGE_KINDS}
        for prev in self.futures:
            if _overlap_any(prev.writes, future.reads):
                edges["raw"].append(prev.index)
            if _overlap_any(prev.reads, future.writes):
                edges["war"].append(prev.index)
            if _overlap_any(prev.writes, future.writes):
                edges["waw"].append(prev.index)
        future.edges = {
            kind: tuple(indices) for kind, indices in edges.items() if indices
        }

    def _compile_ahead(self, kinfo) -> None:
        """Queue the kernel's vendor JIT on the host lane at submission
        time, so it overlaps earlier constructs' execution instead of
        stalling this one's launch (Heteroflow's compile-ahead)."""
        rt = self.rt
        if kinfo.cpu_only:
            return
        key = (rt.program.program_id, kinfo.gpu_kernel.name)
        if key in self._jit_ready:
            return
        gpu = rt.backends["gpu"]
        preview = gpu.jit_preview(kinfo)
        self.jit_clock += preview
        self._jit_ready[key] = self.jit_clock

    # -- forcing -----------------------------------------------------------

    def force(self, index: int) -> None:
        """Execute the construct at ``index`` (after its transitive
        dependencies, in submission order among them)."""
        future = self.futures[index]
        if future.done:
            return
        # Iterative dependency closure — conservative chains can be long.
        pending: list[int] = []
        stack = [index]
        seen: set = set()
        while stack:
            i = stack.pop()
            if i in seen or self.futures[i].done:
                continue
            seen.add(i)
            pending.append(i)
            stack.extend(self.futures[i].deps)
        for i in sorted(pending):
            self._execute(self.futures[i])

    def _placement_policy(self, future: ConstructFuture, ready: float):
        """Which policy dispatches this construct (see module docstring)."""
        if self.rt.options.graph_placement == "policy" or future._on_cpu:
            return future._policy
        if future._policy is not None:
            return future._policy  # explicit per-submit override wins
        if future._kinfo.cpu_only or future.construct == "reduce":
            # Reductions lay scratch out per-device; keep them on the
            # paper path rather than letting ECT flip their layout.
            return None
        sched = self.rt.scheduler
        key = sched.key_of(future._kinfo)
        tg = sched.throughput(key, "gpu")
        if tg is None:
            return "gpu"  # calibrate the paper's default device first
        tc = sched.throughput(key, "cpu")
        if tc is None:
            from ..sched.scheduler import PRIOR_CPU_SLOWDOWN

            tc = tg / PRIOR_CPU_SLOWDOWN
        jit_key = (self.rt.program.program_id, future.kernel)
        jit_ready = self._jit_ready.get(jit_key, 0.0)
        gpu_finish = max(ready, self.clocks["gpu"], jit_ready) + future.n / tg
        cpu_finish = max(ready, self.clocks["cpu"]) + future.n / tc
        return "cpu" if cpu_finish < gpu_finish else "gpu"

    def _execute(self, future: ConstructFuture) -> None:
        rt = self.rt
        ready = 0.0
        for dep in future.deps:
            ready = max(ready, self.futures[dep].finish_seconds)
        policy = self._placement_policy(future, ready)
        # Declared-set runtime validation: retain this construct's traces
        # and check every recorded access against the declared spans.
        # Reduce constructs are exempt when declared non-conservatively —
        # their lanes write runtime-managed scratch copies the caller
        # cannot declare; device-heap programs likewise allocate outside
        # any declarable span.
        checking = (
            rt.options.declared_check != "off"
            and rt.collect_mem_events
            and (future.construct == "for" or future.conservative)
            and not rt.program.config.device_alloc
        )
        if checking:
            kept_before = len(rt.trace_log)
            keep_traces_before = rt.keep_traces
            rt.keep_traces = True
            try:
                report = rt.scheduler.run(
                    future._kinfo,
                    future.n,
                    future._body,
                    future.construct,
                    on_cpu=future._on_cpu,
                    policy=policy,
                )
            finally:
                rt.keep_traces = keep_traces_before
            fresh_traces = rt.trace_log[kept_before:]
            if not keep_traces_before:
                del rt.trace_log[kept_before:]
            self._check_declared(future, fresh_traces)
        else:
            report = rt.scheduler.run(
                future._kinfo,
                future.n,
                future._body,
                future.construct,
                on_cpu=future._on_cpu,
                policy=policy,
            )
        future.report = report
        busy = report.per_device_seconds()
        start = ready
        for device in busy:
            start = max(start, self.clocks.get(device, 0.0))
        jit_key = (rt.program.program_id, future.kernel)
        jit_ready = self._jit_ready.get(jit_key, 0.0)
        start_without_jit = start
        if "gpu" in busy:
            start = max(start, jit_ready)
        future.start = start
        for device, seconds in busy.items():
            finish = start + seconds
            future.finish[device] = finish
            self.clocks[device] = max(self.clocks.get(device, 0.0), finish)
        self._sync_seconds += report.seconds
        if report.jit_seconds > 0.0:
            exposed = max(0.0, jit_ready - start_without_jit)
            self._jit_ahead += max(0.0, report.jit_seconds - exposed)
        counters = self.rt.counters
        if counters is not None:
            counters.add("graph.executed")
            counters.add("graph.wave_depth", 0)  # ensure series exists
        # Release construction-only references; the report stays.
        future._body = None
        future._kinfo = None

    def _check_declared(self, future: ConstructFuture, traces) -> None:
        """Validate every recorded shared-region access of one executed
        construct against its declared spans: loads must fall inside
        ``reads ∪ writes``, stores inside ``writes``.  Mem events carry
        canonical CPU addresses on both devices and skip the private
        window, so the check is engine- and placement-independent."""
        rt = self.rt
        read_starts, read_ends = _merge_intervals(future.reads + future.writes)
        write_starts, write_ends = _merge_intervals(future.writes)
        total = 0
        details: list[dict] = []
        for trace in traces:
            for address, size, is_store in iter_access_events(trace):
                if is_store:
                    ok = _contains(write_starts, write_ends, address, size)
                else:
                    ok = _contains(read_starts, read_ends, address, size)
                if ok:
                    continue
                total += 1
                if len(details) < MAX_VIOLATION_DETAILS:
                    details.append(
                        {
                            "access": "store" if is_store else "load",
                            "address": int(address),
                            "size": int(size),
                        }
                    )
        if not total:
            return
        obs = rt.obs
        if obs is not None:
            obs.counters.add("graph.declared_violations", total)
            telemetry = obs.telemetry
            if telemetry is not None:
                for detail in details:
                    telemetry.emit(
                        "violation",
                        future.kernel,
                        construct_index=future.index,
                        **detail,
                    )
        first = details[0]
        message = (
            f"construct #{future.index} ({future.kernel}) touched "
            f"{total} byte range(s) outside its declared sets; first: "
            f"{first['access']} of {first['size']} byte(s) at "
            f"0x{first['address']:x}"
        )
        if rt.options.declared_check == "trap":
            error = DeclaredSetViolation(message)
            error.trap_kernel = future.kernel
            error.trap_violations = details
            raise error
        warnings.warn(message, stacklevel=3)

    # -- synchronization ---------------------------------------------------

    def barrier(self, regions=None) -> None:
        """Force every pending construct whose declared accesses overlap
        ``regions`` (everything, when omitted) — the host-side read
        barrier for deferred submissions."""
        if regions is None:
            for future in self.futures:
                if not future.done:
                    self._execute(future)
            return
        spans = tuple(as_span(obj) for obj in regions)
        for future in self.futures:
            if future.done:
                continue
            if _overlap_any(future.writes, spans) or _overlap_any(
                future.reads, spans
            ):
                self.force(future.index)

    def wait(self) -> GraphStats:
        """Force every pending construct, emit the ``graph_wave`` spans
        and counters for newly finished work, and return the graph's
        accounting snapshot."""
        self.barrier()
        stats = self.stats()
        fresh = self.futures[self._reported :]
        self._reported = len(self.futures)
        obs = self.rt.obs
        if obs is not None and fresh:
            counters = obs.counters
            waves: dict[int, list] = {}
            for future in fresh:
                waves.setdefault(future.wave, []).append(future)
            counters.add("graph.waves", len(waves))
            counters.add("graph.jit_ahead_seconds", stats.jit_ahead_seconds)
            for wave_index in sorted(waves):
                members = waves[wave_index]
                wave_start = min(m.start for m in members)
                wave_finish = max(m.finish_seconds for m in members)
                with obs.span(
                    "graph_wave",
                    "graph_wave",
                    wave=wave_index,
                    constructs=len(members),
                    virtual_start=wave_start,
                    virtual_finish=wave_finish,
                ) as wspan:
                    wspan.sim_seconds = wave_finish - wave_start
                    for member in members:
                        for device, finish in sorted(member.finish.items()):
                            with obs.span(
                                f"graph:{member.kernel}",
                                "graph_construct",
                                index=member.index,
                                device=device,
                                wave=wave_index,
                                n=member.n,
                                virtual_start=member.start,
                                virtual_finish=finish,
                            ) as cspan:
                                cspan.sim_seconds = finish - member.start
        return stats

    # -- reporting ---------------------------------------------------------

    def stats(self) -> GraphStats:
        executed = [f for f in self.futures if f.done]
        edges = {kind: 0 for kind in EDGE_KINDS}
        for future in self.futures:
            for kind in EDGE_KINDS:
                edges[kind] += len(future.edges.get(kind, ()))
        busy: dict[str, float] = {}
        for future in executed:
            for device, finish in future.finish.items():
                busy[device] = busy.get(device, 0.0) + (finish - future.start)
        return GraphStats(
            constructs=len(self.futures),
            executed=len(executed),
            edges=edges,
            conservative=sum(1 for f in self.futures if f.conservative),
            waves=1 + max((f.wave for f in self.futures), default=-1),
            wall_seconds=max(
                (f.finish_seconds for f in executed), default=0.0
            ),
            sync_seconds=self._sync_seconds,
            device_busy=busy,
            jit_ahead_seconds=self._jit_ahead,
        )
