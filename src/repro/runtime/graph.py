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
  completion.  The graph keeps one :class:`ConstructRecord` per
  submission and hands out futures that read through to it; a future
  holds its graph and runtime, and neither holds a future, so a dropped
  runtime is freed at once however many futures it handed out.
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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "ConstructFuture",
    "ConstructRecord",
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
    return np.array(starts, np.uint64), np.array(ends, np.uint64)


def declared_violations(reads, writes, traces) -> tuple:
    """``(total, details)`` of the events of ``traces`` (launch traces, in
    execution order) that fall outside the declared spans: loads outside
    ``reads ∪ writes``, stores outside ``writes``.  An access is inside
    when one coalesced interval holds all its bytes; ``details`` describes
    the first :data:`MAX_VIOLATION_DETAILS` violations in event order."""
    # concatenate needs one array; the uint64 one widens ``size``
    address = np.concatenate([np.empty(0, np.uint64), *(trace.address for trace in traces)])
    size = np.concatenate([np.empty(0, np.uint64), *(trace.size for trace in traces)])
    is_store = np.concatenate([np.empty(0, bool), *(trace.is_store != 0 for trace in traces)])
    inside = np.zeros(len(address), bool)
    for mask, spans in ((is_store, writes), (~is_store, reads + writes)):
        starts, ends = _merge_intervals(spans)
        if len(starts):
            index = np.searchsorted(starts, address[mask], side="right") - 1
            inside[mask] = (index >= 0) & (address[mask] + size[mask] <= ends[index])
    outside = np.flatnonzero(~inside)
    details = [
        {
            "access": "store" if is_store[event] else "load",
            "address": int(address[event]),
            "size": int(size[event]),
        }
        for event in outside[:MAX_VIOLATION_DETAILS].tolist()
    ]
    return len(outside), details


@dataclass
class ConstructRecord:
    """What the graph keeps of one submitted construct: its declared
    accesses, inferred dependencies, and — once forced — its report and
    virtual schedule."""

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


class ConstructFuture:
    """A caller's handle on one submitted construct.  Every attribute of
    its :class:`ConstructRecord` (``index``, ``edges``, ``deps``,
    ``wave``, ``report``, ``done`` …) reads through to the record the
    graph keeps; the handle adds the graph and runtime that
    :meth:`result` forces it on."""

    __slots__ = ("_record", "_graph", "_rt")

    def __init__(self, record: ConstructRecord, graph: "TaskGraph", rt):
        self._record = record
        self._graph = graph
        self._rt = rt

    def __getattr__(self, name):
        return getattr(self._record, name)

    def __repr__(self) -> str:
        return f"ConstructFuture({self._record!r})"

    def result(self):
        """Force this construct (and, transitively, its dependencies) and
        return its :class:`~repro.runtime.runtime.ExecutionReport`."""
        record = self._record
        if record.report is None:
            self._graph.force(self._rt, record.index)
        return record.report


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
    ``rt.wait``.  It holds no runtime: the one whose constructs it runs
    is the first argument of every method that submits or executes.
    Placement and the declared-set check are that runtime's
    ``options.graph_placement`` / ``options.declared_check``.
    """

    def __init__(self):
        #: one record per submission, in submission order
        self.records: list[ConstructRecord] = []
        #: per-device virtual clocks (seconds); the wall time is their max
        self.clocks: dict[str, float] = {"gpu": 0.0, "cpu": 0.0}
        #: host JIT lane: one compile at a time, queued at submission
        self.jit_clock = 0.0
        #: (program_id, kernel) -> compile-ahead finish time
        self._jit_ready: dict = {}
        self._sync_seconds = 0.0
        self._jit_ahead = 0.0
        #: records already folded into graph_wave spans by a wait()
        self._reported = 0

    # -- submission --------------------------------------------------------

    def submit(
        self,
        rt,
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
            region = rt.region
            read_spans = write_spans = (RegionSpan(region.cpu_base, region.size),)
        else:
            read_spans = tuple(as_span(obj) for obj in reads)
            write_spans = tuple(as_span(obj) for obj in writes)
        # The body struct itself is always read (the kernel loads its
        # fields); fold it into the read set so sibling constructs that
        # *write* the body serialize correctly.
        if not conservative:
            read_spans = read_spans + (as_span(body),)
        record = ConstructRecord(
            index=len(self.records),
            kernel=kinfo.gpu_kernel.name,
            construct=construct,
            n=n,
            reads=read_spans,
            writes=write_spans,
            conservative=conservative,
            _body=body,
            _kinfo=kinfo,
            _on_cpu=on_cpu,
            _policy=policy,
        )
        self._infer_edges(record)
        record.wave = (
            0
            if not record.deps
            else 1 + max(self.records[d].wave for d in record.deps)
        )
        self.records.append(record)
        self._compile_ahead(rt, kinfo)
        counters = rt.counters
        if counters is not None:
            counters.add("graph.submitted")
            if conservative:
                counters.add("graph.conservative")
            for kind in EDGE_KINDS:
                count = len(record.edges.get(kind, ()))
                if count:
                    counters.add(f"graph.edges.{kind}", count)
        return ConstructFuture(record, self, rt)

    def _infer_edges(self, record: ConstructRecord) -> None:
        """RAW/WAR/WAW edges against every earlier construct whose
        declared sets overlap this one's."""
        edges: dict = {kind: [] for kind in EDGE_KINDS}
        for prev in self.records:
            if _overlap_any(prev.writes, record.reads):
                edges["raw"].append(prev.index)
            if _overlap_any(prev.reads, record.writes):
                edges["war"].append(prev.index)
            if _overlap_any(prev.writes, record.writes):
                edges["waw"].append(prev.index)
        record.edges = {
            kind: tuple(indices) for kind, indices in edges.items() if indices
        }

    def _compile_ahead(self, rt, kinfo) -> None:
        """Queue the kernel's vendor JIT on the host lane at submission
        time, so it overlaps earlier constructs' execution instead of
        stalling this one's launch (Heteroflow's compile-ahead)."""
        if kinfo.cpu_only:
            return
        key = (rt.program.program_id, kinfo.gpu_kernel.name)
        if key in self._jit_ready:
            return
        gpu = rt.backends["gpu"]
        preview = gpu.jit_preview(rt, kinfo)
        self.jit_clock += preview
        self._jit_ready[key] = self.jit_clock

    # -- forcing -----------------------------------------------------------

    def force(self, rt, index: int) -> None:
        """Execute the construct at ``index`` (after its transitive
        dependencies, in submission order among them)."""
        if self.records[index].done:
            return
        # Iterative dependency closure — conservative chains can be long.
        pending: list[int] = []
        stack = [index]
        seen: set = set()
        while stack:
            i = stack.pop()
            if i in seen or self.records[i].done:
                continue
            seen.add(i)
            pending.append(i)
            stack.extend(self.records[i].deps)
        for i in sorted(pending):
            self._execute(rt, self.records[i])

    def _placement_policy(self, rt, record: ConstructRecord, ready: float):
        """Which policy dispatches this construct (see module docstring)."""
        if rt.options.graph_placement == "policy" or record._on_cpu:
            return record._policy
        if record._policy is not None:
            return record._policy  # explicit per-submit override wins
        if record._kinfo.cpu_only or record.construct == "reduce":
            # Reductions lay scratch out per-device; keep them on the
            # paper path rather than letting ECT flip their layout.
            return None
        sched = rt.scheduler
        key = sched.key_of(record._kinfo)
        tg = sched.throughput(key, "gpu")
        if tg is None:
            return "gpu"  # calibrate the paper's default device first
        tc = sched.throughput(key, "cpu")
        if tc is None:
            from ..sched.scheduler import PRIOR_CPU_SLOWDOWN

            tc = tg / PRIOR_CPU_SLOWDOWN
        jit_key = (rt.program.program_id, record.kernel)
        jit_ready = self._jit_ready.get(jit_key, 0.0)
        gpu_finish = max(ready, self.clocks["gpu"], jit_ready) + record.n / tg
        cpu_finish = max(ready, self.clocks["cpu"]) + record.n / tc
        return "cpu" if cpu_finish < gpu_finish else "gpu"

    def _execute(self, rt, record: ConstructRecord) -> None:
        ready = 0.0
        for dep in record.deps:
            ready = max(ready, self.records[dep].finish_seconds)
        policy = self._placement_policy(rt, record, ready)
        # Declared-set runtime validation: retain this construct's traces
        # and check every recorded access against the declared spans.
        # Reduce constructs are exempt when declared non-conservatively —
        # their lanes write runtime-managed scratch copies the caller
        # cannot declare; device-heap programs likewise allocate outside
        # any declarable span.
        checking = (
            rt.options.declared_check != "off"
            and rt.collect_mem_events
            and (record.construct == "for" or record.conservative)
            and not rt.program.config.device_alloc
        )
        if checking:
            kept_before = len(rt.trace_log)
            keep_traces_before = rt.keep_traces
            rt.keep_traces = True
            try:
                report = rt.scheduler.run(
                    rt,
                    record._kinfo,
                    record.n,
                    record._body,
                    record.construct,
                    on_cpu=record._on_cpu,
                    policy=policy,
                )
            finally:
                rt.keep_traces = keep_traces_before
            fresh_traces = rt.trace_log[kept_before:]
            if not keep_traces_before:
                del rt.trace_log[kept_before:]
            self._check_declared(rt, record, fresh_traces)
        else:
            report = rt.scheduler.run(
                rt,
                record._kinfo,
                record.n,
                record._body,
                record.construct,
                on_cpu=record._on_cpu,
                policy=policy,
            )
        record.report = report
        busy = report.per_device_seconds()
        start = ready
        for device in busy:
            start = max(start, self.clocks.get(device, 0.0))
        jit_key = (rt.program.program_id, record.kernel)
        jit_ready = self._jit_ready.get(jit_key, 0.0)
        start_without_jit = start
        if "gpu" in busy:
            start = max(start, jit_ready)
        record.start = start
        for device, seconds in busy.items():
            finish = start + seconds
            record.finish[device] = finish
            self.clocks[device] = max(self.clocks.get(device, 0.0), finish)
        self._sync_seconds += report.seconds
        if report.jit_seconds > 0.0:
            exposed = max(0.0, jit_ready - start_without_jit)
            self._jit_ahead += max(0.0, report.jit_seconds - exposed)
        counters = rt.counters
        if counters is not None:
            counters.add("graph.executed")
            counters.add("graph.wave_depth", 0)  # ensure series exists
        # Release construction-only references; the report stays.
        record._body = None
        record._kinfo = None

    def _check_declared(self, rt, record: ConstructRecord, traces) -> None:
        """Validate every recorded shared-region access of one executed
        construct against its declared spans: loads must fall inside
        ``reads ∪ writes``, stores inside ``writes``.  Mem events carry
        canonical CPU addresses on both devices and skip the private
        window, so the check is engine- and placement-independent."""
        total, details = declared_violations(record.reads, record.writes, traces)
        if not total:
            return
        obs = rt.obs
        if obs is not None:
            obs.counters.add("graph.declared_violations", total)
            for detail in details:
                obs.emit("violation", record.kernel, construct_index=record.index, **detail)
        first = details[0]
        message = (
            f"construct #{record.index} ({record.kernel}) touched "
            f"{total} byte range(s) outside its declared sets; first: "
            f"{first['access']} of {first['size']} byte(s) at "
            f"0x{first['address']:x}"
        )
        if rt.options.declared_check == "trap":
            error = DeclaredSetViolation(message)
            error.trap_kernel = record.kernel
            error.trap_violations = details
            raise error
        warnings.warn(message, stacklevel=3)

    # -- synchronization ---------------------------------------------------

    def barrier(self, rt, regions=None) -> None:
        """Force every pending construct whose declared accesses overlap
        ``regions`` (everything, when omitted) — the host-side read
        barrier for deferred submissions."""
        if regions is None:
            for record in self.records:
                if not record.done:
                    self._execute(rt, record)
            return
        spans = tuple(as_span(obj) for obj in regions)
        for record in self.records:
            if record.done:
                continue
            if _overlap_any(record.writes, spans) or _overlap_any(
                record.reads, spans
            ):
                self.force(rt, record.index)

    def wait(self, rt) -> GraphStats:
        """Force every pending construct, emit the ``graph_wave`` spans
        and counters for newly finished work, and return the graph's
        accounting snapshot."""
        self.barrier(rt)
        stats = self.stats()
        fresh = self.records[self._reported :]
        self._reported = len(self.records)
        obs = rt.obs
        if obs is not None and fresh:
            counters = obs.counters
            waves: dict[int, list] = {}
            for record in fresh:
                waves.setdefault(record.wave, []).append(record)
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
        executed = [f for f in self.records if f.done]
        edges = {kind: 0 for kind in EDGE_KINDS}
        for record in self.records:
            for kind in EDGE_KINDS:
                edges[kind] += len(record.edges.get(kind, ()))
        busy: dict[str, float] = {}
        for record in executed:
            for device, finish in record.finish.items():
                busy[device] = busy.get(device, 0.0) + (finish - record.start)
        return GraphStats(
            constructs=len(self.records),
            executed=len(executed),
            edges=edges,
            conservative=sum(1 for f in self.records if f.conservative),
            waves=1 + max((f.wave for f in self.records), default=-1),
            wall_seconds=max(
                (f.finish_seconds for f in executed), default=0.0
            ),
            sync_seconds=self._sync_seconds,
            device_busy=busy,
            jit_ahead_seconds=self._jit_ahead,
        )
