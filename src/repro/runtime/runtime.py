"""The Concord compute runtime (paper sections 2.2, 3.3, 3.4).

A :class:`ConcordRuntime` owns the shared virtual memory region, loads a
compiled program (materializing vtables and global symbols into the shared
region — section 3.2), hands out typed views for host-side data-structure
construction, and executes the two parallel constructs:

* ``parallel_for_hetero(n, body, on_cpu)``
* ``parallel_reduce_hetero(n, body, on_cpu)``

Device execution lives in the backends (:mod:`repro.backend`), one per
device, every construct runs through one body
(:func:`repro.backend.base.run_construct`), and the lanes run on the
engine :meth:`ConcordRuntime._make_engine` picks (:mod:`repro.exec`).
``CpuBackend`` models the multicore path, ``GpuBackend`` models the
paper's runtime API — per-program ``gpu_program_t`` / per-function
``gpu_function_t`` caches mean each kernel is "JIT-compiled" (finalized +
timed for code upload) exactly once, with subsequent launches reusing the
cached binary, and reductions follow section 3.3 (private Body copies,
tree-wise per-work-group reduction in simulated local memory, sequential
host join of group results).

Placement is decided by the construct scheduler (:mod:`repro.sched`):
the default ``gpu`` policy and the ``cpu`` policy reproduce the paper's
two fixed paths bit for bit, while ``auto`` and ``hybrid`` calibrate
from measured throughput and may split one index space across both
backends.  See ``docs/RUNTIME.md``.

What a caller may choose about a run — engine, policy, graph mode,
graph placement, declared-set check — is one :class:`RunConfig`, kept
as ``rt.options``.  Loading a program writes nothing on it: the
completed symbol table and the globals' addresses belong to the
runtime, so runtimes over one shared program object are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from ..backend import CpuBackend, GpuBackend
from ..exec.buffers import DEFAULT_MEM_EVENT_CAP, TRACE_COUNTERS, LaunchTrace, PrivateMemoryPool
from ..exec.compiled import CodeCache, CompiledEngine
from ..exec.interp import Interpreter
from ..exec.vector import VectorCodeCache, VectorEngine
from ..gpu.timing import DeviceReport
from ..ir.types import StructType, Type
from ..minicpp.sema import ClassInfo
from ..sched import POLICIES, Scheduler
from ..svm import (
    ArrayView,
    SharedAllocator,
    SharedRegion,
    StructView,
    SvmHeap,
    address_of,
)
from .compiler import CompiledProgram, ConcordWarning, KernelInfo
from .graph import PLACEMENTS
from .system import System, ultrabook

__all__ = [
    "ConcordRuntime",
    "ConcordWarning",
    "ExecutionReport",
    "JIT_SECONDS_PER_INSTRUCTION",
    "REDUCTION_GROUP_SIZE",
    "RunConfig",
]

#: Simulated cost of one vendor-JIT compilation, per kernel (the paper's
#: GPU times include a one-time compilation per kernel).  Read by the
#: GPU backend at call time so tests can monkeypatch it here.
JIT_SECONDS_PER_INSTRUCTION = 5e-9
#: Work-group size used for hierarchical reductions (section 3.3).
REDUCTION_GROUP_SIZE = 16


class _Unobserved:
    """The span :meth:`ConcordRuntime._span` yields without an observer:
    a site stamps ``sim_seconds`` on it and nothing reads it."""

    __slots__ = ("sim_seconds",)

    def __enter__(self) -> "_Unobserved":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


def _option(default, choices, what: str):
    """A :class:`RunConfig` field: its default, the values it may take
    and what an error calls it."""
    return field(default=default, metadata={"choices": choices, "what": what})


@dataclass(frozen=True)
class RunConfig:
    """What a caller may choose about a run, declared once.

    :class:`ConcordRuntime` builds one from its keywords and keeps it as
    ``rt.options``; every layer above the runtime forwards ``**options``
    to it, and the CLI flags, the daemon's run-request fields and the
    profile ``meta`` are generated from these fields.  Every field is
    checked here, so a bad value fails before anything is compiled or
    allocated.  Readers are listed in ``docs/RUNTIME.md``.
    """

    engine: str = _option(
        "compiled", ("compiled", "reference", "vector"), "execution engine"
    )
    #: the policy table, ``repro.sched.POLICIES``
    policy: str = _option("gpu", POLICIES, "scheduling policy")
    graph: bool = _option(False, (False, True), "graph mode")
    graph_placement: str = _option("policy", PLACEMENTS, "graph placement")
    declared_check: str = _option("off", ("off", "warn", "trap"), "declared-set check")

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            choices = spec.metadata["choices"]
            if type(value) is not type(spec.default) or value not in choices:
                raise ValueError(
                    f"{spec.name}={value!r}: unknown {spec.metadata['what']}; "
                    f"choose from {list(choices)}"
                )


@dataclass
class ExecutionReport:
    """What one parallel construct cost on the device(s) that ran it."""

    device: str  # "cpu" | "gpu" | "hybrid"
    n: int
    report: DeviceReport
    jit_seconds: float = 0.0
    fallback_reason: str = ""
    #: Launch-only seconds per device for hybrid constructs (the split
    #: scheduler's final virtual clocks).  ``None`` for single-device
    #: runs — :meth:`per_device_seconds` derives those from ``device``.
    device_seconds: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return self.report.seconds + self.jit_seconds

    @property
    def energy_joules(self) -> float:
        return self.report.energy_joules

    def per_device_seconds(self) -> dict:
        """Launch seconds by device — the task graph's unit of virtual
        clock advancement.  Single-device reports occupy their device for
        the whole launch; hybrid reports with recorded clocks occupy each
        device for its own share, and unlabeled hybrid merges
        conservatively occupy both devices for the full duration."""
        if self.device_seconds is not None:
            return dict(self.device_seconds)
        if self.device in ("cpu", "gpu"):
            return {self.device: self.report.seconds}
        return {"gpu": self.report.seconds, "cpu": self.report.seconds}

    def __add__(self, other):
        """Merge two construct reports (sequential composition): seconds,
        energy and event counts sum; the device is kept when both halves
        agree and becomes ``"hybrid"`` otherwise.  ``sum()`` over reports
        works via the 0 identity."""
        if other == 0:
            return self
        if not isinstance(other, ExecutionReport):
            return NotImplemented
        mine, theirs = self.per_device_seconds(), other.per_device_seconds()
        merged = {
            device: mine.get(device, 0.0) + theirs.get(device, 0.0)
            for device in {*mine, *theirs}
        }
        return ExecutionReport(
            device=self.device if self.device == other.device else "hybrid",
            n=self.n + other.n,
            report=self.report + other.report,
            jit_seconds=self.jit_seconds + other.jit_seconds,
            fallback_reason=self.fallback_reason or other.fallback_reason,
            device_seconds=merged,
        )

    __radd__ = __add__


class ConcordRuntime:
    """Executes compiled Concord programs over software SVM."""

    def __init__(
        self,
        program: CompiledProgram,
        system: Optional[System] = None,
        region_size: int = 1 << 24,
        collect_mem_events: bool = True,
        mem_event_cap: int = DEFAULT_MEM_EVENT_CAP,
        keep_traces: bool = False,
        observer=None,
        **options,
    ):
        #: the run's choices (:class:`RunConfig`); the backends, the
        #: scheduler and the task graph read them here
        self.options = RunConfig(**options)
        self.program = program
        self.system = system or ultrabook()
        self.region = SharedRegion(region_size)
        self.allocator = SharedAllocator(self.region, reserve=1 << 14)
        self.heap = SvmHeap(self.region, self.allocator)
        self.collect_mem_events = collect_mem_events
        # One cap, threaded into every trace this runtime creates (the
        # traces enforce it; see repro.exec.buffers.DEFAULT_MEM_EVENT_CAP).
        self.mem_event_cap = mem_event_cap
        # Optional observability sink (repro.obs.Observer).  Every use is
        # guarded on ``is not None`` so the default configuration pays
        # nothing — spans, counters and profiles exist only on request.
        self.obs = observer
        #: the observer's counter registry, or ``None`` without one
        self.counters = counters = observer.counters if observer is not None else None
        # What loading the program decides, kept here and not on the
        # (shared) program: symbol id -> function for CPU virtual
        # dispatch, and global name -> its address in this region.
        self._symbols: dict[int, object] = {}
        self.global_addresses: dict[str, int] = {}
        # Engine code cache: each kernel's code is generated at most once
        # per program and bound at most once per runtime, every launch
        # replays the bound functions (the simulator-level analogue of
        # the gpu_function_t JIT cache).
        self.code_cache = CodeCache(
            self.region,
            counters=counters,
            code=program.jit_code,
            addresses=self.global_addresses,
        )
        self.private_pool = PrivateMemoryPool(
            Interpreter.PRIVATE_WINDOW + 0x1000, counters=counters
        )
        # Debug/verification hook — when keep_traces is set, every launch's
        # trace is retained here in execution order (the equivalence suite
        # compares them across engines, lane by lane through ``lanes()``).
        self.keep_traces = keep_traces
        self.trace_log: list[LaunchTrace] = []
        # Device-side heap (paper future-work extension): reserved lazily
        # when the program was compiled with device_alloc.
        self._device_heap = None
        # gpu_program_t: one gpu_function_t entry per (program, kernel)
        # pair — keyed by program id because kernel names repeat across
        # independently compiled programs.
        self._gpu_function_cache: dict[tuple, object] = {}
        # class name -> (ClassInfo, {argument count: constructor}), each
        # resolved on first use; ``new``, ``new_array`` and ``view`` share it
        self._classes: dict[str, tuple] = {}
        # Kernels whose vector classification this runtime's span and
        # counters already show (the program's verdicts are shared; who
        # has reported them is not).
        self._vector_classified: set = set()
        # block uid -> (function name, block index) for the ``launch``
        # events' ``blocks``, built on the first observed launch
        self._block_keys: Optional[dict] = None
        # The backends, the scheduler and the task graph hold no
        # reference to this runtime (each call is handed it), so nothing
        # it owns points back at it: dropping the last reference frees
        # the region at once, with no close() and no cyclic collection.
        self.backends = {"cpu": CpuBackend(), "gpu": GpuBackend()}
        self.scheduler = Scheduler()
        self._task_graph = None
        self._load_program()

    # -- program loading (vtables + globals into the shared region) -----------

    def _load_program(self) -> None:
        """Fill this runtime's symbol table and global addresses and
        materialize the globals in its region.  Nothing is written on the
        program: the daemon's memory LRU hands one object to every
        request for it."""
        module = self.program.module
        # devirt gave ids to the functions it dispatches to; CPU dispatch
        # needs one for every virtual function
        symbol_ids = dict(getattr(module, "symbol_ids", {}))
        for slots in module.vtables.values():
            for fn in slots:
                symbol_ids.setdefault(fn.name, 0x1000 + len(symbol_ids))
        self._symbols.update(
            (sid, module.functions[name])
            for name, sid in symbol_ids.items()
            if name in module.functions
        )
        # Vtable arrays get their slots filled with the symbol ids (paper:
        # vtables + global symbols move into the shared memory region).
        for gvar in module.globals.values():
            size = max(1, gvar.value_type.size())
            address = self.allocator.calloc(size, gvar.value_type.align())
            self.global_addresses[gvar.name] = address
            init = gvar.initializer
            if isinstance(init, tuple) and init[0] == "vtable":
                slots = module.vtables.get(init[1], [])
                for index, fn in enumerate(slots):
                    self.region.write_int(
                        address + 8 * index, 8, symbol_ids[fn.name], signed=False
                    )
            elif isinstance(init, (int, float)):
                from ..svm.views import write_typed

                write_typed(self.region, address, gvar.value_type, init)

    # -- host-side object construction ------------------------------------------

    def _class(self, class_name: str) -> tuple:
        """``(ClassInfo, {argument count: constructor})`` of a class; the
        first constructor in module order wins an argument count."""
        entry = self._classes.get(class_name)
        if entry is None:
            info = self.program.class_info(class_name)
            ctors: dict = {}
            for fn in self.program.module.functions.values():
                if fn.attributes.get("constructor_of") == info.name:
                    ctors.setdefault(len(fn.args) - 1, fn)
            entry = self._classes[class_name] = (info, ctors)
        return entry

    def new(self, class_name: str, *ctor_args) -> StructView:
        """Allocate a class instance in SVM; runs its constructor (and
        vtable install) through the host interpreter, like ``new`` in the
        paper's host C++."""
        info, ctors = self._class(class_name)
        view = self.heap.new_struct(info.struct_type)
        ctor = ctors.get(len(ctor_args))
        if ctor is not None:
            interp = self._host_interpreter()
            interp.call_function(ctor, [view.addr, *[_raw(a) for a in ctor_args]])
            interp.release_private_memory()
        elif ctor_args:
            raise TypeError(
                f"{info.name} has no {len(ctor_args)}-argument constructor"
            )
        elif info.polymorphic:
            self.install_vtable(info, view.addr)
        return view

    def new_array(self, element: "str | Type", count: int) -> ArrayView:
        if isinstance(element, str):
            element_type: Type = self._class(element)[0].struct_type
        else:
            element_type = element
        return self.heap.new_array(element_type, count)

    def free(self, view) -> None:
        self.heap.free(view)

    def view(self, class_name: str, address: int) -> StructView:
        return StructView(self.region, self._class(class_name)[0].struct_type, address)

    def install_vtable(self, info: ClassInfo, addr: int) -> None:
        vtable = self.global_addresses.get(f"__vtable.{info.struct_type.name}")
        if vtable is None:
            raise RuntimeError(f"vtable for {info.name} not loaded")
        from ..minicpp.sema import VPTR_FIELD

        offset = info.find_field(VPTR_FIELD)[0]
        self.region.write_int(addr + offset, 8, vtable, signed=False)

    def call_host(self, function_name: str, *args):
        """Run any compiled function on the host interpreter (used for
        helpers, validation and the sequential join fallback)."""
        fn = self.program.module.functions[function_name]
        interp = self._host_interpreter()
        try:
            return interp.call_function(fn, [_raw(a) for a in args])
        finally:
            interp.release_private_memory()

    def _host_interpreter(self):
        return self._make_engine(
            device="cpu",
            allocator=self.allocator,
            collect_mem_events=False,
        )

    # -- observability helpers ---------------------------------------------

    def _span(self, name: str, category: str = "", **attrs):
        """A phase span when an observer is attached, otherwise an inert
        one: either way a site may stamp ``sim_seconds`` on what the
        ``with`` yields."""
        if self.obs is None:
            return _Unobserved()
        return self.obs.span(name, category, **attrs)

    def _harvest_traces(self, traces) -> dict:
        """Fold trace execution totals into the observer's counter
        registry; returns the construct-level totals for profile
        attachment.  ``traces`` are the construct's ``LaunchTrace``
        objects.  Only called when an observer is attached."""
        sums = [0] * len(TRACE_COUNTERS)
        for trace in traces:
            for index, value in enumerate(trace.counter_totals()):
                sums[index] += value
        totals = dict(zip(TRACE_COUNTERS, sums))
        counters = self.counters
        for name, value in totals.items():
            counters.add(name, value)
        counters.add("obs.counter_flushes", 1)
        return totals

    def _block_rows(self, traces) -> list:
        """A ``launch`` event's ``blocks``: for each ``(device, traces)``
        sample, the traces' executed-block histograms merged in order, one
        ``[device, function name, block index, count]`` row per block.
        Uids are process-local (and so are the block names devirtualization
        derives from them), so a block is named by its position in its
        function, through a map built once per runtime, never on the
        shared program."""
        keys = self._block_keys
        if keys is None:
            keys = self._block_keys = {
                block.uid: (function.name, index)
                for function in self.program.module.functions.values()
                for index, block in enumerate(function.blocks)
            }
        rows = []
        for device, sample in traces:
            merged: dict = {}
            for trace in sample:
                for uid, count in trace.block_totals().items():
                    merged[uid] = merged.get(uid, 0) + count
            rows.extend([device, *keys[uid], count] for uid, count in merged.items())
        return rows

    def _record_construct(
        self,
        kernel_name: str,
        construct: str,
        device: str,
        n: int,
        *,
        seconds: float,
        energy_joules: float,
        phases: dict,
        traces,
    ) -> None:
        """One construct's worth of observer bookkeeping, shared by every
        backend and the hybrid scheduler: flush trace counters and emit
        the ``launch`` event.  ``traces`` are the construct's
        ``LaunchTrace`` objects as ``(device, traces)`` samples, each
        merged into one histogram (``run_construct``'s: the GPU chunks,
        the CPU chunks, the GPU host join).  Only called when an
        observer is attached."""
        self.obs.emit(
            "launch",
            kernel_name,
            construct=construct,
            device=device,
            n=n,
            seconds=seconds,
            energy_joules=energy_joules,
            phases=phases,
            counters=self._harvest_traces(
                [trace for _device, sample in traces for trace in sample]
            ),
            program=self.program.program_id,
            blocks=self._block_rows(traces),
        )

    # -- execution-engine factory ------------------------------------------

    def lane_engine(self, device: str) -> str:
        """The name of the engine that runs this runtime's lanes on
        ``device`` — the one place that rule is written.  The vector engine
        runs only GPU launches; CPU lanes under it run threaded code."""
        engine = self.options.engine
        return "compiled" if engine == "vector" and device != "gpu" else engine

    def _make_engine(
        self,
        device: str,
        collect_mem_events: Optional[bool] = None,
        global_id: int = 0,
        num_cores: int = 1,
        allocator=None,
    ):
        """The engine that runs this runtime's lanes on ``device`` — the
        one place an engine name (:meth:`lane_engine`) becomes an engine
        class.  ``reference`` is the :class:`Interpreter`, ``compiled``
        the generated-code :class:`CompiledEngine` and ``vector`` the
        :class:`VectorEngine` (GPU launches only: the multicore path
        models per-thread execution, not warps).  Every engine shares
        the runtime's symbol table and private-memory pool, the
        generated-code ones its code cache (which binds the global
        addresses), so an engine per launch stays cheap (compile once,
        launch many)."""
        common = dict(
            device=device,
            symbols=self._symbols,
            collect_mem_events=(
                self.collect_mem_events if collect_mem_events is None else collect_mem_events
            ),
            global_id=global_id,
            num_cores=num_cores,
            allocator=allocator,
            private_pool=self.private_pool,
            counters=self.counters,
        )
        engine = self.lane_engine(device)
        if engine == "reference":
            return Interpreter(self.region, addresses=self.global_addresses, **common)
        if engine == "vector":
            if self.program.vector_code is None:
                # The first vector runtime over the program object creates
                # its code cache; every later one shares it.
                self.program.vector_code = VectorCodeCache()
            return VectorEngine(
                self.region,
                code_cache=self.code_cache,
                vector_code=self.program.vector_code,
                classified=self._vector_classified,
                obs_span=self._span,
                **common,
            )
        return CompiledEngine(self.region, code_cache=self.code_cache, **common)

    def device_heap(self):
        """The device-side bump allocator (created on first use)."""
        if self._device_heap is None:
            from ..svm.allocator import DeviceBumpAllocator

            slab_size = max(1 << 16, self.region.size // 16)
            base = self.allocator.malloc(slab_size, align=64)
            self._device_heap = DeviceBumpAllocator(self.region, base, slab_size)
        return self._device_heap

    # -- task graph (repro.runtime.graph) ----------------------------------

    @property
    def task_graph(self):
        """The runtime's task graph, created on first use (``submit`` or
        graph-mode construct)."""
        if self._task_graph is None:
            from .graph import TaskGraph

            self._task_graph = TaskGraph()
        return self._task_graph

    def submit(
        self,
        n: int,
        body,
        construct: str = "for",
        reads=None,
        writes=None,
        on_cpu: bool = False,
        policy: Optional[str] = None,
    ):
        """Enqueue one deferred construct with declared region accesses
        and return its :class:`~repro.runtime.graph.ConstructFuture` (see
        ``docs/GRAPH.md``).  Omitting ``reads``/``writes`` falls back to a
        conservative whole-region access."""
        return self.task_graph.submit(
            self,
            n,
            body,
            construct=construct,
            reads=reads,
            writes=writes,
            on_cpu=on_cpu,
            policy=policy,
        )

    def wait(self):
        """Force every pending submitted construct; returns the graph's
        :class:`~repro.runtime.graph.GraphStats`."""
        return self.task_graph.wait(self)

    def barrier(self, regions=None) -> None:
        """Force only the pending submitted constructs whose declared
        accesses overlap ``regions`` (every one, when omitted)."""
        self.task_graph.barrier(self, regions)

    # -- parallel constructs --------------------------------------------------------

    def parallel_for_hetero(
        self, n: int, body, on_cpu: bool = False, policy: Optional[str] = None
    ) -> ExecutionReport:
        """The paper's heterogeneous parallel-for.  ``on_cpu=True`` forces
        the multicore path; otherwise placement follows ``policy`` (this
        call's override, else the runtime's configured policy).  In graph
        mode (``RunConfig.graph``) the construct goes through
        ``submit(...).result()``: its conservative whole-region
        dependencies serialize it, so the bytes are the synchronous ones,
        while the task graph keeps the overlap accounting."""
        if self.options.graph:
            return self.submit(n, body, "for", on_cpu=on_cpu, policy=policy).result()
        kinfo = self._kernel_of(body)
        return self.scheduler.run(
            self, kinfo, n, body, "for", on_cpu=on_cpu, policy=policy
        )

    def parallel_reduce_hetero(
        self, n: int, body, on_cpu: bool = False, policy: Optional[str] = None
    ) -> ExecutionReport:
        if self.options.graph:
            return self.submit(
                n, body, "reduce", on_cpu=on_cpu, policy=policy
            ).result()
        kinfo = self._kernel_of(body)
        if kinfo.construct != "reduce":
            raise TypeError(
                f"{kinfo.body_class.name} has no join method; use "
                "parallel_for_hetero"
            )
        return self.scheduler.run(
            self, kinfo, n, body, "reduce", on_cpu=on_cpu, policy=policy
        )

    def _kernel_of(self, body) -> KernelInfo:
        if isinstance(body, StructView):
            name = body.struct_type.name.replace("__", "::")
            for cname, kinfo in self.program.kernels.items():
                if kinfo.body_class.struct_type.name == body.struct_type.name:
                    return kinfo
            raise KeyError(f"class {name} is not a heterogeneous body")
        raise TypeError("body must be a StructView created by runtime.new()")


def _raw(value):
    return address_of(value) if isinstance(value, (StructView, ArrayView)) else value
