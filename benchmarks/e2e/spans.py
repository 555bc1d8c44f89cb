"""Benchmark-side spans: the per-layer trace, taken from outside.

Nothing under ``src/`` knows about this file.  A traced run rebinds the
public entry point of each layer *where its caller looks the name up*
(a class attribute, or the module global the caller imported it into) to
a wrapper that records one span per call — name, start, end, parent —
and calls the original.  Spans stay in memory until the run ends.

A layer's **self time** is its spans' duration minus the part covered by
their child spans, so the self times of all names plus the harness's own
root spans add up to exactly the traced wall time.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager


class Recorder:
    """In-memory span list.  One open-span stack per thread; a span
    opened with an explicit ``parent`` links across threads (a daemon
    handler span under the client request that caused it)."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or None]
        self.amounts: dict = {}  # name -> summed ``measure`` values
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = [name, 0.0, 0.0, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.amounts[name] = self.amounts.get(name, 0.0) + amount

    def by_name(self, since: int = 0) -> dict:
        """``name -> {"count", "total", "self"}`` over the spans recorded
        from index ``since`` on (a root span and all it caused)."""
        spans = self.spans[since:]
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent is not None:
                covered[parent - since] += end - start
        out: dict = {}
        for (name, start, end, _parent), child_time in zip(spans, covered):
            row = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            row["count"] += 1
            row["total"] += end - start
            row["self"] += (end - start) - child_time
        return out


def instrument(recorder, owner, attr: str, name: str, measure=None, parent_of=None):
    """Rebind ``owner.attr`` to a span-recording wrapper; returns the
    undo callable.  ``measure(args, kwargs, result)`` may return
    ``{key: number}`` to sum into ``recorder.amounts`` (source bytes,
    graph waves); ``parent_of(args, kwargs)`` may return the index of a
    span recorded by another thread."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def wrapper(*args, **kwargs):
        parent = parent_of(args, kwargs) if parent_of is not None else None
        with recorder.span(name, parent):
            result = original(*args, **kwargs)
        if measure is not None:
            for key, amount in measure(args, kwargs, result).items():
                recorder.add(key, amount)
        return result

    wrapper.__name__ = getattr(original, "__name__", attr)
    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


#: (module, class or None, attribute, span name).  One row per place a
#: caller resolves the name, so the same function can appear twice.
#: ``Scheduler.run`` is left alone on purpose: it is a thin dispatch that
#: every construct of every workload passes through, while the ``sched``
#: layer that decides anything is the split dispatcher ``run_split``.
TARGETS = (
    ("repro.workloads.base", "Workload", "execute", "workloads.host"),
    ("repro.eval.overlap", None, "measure_bfs_pipeline", "workloads.host"),
    ("repro.eval.overlap", None, "measure_bh_batch", "workloads.host"),
    ("repro.runtime.compiler", None, "pipeline_stage", "passes.pipeline"),
    ("repro.runtime.compiler", None, "closure_stage", "compiler.closure"),
    ("repro.runtime.compiler", None, "compile_cached", "compiler.cached"),
    ("repro.service.store", "ArtifactStore", "get", "store.get"),
    ("repro.service.store", "ArtifactStore", "put", "store.put"),
    ("repro.sched.scheduler", "Scheduler", "run_split", "sched.run"),
    ("repro.runtime.graph", "TaskGraph", "submit", "graph.submit"),
    ("repro.runtime.graph", "TaskGraph", "force", "graph.wait"),
    ("repro.runtime.graph", "TaskGraph", "barrier", "graph.wait"),
    ("repro.backend.gpu", "GpuBackend", "run_for", "backend.construct"),
    ("repro.backend.gpu", "GpuBackend", "run_reduce", "backend.construct"),
    ("repro.backend.cpu", "CpuBackend", "run_for", "backend.construct"),
    ("repro.backend.cpu", "CpuBackend", "run_reduce", "backend.construct"),
    ("repro.backend.gpu", "GpuBackend", "prepare", "backend.jit"),
    ("repro.backend.cpu", "CpuBackend", "prepare", "backend.jit"),
    ("repro.backend.gpu", "GpuBackend", "launch", "backend.launch"),
    ("repro.backend.cpu", "CpuBackend", "launch", "backend.launch"),
    ("repro.backend.gpu", "GpuBackend", "reduce", "backend.reduce"),
    ("repro.backend.cpu", "CpuBackend", "reduce", "backend.reduce"),
    ("repro.exec.vector", None, "run_vectorized", "vector.run"),
    ("repro.exec.vector", None, "classify_kernel", "vector.classify"),
    ("repro.backend.gpu", None, "time_gpu_kernel", "gpu.timing"),
    ("repro.backend.gpu", None, "time_cpu_execution", "cpu.timing"),
    ("repro.backend.cpu", None, "time_cpu_execution", "cpu.timing"),
    ("repro.cpu.timing", None, "time_cpu_execution", "cpu.timing"),
)

#: Payload key a traced client adds to a daemon request so the handler
#: span can name the client span that caused it (the handlers ignore
#: unknown keys).
SPAN_KEY = "bench_span"


def _source_bytes(args, kwargs, _result) -> dict:
    source = args[0] if args else kwargs["source"]
    return {"minicpp.source_bytes": len(source)}


def _graph_counts(_args, _kwargs, stats) -> dict:
    # TaskGraph.wait returns the graph's GraphStats.  Read from here, the
    # counts also cover eval.overlap, which builds its runtimes without
    # an observer.
    return {
        "graph.waves": stats.waves,
        "graph.constructs": stats.constructs,
        "graph.conservative": stats.conservative,
    }


def _client_span(args, _kwargs):
    return args[1].get(SPAN_KEY)  # (service, payload)


def install(recorder) -> list:
    """Wrap every layer entry point; returns the undo callables."""
    from repro.runtime import compiler
    from repro.runtime.graph import TaskGraph
    from repro.service.daemon import CompileService
    from repro.workloads import all_workloads
    from repro.workloads.base import Workload

    undo = []
    for module_name, class_name, attr, name in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        undo.append(instrument(recorder, owner, attr, name))
    undo.append(
        instrument(
            recorder, compiler, "frontend_stage", "minicpp.frontend", measure=_source_bytes
        )
    )
    undo.append(instrument(recorder, TaskGraph, "wait", "graph.wait", measure=_graph_counts))
    for attr in ("compile", "run"):
        undo.append(
            instrument(
                recorder, CompileService, attr, "daemon.handler", parent_of=_client_span
            )
        )
    methods = (
        ("build", "workloads.build"),
        ("run", "workloads.host"),
        ("validate", "workloads.validate"),
    )
    for cls in all_workloads().values():
        for attr, name in methods:
            undo.append(instrument(recorder, cls, attr, name))

    # ``Workload.compile`` recompiles from source whenever an observer is
    # attached.  Untraced cells run with the program cache warm, so the
    # traced ones must too or the trace would show a frontend and a pass
    # pipeline the measured iterations never execute: drop the observer
    # on the way into the cache lookup.
    cached_compile = Workload.__dict__["compile"]

    def compile(cls, config, observer=None):
        return cached_compile.__func__(cls, config)

    Workload.compile = classmethod(compile)
    undo.append(lambda: setattr(Workload, "compile", cached_compile))
    return undo


def uninstall(undo: list) -> None:
    for restore in reversed(undo):
        restore()
