"""Observability core: hierarchical phase spans and a counter registry.

The runtime, both execution engines, the timing models and the pass
pipeline all emit into one :class:`Observer` when the caller attaches one
(``ConcordRuntime(..., observer=...)``, ``compile_source(...,
observer=...)``).  Everything here is strictly opt-in: every emission site
guards on ``observer is not None`` (or on a ``counters is not None``
registry reference), so a runtime built without an observer pays nothing:
it runs the exact code paths it ran before this module existed.

Three pieces:

* :class:`Span` — one timed phase (compile, SVM-lower, JIT, launch,
  per-work-group reduce, host join, ...) with wall-clock duration,
  optional *simulated* seconds, free-form attributes and child spans.
* :class:`CounterRegistry` — a flat name -> integer/float map with an
  ``add`` hot path; the engines, cache models, private-memory pool and
  code cache publish into it (instructions, flops, mem events
  kept/dropped, cache hits/misses, pool reuse, code-cache hits).
* :class:`Observer` — owns the span tree, the registry and the
  per-construct profiles; :meth:`Observer.record_launch` is how the
  runtime attributes one parallel construct's simulated seconds to named
  phases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .profile import ConstructProfile


class CounterRegistry:
    """Flat metric registry: ``name -> number``.

    ``add`` is the only hot-path operation; everything else is for
    reporting.  Counter names are dotted paths by convention
    (``engine.instructions``, ``gpu.l3.hits``, ``private_pool.reuse``).
    """

    __slots__ = ("_counters", "_sink")

    def __init__(self):
        self._counters: dict[str, float] = {}
        # Optional streaming forward (repro.obs.telemetry): when a
        # Telemetry pipeline is attached, every add() is mirrored as one
        # "counter" event.  Detached, the cost is a single is-None check.
        self._sink = None

    def add(self, name: str, amount=1) -> None:
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount
        sink = self._sink
        if sink is not None:
            sink(name, amount)

    def get(self, name: str, default=0):
        return self._counters.get(name, default)

    def __getitem__(self, name: str):
        return self._counters.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __len__(self) -> int:
        return len(self._counters)

    def as_dict(self) -> dict:
        """Sorted snapshot (stable for JSON output and comparisons)."""
        return dict(sorted(self._counters.items()))

    def merge(self, other: "CounterRegistry") -> None:
        for name, value in other._counters.items():
            self.add(name, value)

    def clear(self) -> None:
        self._counters.clear()


@dataclass
class Span:
    """One phase of work, possibly nested inside another phase.

    ``wall_seconds`` is host wall-clock time spent inside the span;
    ``sim_seconds`` is simulated device time attributed to it (0.0 when
    the span only brackets host work, e.g. compilation).
    """

    name: str
    category: str = ""
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    #: wall-clock start relative to the observer's epoch (first clock
    #: reading); lets exporters lay spans on an absolute timeline.
    start_seconds: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def child(self, name: str, category: str = "") -> "Span":
        span = Span(name=name, category=category)
        self.children.append(span)
        return span

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "category": self.category,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "start_seconds": self.start_seconds,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def iter_all(self):
        yield self
        for child in self.children:
            yield from child.iter_all()


class _SpanContext:
    """Context manager pushed/popped by :meth:`Observer.span`."""

    __slots__ = ("observer", "span", "_start")

    def __init__(self, observer: "Observer", span: Span):
        self.observer = observer
        self.span = span
        self._start = 0.0

    def __enter__(self) -> Span:
        observer = self.observer
        observer._stack.append(self.span)
        telemetry = observer.telemetry
        if telemetry is not None:
            telemetry.emit(
                "span_open", self.span.name, category=self.span.category
            )
        self._start = observer._clock()
        if not self.span.start_seconds:
            self.span.start_seconds = self._start - observer._epoch
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        observer = self.observer
        elapsed = observer._clock() - self._start
        self.span.wall_seconds += elapsed
        stack = observer._stack
        if stack and stack[-1] is self.span:
            stack.pop()
        telemetry = observer.telemetry
        if telemetry is not None:
            telemetry.emit(
                "span_close",
                self.span.name,
                category=self.span.category,
                wall_seconds=elapsed,
            )
        # Self-accounting: how much wall time the observer itself brackets.
        observer.counters.add("obs.span_ns", elapsed * 1e9)
        return False


class Observer:
    """Collects spans, counters and per-construct profiles for one session.

    One observer may watch a whole pipeline: compilation
    (``compile_source``), any number of runtimes, and the evaluation
    harness.  It is deliberately not thread-safe — the simulator is
    single-threaded.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        #: epoch for span start times — everything is relative to this
        self._epoch = clock()
        self.counters = CounterRegistry()
        self.root = Span(name="session", category="session")
        self._stack: list[Span] = [self.root]
        #: per-construct attribution records, in execution order
        self.constructs: list[ConstructProfile] = []
        #: compiler pass statistics (name, runs, changed, seconds)
        self.pass_stats: list[dict] = []
        #: per-launch (kernel IR function, device, merged block counts)
        #: samples for post-hoc source-line attribution — see
        #: :mod:`repro.obs.lines`.
        self.line_samples: list = []
        #: optional streaming pipeline (:class:`repro.obs.telemetry.Telemetry`);
        #: every emission site guards on ``is not None``, so an observer
        #: without telemetry behaves exactly as before.
        self.telemetry = None

    # -- streaming telemetry ---------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Attach a :class:`~repro.obs.telemetry.Telemetry` pipeline:
        spans, launches and counter deltas stream through it from now
        on, and its ring becomes the flight recorder's postmortem
        window.  Attach before running anything observed, or the
        stream's counter totals will miss the counters that predate it."""
        self.telemetry = telemetry
        self.counters._sink = telemetry._on_counter

    def detach_telemetry(self) -> None:
        self.counters._sink = None
        self.telemetry = None

    def open_span_names(self) -> list:
        """Names of the currently open span stack, outermost first
        (excluding the session root) — the flight recorder's context."""
        return [span.name for span in self._stack[1:]]

    # -- spans -----------------------------------------------------------

    @property
    def current_span(self) -> Span:
        return self._stack[-1]

    def span(self, name: str, category: str = "", **attrs) -> _SpanContext:
        """Open a child span of the current span; use as a context
        manager.  ``attrs`` are attached verbatim."""
        span = self.current_span.child(name, category)
        if attrs:
            span.attrs.update(attrs)
        return _SpanContext(self, span)

    def spans(self, category: Optional[str] = None) -> list[Span]:
        """All spans (depth-first), optionally filtered by category."""
        found = [s for s in self.root.iter_all() if s is not self.root]
        if category is None:
            return found
        return [s for s in found if s.category == category]

    # -- launch / kernel attribution -------------------------------------

    def record_launch(
        self,
        kernel: str,
        construct: str,
        device: str,
        n: int,
        seconds: float,
        energy_joules: float,
        phases: dict,
        counters: Optional[dict] = None,
    ) -> ConstructProfile:
        """Attribute one parallel construct's simulated time to phases.

        ``phases`` maps phase name -> simulated seconds; ``seconds`` is
        the construct's total simulated time (phases should sum to it —
        the profile records the attributed fraction so gaps are visible
        rather than silent).
        """
        record = ConstructProfile(
            index=len(self.constructs),
            kernel=kernel,
            construct=construct,
            device=device,
            n=n,
            seconds=seconds,
            energy_joules=energy_joules,
            phases=dict(phases),
            counters=dict(counters or {}),
        )
        self.constructs.append(record)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                "launch",
                kernel,
                construct=construct,
                device=device,
                n=n,
                seconds=seconds,
                energy_joules=energy_joules,
            )
        return record

    def record_kernel_trace(self, kernel, device: str, block_counts: dict) -> None:
        """Keep one launch's executed-block histogram for line attribution.

        ``kernel`` is the IR :class:`~repro.ir.values.Function` that ran
        (its module is kept alive through it); ``block_counts`` maps block
        uid -> times executed, merged across all work items of the launch.
        Attribution happens lazily in :mod:`repro.obs.lines` — recording is
        a single append, so observed runs stay cheap.
        """
        self.line_samples.append((kernel, device, block_counts))

    # -- pass pipeline ----------------------------------------------------

    def record_pass_stats(self, stats) -> None:
        """Fold a :class:`~repro.passes.pipeline.PassManager`'s stats in
        (``stats`` is an iterable of objects with name/runs/changed/
        skipped/seconds/verify_seconds attributes).  ``seconds`` is time
        inside the pass; verifying its result is ``verify_seconds``."""
        stats = list(stats)
        for stat in stats:
            self.pass_stats.append(
                {
                    "name": stat.name,
                    "runs": stat.runs,
                    "changed": stat.changed,
                    "skipped": stat.skipped,
                    "seconds": stat.seconds,
                    "verify_seconds": stat.verify_seconds,
                }
            )
            self.counters.add(f"passes.{stat.name}.runs", stat.runs)
            self.counters.add(f"passes.{stat.name}.changed", stat.changed)
            self.counters.add(f"passes.{stat.name}.skipped", stat.skipped)
        self.counters.add("passes.verify_s", sum(s.verify_seconds for s in stats))
