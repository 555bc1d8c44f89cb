"""Observability core: one event list and a counter registry.

The runtime, the execution engines, the timing models and the pass
pipeline all emit into one :class:`Observer` when the caller attaches one
(``ConcordRuntime(..., observer=...)``, ``compile_source(...,
observer=...)``).  Everything here is strictly opt-in: every emission site
guards on ``observer is not None`` (or on a ``counters is not None``
registry reference), so a runtime built without an observer pays nothing:
it runs the exact code paths it ran before this module existed.

Two records, one per kind of fact:

* :attr:`Observer.events` — every event the observer emits, in order,
  each stamped with one ``seq`` and with ``t``, seconds since the
  observer's epoch: span edges (``span_open`` with the span's attributes,
  ``span_close`` with its wall and simulated seconds), one ``launch`` per
  parallel construct with its phases, harvested counters, program id and
  executed-block histogram, one ``pass`` per compiler-pass statistic,
  scheduler decisions, declared-set violations and flight-recorder traps
  (:data:`~repro.obs.telemetry.EVENT_KINDS`).  The profile, the Chrome
  trace, the line report and a flight bundle's construct tail and open
  spans are folds of it (:mod:`repro.obs.profile`,
  :mod:`repro.obs.trace`, :mod:`repro.obs.lines`).  Events hold names,
  never IR objects, so an observer pins no compiled module.
* :class:`CounterRegistry` — a flat name -> integer/float map with an
  ``add`` hot path; the engines, cache models, private-memory pool and
  code cache publish into it (instructions, flops, mem events
  kept/dropped, cache hits/misses, pool reuse, code-cache hits).  Its
  deltas are not events of the list; an observer built with sinks
  streams them to the sinks as ``counter`` events.

The observer is the only holder of its events.  Its sinks
(``Observer(sinks=[...])``, anything with an ``emit(event)``, such as
:class:`~repro.obs.telemetry.JsonLinesSink`) see every stamped event as
it happens, counter deltas included, and keep what they keep; a flight
bundle's window is the tail of :attr:`Observer.events`.
"""

from __future__ import annotations

import time


class CounterRegistry:
    """Flat metric registry: ``name -> number``.

    ``add`` is the only hot-path operation; everything else is for
    reporting.  Counter names are dotted paths by convention
    (``engine.instructions``, ``gpu.l3.hits``, ``private_pool.reuse``).
    """

    __slots__ = ("_counters", "_sink")

    def __init__(self):
        self._counters: dict[str, float] = {}
        # Streaming forward: an observer built with sinks mirrors every
        # add() as one "counter" event.  Without sinks, the cost is a
        # single is-None check.
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


class _SpanHandle:
    """One span: ``with observer.span(...) as span`` emits ``span_open``
    on entry and ``span_close`` on exit; a site stamps the simulated
    seconds it attributes to the span on ``span.sim_seconds`` before the
    block ends."""

    __slots__ = ("sim_seconds", "_observer", "_name", "_fields", "_start")

    def __init__(self, observer: "Observer", name: str, fields: dict):
        self.sim_seconds = 0.0
        self._observer = observer
        self._name = name
        self._fields = fields

    def __enter__(self) -> "_SpanHandle":
        observer = self._observer
        self._start = observer._clock()
        observer._record(self._start, "span_open", self._name, self._fields)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        observer = self._observer
        now = observer._clock()
        elapsed = now - self._start
        observer._record(
            now,
            "span_close",
            self._name,
            {
                "category": self._fields["category"],
                "wall_seconds": elapsed,
                "sim_seconds": self.sim_seconds,
            },
        )
        # Self-accounting: how much wall time the observer itself brackets.
        observer.counters.add("obs.span_ns", elapsed * 1e9)
        return False


class Observer:
    """Records the events and counters of one session.

    One observer may watch a whole pipeline: compilation
    (``compile_source``), any number of runtimes, and the evaluation
    harness.  It is deliberately not thread-safe — the simulator is
    single-threaded.

    ``sinks`` receive every stamped event, in order, counter deltas
    included; a counter delta is stamped (takes a ``seq``) only when
    there is a sink to stream it to.
    """

    def __init__(self, clock=time.perf_counter, sinks=()):
        self._clock = clock
        #: every event's ``t`` is seconds since this first clock reading
        self._epoch = clock()
        self._seq = 0
        self.counters = CounterRegistry()
        #: every emitted event but the counter deltas, in ``seq`` order
        self.events: list[dict] = []
        self._sinks = tuple(sinks)
        if self._sinks:
            self.counters._sink = self._stream_counter

    # -- events ------------------------------------------------------------

    def _stamp(self, now: float, kind: str, name: str, fields: dict) -> dict:
        event = {"seq": self._seq, "t": now - self._epoch, "kind": kind, "name": name}
        event.update(fields)
        self._seq += 1
        for sink in self._sinks:
            sink.emit(event)
        return event

    def _record(self, now: float, kind: str, name: str, fields: dict) -> dict:
        event = self._stamp(now, kind, name, fields)
        self.events.append(event)
        return event

    def _stream_counter(self, name: str, delta) -> None:
        """Forwarding target installed into ``CounterRegistry._sink``: a
        counter delta is an event of the stream, not of the list."""
        self._stamp(self._clock(), "counter", name, {"delta": delta})

    def emit(self, kind: str, name: str, **fields) -> dict:
        """Record one event of ``kind`` (one of
        :data:`~repro.obs.telemetry.EVENT_KINDS`) and return it."""
        return self._record(self._clock(), kind, name, fields)

    def span(self, name: str, category: str = "", **attrs) -> _SpanHandle:
        """A span nested in the spans open around it; use as a context
        manager.  ``attrs`` ride on its ``span_open`` event verbatim."""
        fields = {"category": category}
        if attrs:
            fields["attrs"] = attrs
        return _SpanHandle(self, name, fields)

    # -- pass statistics ---------------------------------------------------

    def record_passes(self, stats) -> None:
        """Emit one ``pass`` event per
        :class:`~repro.passes.pipeline.PassManager` statistic (``stats``
        is an iterable of objects with name/runs/changed/skipped/seconds/
        verify_seconds attributes) and count them.  ``seconds`` is time
        inside the pass; verifying its result is ``verify_seconds``."""
        stats = list(stats)
        for stat in stats:
            self.emit(
                "pass",
                stat.name,
                runs=stat.runs,
                changed=stat.changed,
                skipped=stat.skipped,
                seconds=stat.seconds,
                verify_seconds=stat.verify_seconds,
            )
            self.counters.add(f"passes.{stat.name}.runs", stat.runs)
            self.counters.add(f"passes.{stat.name}.changed", stat.changed)
            self.counters.add(f"passes.{stat.name}.skipped", stat.skipped)
        self.counters.add("passes.verify_s", sum(s.verify_seconds for s in stats))
