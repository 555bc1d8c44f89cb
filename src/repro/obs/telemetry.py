"""Streaming telemetry: a bounded event ring plus pluggable sinks.

Until this module, ``repro.obs`` was strictly post-hoc: profiles, Chrome
traces and ledger snapshots all materialize *after* a run finishes, so a
long-running process emits nothing while it runs and a trap loses every
bit of in-flight context.  :class:`Telemetry` turns the existing
:class:`~repro.obs.core.Observer` into a live event source:

* every span open/close, counter delta, construct launch, scheduler
  decision, graph wave, declared-set violation and trap becomes one
  structured event (a flat dict — see :data:`EVENT_KINDS`);
* events stream synchronously to any number of **sinks**
  (:class:`JsonLinesSink`, :class:`MetricsTextSink`,
  :class:`AggregatorSink`) — the stream itself is lossless;
* independently, the last ``ring_capacity`` events are retained in a
  bounded :class:`EventRing` — the flight recorder's postmortem window
  (:mod:`repro.obs.flight`).  Ring evictions are *counted*, never
  silent: each one bumps the ``obs.events_dropped`` counter, mirroring
  the mem-event-cap drop accounting in :mod:`repro.exec.buffers`.

Attachment is strictly opt-in, like the observer itself::

    obs = Observer()
    tel = Telemetry(sinks=[JsonLinesSink("events.jsonl")])
    obs.attach_telemetry(tel)
    rt = ConcordRuntime(program, observer=obs)

A runtime without an observer pays nothing; an observer without
telemetry pays one ``is not None`` check per counter flush and span
edge.  The event schema is documented in ``docs/TELEMETRY.md`` and
enforced by :func:`validate_event`.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque

from .schema import check, record

__all__ = [
    "AggregatorSink",
    "EVENT_KINDS",
    "EventRing",
    "JsonLinesSink",
    "MetricsTextSink",
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
    "TelemetrySchemaError",
    "validate_event",
]

TELEMETRY_SCHEMA_VERSION = "repro.obs.telemetry/v1"

#: Every event kind the pipeline emits.  ``span_open``/``span_close``
#: carry the span category (``graph_wave`` waves and ``graph_construct``
#: virtual spans arrive through these); ``counter`` events are the
#: forwarded :meth:`CounterRegistry.add` deltas; ``sched`` events are
#: policy selections and hybrid chunk dispatches; ``violation`` events
#: come from declared-set validation; ``trap`` events are written by the
#: flight recorder as it captures a bundle.
EVENT_KINDS = (
    "span_open",
    "span_close",
    "counter",
    "launch",
    "sched",
    "violation",
    "trap",
)

#: Default ring capacity — the flight recorder's last-N window.
DEFAULT_RING_CAPACITY = 1024


class TelemetrySchemaError(ValueError):
    """An event does not conform to ``repro.obs.telemetry/v1``."""


class EventRing:
    """Bounded deque of the most recent events with drop accounting.

    Appends past capacity evict the oldest event and bump the
    ``obs.events_dropped`` counter *directly* in the attached registry's
    dict — deliberately bypassing the registry's sink so the eviction
    cannot emit a counter event and recurse into another append.
    """

    __slots__ = ("capacity", "dropped", "_events", "_counters")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque = deque()
        #: the attached observer's CounterRegistry (set by
        #: :meth:`Observer.attach_telemetry`); evictions surface there.
        self._counters = None

    def __len__(self) -> int:
        return len(self._events)

    def append(self, event: dict) -> None:
        events = self._events
        if len(events) >= self.capacity:
            events.popleft()
            self.dropped += 1
            registry = self._counters
            if registry is not None:
                # Direct write, not .add(): the drop must not become an
                # event itself (see class docstring).
                counters = registry._counters
                counters["obs.events_dropped"] = (
                    counters.get("obs.events_dropped", 0) + 1
                )
        events.append(event)

    def snapshot(self) -> list:
        """The retained events, oldest first."""
        return list(self._events)


class Telemetry:
    """The streaming pipeline: stamps events, feeds the ring and sinks.

    ``emit`` is the hot path; events are flat dicts —

    ``{"seq": int, "t": float, "kind": str, "name": str, ...attrs}``

    where ``t`` is seconds since this pipeline was created.  Sinks see
    every event in order (the stream is lossless); only the bounded ring
    forgets, and it counts what it forgot.
    """

    __slots__ = ("ring", "sinks", "_seq", "_clock", "_epoch")

    def __init__(
        self,
        sinks=(),
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        clock=time.perf_counter,
    ):
        self.ring = EventRing(ring_capacity)
        self.sinks = list(sinks)
        self._seq = 0
        self._clock = clock
        self._epoch = clock()

    def emit(self, kind: str, name: str, **attrs) -> dict:
        event = {
            "seq": self._seq,
            "t": self._clock() - self._epoch,
            "kind": kind,
            "name": name,
        }
        if attrs:
            event.update(attrs)
        self._seq += 1
        self.ring.append(event)
        for sink in self.sinks:
            sink.emit(event)
        return event

    def _on_counter(self, name: str, delta) -> None:
        """Forwarding target installed into ``CounterRegistry._sink``."""
        self.emit("counter", name, delta=delta)

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def flush(self) -> None:
        for sink in self.sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# -- sinks ----------------------------------------------------------------


class JsonLinesSink:
    """One JSON object per line, append-only — the canonical stream
    format (load with ``[json.loads(l) for l in open(path)]``)."""

    __slots__ = ("path", "_file", "events_written")

    def __init__(self, path):
        self.path = os.fspath(path)
        self._file = open(self.path, "w", encoding="utf-8")
        self.events_written = 0

    def emit(self, event: dict) -> None:
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")
        self.events_written += 1

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class MetricsTextSink:
    """Prometheus-style textfile snapshot of counter totals.

    Accumulates forwarded counter deltas plus per-kind event counts and
    writes the whole snapshot atomically (tmp + rename) on ``flush`` /
    ``close`` — the textfile-collector handoff shape: a node-exporter
    style scraper reads the file whenever it likes and always sees a
    complete snapshot.
    """

    __slots__ = ("path", "totals", "kinds")

    def __init__(self, path):
        self.path = os.fspath(path)
        self.totals: dict[str, float] = {}
        self.kinds: dict[str, int] = {}

    def emit(self, event: dict) -> None:
        kind = event["kind"]
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if kind == "counter":
            name = event["name"]
            self.totals[name] = self.totals.get(name, 0) + event["delta"]

    @staticmethod
    def _metric_name(name: str) -> str:
        cleaned = "".join(
            ch if ch.isalnum() or ch == "_" else "_" for ch in name
        )
        if cleaned and cleaned[0].isdigit():
            cleaned = "_" + cleaned
        return f"repro_{cleaned}"

    def render(self) -> str:
        lines = []
        for kind in sorted(self.kinds):
            metric = self._metric_name(f"events.{kind}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {self.kinds[kind]}")
        for name in sorted(self.totals):
            metric = self._metric_name(name)
            value = self.totals[name]
            rendered = repr(float(value)) if isinstance(value, float) else str(value)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {rendered}")
        return "\n".join(lines) + "\n"

    def flush(self) -> None:
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(self.render())
        os.replace(tmp, self.path)

    close = flush


class AggregatorSink:
    """In-process aggregation: per-kind event counts, per-name counter
    totals, and per-span-name wall-time/occurrence rollups.

    ``counter_totals`` reconstructs the observer's registry from the
    stream alone (minus ``obs.events_dropped``, which is bookkeeping
    *about* the stream and deliberately never enters it) — the
    equivalence the telemetry property test asserts.

    ``span_samples`` (default 0 = off, preserving the historical
    rollup-only footprint) bounds a per-span-name reservoir of recent
    ``wall_seconds`` samples so :meth:`percentiles` can report latency
    quantiles — the compile service uses this for its per-request
    p50/p99 numbers.
    """

    __slots__ = (
        "events_seen",
        "kinds",
        "counter_totals",
        "spans",
        "launches",
        "span_samples",
        "_samples",
    )

    def __init__(self, span_samples: int = 0):
        self.events_seen = 0
        self.kinds: dict[str, int] = {}
        self.counter_totals: dict[str, float] = {}
        #: span name -> [count, total wall seconds]
        self.spans: dict[str, list] = {}
        #: launch rollup: (kernel, device) -> [count, items, sim seconds]
        self.launches: dict[tuple, list] = {}
        self.span_samples = int(span_samples)
        #: span name -> deque of recent wall_seconds (only when sampling)
        self._samples: dict[str, deque] = {}

    def percentiles(self, name: str, quantiles=(50, 99)) -> dict:
        """Latency quantiles (nearest-rank over the retained samples) for
        span ``name``, as ``{"p50": seconds, ...}`` — empty when sampling
        is off or the span never closed."""
        samples = sorted(self._samples.get(name, ()))
        if not samples:
            return {}
        out = {}
        for q in quantiles:
            rank = max(0, min(len(samples) - 1, int(len(samples) * q / 100)))
            out[f"p{q}"] = samples[rank]
        return out

    def emit(self, event: dict) -> None:
        self.events_seen += 1
        kind = event["kind"]
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if kind == "counter":
            name = event["name"]
            self.counter_totals[name] = (
                self.counter_totals.get(name, 0) + event["delta"]
            )
        elif kind == "span_close":
            entry = self.spans.setdefault(event["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += event.get("wall_seconds", 0.0)
            if self.span_samples > 0:
                bucket = self._samples.get(event["name"])
                if bucket is None:
                    bucket = self._samples[event["name"]] = deque(
                        maxlen=self.span_samples
                    )
                bucket.append(event.get("wall_seconds", 0.0))
        elif kind == "launch":
            key = (event["name"], event.get("device", ""))
            entry = self.launches.setdefault(key, [0, 0, 0.0])
            entry[0] += 1
            entry[1] += event.get("n", 0)
            entry[2] += event.get("seconds", 0.0)

    def as_dict(self) -> dict:
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "events_seen": self.events_seen,
            "kinds": dict(sorted(self.kinds.items())),
            "counter_totals": dict(sorted(self.counter_totals.items())),
            "spans": {
                name: {"count": count, "wall_seconds": wall}
                for name, (count, wall) in sorted(self.spans.items())
            },
            "launches": {
                f"{kernel}@{device}": {
                    "count": count,
                    "items": items,
                    "sim_seconds": seconds,
                }
                for (kernel, device), (count, items, seconds) in sorted(
                    self.launches.items()
                )
            },
        }


# -- schema ----------------------------------------------------------------


#: Beyond the four keys every event carries, what a kind adds.
_KIND_REQUIRES = {
    "counter": ["delta"],
    "span_close": ["wall_seconds"],
    "launch": ["device", "n", "seconds"],
}

EVENT_SCHEMA = {
    **record(
        {
            "seq": {"type": "integer"},
            "t": {"type": "number"},
            "kind": {"type": "string", "enum": list(EVENT_KINDS)},
            "name": {"type": "string"},
        }
    ),
    "allOf": [
        {"if": record({"kind": {"const": kind}}), "then": {"required": keys}}
        for kind, keys in _KIND_REQUIRES.items()
    ],
}


def validate_event(event, path: str = "event") -> None:
    """Raise :class:`TelemetrySchemaError` listing every departure of one
    streamed event from ``EVENT_SCHEMA``."""
    errors = check(event, EVENT_SCHEMA, path)
    if errors:
        raise TelemetrySchemaError("; ".join(errors))


def stream_errors(events, path: str) -> list[str]:
    """Every malformed event of a stream, then the rule no schema states:
    ``seq`` strictly increasing (gaps are fine — a ring snapshot is a
    suffix)."""
    errors = check(events, {"type": "array", "items": EVENT_SCHEMA}, path)
    if not errors:
        seqs = [event["seq"] for event in events]
        errors = [
            f"{path}[{i}]: seq {seq} not increasing (previous {last})"
            for i, (last, seq) in enumerate(zip(seqs, seqs[1:]), 1)
            if seq <= last
        ]
    return errors


def validate_events(events, path: str = "events") -> None:
    """Validate a whole stream; raise :class:`TelemetrySchemaError`."""
    errors = stream_errors(events, path)
    if errors:
        raise TelemetrySchemaError("; ".join(errors))
