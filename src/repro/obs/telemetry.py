"""Streaming telemetry: a bounded event ring plus pluggable sinks.

Until this module, ``repro.obs`` was strictly post-hoc: profiles, Chrome
traces and ledger snapshots all materialize *after* a run finishes, so a
long-running process emits nothing while it runs and a trap loses every
bit of in-flight context.  :class:`Telemetry` turns the existing
:class:`~repro.obs.core.Observer` into a live event source:

* every span open/close, counter delta, construct launch, scheduler
  decision, graph wave, declared-set violation and trap becomes one
  structured event (a flat dict — see :data:`EVENT_KINDS`);
* events stream synchronously to any number of **sinks** (anything with
  an ``emit(event)``; :class:`JsonLinesSink` writes JSON lines) — the
  stream itself is lossless, so folding its ``counter`` events gives the
  observer's registry exactly;
* independently, the last ``ring_capacity`` events are retained in a
  bounded :class:`EventRing` — the flight recorder's postmortem window
  (:mod:`repro.obs.flight`).  Ring evictions are *counted*, never
  silent, in ``ring.dropped``, as the mem-event cap counts its drops in
  :mod:`repro.exec.buffers`.

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

from .schema import SchemaError, check, record

__all__ = [
    "EVENT_KINDS",
    "EventRing",
    "JsonLinesSink",
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
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


class EventRing:
    """Bounded deque of the most recent events; ``dropped`` counts the
    evictions."""

    __slots__ = ("capacity", "dropped", "_events")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._events)

    def append(self, event: dict) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

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
    """Raise :class:`~repro.obs.schema.SchemaError` listing every
    departure of one streamed event from ``EVENT_SCHEMA``."""
    errors = check(event, EVENT_SCHEMA, path)
    if errors:
        raise SchemaError("; ".join(errors))


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
    """Validate a whole stream; raise :class:`~repro.obs.schema.SchemaError`."""
    errors = stream_errors(events, path)
    if errors:
        raise SchemaError("; ".join(errors))
