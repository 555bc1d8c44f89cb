"""Streaming telemetry: a bounded event ring plus pluggable sinks.

An :class:`~repro.obs.core.Observer` records its events in one list
(:attr:`~repro.obs.core.Observer.events`); :class:`Telemetry` streams
them out of the process as they happen, so a long-running process shows
what it does while it runs and a trap keeps its in-flight context:

* the observer stamps every event (a flat dict — see :data:`EVENT_KINDS`)
  and feeds it, counter deltas included, to the attached pipeline;
* events stream synchronously to any number of **sinks** (anything with
  an ``emit(event)``; :class:`JsonLinesSink` writes JSON lines) — the
  stream itself is lossless, so folding its ``counter`` events gives the
  observer's registry exactly, and folding the rest gives the profile
  and the Chrome trace (:func:`~repro.obs.profile.build_profile`,
  :func:`~repro.obs.trace.build_trace`);
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
telemetry pays one ``is not None`` check per event and counter flush.
The event schema is documented in ``docs/TELEMETRY.md`` and enforced by
:func:`validate_event`.
"""

from __future__ import annotations

import json
import os
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

TELEMETRY_SCHEMA_VERSION = "repro.obs.telemetry/v3"

#: Every event kind the observer emits.  ``span_open`` carries the span
#: category and its attributes, ``span_close`` its wall and simulated
#: seconds (``graph_wave`` waves and ``graph_construct`` virtual spans
#: arrive through these); ``counter`` events are the forwarded
#: :meth:`CounterRegistry.add` deltas; ``launch`` is one parallel
#: construct with its phases, harvested counters, ``program`` id and
#: executed ``blocks`` (the line report's input); ``pass`` one
#: compiler-pass statistic; ``sched`` events are policy selections and
#: hybrid chunk dispatches; ``violation`` events come from declared-set
#: validation; ``trap`` events are written by the flight recorder as it
#: captures a bundle.
EVENT_KINDS = (
    "span_open",
    "span_close",
    "counter",
    "launch",
    "pass",
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
    """The streaming pipeline: feeds each event to the ring and the sinks.

    Events arrive stamped by the observer —

    ``{"seq": int, "t": float, "kind": str, "name": str, ...fields}``

    where ``t`` is seconds since the observer's epoch.  Sinks see every
    event in order (the stream is lossless); only the bounded ring
    forgets, and it counts what it forgot.
    """

    __slots__ = ("ring", "sinks")

    def __init__(self, sinks=(), ring_capacity: int = DEFAULT_RING_CAPACITY):
        self.ring = EventRing(ring_capacity)
        self.sinks = list(sinks)

    def emit(self, event: dict) -> None:
        self.ring.append(event)
        for sink in self.sinks:
            sink.emit(event)

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
    "span_open": ["category"],
    "span_close": ["wall_seconds", "sim_seconds"],
    "launch": [
        "construct", "device", "n", "seconds", "energy_joules", "phases", "counters",
        "program", "blocks",
    ],
    "pass": ["runs", "changed", "skipped", "seconds", "verify_seconds"],
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
