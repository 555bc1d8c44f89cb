"""Streaming telemetry: the event schema and the canonical sink.

An :class:`~repro.obs.core.Observer` records its events in one list
(:attr:`~repro.obs.core.Observer.events`) and streams them out of the
process as they happen to the sinks it was built with, so a long-running
process shows what it does while it runs:

* the observer stamps every event (a flat dict — see :data:`EVENT_KINDS`)
  and feeds it, counter deltas included, to each sink in order;
* a sink is anything with an ``emit(event)`` (:class:`JsonLinesSink`
  writes JSON lines); the stream is lossless, so folding its ``counter``
  events gives the observer's registry exactly, and folding the rest
  gives the profile and the Chrome trace
  (:func:`~repro.obs.profile.build_profile`,
  :func:`~repro.obs.trace.build_trace`).

Sinks are given when the observer is built, so they see its first
event::

    sink = JsonLinesSink("events.jsonl")
    obs = Observer(sinks=[sink])
    rt = ConcordRuntime(program, observer=obs)
    ...
    sink.close()

A runtime without an observer pays nothing; an observer without sinks
stamps no counter delta and loops over no sink.  The flight recorder's
postmortem window is the tail of ``Observer.events``
(:data:`repro.obs.flight.FLIGHT_WINDOW`).  The event schema is
documented in ``docs/TELEMETRY.md`` and enforced by
:func:`validate_event`.
"""

from __future__ import annotations

import json
import os

from .schema import SchemaError, check, record

__all__ = [
    "EVENT_KINDS",
    "JsonLinesSink",
    "TELEMETRY_SCHEMA_VERSION",
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
    ``seq`` strictly increasing (gaps are fine — a flight window is a
    suffix, and holds no counter deltas)."""
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
