"""Chrome ``trace_event`` export for an :class:`~repro.obs.core.Observer`.

Emits the JSON object form of the Trace Event Format (the one
``about://tracing`` and Perfetto load directly): ``traceEvents`` plus
``displayTimeUnit``/``otherData``.  Two threads of one process (plus two
more when the run used the task-graph runtime):

* **tid 0 — host (wall clock)**: every observer span as a complete
  ("X") event, positioned by its epoch-relative start time.  Nesting
  emerges from containment, exactly how Chrome renders same-tid stacks.
* **tid 1 — device (simulated)**: the per-construct simulated timeline.
  Simulated seconds have no wall-clock anchor, so constructs are laid
  out sequentially from zero, each with its attributed phases (jit,
  launch, reduce_tree, host_join) as nested events and its engine
  counters as a counter ("C") sample.
* **tids 2/3 — gpu/cpu (graph virtual)**: present only when the run used
  the task-graph runtime (:mod:`repro.runtime.graph`).  Each
  ``graph_construct`` span is positioned by its *virtual* start/finish
  clocks, so independent constructs placed on different devices visibly
  overlap.

The document carries ``schema: repro.obs.trace/v1`` at top level (Chrome
ignores unknown keys) and :func:`validate_trace` is the dependency-free
structural check used by tests and the CI smoke jobs.
"""

from __future__ import annotations

from typing import Optional

from .schema import SchemaError, check, record

TRACE_SCHEMA_VERSION = "repro.obs.trace/v1"

#: counter series sampled per construct onto the device timeline
COUNTER_SERIES = (
    "engine.instructions",
    "engine.translations",
    "mem_events.kept",
)


def _span_events(span, depth: int) -> list:
    events = [
        {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": span.start_seconds * 1e6,
            "dur": span.wall_seconds * 1e6,
            "args": dict(span.attrs, sim_seconds=span.sim_seconds),
        }
    ]
    for child in span.children:
        events.extend(_span_events(child, depth + 1))
    return events


def _construct_events(constructs) -> list:
    events = []
    cursor = 0.0
    for record in constructs:
        start = cursor
        dur = record.seconds * 1e6
        events.append(
            {
                "name": f"{record.kernel} [{record.construct}]",
                "cat": "construct",
                "ph": "X",
                "pid": 0,
                "tid": 1,
                "ts": start,
                "dur": dur,
                "args": {
                    "device": record.device,
                    "n": record.n,
                    "energy_joules": record.energy_joules,
                },
            }
        )
        phase_cursor = start
        for phase, seconds in record.phases.items():
            events.append(
                {
                    "name": phase,
                    "cat": "phase",
                    "ph": "X",
                    "pid": 0,
                    "tid": 1,
                    "ts": phase_cursor,
                    "dur": seconds * 1e6,
                    "args": {},
                }
            )
            phase_cursor += seconds * 1e6
        series = {
            name: record.counters[name]
            for name in COUNTER_SERIES
            if name in record.counters
        }
        if series:
            events.append(
                {
                    "name": "engine",
                    "cat": "counters",
                    "ph": "C",
                    "pid": 0,
                    "tid": 1,
                    "ts": start + dur,
                    "args": series,
                }
            )
        cursor = start + dur
    return events


#: tid per device on the task-graph virtual timeline (tids 0/1 are the
#: host/device sequential tracks).
_GRAPH_TIDS = {"gpu": 2, "cpu": 3}


def _graph_events(span, events: list, seen_tids: set) -> None:
    """Task-graph construct spans, positioned by their *virtual* clocks
    on one track per device — overlapping constructs genuinely overlap
    in Perfetto, unlike the sequential tid-1 layout."""
    if span.category == "graph_construct":
        device = span.attrs.get("device", "gpu")
        tid = _GRAPH_TIDS.get(device, 2)
        start = span.attrs.get("virtual_start", 0.0)
        finish = span.attrs.get("virtual_finish", start)
        seen_tids.add(tid)
        events.append(
            {
                "name": span.name,
                "cat": "graph_construct",
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": max(0.0, start * 1e6),
                "dur": max(0.0, (finish - start) * 1e6),
                "args": dict(span.attrs),
            }
        )
    for child in span.children:
        _graph_events(child, events, seen_tids)


def build_trace(observer, meta: Optional[dict] = None) -> dict:
    """Assemble the Chrome-loadable trace document from an observer."""
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro simulator"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "host (wall clock)"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": 1,
            "args": {"name": "device (simulated)"},
        },
    ]
    for child in observer.root.children:
        events.extend(_span_events(child, 0))
    events.extend(_construct_events(observer.constructs))
    graph_events: list = []
    graph_tids: set = set()
    _graph_events(observer.root, graph_events, graph_tids)
    if graph_events:
        names = {2: "gpu (graph virtual)", 3: "cpu (graph virtual)"}
        for tid in sorted(graph_tids):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": names[tid]},
                }
            )
        events.extend(graph_events)
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_trace(observer, path: str, meta: Optional[dict] = None) -> dict:
    """Build, validate and write a trace document; returns it."""
    import json

    doc = build_trace(observer, meta)
    validate_trace(doc)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    return doc


_ID = {"type": "integer"}
_MICROS = {"type": "number", "minimum": 0}

#: What Chrome needs to load the file: the JSON object form, and for each
#: event a name, a known phase and thread ids; complete ("X") and counter
#: ("C") events carry a non-negative microsecond timestamp, "X" a
#: duration as well.
_EVENT = record(
    {
        "name": {"type": "string", "minLength": 1},
        "ph": {"enum": ["X", "C", "M"]},
        "pid": _ID,
        "tid": _ID,
    },
    {"args": {"type": "object"}},
)
_EVENT["allOf"] = [
    {"if": record({"ph": {"enum": ["X", "C"]}}), "then": record({"ts": _MICROS})},
    {"if": record({"ph": {"const": "X"}}), "then": record({"dur": _MICROS})},
]
TRACE_SCHEMA = record(
    {
        "schema": {"const": TRACE_SCHEMA_VERSION},
        "traceEvents": {"type": "array", "items": _EVENT},
        "otherData": {"type": "object"},
    }
)


def validate_trace(doc) -> None:
    """Raise :class:`~repro.obs.schema.SchemaError` listing every
    departure from ``TRACE_SCHEMA``."""
    errors = check(doc, TRACE_SCHEMA, "trace")
    if errors:
        raise SchemaError(
            "trace does not match schema:\n  " + "\n  ".join(errors)
        )
