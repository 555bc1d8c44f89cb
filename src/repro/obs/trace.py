"""Chrome ``trace_event`` export: a fold of an observer's event list.

Emits the JSON object form of the Trace Event Format (the one
``about://tracing`` and Perfetto load directly): ``traceEvents`` plus
``displayTimeUnit``/``otherData``.  Two threads of one process (plus two
more when the run used the task-graph runtime):

* **tid 0 — host (wall clock)**: every span as a complete ("X") event,
  positioned by its epoch-relative start time.  Nesting
  emerges from containment, exactly how Chrome renders same-tid stacks.
* **tid 1 — device (simulated)**: the per-construct simulated timeline,
  one construct per ``launch`` event.
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

from .profile import fold_constructs, fold_spans
from .schema import SchemaError, check, record

TRACE_SCHEMA_VERSION = "repro.obs.trace/v1"

#: counter series sampled per construct onto the device timeline
COUNTER_SERIES = (
    "engine.instructions",
    "engine.translations",
    "mem_events.kept",
)


def _walk(spans):
    """Spans depth-first, each before its children."""
    for span in spans:
        yield span
        yield from _walk(span.get("children", ()))


def _span_event(span) -> dict:
    return {
        "name": span["name"],
        "cat": span["category"] or "span",
        "ph": "X",
        "pid": 0,
        "tid": 0,
        "ts": span["start_seconds"] * 1e6,
        "dur": span["wall_seconds"] * 1e6,
        "args": dict(span.get("attrs", ()), sim_seconds=span["sim_seconds"]),
    }


def _construct_events(constructs) -> list:
    events = []
    cursor = 0.0
    for record in constructs:
        start = cursor
        dur = record["seconds"] * 1e6
        events.append(
            {
                "name": f"{record['kernel']} [{record['construct']}]",
                "cat": "construct",
                "ph": "X",
                "pid": 0,
                "tid": 1,
                "ts": start,
                "dur": dur,
                "args": {
                    "device": record["device"],
                    "n": record["n"],
                    "energy_joules": record["energy_joules"],
                },
            }
        )
        phase_cursor = start
        for phase, seconds in record["phases"].items():
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
        counters = record["counters"]
        series = {name: counters[name] for name in COUNTER_SERIES if name in counters}
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


def _graph_event(span) -> dict:
    """A task-graph construct span, positioned by its *virtual* clocks
    on its device's track — overlapping constructs genuinely overlap in
    Perfetto, unlike the sequential tid-1 layout."""
    attrs = span["attrs"]
    start = attrs.get("virtual_start", 0.0)
    finish = attrs.get("virtual_finish", start)
    return {
        "name": span["name"],
        "cat": "graph_construct",
        "ph": "X",
        "pid": 0,
        "tid": _GRAPH_TIDS.get(attrs.get("device", "gpu"), 2),
        "ts": max(0.0, start * 1e6),
        "dur": max(0.0, (finish - start) * 1e6),
        "args": dict(attrs),
    }


def build_trace(events, meta: Optional[dict] = None) -> dict:
    """Fold an event list into the Chrome-loadable trace document."""
    out = [
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
    spans = list(_walk(fold_spans(events)[0]))
    out.extend(_span_event(span) for span in spans)
    out.extend(_construct_events(fold_constructs(events)))
    graph_events = [_graph_event(s) for s in spans if s["category"] == "graph_construct"]
    if graph_events:
        names = {2: "gpu (graph virtual)", 3: "cpu (graph virtual)"}
        for tid in sorted({event["tid"] for event in graph_events}):
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": names[tid]},
                }
            )
        out.extend(graph_events)
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_trace(events, path: str, meta: Optional[dict] = None) -> dict:
    """Build, validate and write a trace document; returns it."""
    import json

    doc = build_trace(events, meta)
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
