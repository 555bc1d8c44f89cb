"""Flight recorder: postmortem bundles for traps and divergences.

A black box for the simulator: when anything goes wrong — a
:class:`~repro.svm.memory.MemoryFault`, an
:class:`~repro.exec.interp.ExecutionError`, a fuzz divergence, any
uncaught exception inside :class:`~repro.runtime.runtime.ConcordRuntime`
or the task graph — :class:`FlightRecorder` dumps everything an engineer
needs into one JSON bundle:

* the **last** :data:`FLIGHT_WINDOW` **events** of the observer's list
  (:attr:`~repro.obs.core.Observer.events`, counter deltas not among
  them) plus how many older events the window leaves out;
* the **live counters** and **open span stack** at the moment of capture
  (the spans the observer's events leave open);
* the **trap site**: kernel, device, lane (``global_id``), IR function,
  superblock uids, and — resolved through the same location metadata
  :mod:`repro.obs.lines` uses — the source line, including its text when
  the module kept its source; when the trap came out of engine-generated
  code, also the generated statement and its whole module text (``jit``);
* the **construct tail** (the last constructs folded from the observer's
  ``launch`` events) and, for graph runtimes, the **graph state** (stats
  plus pending futures).

The engines stamp trap context onto escaping exceptions on the cold path
only (``trap_function`` / ``trap_block_uids`` / ``trap_loc`` in
:mod:`repro.exec`, ``trap_kernel`` / ``trap_device`` /
``trap_global_id`` in :mod:`repro.backend`), so the non-trapping path is
untouched.  ``python -m repro run --flight-record DIR`` and the fuzz
campaign driver both write bundles here; ``validate_flight_bundle``
enforces the ``repro.obs.flight/v1`` schema.
"""

from __future__ import annotations

import json
import linecache
import os
import time
import traceback
from contextlib import contextmanager
from typing import Optional

from .profile import fold_constructs, fold_spans
from .schema import SchemaError, check, record
from .telemetry import stream_errors

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "flight_guard",
    "resolve_trap",
    "validate_flight_bundle",
]

FLIGHT_SCHEMA_VERSION = "repro.obs.flight/v1"

#: How many trailing constructs a bundle keeps.
CONSTRUCT_TAIL = 32

#: How many trailing events of ``Observer.events`` a bundle keeps.
FLIGHT_WINDOW = 1024

#: Capture reasons a bundle may carry.
REASONS = ("trap", "fuzz_divergence", "exception", "violation", "manual")


# -- trap-site resolution ---------------------------------------------------


def _innermost_line(loc) -> tuple:
    """``(line, col)`` of the innermost frame of an instruction location
    (locations are tuples of (line, col) frames, innermost first)."""
    if loc:
        frame = loc[0]
        if isinstance(frame, (tuple, list)) and len(frame) >= 2:
            return int(frame[0]), int(frame[1])
    return None, None


def _block_loc(function, block_uids):
    """Best source location for a trapping superblock: the first memory
    or call instruction with a location inside the named blocks, else
    the first located instruction at all."""
    wanted = set(block_uids)
    fallback = None
    for block in function.blocks:
        if block.uid not in wanted:
            continue
        for instr in block.instructions:
            loc = getattr(instr, "loc", None)
            if not loc:
                continue
            if instr.op in ("load", "store", "call", "vcall", "gep"):
                return loc
            if fallback is None:
                fallback = loc
    return fallback


def _jit_frame(exc) -> Optional[dict]:
    """The innermost frame of ``exc``'s traceback that ran code generated
    by :mod:`repro.exec.compiled`, with the text the engine published to
    :mod:`linecache` when the trap passed through it."""
    found = None
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_filename.startswith("<repro-jit "):
            found = (code.co_filename, tb.tb_lineno, code.co_name)
        tb = tb.tb_next
    if found is None:
        return None
    filename, line, unit = found
    return {
        "file": filename,
        "line": line,
        "unit": unit,
        "statement": linecache.getline(filename, line).strip(),
        "source": "".join(linecache.getlines(filename)),
    }


def resolve_trap(exc) -> dict:
    """Extract the engine/backend trap annotations from ``exc`` into the
    bundle's ``trap`` section, resolving block uids to a source line."""
    trap = {
        "kernel": getattr(exc, "trap_kernel", None),
        "device": getattr(exc, "trap_device", None),
        "global_id": getattr(exc, "trap_global_id", None),
        "function": getattr(exc, "trap_function", None),
        "block_uids": list(getattr(exc, "trap_block_uids", ()) or ()),
        "jit": _jit_frame(exc),
        "line": None,
        "col": None,
        "source_line": None,
    }
    loc = getattr(exc, "trap_loc", None)
    ir_function = getattr(exc, "trap_ir_function", None)
    if loc is None and ir_function is not None and trap["block_uids"]:
        loc = _block_loc(ir_function, trap["block_uids"])
    trap["line"], trap["col"] = _innermost_line(loc)
    if trap["line"] is not None and ir_function is not None:
        module = getattr(ir_function, "module", None)
        source_text = getattr(module, "source_text", "") if module else ""
        if source_text:
            lines = source_text.splitlines()
            if 1 <= trap["line"] <= len(lines):
                trap["source_line"] = lines[trap["line"] - 1].strip()
    return trap


# -- the recorder -----------------------------------------------------------


class FlightRecorder:
    """Writes postmortem bundles to ``directory`` (created on demand).

    ``observer`` is optional — a bundle without one still captures the
    exception, trap site and caller context; with one it additionally
    emits a ``trap`` event and keeps the event window, the counters, the
    span stack and the construct tail.
    """

    def __init__(self, directory, observer=None):
        self.directory = os.fspath(directory)
        self.observer = observer
        self.bundles: list[str] = []

    def _next_path(self) -> str:
        os.makedirs(self.directory, exist_ok=True)
        existing = {
            name
            for name in os.listdir(self.directory)
            if name.startswith("flight-") and name.endswith(".json")
        }
        index = len(self.bundles)
        while f"flight-{index:03d}.json" in existing:
            index += 1
        return os.path.join(self.directory, f"flight-{index:03d}.json")

    def record(
        self,
        exc: Optional[BaseException] = None,
        reason: Optional[str] = None,
        runtime=None,
        context: Optional[dict] = None,
    ) -> str:
        """Capture one bundle; returns the path it was written to."""
        if reason is None:
            reason = "trap" if hasattr(exc, "trap_device") else (
                "exception" if exc is not None else "manual"
            )
        observer = self.observer
        trap = resolve_trap(exc) if exc is not None else None

        exception = None
        if exc is not None:
            exception = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exception(
                    type(exc), exc, exc.__traceback__
                ),
            }

        events: list = []
        events_dropped = 0
        counters: dict = {}
        open_spans: list = []
        constructs: list = []
        if observer is not None:
            # Mark the capture in the stream itself, then snapshot — the
            # bundle's last event is its own trap marker.
            if exc is not None:
                name = (trap or {}).get("kernel") or type(exc).__name__
            else:
                name = "manual"
            observer.emit("trap", name, reason=reason)
            events = observer.events[-FLIGHT_WINDOW:]
            events_dropped = len(observer.events) - len(events)
            counters = observer.counters.as_dict()
            open_spans = [span["name"] for span in fold_spans(observer.events)[1]]
            constructs = fold_constructs(observer.events)[-CONSTRUCT_TAIL:]

        graph = None
        if runtime is not None:
            task_graph = getattr(runtime, "_task_graph", None)
            if task_graph is not None:
                graph = task_graph.stats().to_dict()
                graph["pending"] = [
                    {"index": f.index, "kernel": f.kernel, "wave": f.wave}
                    for f in task_graph.records
                    if not f.done
                ]

        bundle = {
            "schema": FLIGHT_SCHEMA_VERSION,
            "created_unix": time.time(),
            "reason": reason,
            "exception": exception,
            "trap": trap,
            "events": events,
            "events_dropped": events_dropped,
            "counters": counters,
            "open_spans": open_spans,
            "constructs": constructs,
            "graph": graph,
            "context": dict(context or {}),
        }
        path = self._next_path()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=1, default=str)
            handle.write("\n")
        os.replace(tmp, path)
        self.bundles.append(path)
        return path


@contextmanager
def flight_guard(
    recorder: Optional[FlightRecorder],
    runtime=None,
    context: Optional[dict] = None,
):
    """Run a block under the recorder: any escaping exception is captured
    as a bundle and re-raised (with ``flight_bundle`` stamped on it so
    callers can report the path).  A ``None`` recorder is a no-op guard."""
    if recorder is None:
        yield None
        return
    try:
        yield recorder
    except BaseException as exc:
        path = recorder.record(exc, runtime=runtime, context=context)
        exc.flight_bundle = path
        raise


# -- schema -----------------------------------------------------------------


_TEXT = {"type": "string"}

FLIGHT_SCHEMA = record(
    {
        "schema": {"const": FLIGHT_SCHEMA_VERSION},
        "created_unix": {"type": "number"},
        "reason": {"enum": list(REASONS)},
        "events": {"type": "array"},
        "events_dropped": {"type": "integer"},
        "counters": {"type": "object"},
        "open_spans": {"type": "array"},
        "constructs": {"type": "array"},
        "context": {"type": "object"},
    },
    {
        "exception": {
            **record({"type": _TEXT, "message": _TEXT}),
            "type": ["object", "null"],
        },
        "trap": {
            "type": ["object", "null"],
            "required": [
                "kernel",
                "device",
                "global_id",
                "function",
                "block_uids",
                "line",
                "col",
                "source_line",
            ],
            "properties": {"block_uids": {"type": "array"}},
        },
        "graph": {"type": ["object", "null"]},
    },
)


def validate_flight_bundle(doc) -> None:
    """Raise :class:`~repro.obs.schema.SchemaError` listing every
    departure of one bundle from ``FLIGHT_SCHEMA``; the events of a sound
    bundle must form a telemetry stream."""
    errors = check(doc, FLIGHT_SCHEMA, "bundle")
    if not errors:
        errors = stream_errors(doc["events"], "bundle.events")
    if errors:
        raise SchemaError("; ".join(errors))
