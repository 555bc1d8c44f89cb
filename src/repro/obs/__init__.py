"""Observability layer: one event list, a counter registry, and the folds.

Attach an :class:`Observer` to see where simulated time goes::

    from repro.obs import Observer
    obs = Observer()
    rt = ConcordRuntime(program, observer=obs)
    ... run constructs ...
    doc = build_profile(obs.events, obs.counters.as_dict(), meta={...})

or, one call for a whole workload::

    from repro.obs import profile_workload
    doc = profile_workload("bfs", scale=0.1)

``python -m repro profile <workload>`` renders the same document from the
command line.  The contract (span/counter names, JSON schema) is
documented in ``docs/OBSERVABILITY.md``; :func:`validate_profile` enforces
it.  Everything is opt-in: without an observer, the runtime and engines
run their original code paths untouched.

The observer records each fact once: an event in ``Observer.events``
(span edges, construct launches, pass statistics, scheduler decisions,
violations, traps) or a counter in its registry.  The profile
(:func:`build_profile`), the Chrome trace (:func:`build_trace`) and the
line report (:func:`build_line_report`, given the program) are folds of
an event list, so a telemetry file rebuilds all three exactly.

Built on top of the observer:

* :mod:`repro.obs.lines` — source-line attribution of modeled cost
  (``python -m repro annotate``), a fold of the ``launch`` events' blocks;
* :mod:`repro.obs.trace` — Chrome ``trace_event`` export (``--trace``);
* :mod:`repro.obs.telemetry` — the event schema and live streaming of
  every event and counter delta to the sinks an observer is built with
  (``Observer(sinks=[JsonLinesSink(path)])``, ``--events``);
* :mod:`repro.obs.flight` — flight recorder: postmortem bundles on
  traps, fuzz divergences and uncaught exceptions, with the tail of the
  observer's events, resolved down to the trapping kernel's source line
  (``--flight-record DIR``);
* :mod:`repro.obs.watch` — the benchmark ledger (``BENCH_<n>.json``, the
  result lines of ``benchmarks/e2e/run.py``), its trend report and the
  CI regression verdict (``python -m repro watch``).

See ``docs/PROFILING.md`` and ``docs/TELEMETRY.md``.
"""

from .core import CounterRegistry, Observer
from .flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    flight_guard,
    validate_flight_bundle,
)
from .lines import (
    LINES_SCHEMA_VERSION,
    annotate_workload,
    build_line_report,
    render_line_report,
)
from .profile import (
    PHASES,
    PROFILE_SCHEMA_VERSION,
    build_profile,
    profile_to_csv,
    profile_workload,
)
from .schema import PROFILE_SCHEMA, SchemaError, validate_profile
from .telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    JsonLinesSink,
    validate_event,
    validate_events,
)
from .trace import (
    TRACE_SCHEMA_VERSION,
    build_trace,
    validate_trace,
    write_trace,
)

from .watch import (
    WATCH_SCHEMA_VERSION,
    build_watch_report,
    render_watch_report,
    validate_watch_report,
)

__all__ = [
    "CounterRegistry",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "JsonLinesSink",
    "LINES_SCHEMA_VERSION",
    "Observer",
    "PHASES",
    "PROFILE_SCHEMA",
    "PROFILE_SCHEMA_VERSION",
    "SchemaError",
    "TELEMETRY_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "WATCH_SCHEMA_VERSION",
    "annotate_workload",
    "build_line_report",
    "build_profile",
    "build_trace",
    "build_watch_report",
    "flight_guard",
    "profile_to_csv",
    "profile_workload",
    "render_line_report",
    "render_watch_report",
    "validate_event",
    "validate_events",
    "validate_flight_bundle",
    "validate_profile",
    "validate_trace",
    "validate_watch_report",
    "write_trace",
]
