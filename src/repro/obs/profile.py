"""The profile document, and the folds of an event list it is made of.

A profile attributes each parallel construct's simulated seconds to named
phases (``jit``, ``launch``, ``reduce_tree``, ``host_join``), aggregates
the same attribution per IR kernel, and carries the counter-registry
snapshot, compiler pass statistics and the span tree.  Every section is
a fold of an observer's events (:attr:`~repro.obs.core.Observer.events`
or a telemetry file): the constructs of its ``launch`` events, the
passes of its ``pass`` events, the span tree of its open/close nesting.
The document shape is defined (and checked) by :mod:`repro.obs.schema`;
:func:`profile_workload` is the one-call entry the ``python -m repro
profile`` CLI and the CI smoke job use.
"""

from __future__ import annotations

import io
from typing import Optional

#: Version tag stamped into every emitted document.
PROFILE_SCHEMA_VERSION = "repro.obs.profile/v1"

#: Canonical phase names (documents may use any subset).
PHASES = ("jit", "launch", "reduce_tree", "host_join")

#: What a ``pass`` event carries besides the pass name.
PASS_FIELDS = ("runs", "changed", "skipped", "seconds", "verify_seconds")


def _attributed(record: dict) -> dict:
    """``record`` with its attributed seconds and fraction, then its
    counters."""
    attributed = sum(record["phases"].values())
    seconds = record["seconds"]
    counters = record.pop("counters")
    record["attributed_seconds"] = attributed
    record["attributed_fraction"] = min(1.0, attributed / seconds) if seconds > 0 else 1.0
    record["counters"] = counters
    return record


def fold_spans(events) -> tuple:
    """``(roots, open)``: the span forest of ``events``, folded from
    their open/close nesting, and the spans still open at their end,
    outermost first.  A span is its profile dict: ``start_seconds`` is
    its ``span_open``'s ``t``."""
    roots: list = []
    stack: list = []
    for event in events:
        kind = event["kind"]
        if kind == "span_open":
            span = {
                "name": event["name"],
                "category": event["category"],
                "wall_seconds": 0.0,
                "sim_seconds": 0.0,
                "start_seconds": event["t"],
            }
            if "attrs" in event:
                span["attrs"] = dict(event["attrs"])
            (stack[-1].setdefault("children", []) if stack else roots).append(span)
            stack.append(span)
        elif kind == "span_close":
            span = stack.pop()
            span["wall_seconds"] = event["wall_seconds"]
            span["sim_seconds"] = event["sim_seconds"]
    return roots, stack


def fold_constructs(events) -> list:
    """One record per ``launch`` event of ``events``, in order."""
    return [
        _attributed(
            {
                "index": index,
                "kernel": event["name"],
                "construct": event["construct"],
                "device": event["device"],
                "n": event["n"],
                "seconds": event["seconds"],
                "energy_joules": event["energy_joules"],
                "phases": dict(event["phases"]),
                "counters": dict(event["counters"]),
            }
        )
        for index, event in enumerate(e for e in events if e["kind"] == "launch")
    ]


def fold_counters(events) -> dict:
    """The registry, as the ``counter`` events of a stream rebuild it."""
    totals: dict = {}
    for event in events:
        if event["kind"] == "counter":
            totals[event["name"]] = totals.get(event["name"], 0) + event["delta"]
    return dict(sorted(totals.items()))


def _fold_kernels(constructs) -> dict:
    """A kernel's section folds its constructs in the order they ran."""
    kernels: dict = {}
    for record in constructs:
        kernel = kernels.get(record["kernel"])
        if kernel is None:
            kernel = kernels[record["kernel"]] = {
                "kernel": record["kernel"],
                "construct": record["construct"],
                "launches": 0,
                "work_items": 0,
                "seconds": 0.0,
                "energy_joules": 0.0,
                "phases": {},
                "counters": {},
            }
        kernel["launches"] += 1
        kernel["work_items"] += record["n"]
        kernel["seconds"] += record["seconds"]
        kernel["energy_joules"] += record["energy_joules"]
        for into, values in (("phases", record["phases"]), ("counters", record["counters"])):
            section = kernel[into]
            for name, value in values.items():
                section[name] = section.get(name, 0) + value
    return {name: _attributed(kernels[name]) for name in sorted(kernels)}


def build_profile(events, counters: Optional[dict] = None, meta: Optional[dict] = None) -> dict:
    """Fold an event list into the profile document.  ``counters`` is
    the registry snapshot (``observer.counters.as_dict()``); omitted, it
    is the fold of the stream's own ``counter`` events, which a telemetry
    file carries and an observer's list does not."""
    constructs = fold_constructs(events)
    doc = {
        "schema": PROFILE_SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "totals": {
            "constructs": len(constructs),
            "seconds": sum(c["seconds"] for c in constructs),
            "energy_joules": sum(c["energy_joules"] for c in constructs),
            "attributed_seconds": sum(c["attributed_seconds"] for c in constructs),
        },
        "constructs": constructs,
        "kernels": _fold_kernels(constructs),
        "counters": fold_counters(events) if counters is None else counters,
        "passes": [
            {"name": e["name"], **{key: e[key] for key in PASS_FIELDS}}
            for e in events
            if e["kind"] == "pass"
        ],
        "spans": fold_spans(events)[0],
    }
    totals = doc["totals"]
    totals["attributed_fraction"] = (
        min(1.0, totals["attributed_seconds"] / totals["seconds"])
        if totals["seconds"] > 0
        else 1.0
    )
    return doc


def run_named_workload(
    name: str,
    observer,
    scale: float = 1.0,
    system=None,
    on_cpu: bool = False,
    validate: bool = True,
    **options,
):
    """Compile, build, run and validate one workload under ``observer``;
    returns ``(outcome, meta)``, ``meta`` naming the workload, the system,
    every :class:`~repro.runtime.RunConfig` field, the scale and the
    device.

    ``name`` is matched case-insensitively against the nine registered
    workloads (``bfs`` -> ``BFS``); an unknown one is a ``KeyError``
    listing them, a bad option a ``ValueError`` before anything runs.
    """
    import warnings
    from dataclasses import asdict

    from ..runtime import RunConfig
    from ..runtime.system import ultrabook
    from ..workloads import all_workloads

    workloads = all_workloads()
    key = {key.lower(): key for key in workloads}.get(name.lower())
    if key is None:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(workloads)}"
        )
    system = system or ultrabook()
    chosen = asdict(RunConfig(**options))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcome = workloads[key]().execute(
            None,
            system,
            on_cpu=on_cpu,
            scale=scale,
            validate=validate,
            observer=observer,
            **options,
        )
    meta = {
        "workload": key,
        "system": system.name,
        **chosen,
        "scale": scale,
        "device": outcome.device,
    }
    return outcome, meta


def profile_workload(name: str, *args, observer=None, **kwargs) -> dict:
    """One workload's profile document: :func:`run_named_workload`'s
    arguments, ``meta`` plus the graph's accounting when it ran in graph
    mode."""
    from .core import Observer

    observer = observer if observer is not None else Observer()
    outcome, meta = run_named_workload(name, observer, *args, **kwargs)
    if outcome.graph_stats is not None:
        meta["graph_stats"] = outcome.graph_stats.to_dict()
    return build_profile(observer.events, observer.counters.as_dict(), meta=meta)


def profile_to_csv(doc: dict) -> str:
    """Flatten a profile document's constructs into CSV (one row per
    construct, one column per canonical phase)."""
    import csv

    phase_names = sorted(
        {name for construct in doc["constructs"] for name in construct["phases"]}
    )
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [
            "index",
            "kernel",
            "construct",
            "device",
            "n",
            "seconds",
            "energy_joules",
            "attributed_fraction",
            *[f"phase:{name}" for name in phase_names],
        ]
    )
    for construct in doc["constructs"]:
        writer.writerow(
            [
                construct["index"],
                construct["kernel"],
                construct["construct"],
                construct["device"],
                construct["n"],
                repr(construct["seconds"]),
                repr(construct["energy_joules"]),
                repr(construct["attributed_fraction"]),
                *[
                    repr(construct["phases"].get(name, 0.0))
                    for name in phase_names
                ],
            ]
        )
    return out.getvalue()
