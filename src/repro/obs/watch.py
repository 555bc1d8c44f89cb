"""Regression watch: the benchmark ledger, its trend report and its gate.

The ledger is the ``BENCH_<n>.json`` files beside ``BENCHMARK.json``
(the repository root).  An entry is the last line the end-to-end harness
prints, verbatim — nothing under ``src/`` writes one::

    python3 benchmarks/e2e/run.py --all --traced --seed 0 | tail -n 1 > BENCH_<n>.json

so it holds, per workload, the ``end_to_end`` run and the traced
``per_layer`` run.  ``BENCHMARK.json`` says which way each metric is
better and gives the end-to-end ones their ``bound``, the share by which
a metric may get worse; no other number is compared against.

Every metric ``BENCHMARK.json`` lists is one series per workload over
the entries (a value of 0 is a layer the workload never entered: no
point).  ``current`` is the raw newest point, so a fresh regression is
seen at full size.  The baseline ``best`` is the best **window median**
(up to :data:`WINDOW` points) of the *earlier* points: one anomalously
good old entry cannot set an unreachable level and one bad old entry
cannot mask drift; ``best_entry`` is where that window ended, the change
point to bisect from.  ``worse_by`` is how much worse ``current`` is
than ``best`` as a share of ``best`` (negative = better), whichever way
the metric runs.

A series with a bound is **gated**: ``worse_by`` beyond it fails the
verdict, each series on its own — a geomean once read "OK" over seven
regressed series.  A per-layer series is only **trended**: it says which
layer moved and fails nothing.  Entries are comparable only when
recorded on one host; ``host.calibration_ops_per_s`` is in every entry
for the reader and nothing is normalised by it.  ``python -m repro
watch`` renders the report; ``--check`` makes the verdict an exit code.
"""

from __future__ import annotations

import json
import os
import re
from statistics import median

from .schema import SchemaError, check, record

__all__ = [
    "WATCH_SCHEMA_VERSION",
    "analyze_series",
    "build_series",
    "build_watch_report",
    "ledger_entries",
    "load_history",
    "render_watch_report",
    "validate_watch_report",
]

WATCH_SCHEMA_VERSION = "repro.obs.watch/v2"

#: Window size (in ledger entries) for the median levels.  Three points
#: reject one outlier; histories shorter than the window use what exists.
WINDOW = 3

#: The text report lists a per-layer series once it moved this far
#: either way; the JSON report carries every series.
SHOWN_MOVE = 0.25

_LEDGER_RE = re.compile(r"^BENCH_(\d+)\.json$")


# -- schemas ----------------------------------------------------------------

_NUMBER = {"type": "number"}
_COUNT = {"type": "integer", "minimum": 0}
_TEXT = {"type": "string"}
_FLAG = {"type": "boolean"}
_BETTER = {"enum": ["lower", "higher"]}
_BOUND = {"type": "number", "minimum": 0}

_RUN = record(
    {
        "correct": _FLAG,
        "attempted": _COUNT,
        "failed": _COUNT,
        "metrics": {
            "type": "object",
            "additionalProperties": record({"value": _NUMBER, "unit": _TEXT}),
        },
    }
)

#: One ledger entry: ``{workload: {"end_to_end": run, "per_layer": run}}``.
LEDGER_ENTRY_SCHEMA = {
    "type": "object",
    "additionalProperties": record({"end_to_end": _RUN}, {"per_layer": _RUN}),
}

#: A listed metric; one with a bound is gated, one without only trended.
_METRICS = {
    "type": "array",
    "items": record({"name": _TEXT, "better": _BETTER}, {"bound": _BOUND}),
}

#: The part of ``BENCHMARK.json`` the watch reads.
CONTRACT_SCHEMA = record({"end_to_end": _METRICS, "per_layer": _METRICS})

_SERIES = record(
    {
        "workload": _TEXT,
        "metric": _TEXT,
        "better": _BETTER,
        "points": {"type": "array"},
        "current": _NUMBER,
        "best": _NUMBER,
        "best_entry": _COUNT,
        "worse_by": _NUMBER,
        "regressed": _FLAG,
    },
    {"bound": _BOUND},  # on a gated series only
)

WATCH_REPORT_SCHEMA = record(
    {
        "schema": {"const": WATCH_SCHEMA_VERSION},
        "entries": {"type": "array", "items": _COUNT},
        "skipped": {
            "type": "array",
            "items": record({"entry": _COUNT, "reason": _TEXT}),
        },
        "errors": {"type": "array", "items": _TEXT},
        "series": {"type": "array", "items": _SERIES},
        "verdict": record(
            {
                "ok": _FLAG,
                "regressed": {"type": "array"},
                "gated": _COUNT,
                "series": _COUNT,
                "entries": _COUNT,
            }
        ),
    }
)


# -- history loading --------------------------------------------------------


def ledger_entries(directory: str) -> list[tuple[int, str]]:
    """Sorted ``(n, path)`` for every ``BENCH_<n>.json`` in ``directory``."""
    found = []
    for name in os.listdir(directory):
        match = _LEDGER_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


def _load(path: str, schema: dict, name: str):
    """``(document, why it cannot be used)``: unreadable, not JSON, or
    not ``schema``; the reason is empty when the document is fine."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        return None, exc.strerror or str(exc)
    except ValueError as exc:
        return None, f"not JSON ({exc})"
    return doc, "; ".join(check(doc, schema, name))


def load_history(directory: str) -> tuple[list, list]:
    """``(history, skipped)``: every valid entry as ``(n, document)``,
    oldest first, and every ``BENCH_<n>.json`` that could not be read or
    is not a ledger entry as ``{"entry": n, "reason": why}``.  A corrupt
    old file must not brick the watch; whether a skipped entry is fatal
    is :func:`build_watch_report`'s call."""
    history, skipped = [], []
    for index, path in ledger_entries(directory):
        doc, reason = _load(path, LEDGER_ENTRY_SCHEMA, "entry")
        if reason:
            skipped.append({"entry": index, "reason": reason})
        else:
            history.append((index, doc))
    return history, skipped


def build_series(history: list, contract: dict) -> dict:
    """``(workload, metric) -> [(entry, value), ...]`` for every metric
    ``contract`` (a ``BENCHMARK.json`` document) lists: its
    ``end_to_end`` names from each entry's end-to-end run, its
    ``per_layer`` names from the traced run.  A value of 0 is a layer
    the workload never entered and contributes no point."""
    series: dict[tuple, list] = {}
    for entry, doc in history:
        for workload, runs in doc.items():
            for kind in ("end_to_end", "per_layer"):
                metrics = runs.get(kind, {}).get("metrics", {})
                for spec in contract[kind]:
                    value = metrics.get(spec["name"], {}).get("value", 0)
                    if value > 0:
                        series.setdefault((workload, spec["name"]), []).append(
                            (entry, float(value))
                        )
    return series


# -- trend analysis ---------------------------------------------------------


def analyze_series(points: list, better: str, bound) -> dict:
    """Change-point summary of one ``(entry, value)`` series of positive
    values, as the module docstring defines it: raw newest point against
    the best window median of the earlier ones (lowest or highest, as
    ``better`` says).  ``bound`` is ``None`` for a series that is only
    trended; a series of one point is its own baseline."""
    values = [value for _, value in points]
    current = values[-1]
    prior = values[:-1] or values
    window = min(WINDOW, len(prior))
    medians = [
        median(prior[i : i + window]) for i in range(len(prior) - window + 1)
    ]
    pick = min if better == "lower" else max
    best_index = pick(range(len(medians)), key=medians.__getitem__)
    best = medians[best_index]
    change = (current - best) / best
    worse_by = change if better == "lower" else -change
    summary = {
        "better": better,
        "points": [{"entry": entry, "value": value} for entry, value in points],
        "current": current,
        "best": best,
        "best_entry": points[best_index + window - 1][0],
        "worse_by": worse_by,
        "regressed": bound is not None and worse_by > bound,
    }
    if bound is not None:
        summary["bound"] = bound
    return summary


def _newest_entry_errors(history: list, skipped: list) -> list:
    """Why the newest entry cannot be judged: it is unusable, there is
    none, or one of its runs failed."""
    if skipped and (not history or skipped[-1]["entry"] > history[-1][0]):
        newest = skipped[-1]
        return [
            f"BENCH_{newest['entry']}.json, the newest entry, is unusable: "
            f"{newest['reason']}"
        ]
    if not history:
        return ["no BENCH_<n>.json entry to judge"]
    entry, doc = history[-1]
    return [
        f"BENCH_{entry}.json: the {kind} run of {workload} failed "
        f"{run['failed']} of {run['attempted']} operations"
        for workload, runs in doc.items()
        for kind, run in runs.items()
        if kind in ("end_to_end", "per_layer")
        and (run["failed"] or not run["correct"])
    ]


def build_watch_report(directory: str = ".") -> dict:
    """The ``repro.obs.watch/v2`` document for one ledger directory.

    ``errors`` lists what makes the verdict unusable whatever the
    numbers say: a missing or malformed ``BENCHMARK.json``, what
    :func:`_newest_entry_errors` names, and a gated series the newest
    entry does not continue (a partial entry would otherwise pass on an
    older entry's numbers).  ``skipped`` lists every unusable entry,
    fatal or not."""
    contract_path = os.path.join(directory, "BENCHMARK.json")
    contract, reason = _load(contract_path, CONTRACT_SCHEMA, "BENCHMARK.json")
    history, skipped, analyzed = [], [], []
    if reason:
        errors = [f"cannot read {contract_path}: {reason}"]
    else:
        history, skipped = load_history(directory)
        errors = _newest_entry_errors(history, skipped)
        specs = {m["name"]: m for m in contract["per_layer"] + contract["end_to_end"]}
        series = build_series(history, contract)
        for (workload, metric), points in sorted(series.items()):
            better, bound = specs[metric]["better"], specs[metric].get("bound")
            if bound is not None and points[-1][0] != history[-1][0]:
                errors.append(
                    f"BENCH_{history[-1][0]}.json has no {metric} for {workload}"
                )
            analyzed.append(
                {
                    "workload": workload,
                    "metric": metric,
                    **analyze_series(points, better, bound),
                }
            )
    regressed = [[s["workload"], s["metric"]] for s in analyzed if s["regressed"]]
    return {
        "schema": WATCH_SCHEMA_VERSION,
        "directory": directory,
        "entries": [entry for entry, _ in history],
        "skipped": skipped,
        "errors": errors,
        "series": analyzed,
        "verdict": {
            "ok": not errors and not regressed,
            "regressed": regressed,
            "gated": sum("bound" in s for s in analyzed),
            "series": len(analyzed),
            "entries": len(history),
        },
    }


# -- rendering --------------------------------------------------------------


def render_watch_report(doc: dict) -> str:
    """Human-readable report: every gated series with its bound and
    verdict, among them the per-layer series that moved by more than
    :data:`SHOWN_MOVE`; then the errors and the verdict line."""
    entries, verdict = doc["entries"], doc["verdict"]
    out = [
        f"benchmark watch: {verdict['gated']} gated and "
        f"{verdict['series'] - verdict['gated']} trended series over "
        f"{len(entries)} ledger entr{'y' if len(entries) == 1 else 'ies'} "
        f"({', '.join(f'BENCH_{n}' for n in entries) or 'none'})",
        f"(a trended series is listed once it moved by more than {SHOWN_MOVE:.0%})",
    ]
    for skipped in doc["skipped"]:
        out.append(f"skipped BENCH_{skipped['entry']}.json: {skipped['reason']}")
    if doc["series"]:
        out.append(
            f"{'WORKLOAD':>18} {'METRIC':<30} {'POINTS':>6} {'BEST':>12} "
            f"{'CURRENT':>12} {'WORSE BY':>8} {'BOUND':>6}"
        )
    for series in doc["series"]:
        if "bound" not in series:
            if abs(series["worse_by"]) <= SHOWN_MOVE:
                continue
            tail = f"{'-':>6}  trended"
        elif series["regressed"]:
            tail = (
                f"{series['bound']:>6.0%}  << past its bound since "
                f"BENCH_{series['best_entry']}"
            )
        else:
            tail = f"{series['bound']:>6.0%}  ok"
        out.append(
            # significant digits, not decimals: series span 1e-4 s to 1e+7 B
            f"{series['workload']:>18} {series['metric']:<30} "
            f"{len(series['points']):>6} {series['best']:>12.4g} "
            f"{series['current']:>12.4g} {series['worse_by']:>+8.1%} {tail}"
        )
    out.extend(f"error: {message}" for message in doc["errors"])
    out.append(
        f"verdict: {'OK' if verdict['ok'] else 'FAILED'} "
        f"({len(verdict['regressed'])} of {verdict['gated']} gated series "
        f"past their bound, {len(doc['errors'])} error(s))"
    )
    return "\n".join(out)


def validate_watch_report(doc) -> None:
    """Raise :class:`~repro.obs.schema.SchemaError` listing every
    departure from ``WATCH_REPORT_SCHEMA``."""
    errors = check(doc, WATCH_REPORT_SCHEMA, "report")
    if errors:
        raise SchemaError("; ".join(errors))
