"""Regression watch: trend analysis over the whole benchmark ledger.

``repro bench --check`` originally diffed a fresh sweep against only the
*immediately preceding* ``BENCH_<n>.json`` entry, so a slow drift — two
PRs each 9% slower — sailed under a 15% per-step threshold while costing
17% overall.  This module closes that hole by aggregating **every**
committed ledger entry into per-``(workload, config)`` trend series and
judging the *current level* against the *best sustained level* in the
history:

* each series is the ``norm_instr_per_s`` of one cell over ledger
  entries (calibrated per cell, so laptop and CI entries mix);
* the baseline is the best **window median** (window of up to
  :data:`WINDOW` points) over the *prior* points, which keeps historical
  noise out of the level: one anomalously fast old entry cannot set an
  unreachable baseline, and one slow old entry cannot mask real drift;
* a series' ``drift`` is the fractional change from that baseline to the
  raw newest point — the entry under judgment keeps the gate's full
  sensitivity to a fresh regression; the change point is the entry where
  the best window ended;
* the **verdict** gates on the geomean drift across all series (matching
  the ledger gate's noise model: a real simulator regression moves every
  cell together) and also lists every individual series past threshold.

``python -m repro watch`` renders the report; ``--check`` turns the
verdict into an exit code for CI.  The machine-readable document
(``repro.obs.watch/v1``) is what ``bench --check`` now gates on.
"""

from __future__ import annotations

import json
from typing import Optional

from .ledger import REGRESSION_THRESHOLD, ledger_entries

__all__ = [
    "WATCH_SCHEMA_VERSION",
    "WatchSchemaError",
    "analyze_series",
    "build_watch_report",
    "load_history",
    "render_watch_report",
    "validate_watch_report",
]

WATCH_SCHEMA_VERSION = "repro.obs.watch/v1"

#: Window size (in ledger entries) for the median levels.  Three points
#: reject one outlier; histories shorter than the window use what exists.
WINDOW = 3


class WatchSchemaError(ValueError):
    """A watch report does not conform to ``repro.obs.watch/v1``."""


# -- history loading --------------------------------------------------------


def load_history(directory: str) -> list[dict]:
    """Every ``BENCH_<n>.json`` in ``directory``, parsed, oldest first,
    with the ledger index attached as ``doc["entry"]``.  Unreadable
    entries are skipped (a corrupt historical file should not brick the
    watch)."""
    history = []
    for index, path in ledger_entries(directory):
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict):
            doc["entry"] = index
            history.append(doc)
    return history


def build_series(history: list) -> dict:
    """``(workload, config) -> [(entry, norm_instr_per_s), ...]`` over
    the history.  Rows without positive normalized throughput (e.g. the
    ``GRAPH`` overlap rows, which deliberately zero their wall-clock
    columns) carry no trend signal and are skipped.

    Entries with a ``compile`` section additionally contribute
    ``(workload, "COMPILE:cold")`` and ``(workload, "COMPILE:warm")``
    series from the normalized inverse compile times (higher = better,
    calibrated like the throughput cells), so compile-path regressions
    trend through the same gate; older entries simply lack the section
    and contribute no points."""
    series: dict[tuple, list] = {}
    for doc in history:
        entry = doc.get("entry", 0)
        for row in doc.get("results", []):
            norm = row.get("norm_instr_per_s", 0.0)
            if not isinstance(norm, (int, float)) or norm <= 0:
                continue
            key = (row.get("workload"), row.get("config"))
            if not all(isinstance(part, str) and part for part in key):
                continue
            series.setdefault(key, []).append((entry, float(norm)))
        compile_rows = doc.get("compile")
        if not isinstance(compile_rows, list):
            continue
        for row in compile_rows:
            if not isinstance(row, dict):
                continue
            workload = row.get("workload")
            if not isinstance(workload, str) or not workload:
                continue
            for config, field in (
                ("COMPILE:cold", "norm_cold"),
                ("COMPILE:warm", "norm_warm"),
            ):
                norm = row.get(field, 0.0)
                if not isinstance(norm, (int, float)) or norm <= 0:
                    continue
                series.setdefault((workload, config), []).append(
                    (entry, float(norm))
                )
    return series


# -- trend analysis ---------------------------------------------------------


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def analyze_series(points: list, threshold: float = REGRESSION_THRESHOLD) -> dict:
    """Robust change-point summary of one ``(entry, norm)`` series.

    ``current`` is the newest point — the entry under judgment.  ``best``
    is the maximum **window median** over all *earlier* points: medians
    make the baseline robust (one historically slow or anomalously fast
    entry neither hides a regression nor poisons the level), while
    judging the raw newest point keeps the gate as sensitive to a fresh
    regression as the old entry-vs-entry diff.  ``drift`` is the
    fractional change from best to current, and ``best_entry`` the
    ledger entry where the best window ended — the change point to
    bisect from when the series regressed."""
    values = [norm for _, norm in points]
    current = values[-1]
    prior = values[:-1] or values
    window = min(WINDOW, len(prior))
    medians = [
        _median(prior[i : i + window]) for i in range(len(prior) - window + 1)
    ]
    best_index = max(range(len(medians)), key=lambda i: medians[i])
    best = medians[best_index]
    drift = (current - best) / best if best > 0 else 0.0
    return {
        "points": [{"entry": entry, "norm_instr_per_s": norm} for entry, norm in points],
        "current": current,
        "best": best,
        "best_entry": points[best_index + window - 1][0],
        "drift": drift,
        "regressed": drift < -threshold,
    }


def build_watch_report(
    directory: str = ".",
    threshold: float = REGRESSION_THRESHOLD,
    extra_entry: Optional[dict] = None,
) -> dict:
    """The ``repro.obs.watch/v1`` document for one ledger directory.

    ``extra_entry`` appends one not-yet-committed ledger document (the
    sweep ``bench --check`` just ran) as the newest history point, so the
    gate judges the candidate against the full committed trend."""
    history = load_history(directory)
    if extra_entry is not None:
        candidate = dict(extra_entry)
        candidate["entry"] = (history[-1]["entry"] + 1) if history else 0
        history = history + [candidate]
    series = build_series(history)
    analyzed = []
    for (workload, config), points in sorted(series.items()):
        summary = analyze_series(points, threshold)
        summary["workload"] = workload
        summary["config"] = config
        analyzed.append(summary)
    regressed = [
        {
            "workload": s["workload"],
            "config": s["config"],
            "drift": s["drift"],
            "best_entry": s["best_entry"],
        }
        for s in analyzed
        if s["regressed"]
    ]
    ratios = [1.0 + s["drift"] for s in analyzed if 1.0 + s["drift"] > 0]
    if ratios:
        product = 1.0
        for ratio in ratios:
            product *= ratio
        geomean_drift = product ** (1.0 / len(ratios)) - 1.0
    else:
        geomean_drift = 0.0
    verdict = {
        "ok": geomean_drift >= -threshold,
        "geomean_drift": geomean_drift,
        "regressed": regressed,
        "series": len(analyzed),
        "entries": len(history),
    }
    return {
        "schema": WATCH_SCHEMA_VERSION,
        "directory": directory,
        "threshold": threshold,
        "entries": [doc.get("entry", 0) for doc in history],
        "series": analyzed,
        "verdict": verdict,
    }


# -- rendering --------------------------------------------------------------


def render_watch_report(doc: dict) -> str:
    """Human-readable trend table plus the verdict line."""
    entries = doc.get("entries", [])
    out = [
        f"benchmark watch: {len(doc.get('series', []))} series over "
        f"{len(entries)} ledger entr{'y' if len(entries) == 1 else 'ies'} "
        f"({', '.join(f'BENCH_{n}' for n in entries) or 'none'})"
    ]
    if doc.get("series"):
        out.append(
            f"{'WORKLOAD':>20} {'CONFIG':<10} {'POINTS':>6} {'BEST':>12} "
            f"{'CURRENT':>12} {'DRIFT':>8}"
        )
        for series in doc["series"]:
            flag = (
                f"  << regressed since BENCH_{series['best_entry']}"
                if series["regressed"]
                else ""
            )
            out.append(
                # significant digits, not decimals: the series span
                # 1e-8 (COMPILE:*) to 1e+2
                "{workload:>20} {config:<10} {points:>6} {best:>12.4g} "
                "{current:>12.4g} {drift:>+7.1%}{flag}".format(
                    workload=series["workload"],
                    config=series["config"],
                    points=len(series["points"]),
                    best=series["best"],
                    current=series["current"],
                    drift=series["drift"],
                    flag=flag,
                )
            )
    verdict = doc.get("verdict", {})
    status = "OK" if verdict.get("ok") else "REGRESSED"
    out.append(
        f"verdict: {status} (geomean drift {verdict.get('geomean_drift', 0.0):+.1%}, "
        f"threshold -{doc.get('threshold', REGRESSION_THRESHOLD):.0%}, "
        f"{len(verdict.get('regressed', []))} series past threshold)"
    )
    return "\n".join(out)


# -- schema -----------------------------------------------------------------


def _fail(errors: list, path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def validate_watch_report(doc) -> None:
    """Structural validation; raises :class:`WatchSchemaError` listing
    every problem found."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise WatchSchemaError(f"report: expected object, got {type(doc).__name__}")
    if doc.get("schema") != WATCH_SCHEMA_VERSION:
        _fail(errors, "report.schema", f"expected {WATCH_SCHEMA_VERSION!r}")
    if not isinstance(doc.get("threshold"), (int, float)):
        _fail(errors, "report.threshold", "expected number")
    if not isinstance(doc.get("entries"), list):
        _fail(errors, "report.entries", "expected list")
    series = doc.get("series")
    if not isinstance(series, list):
        _fail(errors, "report.series", "expected list")
        series = []
    for index, summary in enumerate(series):
        path = f"report.series[{index}]"
        if not isinstance(summary, dict):
            _fail(errors, path, "expected object")
            continue
        for key in ("workload", "config"):
            if not isinstance(summary.get(key), str) or not summary.get(key):
                _fail(errors, f"{path}.{key}", "missing or empty")
        for key in ("current", "best", "drift"):
            if not isinstance(summary.get(key), (int, float)):
                _fail(errors, f"{path}.{key}", "expected number")
        if not isinstance(summary.get("regressed"), bool):
            _fail(errors, f"{path}.regressed", "expected bool")
        if not isinstance(summary.get("points"), list) or not summary.get("points"):
            _fail(errors, f"{path}.points", "expected non-empty list")
    verdict = doc.get("verdict")
    if not isinstance(verdict, dict):
        _fail(errors, "report.verdict", "expected object")
    else:
        if not isinstance(verdict.get("ok"), bool):
            _fail(errors, "report.verdict.ok", "expected bool")
        if not isinstance(verdict.get("geomean_drift"), (int, float)):
            _fail(errors, "report.verdict.geomean_drift", "expected number")
        if not isinstance(verdict.get("regressed"), list):
            _fail(errors, "report.verdict.regressed", "expected list")
    if errors:
        raise WatchSchemaError("; ".join(errors))
