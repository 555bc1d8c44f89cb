"""Per-kernel / per-construct profiles and the profile document.

A profile attributes each parallel construct's simulated seconds to named
phases (``jit``, ``launch``, ``reduce_tree``, ``host_join``), aggregates
the same attribution per IR kernel, and carries the counter-registry
snapshot, compiler pass statistics and the span tree.  The document shape
is defined (and checked) by :mod:`repro.obs.schema`;
:func:`profile_workload` is the one-call entry the ``python -m repro
profile`` CLI and the CI smoke job use.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional

#: Version tag stamped into every emitted document.
PROFILE_SCHEMA_VERSION = "repro.obs.profile/v1"

#: Canonical phase names (documents may use any subset).
PHASES = ("jit", "launch", "reduce_tree", "host_join")


@dataclass
class ConstructProfile:
    """Attribution record for one parallel construct execution."""

    index: int
    kernel: str
    construct: str  # "for" | "reduce"
    device: str  # "cpu" | "gpu" | "hybrid"
    n: int
    seconds: float
    energy_joules: float
    phases: dict = field(default_factory=dict)  # phase name -> sim seconds
    counters: dict = field(default_factory=dict)

    @property
    def attributed_seconds(self) -> float:
        return sum(self.phases.values())

    @property
    def attributed_fraction(self) -> float:
        if self.seconds <= 0.0:
            return 1.0
        return min(1.0, self.attributed_seconds / self.seconds)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kernel": self.kernel,
            "construct": self.construct,
            "device": self.device,
            "n": self.n,
            "seconds": self.seconds,
            "energy_joules": self.energy_joules,
            "phases": dict(self.phases),
            "attributed_seconds": self.attributed_seconds,
            "attributed_fraction": self.attributed_fraction,
            "counters": dict(self.counters),
        }


@dataclass
class KernelProfile:
    """Aggregated attribution for one IR kernel across all its launches."""

    kernel: str
    construct: str
    launches: int = 0
    work_items: int = 0
    seconds: float = 0.0
    energy_joules: float = 0.0
    phases: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def absorb(self, record: ConstructProfile) -> None:
        self.launches += 1
        self.work_items += record.n
        self.seconds += record.seconds
        self.energy_joules += record.energy_joules
        for name, value in record.phases.items():
            self.phases[name] = self.phases.get(name, 0.0) + value
        for name, value in record.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def to_dict(self) -> dict:
        attributed = sum(self.phases.values())
        return {
            "kernel": self.kernel,
            "construct": self.construct,
            "launches": self.launches,
            "work_items": self.work_items,
            "seconds": self.seconds,
            "energy_joules": self.energy_joules,
            "phases": dict(self.phases),
            "attributed_seconds": attributed,
            "attributed_fraction": (
                min(1.0, attributed / self.seconds) if self.seconds > 0 else 1.0
            ),
            "counters": dict(self.counters),
        }


def build_profile(observer, meta: Optional[dict] = None) -> dict:
    """Assemble the JSON-serializable profile document from an observer."""
    constructs = [record.to_dict() for record in observer.constructs]
    kernels = {
        name: profile.to_dict() for name, profile in sorted(observer.kernels.items())
    }
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
        "kernels": kernels,
        "counters": observer.counters.as_dict(),
        "passes": list(observer.pass_stats),
        "spans": [span.to_dict() for span in observer.root.children],
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
    return build_profile(observer, meta=meta)


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
