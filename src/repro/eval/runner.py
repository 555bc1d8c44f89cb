"""Measurement core for the evaluation (paper section 5).

For one workload on one system we measure:

* multicore CPU execution (the paper's baseline) — same compiled program,
  ``on_cpu=True``;
* GPU execution under the four configurations of section 5: GPU,
  GPU+PTROPT, GPU+L3OPT, GPU+ALL;
* hybrid CPU+GPU execution — the fully optimized program dispatched
  through the partitioning scheduler (``policy="hybrid"``, see
  :mod:`repro.sched`), reported as the ``HYBRID`` column.

Results are cached per (workload, system, scale) within the process so the
figure/benchmark runners can share them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from ..passes import OptConfig
from ..runtime import RunConfig
from ..runtime.system import System, desktop, ultrabook
from ..workloads import all_workloads
from ..workloads.base import Workload

GPU_CONFIG_LABELS = ("GPU", "GPU+PTROPT", "GPU+L3OPT", "GPU+ALL")

#: Label of the hybrid-scheduler column (kept out of GPU_CONFIG_LABELS —
#: it is a placement policy, not a compiler configuration).
HYBRID_LABEL = "HYBRID"

#: Workloads in the paper's presentation order.
WORKLOAD_ORDER = (
    "BarnesHut",
    "BFS",
    "BTree",
    "ClothPhysics",
    "ConnectedComponent",
    "FaceDetect",
    "Raytracer",
    "SkipList",
    "SSSP",
)


@dataclass
class Measurement:
    workload: str
    system: str
    cpu_seconds: float
    cpu_energy: float
    gpu_seconds: dict[str, float] = field(default_factory=dict)
    gpu_energy: dict[str, float] = field(default_factory=dict)
    hybrid_seconds: float = 0.0
    hybrid_energy: float = 0.0

    def speedup(self, label: str = "GPU+ALL") -> float:
        if label == HYBRID_LABEL:
            return self.cpu_seconds / self.hybrid_seconds
        return self.cpu_seconds / self.gpu_seconds[label]

    def energy_savings(self, label: str = "GPU+ALL") -> float:
        if label == HYBRID_LABEL:
            return self.cpu_energy / self.hybrid_energy
        return self.cpu_energy / self.gpu_energy[label]


_CACHE: dict[tuple, Measurement] = {}

def measure_workload(
    workload_cls: type[Workload],
    system: System,
    scale: float = 1.0,
    validate: bool = True,
    observer=None,
    **options,
) -> Measurement:
    """Measure one workload; ``options`` go to every run
    (:class:`~repro.runtime.RunConfig`), the hybrid column's policy
    excepted.  ``observer`` (a ``repro.obs.Observer``) opts into
    span/counter/profile collection for every run the measurement
    performs; observed calls bypass the in-process cache so the observer
    always sees a complete execution."""
    key = (workload_cls.__name__, system.name, round(scale, 4), RunConfig(**options))
    cached = _CACHE.get(key)
    if cached is not None and observer is None:
        return cached

    workload = workload_cls()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cpu_outcome = workload.execute(
            OptConfig.gpu_all(),
            system,
            on_cpu=True,
            scale=scale,
            validate=validate,
            observer=observer,
            **options,
        )
        measurement = Measurement(
            workload=workload_cls.name,
            system=system.name,
            cpu_seconds=cpu_outcome.seconds,
            cpu_energy=cpu_outcome.energy_joules,
        )
        for config in OptConfig.all_configs():
            outcome = workload.execute(
                config,
                system,
                on_cpu=False,
                scale=scale,
                validate=validate,
                observer=observer,
                **options,
            )
            measurement.gpu_seconds[config.label] = outcome.seconds
            measurement.gpu_energy[config.label] = outcome.energy_joules
        hybrid_outcome = workload.execute(
            OptConfig.gpu_all(),
            system,
            scale=scale,
            validate=validate,
            observer=observer,
            **{**options, "policy": "hybrid"},
        )
        measurement.hybrid_seconds = hybrid_outcome.seconds
        measurement.hybrid_energy = hybrid_outcome.energy_joules
    _CACHE[key] = measurement
    return measurement


def measure_all(
    system: System, scale: float = 1.0, validate: bool = True, observer=None, **options
) -> dict[str, Measurement]:
    workloads = all_workloads()
    return {
        name: measure_workload(workloads[name], system, scale, validate, observer, **options)
        for name in WORKLOAD_ORDER
    }


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def clear_cache() -> None:
    _CACHE.clear()
