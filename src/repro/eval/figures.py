"""Figures 7-10: speedup and energy savings relative to multicore CPU
execution on the Ultrabook and desktop systems, under the four GPU
configurations plus the hybrid CPU+GPU scheduler column.  A figure is a
view of one system's measured table (:data:`FIGURES`), so the two
figures of a system share one measurement."""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.system import desktop, ultrabook
from .formatting import render_series
from .runner import (
    GPU_CONFIG_LABELS,
    HYBRID_LABEL,
    WORKLOAD_ORDER,
    Measurement,
    geomean,
    measure_all,
)


@dataclass
class FigureData:
    title: str
    system: str
    metric: str  # "speedup" | "energy"
    labels: list[str]
    series: dict[str, list[float]]  # config label -> per-workload values

    def averages(self) -> dict[str, float]:
        return {label: geomean(values) for label, values in self.series.items()}

    def value(self, workload: str, config: str = "GPU+ALL") -> float:
        return self.series[config][self.labels.index(workload)]

    def by_workload(self, config: str = "GPU+ALL") -> dict[str, float]:
        return dict(zip(self.labels, self.series[config]))

    def render(self) -> str:
        body = render_series(self.title, self.labels, self.series)
        averages = self.averages()
        avg_line = "geomean: " + "  ".join(
            f"{label}={value:.2f}" for label, value in averages.items()
        )
        return body + "\n" + avg_line


#: figure -> (the system it measures, metric, title).  Each figure is a
#: view of :func:`measure_all`'s table for its system.
FIGURES = {
    "fig7": (ultrabook, "speedup", "Figure 7: speedup vs multicore CPU (Ultrabook)"),
    "fig8": (ultrabook, "energy", "Figure 8: energy savings vs multicore CPU (Ultrabook)"),
    "fig9": (desktop, "speedup", "Figure 9: speedup vs multicore CPU (desktop)"),
    "fig10": (desktop, "energy", "Figure 10: energy savings vs multicore CPU (desktop)"),
}


def figure(name: str, measurements: dict[str, Measurement]) -> FigureData:
    """Figure ``name`` read off ``measurements``, the ``{workload:
    Measurement}`` table :func:`measure_all` returned for its system."""
    _system, metric, title = FIGURES[name]
    labels = (*GPU_CONFIG_LABELS, HYBRID_LABEL)
    rows = [measurements[workload] for workload in WORKLOAD_ORDER]
    ratio = Measurement.speedup if metric == "speedup" else Measurement.energy_savings
    return FigureData(
        title=title,
        system=rows[0].system,
        metric=metric,
        labels=list(WORKLOAD_ORDER),
        series={label: [ratio(m, label) for m in rows] for label in labels},
    )


def measure_figures(names, scale: float = 1.0, observer=None) -> dict[str, FigureData]:
    """The figures ``names``, measuring each system they read once."""
    tables = {
        system: measure_all(system(), scale=scale, observer=observer)
        for system in dict.fromkeys(FIGURES[name][0] for name in names)
    }
    return {name: figure(name, tables[FIGURES[name][0]]) for name in names}
