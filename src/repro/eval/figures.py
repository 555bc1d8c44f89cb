"""Figures 7-10: speedup and energy savings relative to multicore CPU
execution on the Ultrabook and desktop systems, under the four GPU
configurations plus the hybrid CPU+GPU scheduler column."""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.system import System, desktop, ultrabook
from .formatting import render_series
from .runner import (
    GPU_CONFIG_LABELS,
    HYBRID_LABEL,
    WORKLOAD_ORDER,
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


def _figure(
    system: System, metric: str, title: str, scale: float, observer
) -> FigureData:
    measurements = measure_all(system, scale=scale, observer=observer)
    labels = (*GPU_CONFIG_LABELS, HYBRID_LABEL)
    series: dict[str, list[float]] = {label: [] for label in labels}
    for name in WORKLOAD_ORDER:
        m = measurements[name]
        for label in labels:
            if metric == "speedup":
                series[label].append(m.speedup(label))
            else:
                series[label].append(m.energy_savings(label))
    return FigureData(
        title=title,
        system=system.name,
        metric=metric,
        labels=list(WORKLOAD_ORDER),
        series=series,
    )


def figure7(scale: float = 1.0, observer=None) -> FigureData:
    """Ultrabook: runtime performance relative to multicore CPU."""
    return _figure(
        ultrabook(), "speedup",
        "Figure 7: speedup vs multicore CPU (Ultrabook)", scale, observer,
    )


def figure8(scale: float = 1.0, observer=None) -> FigureData:
    """Ultrabook: energy efficiency relative to multicore CPU."""
    return _figure(
        ultrabook(), "energy",
        "Figure 8: energy savings vs multicore CPU (Ultrabook)", scale, observer,
    )


def figure9(scale: float = 1.0, observer=None) -> FigureData:
    """Desktop: runtime performance relative to multicore CPU."""
    return _figure(
        desktop(), "speedup",
        "Figure 9: speedup vs multicore CPU (desktop)", scale, observer,
    )


def figure10(scale: float = 1.0, observer=None) -> FigureData:
    """Desktop: energy efficiency relative to multicore CPU."""
    return _figure(
        desktop(), "energy",
        "Figure 10: energy savings vs multicore CPU (desktop)", scale, observer,
    )
