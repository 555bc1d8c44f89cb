"""Experiment harness: regenerates every table and figure of the paper's
evaluation (Table 1, Figure 6, Figures 7-10, the section 5.4 SVM-overhead
study)."""

from .figures import FIGURES, FigureData, measure_figures
from .overlap import (
    OverlapFigure,
    OverlapPoint,
    measure_bfs_pipeline,
    measure_bh_batch,
    measure_overlap,
)
from .runner import (
    GPU_CONFIG_LABELS,
    Measurement,
    WORKLOAD_ORDER,
    geomean,
    measure_all,
    measure_workload,
)
from .svm_overhead import OverheadPoint, format_svm_overhead, measure_svm_overhead
from .tables import figure6_mixes, format_figure6, format_table1, table1_rows

__all__ = [
    "FIGURES",
    "FigureData",
    "GPU_CONFIG_LABELS",
    "Measurement",
    "OverheadPoint",
    "OverlapFigure",
    "OverlapPoint",
    "WORKLOAD_ORDER",
    "figure6_mixes",
    "format_figure6",
    "format_svm_overhead",
    "format_table1",
    "geomean",
    "measure_all",
    "measure_bfs_pipeline",
    "measure_bh_batch",
    "measure_figures",
    "measure_overlap",
    "measure_svm_overhead",
    "measure_workload",
    "table1_rows",
]
