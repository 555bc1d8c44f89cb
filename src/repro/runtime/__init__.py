"""Concord runtime: compiler driver, offload, parallel constructs."""

from ..passes import OptConfig
from .compiler import CompiledProgram, ConcordWarning, KernelInfo, compile_source
from .graph import ConstructFuture, GraphError, GraphStats, RegionSpan, TaskGraph
from .runtime import ConcordRuntime, ExecutionReport, RunConfig
from .system import ALL_SYSTEMS, System, desktop, system_named, ultrabook

__all__ = [
    "ALL_SYSTEMS",
    "CompiledProgram",
    "ConcordRuntime",
    "ConcordWarning",
    "ConstructFuture",
    "ExecutionReport",
    "GraphError",
    "GraphStats",
    "KernelInfo",
    "OptConfig",
    "RegionSpan",
    "RunConfig",
    "System",
    "TaskGraph",
    "compile_source",
    "desktop",
    "system_named",
    "ultrabook",
]
