"""Table 1 and Figure 6 regeneration (workload characteristics and static
IR operation mix)."""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import IrMix, kernel_mix
from ..passes import OptConfig
from ..workloads import all_workloads
from .formatting import render_table
from .runner import WORKLOAD_ORDER


@dataclass
class Table1Row:
    benchmark: str
    origin: str
    input_size: str
    loc: int
    device_loc: int
    data_structure: str
    parallel_construct: str


def table1_rows(scale: float = 1.0) -> list[Table1Row]:
    workloads = all_workloads()
    rows = []
    for name in WORKLOAD_ORDER:
        cls = workloads[name]
        workload = cls()
        rows.append(
            Table1Row(
                benchmark=cls.name,
                origin=cls.origin,
                input_size=_input_size(workload, scale),
                loc=cls.loc(),
                device_loc=cls.device_loc(),
                data_structure=cls.data_structure,
                parallel_construct=cls.parallel_construct.replace("_", " "),
            )
        )
    return rows


def _input_size(workload, scale: float) -> str:
    if hasattr(workload, "make_graph"):
        graph = workload.make_graph(scale)
        return f"|V|={graph.num_nodes}, |E|={graph.num_edges}"
    if hasattr(workload, "sizes"):
        keys, queries = workload.sizes(scale)
        return f"{keys} keys, {queries} queries"
    if hasattr(workload, "num_bodies"):
        return f"{workload.num_bodies(scale)} bodies"
    if hasattr(workload, "grid"):
        width, height, steps = workload.grid(scale)
        return f"{width}x{height} nodes, {steps} steps"
    if hasattr(workload, "image_size"):
        width, height = workload.image_size(scale)
        return f"{width}x{height} image, 22-stage cascade"
    if hasattr(workload, "resolution"):
        width, height = workload.resolution(scale)
        return f"{width}x{height} pixels"
    return "-"


def format_table1(scale: float = 1.0) -> str:
    rows = table1_rows(scale)
    return render_table(
        ["Benchmark", "Origin", "Input size", "LoC", "Device LoC",
         "Data structure", "Parallel construct"],
        [
            [r.benchmark, r.origin, r.input_size, str(r.loc), str(r.device_loc),
             r.data_structure, r.parallel_construct]
            for r in rows
        ],
        title="Table 1: Concord C++ workloads and their characteristics",
    )


def figure6_mixes() -> dict[str, IrMix]:
    """Percent of IR operations that are control-flow / memory related."""
    workloads = all_workloads()
    mixes = {}
    for name in WORKLOAD_ORDER:
        cls = workloads[name]
        program = cls.compile(OptConfig.gpu())
        mixes[name] = kernel_mix(program, cls().body_class)
    return mixes


def format_figure6(mixes: dict[str, IrMix] | None = None) -> str:
    mixes = mixes or figure6_mixes()
    rows = []
    for name, mix in mixes.items():
        rows.append(
            [
                name,
                f"{mix.control_pct:5.1f}%",
                f"{mix.memory_pct:5.1f}%",
                f"{mix.remaining_pct:5.1f}%",
                f"{mix.irregularity_pct:5.1f}%",
            ]
        )
    return render_table(
        ["Benchmark", "Control", "Memory", "Remaining", "Control+Memory"],
        rows,
        title="Figure 6: percent of IR operations by category",
    )
