"""Inter-construct overlap study for the task-graph runtime.

Two pipeline scenarios where the synchronous construct-at-a-time model
leaves a device idle and the task graph (:mod:`repro.runtime.graph`)
does not:

* **BFS level pipeline** — ``Q`` simultaneous BFS queries over one
  shared road network, each with private ``dist``/``changed`` arrays.
  Constructs of the *same* query chain through RAW edges on its
  ``dist`` array (level ``k+1`` reads what level ``k`` wrote);
  constructs of *different* queries are independent, so each wave of
  ``Q`` submissions spreads across the CPU and GPU virtual clocks.
* **Barnes-Hut batched scenes** — ``B`` independent n-body scenes, each
  with its own host-built octree and force arrays.  The force constructs
  share nothing, so the whole batch overlaps.

Both scenarios execute the sync baseline and the graph run and assert
bit-identical result arrays before reporting the virtual-wall-clock
speedup — overlap must never change the answer.  ``python -m repro.eval
overlap`` renders the figure; the ``hetero_sched`` workload of
``benchmarks/e2e`` times :func:`measure_overlap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.types import F32, I32
from ..runtime.system import System, ultrabook

#: Simultaneous BFS queries in the level pipeline.  Deliberately larger
#: than the scheduler's untrained CPU-slowdown prior (8x): the first wave
#: must queue the GPU deep enough that earliest-completion-time placement
#: tries the CPU at least once and calibrates its real throughput.
BFS_QUERIES = 10
#: Independent Barnes-Hut scenes in the batch (same reasoning).
BH_SCENES = 10

SCENARIO_ORDER = ("BFS-pipeline", "BarnesHut-batch")


@dataclass
class OverlapPoint:
    """One scenario's sync-vs-graph comparison (virtual seconds)."""

    scenario: str
    constructs: int
    sync_seconds: float
    graph_seconds: float
    jit_ahead_seconds: float
    identical: bool
    device_busy: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.graph_seconds <= 0.0:
            return 1.0
        return self.sync_seconds / self.graph_seconds


@dataclass
class OverlapFigure:
    title: str
    system: str
    points: list

    def render(self) -> str:
        lines = [self.title, f"system: {self.system}"]
        header = (
            f"{'scenario':<18} {'constructs':>10} {'sync (s)':>12} "
            f"{'graph (s)':>12} {'speedup':>8}  identical"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for point in self.points:
            lines.append(
                f"{point.scenario:<18} {point.constructs:>10} "
                f"{point.sync_seconds:>12.3e} {point.graph_seconds:>12.3e} "
                f"{point.speedup:>7.2f}x  {'yes' if point.identical else 'NO'}"
            )
        return "\n".join(lines)


# -- BFS level pipeline -------------------------------------------------------


def _bfs_queries(rt, workload, scale: float):
    """One shared graph, ``BFS_QUERIES`` private query states."""
    from ..workloads.bfs import INFINITY
    from ..workloads.graphs import graph_to_svm

    graph = workload.make_graph(scale)
    svm_graph = graph_to_svm(rt, graph)
    queries = []
    for q in range(BFS_QUERIES):
        source = (q * graph.num_nodes) // BFS_QUERIES
        dist = rt.new_array(I32, graph.num_nodes)
        dist.fill_from([INFINITY] * graph.num_nodes)
        dist[source] = 0
        changed = rt.new_array(I32, 1)
        body = rt.new("BfsBody")
        body.row_starts = svm_graph.row_starts
        body.columns = svm_graph.columns
        body.dist = dist
        body.changed = changed
        body.level = 0
        body.num_nodes = graph.num_nodes
        queries.append(
            {"dist": dist, "changed": changed, "body": body, "level": 0}
        )
    return svm_graph, queries


def _run_bfs_pipeline(rt, svm_graph, queries, graph_mode: bool):
    """Level-synchronized sweep over all queries.  Each wave submits one
    level per still-active query, then forces the wave to read the
    per-query ``changed`` flags (a host sync point per query per level)."""
    num_nodes = svm_graph.graph.num_nodes
    reports = []
    active = list(queries)
    rounds = 0
    while active:
        wave = []
        for query in active:
            query["changed"][0] = 0
            query["body"].level = query["level"]
            if graph_mode:
                wave.append(
                    rt.submit(
                        num_nodes,
                        query["body"],
                        reads=[
                            svm_graph.row_starts,
                            svm_graph.columns,
                            query["dist"],
                        ],
                        writes=[query["dist"], query["changed"]],
                    )
                )
            else:
                reports.append(rt.parallel_for_hetero(num_nodes, query["body"]))
        if graph_mode:
            reports.extend(future.result() for future in wave)
        still = []
        for query in active:
            if query["changed"][0]:
                query["level"] += 1
                still.append(query)
        active = still
        rounds += 1
        if rounds > num_nodes:
            raise RuntimeError("BFS pipeline failed to converge")
    return reports


def measure_bfs_pipeline(
    system: System = None, scale: float = 1.0
) -> OverlapPoint:
    from ..workloads.bfs import BfsWorkload

    system = system or ultrabook()
    workload = BfsWorkload()

    sync_rt = BfsWorkload.make_runtime(system=system)
    sync_graph, sync_queries = _bfs_queries(sync_rt, workload, scale)
    sync_reports = _run_bfs_pipeline(sync_rt, sync_graph, sync_queries, False)

    graph_rt = BfsWorkload.make_runtime(system=system, graph_placement="ect")
    g_graph, g_queries = _bfs_queries(graph_rt, workload, scale)
    _run_bfs_pipeline(graph_rt, g_graph, g_queries, True)
    stats = graph_rt.wait()

    identical = all(
        sq["dist"].to_list() == gq["dist"].to_list()
        for sq, gq in zip(sync_queries, g_queries)
    )
    return OverlapPoint(
        scenario="BFS-pipeline",
        constructs=len(sync_reports),
        sync_seconds=sum(r.seconds for r in sync_reports),
        graph_seconds=stats.wall_seconds,
        jit_ahead_seconds=stats.jit_ahead_seconds,
        identical=identical,
        device_busy=stats.device_busy,
    )


# -- Barnes-Hut batched scenes ------------------------------------------------


def _tree_span(rt, root_view) -> tuple:
    """The byte range covered by one scene's rope-linked octree: walk
    every ``more``/``next`` pointer from the root (nodes are emitted
    back-to-back, so min/max addresses bound the scene)."""
    node_size = root_view.struct_type.size()
    lo = hi = root_view.addr
    stack = [root_view.addr]
    seen = set()
    while stack:
        addr = stack.pop()
        if not addr or addr in seen:
            continue
        seen.add(addr)
        lo = min(lo, addr)
        hi = max(hi, addr + node_size)
        node = rt.view("OctNode", addr)
        stack.append(node.more)
        stack.append(node.next)
    return (lo, hi - lo)


def _bh_scenes(rt, workload, scale: float):
    """``BH_SCENES`` independent scenes, each a host-built octree plus
    private position/acceleration arrays."""
    import random

    from ..workloads.barneshut import THETA, _build_octree, _emit_ropes

    n = max(16, workload.num_bodies(scale) // BH_SCENES)
    scenes = []
    for s in range(BH_SCENES):
        rng = random.Random(1000 + s)
        positions = [
            (
                min(0.999, max(0.001, rng.gauss(0.3 + 0.1 * (s % 4), 0.1))),
                min(0.999, max(0.001, rng.gauss(0.5, 0.15))),
                min(0.999, max(0.001, rng.gauss(0.4, 0.12))),
            )
            for _ in range(n)
        ]
        masses = [0.5 + rng.random() for _ in range(n)]
        root = _emit_ropes(rt, _build_octree(positions, masses))
        arrays = {name: rt.new_array(F32, n) for name in "px py pz ax ay az".split()}
        arrays["px"].fill_from(p[0] for p in positions)
        arrays["py"].fill_from(p[1] for p in positions)
        arrays["pz"].fill_from(p[2] for p in positions)
        body = rt.new("ForceBody")
        body.root = root
        for name, arr in arrays.items():
            setattr(body, name, arr)
        body.theta2 = THETA * THETA
        scenes.append(
            {"n": n, "body": body, "arrays": arrays, "tree": _tree_span(rt, root)}
        )
    return scenes


def _run_bh_batch(rt, scenes, graph_mode: bool):
    reports = []
    futures = []
    for scene in scenes:
        if graph_mode:
            arrays = scene["arrays"]
            futures.append(
                rt.submit(
                    scene["n"],
                    scene["body"],
                    reads=[
                        scene["tree"],
                        arrays["px"],
                        arrays["py"],
                        arrays["pz"],
                    ],
                    writes=[arrays["ax"], arrays["ay"], arrays["az"]],
                )
            )
        else:
            reports.append(rt.parallel_for_hetero(scene["n"], scene["body"]))
    if graph_mode:
        reports.extend(future.result() for future in futures)
    return reports


def measure_bh_batch(
    system: System = None, scale: float = 1.0
) -> OverlapPoint:
    from ..workloads.barneshut import BarnesHutWorkload

    system = system or ultrabook()
    workload = BarnesHutWorkload()

    sync_rt = BarnesHutWorkload.make_runtime(system=system)
    sync_scenes = _bh_scenes(sync_rt, workload, scale)
    sync_reports = _run_bh_batch(sync_rt, sync_scenes, False)

    graph_rt = BarnesHutWorkload.make_runtime(system=system, graph_placement="ect")
    g_scenes = _bh_scenes(graph_rt, workload, scale)
    _run_bh_batch(graph_rt, g_scenes, True)
    stats = graph_rt.wait()

    identical = all(
        all(
            ss["arrays"][name].to_list() == gs["arrays"][name].to_list()
            for name in ("ax", "ay", "az")
        )
        for ss, gs in zip(sync_scenes, g_scenes)
    )
    return OverlapPoint(
        scenario="BarnesHut-batch",
        constructs=len(sync_reports),
        sync_seconds=sum(r.seconds for r in sync_reports),
        graph_seconds=stats.wall_seconds,
        jit_ahead_seconds=stats.jit_ahead_seconds,
        identical=identical,
        device_busy=stats.device_busy,
    )


def measure_overlap(system: System = None, scale: float = 1.0) -> OverlapFigure:
    """Both pipeline scenarios, sync vs graph."""
    system = system or ultrabook()
    points = [
        measure_bfs_pipeline(system, scale),
        measure_bh_batch(system, scale),
    ]
    return OverlapFigure(
        title="Overlap: task-graph runtime vs synchronous submission",
        system=system.name,
        points=points,
    )
