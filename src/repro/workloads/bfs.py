"""Breadth-first search (Table 1: Galois, W-USA road network, CSR graph).

Level-synchronized BFS: each ``parallel_for_hetero`` pass relaxes the
frontier at the current level; the host loops until no node changes.  The
compressed-row representation gives the data-dependent memory irregularity
the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.types import I32
from ..runtime import ConcordRuntime, ExecutionReport
from .base import Workload, register
from .graphs import SvmGraph, graph_to_svm
from .inputs import road_network

INFINITY = 1 << 30

SOURCE = """
class BfsBody {
public:
  int* row_starts;
  int* columns;
  int* dist;
  int* changed;
  int level;
  int num_nodes;

  void operator()(int i) {
    if (dist[i] == level) {
      int start = row_starts[i];
      int end = row_starts[i + 1];
      for (int e = start; e < end; e++) {
        int v = columns[e];
        if (dist[v] > level + 1) {
          dist[v] = level + 1;
          changed[0] = 1;
        }
      }
    }
  }
};
"""


@dataclass
class BfsState:
    svm_graph: SvmGraph
    dist: object
    changed: object
    body: object
    source_node: int


@register
class BfsWorkload(Workload):
    name = "BFS"
    origin = "Galois"
    data_structure = "graph"
    parallel_construct = "parallel_for_hetero"
    body_class = "BfsBody"
    input_description = "road network (grid + shortcuts), scaled W-USA analogue"
    source = SOURCE

    def make_graph(self, scale: float):
        side = max(4, int(24 * scale))
        return road_network(side, side)

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> BfsState:
        graph = self.make_graph(scale)
        svm_graph = graph_to_svm(rt, graph)
        dist = rt.new_array(I32, graph.num_nodes)
        dist.fill_from([INFINITY] * graph.num_nodes)
        source_node = 0
        dist[source_node] = 0
        changed = rt.new_array(I32, 1)
        body = rt.new("BfsBody")
        body.row_starts = svm_graph.row_starts
        body.columns = svm_graph.columns
        body.dist = dist
        body.changed = changed
        body.level = 0
        body.num_nodes = graph.num_nodes
        return BfsState(svm_graph, dist, changed, body, source_node)

    def run(self, rt, state: BfsState, on_cpu: bool = False) -> list[ExecutionReport]:
        reports = []
        graph = state.svm_graph.graph
        level = 0
        while True:
            state.changed[0] = 0
            state.body.level = level
            reports.append(
                rt.parallel_for_hetero(graph.num_nodes, state.body, on_cpu=on_cpu)
            )
            if state.changed[0] == 0:
                break
            level += 1
            if level > graph.num_nodes:
                raise RuntimeError("BFS failed to converge")
        return reports

    def validate(self, rt, state: BfsState) -> None:
        graph = state.svm_graph.graph
        expected = reference_bfs(graph, state.source_node)
        got = state.dist.to_list()
        for node in range(graph.num_nodes):
            want = expected[node] if expected[node] is not None else INFINITY
            assert got[node] == want, (node, got[node], want)


def reference_bfs(graph, source: int):
    from collections import deque

    dist = [None] * graph.num_nodes
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for target, _ in graph.neighbours(node):
            if dist[target] is None:
                dist[target] = dist[node] + 1
                queue.append(target)
    return dist
