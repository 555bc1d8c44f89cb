"""Single-source shortest path via Bellman-Ford (Table 1: Galois, W-USA,
weighted directed graph).

Rounds of edge relaxation over all nodes with ``atomic_min`` on distances;
the host iterates until a fixpoint.  Memory access patterns depend on the
input graph — the irregularity the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.types import I32
from ..runtime import ConcordRuntime, ExecutionReport
from .base import Workload, register
from .graphs import SvmGraph, graph_to_svm
from .inputs import road_network

INFINITY = 1 << 29

SOURCE = """
class SsspBody {
public:
  int* row_starts;
  int* columns;
  int* weights;
  int* dist;
  int* changed;

  void operator()(int i) {
    int my_dist = dist[i];
    if (my_dist < (1 << 29)) {
      int start = row_starts[i];
      int end = row_starts[i + 1];
      for (int e = start; e < end; e++) {
        int v = columns[e];
        int cand = my_dist + weights[e];
        int old = atomic_min(&dist[v], cand);
        if (cand < old) {
          changed[0] = 1;
        }
      }
    }
  }
};
"""


@dataclass
class SsspState:
    svm_graph: SvmGraph
    dist: object
    changed: object
    body: object
    source_node: int


@register
class SsspWorkload(Workload):
    name = "SSSP"
    origin = "Galois"
    data_structure = "graph"
    parallel_construct = "parallel_for_hetero"
    body_class = "SsspBody"
    input_description = "weighted road network (grid + shortcuts)"
    source = SOURCE

    def make_graph(self, scale: float):
        side = max(4, int(20 * scale))
        return road_network(side, side, seed=13)

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> SsspState:
        graph = self.make_graph(scale)
        svm_graph = graph_to_svm(rt, graph)
        dist = rt.new_array(I32, graph.num_nodes)
        dist.fill_from([INFINITY] * graph.num_nodes)
        dist[0] = 0
        changed = rt.new_array(I32, 1)
        body = rt.new("SsspBody")
        body.row_starts = svm_graph.row_starts
        body.columns = svm_graph.columns
        body.weights = svm_graph.weights
        body.dist = dist
        body.changed = changed
        return SsspState(svm_graph, dist, changed, body, 0)

    def run(self, rt, state: SsspState, on_cpu: bool = False) -> list[ExecutionReport]:
        reports = []
        graph = state.svm_graph.graph
        for _ in range(graph.num_nodes):
            state.changed[0] = 0
            reports.append(
                rt.parallel_for_hetero(graph.num_nodes, state.body, on_cpu=on_cpu)
            )
            if state.changed[0] == 0:
                break
        else:
            raise RuntimeError("negative cycle? Bellman-Ford did not converge")
        return reports

    def validate(self, rt, state: SsspState) -> None:
        graph = state.svm_graph.graph
        expected = reference_sssp(graph, state.source_node)
        got = state.dist.to_list()
        for node in range(graph.num_nodes):
            want = expected[node] if expected[node] is not None else INFINITY
            assert got[node] == want, (node, got[node], want)


def reference_sssp(graph, source: int):
    import heapq

    dist = [None] * graph.num_nodes
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if dist[node] is not None and d > dist[node]:
            continue
        for target, weight in graph.neighbours(node):
            cand = d + weight
            if dist[target] is None or cand < dist[target]:
                dist[target] = cand
                heapq.heappush(heap, (cand, target))
    return dist
