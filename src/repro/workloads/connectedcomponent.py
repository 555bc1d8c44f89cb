"""Connected components via topology-driven label propagation (Table 1:
Galois, W-USA road network).

Each pass propagates the minimum component label across edges with
``atomic_min``; the host iterates to a fixpoint.  The search pattern is
driven entirely by the input graph — irregular as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.types import I32
from ..runtime import ConcordRuntime, ExecutionReport
from .base import Workload, register
from .graphs import SvmGraph, graph_to_svm
from .inputs import road_network

SOURCE = """
class CcBody {
public:
  int* row_starts;
  int* columns;
  int* labels;
  int* changed;

  void operator()(int i) {
    int my_label = labels[i];
    int start = row_starts[i];
    int end = row_starts[i + 1];
    for (int e = start; e < end; e++) {
      int v = columns[e];
      int other = labels[v];
      if (other < my_label) {
        my_label = other;
      }
    }
    int old = atomic_min(&labels[i], my_label);
    if (my_label < old) {
      changed[0] = 1;
    }
  }
};
"""


@dataclass
class CcState:
    svm_graph: SvmGraph
    labels: object
    changed: object
    body: object


@register
class ConnectedComponentWorkload(Workload):
    name = "ConnectedComponent"
    origin = "Galois"
    data_structure = "graph"
    parallel_construct = "parallel_for_hetero"
    body_class = "CcBody"
    input_description = "road network with disconnected islands"
    source = SOURCE

    def make_graph(self, scale: float):
        # Lower shortcut fraction + higher edge dropout creates several
        # components, like disconnected road-network islands.
        side = max(4, int(20 * scale))
        return road_network(side, side, seed=29, shortcut_fraction=0.01)

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> CcState:
        graph = self.make_graph(scale)
        svm_graph = graph_to_svm(rt, graph)
        labels = rt.new_array(I32, graph.num_nodes)
        labels.fill_from(range(graph.num_nodes))
        changed = rt.new_array(I32, 1)
        body = rt.new("CcBody")
        body.row_starts = svm_graph.row_starts
        body.columns = svm_graph.columns
        body.labels = labels
        body.changed = changed
        return CcState(svm_graph, labels, changed, body)

    def run(self, rt, state: CcState, on_cpu: bool = False) -> list[ExecutionReport]:
        reports = []
        graph = state.svm_graph.graph
        for _ in range(graph.num_nodes + 1):
            state.changed[0] = 0
            reports.append(
                rt.parallel_for_hetero(graph.num_nodes, state.body, on_cpu=on_cpu)
            )
            if state.changed[0] == 0:
                break
        else:
            raise RuntimeError("label propagation did not converge")
        return reports

    def validate(self, rt, state: CcState) -> None:
        graph = state.svm_graph.graph
        expected = reference_components(graph)
        got = state.labels.to_list()
        # labels must equal the minimum node id of each component
        for node in range(graph.num_nodes):
            assert got[node] == expected[node], (node, got[node], expected[node])


def reference_components(graph):
    labels = [None] * graph.num_nodes
    for node in range(graph.num_nodes):
        if labels[node] is not None:
            continue
        stack = [node]
        members = []
        labels[node] = node
        while stack:
            current = stack.pop()
            members.append(current)
            for target, _ in graph.neighbours(current):
                if labels[target] is None:
                    labels[target] = node
                    stack.append(target)
    return labels
