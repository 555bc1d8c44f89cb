"""BTree search (Table 1: Rodinia, n-ary search tree with records at the
leaves).

The tree is built host-side out of pointer-linked nodes in SVM; the kernel
descends from the root for each query key.  Unbalanced fill makes the
search paths irregular, as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.types import I32
from ..runtime import ConcordRuntime, ExecutionReport
from .base import Workload, register
from .inputs import distinct_sorted_keys, random_keys

ORDER = 8  # max keys per node

SOURCE = """
class BTreeNode {
public:
  int keys[8];
  int num_keys;
  int is_leaf;
  BTreeNode* children[9];
  int values[8];
};

class SearchBody {
public:
  BTreeNode* root;
  int* queries;
  int* results;

  void operator()(int i) {
    int key = queries[i];
    BTreeNode* node = root;
    int found = -1;
    while (found == -1 && node != 0) {
      int k = 0;
      while (k < node->num_keys && key > node->keys[k]) {
        k++;
      }
      if (k < node->num_keys && node->keys[k] == key) {
        found = node->values[k];
        if (node->is_leaf == 0) {
          found = -1;
          node = node->children[k + 1];
        }
      } else if (node->is_leaf != 0) {
        node = 0;
      } else {
        node = node->children[k];
      }
    }
    results[i] = found;
  }
};
"""


@dataclass
class BTreeState:
    body: object
    queries: list[int]
    results: object
    table: dict[int, int]


@register
class BTreeWorkload(Workload):
    name = "BTree"
    origin = "Rodinia"
    data_structure = "tree"
    parallel_construct = "parallel_for_hetero"
    body_class = "SearchBody"
    input_description = "n-ary search tree with records on the leaves"
    source = SOURCE

    def sizes(self, scale: float) -> tuple[int, int]:
        keys = max(64, int(2000 * scale))
        queries = max(32, int(512 * scale))
        return keys, queries

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> BTreeState:
        num_keys, num_queries = self.sizes(scale)
        keys = distinct_sorted_keys(num_keys, num_keys * 8)
        table = {key: key * 2 + 1 for key in keys}
        root = _bulk_load(rt, keys, table)
        half_hits = random_keys(num_queries, num_keys * 8, seed=21)
        queries = [
            keys[q % len(keys)] if q % 2 == 0 else half_hits[q]
            for q in range(num_queries)
        ]
        queries_arr = rt.new_array(I32, num_queries)
        queries_arr.fill_from(queries)
        results = rt.new_array(I32, num_queries)
        body = rt.new("SearchBody")
        body.root = root
        body.queries = queries_arr
        body.results = results
        return BTreeState(body, queries, results, table)

    def run(self, rt, state: BTreeState, on_cpu: bool = False) -> list[ExecutionReport]:
        return [
            rt.parallel_for_hetero(len(state.queries), state.body, on_cpu=on_cpu)
        ]

    def validate(self, rt, state: BTreeState) -> None:
        got = state.results.to_list()
        for index, key in enumerate(state.queries):
            want = state.table.get(key, -1)
            assert got[index] == want, (index, key, got[index], want)


def _bulk_load(rt: ConcordRuntime, sorted_keys: list[int], table) -> object:
    """Build a leaf-valued search tree bottom-up from sorted keys."""

    def new_node():
        node = rt.new("BTreeNode")
        node.num_keys = 0
        node.is_leaf = 1
        return node

    # leaves: chunks of up to ORDER keys, deliberately uneven (alternating
    # chunk sizes) so search depth varies -> irregular paths
    leaves = []
    index = 0
    toggle = 0
    while index < len(sorted_keys):
        size = ORDER if toggle % 3 else max(2, ORDER // 2)
        chunk = sorted_keys[index : index + size]
        index += size
        toggle += 1
        leaf = new_node()
        leaf.num_keys = len(chunk)
        keys_view = leaf.view("keys")
        values_view = leaf.view("values")
        for pos, key in enumerate(chunk):
            keys_view[pos] = key
            values_view[pos] = table[key]
        leaves.append((chunk[0], leaf))

    level = leaves
    while len(level) > 1:
        parents = []
        index = 0
        while index < len(level):
            group = level[index : index + ORDER + 1]
            index += ORDER + 1
            parent = new_node()
            parent.is_leaf = 0
            children_view = parent.view("children")
            keys_view = parent.view("keys")
            children_view[0] = group[0][1].addr
            for pos, (sep_key, child) in enumerate(group[1:]):
                keys_view[pos] = sep_key
                children_view[pos + 1] = child.addr
            parent.num_keys = len(group) - 1
            parents.append((group[0][0], parent))
        level = parents
    return level[0][1]
