"""Skip list search (Table 1: in-house, hierarchy of linked lists,
O(log n) expected search).

The skip list is built host-side with geometric level assignment; the
kernel walks the level hierarchy for each query.  Intermediate linked-list
traversal depends on the data — the paper's cited irregularity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..ir.types import I32
from ..runtime import ConcordRuntime, ExecutionReport
from .base import Workload, register
from .inputs import distinct_sorted_keys, random_keys

MAX_LEVEL = 8

SOURCE = """
class SkipNode {
public:
  int key;
  int value;
  int height;
  SkipNode* next[8];
};

class SkipSearchBody {
public:
  SkipNode* head;
  int max_level;
  int* queries;
  int* results;

  void operator()(int i) {
    int key = queries[i];
    SkipNode* node = head;
    int level = max_level - 1;
    while (level >= 0) {
      SkipNode* ahead = node->next[level];
      while (ahead != 0 && ahead->key < key) {
        node = ahead;
        ahead = node->next[level];
      }
      level--;
    }
    SkipNode* candidate = node->next[0];
    if (candidate != 0 && candidate->key == key) {
      results[i] = candidate->value;
    } else {
      results[i] = -1;
    }
  }
};
"""


@dataclass
class SkipListState:
    body: object
    queries: list[int]
    results: object
    table: dict[int, int]


@register
class SkipListWorkload(Workload):
    name = "SkipList"
    origin = "In-house"
    data_structure = "linked-list"
    parallel_construct = "parallel_for_hetero"
    body_class = "SkipSearchBody"
    input_description = "skip list with geometric level distribution"
    source = SOURCE

    def sizes(self, scale: float) -> tuple[int, int]:
        keys = max(64, int(1500 * scale))
        queries = max(32, int(512 * scale))
        return keys, queries

    def build(self, rt: ConcordRuntime, scale: float = 1.0) -> SkipListState:
        num_keys, num_queries = self.sizes(scale)
        keys = distinct_sorted_keys(num_keys, num_keys * 6, seed=17)
        table = {key: key ^ 0x5A5A for key in keys}
        rng = random.Random(99)

        head = rt.new("SkipNode")
        head.key = -1
        head.height = MAX_LEVEL
        # build sorted: track last node per level
        last = [head] * MAX_LEVEL
        for key in keys:
            height = 1
            while height < MAX_LEVEL and rng.random() < 0.5:
                height += 1
            node = rt.new("SkipNode")
            node.key = key
            node.value = table[key]
            node.height = height
            for level in range(height):
                last[level].set_item("next", level, node.addr)
                last[level] = node

        half_hits = random_keys(num_queries, num_keys * 6, seed=23)
        queries = [
            keys[q % len(keys)] if q % 2 == 0 else half_hits[q]
            for q in range(num_queries)
        ]
        queries_arr = rt.new_array(I32, num_queries)
        queries_arr.fill_from(queries)
        results = rt.new_array(I32, num_queries)
        body = rt.new("SkipSearchBody")
        body.head = head
        body.max_level = MAX_LEVEL
        body.queries = queries_arr
        body.results = results
        return SkipListState(body, queries, results, table)

    def run(self, rt, state: SkipListState, on_cpu: bool = False) -> list[ExecutionReport]:
        return [
            rt.parallel_for_hetero(len(state.queries), state.body, on_cpu=on_cpu)
        ]

    def validate(self, rt, state: SkipListState) -> None:
        got = state.results.to_list()
        for index, key in enumerate(state.queries):
            want = state.table.get(key, -1)
            assert got[index] == want, (index, key, got[index], want)
