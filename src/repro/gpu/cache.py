"""Set-associative LRU cache model (shared by the GPU L3 and CPU LLC)."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


class CacheModel:
    """LRU set-associative cache over line ids (``address // line_size``)."""

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int):
        if size_bytes % (line_bytes * assoc) != 0:
            raise ValueError("cache size must be a multiple of line*assoc")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (line_bytes * assoc)
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, line: int) -> bool:
        """Touch a line; returns True on hit."""
        bucket = self._sets[line % self.num_sets]
        if line in bucket:
            bucket.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        bucket[line] = True
        if len(bucket) > self.assoc:
            bucket.popitem(last=False)
        return False

    def publish(self, counters, prefix: str) -> None:
        """Fold the current hit/miss totals into an observability counter
        registry under ``<prefix>.hits`` / ``<prefix>.misses``.  Kept out
        of :meth:`access` so the hot path never pays for metrics."""
        counters.add(f"{prefix}.hits", self.stats.hits)
        counters.add(f"{prefix}.misses", self.stats.misses)
