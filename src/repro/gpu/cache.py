"""Set-associative LRU cache model (shared by the GPU L3 and CPU LLC),
evaluated on whole line sequences.

The model is *defined* by reuse distance: an access to a line hits iff
fewer than ``assoc`` distinct lines of its set were touched since the
previous access to the same line (``docs/MODEL.md``, *The LRU*).  That
is what a per-access walk over one recency list per set computes — the
walk lives in ``tests/oracles.py`` — but stated over the sequence it
can be decided with array operations for a whole launch at once.
"""

from __future__ import annotations

import numpy as np

#: a packed sort key keeps clear of the sign bit and of ``np.int64``'s
#: last value bit, so sums of shifted fields cannot wrap
_PACKED_BITS = 62


def run_starts(*sorted_keys) -> np.ndarray:
    """Mask of the positions where any of the (co-sorted) key columns
    changes — the first element of every run of equal keys."""
    same = np.ones(max(0, len(sorted_keys[0]) - 1), bool)
    for key in sorted_keys:
        same &= key[1:] == key[:-1]
    return np.concatenate(([True], ~same))[: len(sorted_keys[0])]


def _sorted_packed(keys):
    """The rows' (range-reduced) integer key columns packed, first key
    highest, above the row index into one int64 per row and sorted, with
    the number of index bits — or ``None`` when a row takes more than 62
    bits.  A key may be narrower than int64 (a trace's ``lane`` and
    ``seq`` are int32): each field is widened before it is shifted."""
    n = len(keys[0])
    index_bits = max(1, (n - 1).bit_length())
    fields = []
    used = index_bits
    for key in reversed(keys):  # the last key varies fastest
        low = int(key.min()) if n else 0
        fields.append((key, low, used))
        used += (int(key.max()) - low).bit_length() if n else 0
    if used > _PACKED_BITS:
        return None
    packed = np.arange(n, dtype=np.int64)
    for key, low, shift in fields:
        field = np.subtract(key, low, dtype=np.int64)
        field <<= shift
        packed += field
    packed.sort()
    return packed, index_bits


def stable_order(*keys) -> np.ndarray:
    """Indices that sort the rows by ``keys[0]``, then ``keys[1]``, ...,
    rows with equal keys staying in their original order.

    The packed rows (:func:`_sorted_packed`) are sorted as plain
    integers.  The row index sits in the low bits, so it is both the
    tie-break — equal keys order by position, which is what makes the
    order *stable* whatever sort NumPy runs — and the answer.  Keys too
    wide to pack fall back to ``np.lexsort`` (stable by contract)."""
    packed = _sorted_packed(keys)
    if packed is None:
        return np.lexsort(keys[::-1])
    rows, index_bits = packed
    rows &= (1 << index_bits) - 1
    return rows


def stable_runs(*keys):
    """:func:`stable_order`, and the mask of the sorted positions that
    start a run of equal keys."""
    packed = _sorted_packed(keys)
    if packed is None:
        order = np.lexsort(keys[::-1])
        return order, run_starts(*(key[order] for key in keys))
    rows, index_bits = packed
    starts = run_starts(rows >> index_bits)
    rows &= (1 << index_bits) - 1
    return rows, starts


class CacheModel:
    """LRU set-associative cache over line ids (``address // line_size``).

    The state carried between :meth:`touch` calls is :attr:`resident`:
    every set's resident lines, sets ascending and each set's lines from
    least to most recently used — a line sequence that, replayed into an
    empty cache, leaves exactly this cache."""

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int):
        if size_bytes % (line_bytes * assoc) != 0:
            raise ValueError("cache size must be a multiple of line*assoc")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (line_bytes * assoc)
        self.resident = np.zeros(0, np.int64)

    def touch(self, lines) -> np.ndarray:
        """Touch the given line ids in order; returns the hit mask."""
        lines = np.asarray(lines, np.int64)
        if not len(lines):
            return np.zeros(0, bool)
        assoc = self.assoc
        carried = len(self.resident)
        # Replaying the carried state first makes "since the previous
        # access" see the lines an earlier call left resident.
        sequence = np.concatenate((self.resident, lines))
        by_set = stable_order(sequence % self.num_sets)
        line = sequence[by_set]
        # An immediate repeat within a set always hits and changes nothing.
        # (Equal neighbours are in one set: the set is a function of the
        # line.)
        kept = np.flatnonzero(run_starts(line))
        line = line[kept]
        m = len(line)

        # previous / next access to the same line, as positions in ``line``
        by_line, new_line = stable_runs(line)
        same = ~new_line[1:]
        previous = np.full(m, -1)
        previous[by_line[1:][same]] = by_line[:-1][same]
        following = np.full(m, m)
        following[by_line[:-1][same]] = by_line[1:][same]

        # A set's accesses are contiguous and in time order, so the
        # window of an access is the slice between it and ``previous``.
        position = np.arange(m)
        window = position - previous - 1
        hit = (previous >= 0) & (window < assoc)
        # Longer windows: count their distinct lines as the positions
        # whose line is not touched again before the access.
        undecided = np.flatnonzero((previous >= 0) & (window >= assoc))
        if len(undecided):
            hit[undecided] = self._few_distinct(
                following, previous[undecided] + 1, undecided
            )

        # New state: per set, the last ``assoc`` last-occurrences.
        last = np.flatnonzero(following == m)
        set_start = np.flatnonzero(run_starts(line[last] % self.num_sets))
        set_end = np.append(set_start[1:], len(last))
        from_end = np.repeat(set_end, set_end - set_start) - np.arange(len(last))
        self.resident = line[last[from_end <= assoc]]

        hit_by_set = np.ones(len(sequence), bool)
        hit_by_set[kept] = hit
        out = np.empty(len(sequence), bool)
        out[by_set] = hit_by_set
        return out[carried:]

    def _few_distinct(self, following, start, end) -> np.ndarray:
        """For each window ``[start, end)``: do fewer than ``assoc`` of
        its positions have ``following > end`` (a line's last touch
        inside the window — one per distinct line)?

        Windows are read backward from their end, where every line met
        for the first time counts at once, so a window is decided as
        early as it can be: at ``assoc`` counted, or at its start.  All
        open windows advance in lock-step, a block of positions a round,
        the block doubling; windows still open after the rounds — many
        accesses, few lines — are counted on what is left of their
        slice."""
        assoc = self.assoc
        few = np.zeros(len(end), bool)
        # Per open window: which one it is, what it has counted, and where
        # its unread part ends.
        which = np.arange(len(end))
        counted = np.zeros(len(end), np.int64)
        top = end
        step = 2 * assoc
        for _ in range(_LOCKSTEP_ROUNDS):
            back = np.arange(1, step + 1)
            rows = max(1, _BLOCK_POSITIONS // step)
            for slab in range(0, len(which), rows):  # bounds the temporaries
                slab = slice(slab, slab + rows)
                at = top[slab, None] - back
                inside = at >= start[slab, None]
                np.maximum(at, start[slab, None], out=at)
                inside &= following[at] > end[slab, None]
                counted[slab] += inside.sum(axis=1)
            top = top - step
            done = (counted >= assoc) | (top <= start)
            few[which[done]] = counted[done] < assoc
            if done.all():
                return few
            which, counted, top, start, end = (
                column[~done] for column in (which, counted, top, start, end)
            )
            step *= 2
        for index, lo, hi, limit, seen in zip(which, start, top, end, counted):
            few[index] = seen + np.count_nonzero(following[lo:hi] > limit) < assoc
        return few


#: lock-step rounds of :meth:`CacheModel._few_distinct`; their blocks
#: reach ``2 * assoc * (2 ** rounds - 1)`` positions back
_LOCKSTEP_ROUNDS = 6
#: positions one step of a round reads at once (512 KiB of int64)
_BLOCK_POSITIONS = 1 << 16
