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
    starts = np.empty(len(sorted_keys[0]), bool)
    starts[:1] = True
    starts[1:] = sorted_keys[0][1:] != sorted_keys[0][:-1]
    for key in sorted_keys[1:]:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def nested_runs(keys, depths, bounds=None):
    """Indices that sort the rows by ``keys[0]``, then ``keys[1]``, ...,
    rows with equal keys staying in their original order; and per depth
    ``d`` of ``depths``, the mask of the sorted positions that start a
    run of equal ``keys[:d]``.

    The keys, each range-reduced to its bit width (widened to int64
    before it is shifted: a trace's ``lane`` and ``seq`` are int32), are
    packed first key highest above the row index into one int64 per row
    and sorted as plain integers.  The row index sits in the low bits,
    so it is both the tie-break — equal keys order by position, which is
    what makes the order *stable* whatever sort NumPy runs — and the
    answer; the runs of ``keys[:d]`` are the runs of the packed values
    shifted past the fields of the other keys.  Rows wider than 62 bits
    fall back to ``np.lexsort`` (stable by contract).  ``bounds``, one
    ``(low, high)`` per key that no value lies outside, spares working
    the ranges out again when the caller knows them."""
    n, k = len(keys[0]), len(keys)
    index_bits = (n - 1).bit_length() or 1
    starts = [0] * k  # per key, the bit its field starts at
    used = index_bits
    packed = np.arange(n, dtype=np.int64)
    for at in range(k - 1, -1, -1):  # the last key varies fastest
        key = keys[at]
        starts[at] = used
        if n:
            if bounds is None:
                low, high = int(np.minimum.reduce(key)), int(np.maximum.reduce(key))
            else:
                low, high = bounds[at]
            width = (high - low).bit_length()
            if width and used + width <= _PACKED_BITS:
                field = np.subtract(key, low, dtype=np.int64)
                field <<= used
                packed += field
            used += width
    if used > _PACKED_BITS:
        order = np.lexsort(keys[::-1])
        return order, [run_starts(*(key[order] for key in keys[:d])) for d in depths]
    packed.sort()
    masks = []
    for d in depths:
        head = packed >> starts[d - 1]
        mask = np.empty(n, bool)
        mask[:1] = True
        mask[1:] = head[1:] != head[:-1]
        masks.append(mask)
    packed &= (1 << index_bits) - 1
    return packed, masks


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
        by_set, () = nested_runs((sequence % self.num_sets,), (), ((0, self.num_sets - 1),))
        line = sequence[by_set]
        # An immediate repeat within a set always hits and changes nothing.
        # (Equal neighbours are in one set: the set is a function of the
        # line.)
        kept = run_starts(line).nonzero()[0]
        line = line[kept]
        m = len(line)

        # previous / next access to the same line, as positions in ``line``
        by_line, (new_line,) = nested_runs((line,), (1,))
        same = ~new_line[1:]
        earlier, later = by_line[:-1][same], by_line[1:][same]
        previous = np.empty(m, np.int64)
        previous.fill(-1)
        previous[later] = earlier
        following = np.empty(m, np.int64)
        following.fill(m)
        following[earlier] = later
        del by_line, new_line, same, earlier, later

        # A set's accesses are contiguous and in time order, so the
        # window of an access is the slice between it and ``previous``.
        window = np.arange(-1, m - 1) - previous
        seen = previous >= 0
        hit = seen & (window < assoc)
        # Longer windows: count their distinct lines as the positions
        # whose line is not touched again before the access.
        undecided = (seen & (window >= assoc)).nonzero()[0]
        if len(undecided):
            hit[undecided] = self._few_distinct(
                following, previous[undecided] + 1, undecided
            )

        # New state: per set, the last ``assoc`` last-occurrences.
        last = (following == m).nonzero()[0]
        set_start = run_starts(line[last] % self.num_sets).nonzero()[0]
        set_end = np.empty(len(set_start), np.int64)
        set_end[:-1] = set_start[1:]
        set_end[-1:] = len(last)
        from_end = set_end.repeat(set_end - set_start) - np.arange(len(last))
        self.resident = line[last[from_end <= assoc]]

        # the dropped immediate repeats hit
        out = np.ones(len(sequence), bool)
        out[by_set[kept]] = hit
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
