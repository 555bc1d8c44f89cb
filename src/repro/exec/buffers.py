"""Compact runtime buffers shared by the execution engines.

Three pieces of infrastructure that keep the hot execution paths cheap:

* :class:`MemEventColumns` — the one memory-event layout every trace
  holds: parallel ``array`` columns of ints rather than one object per
  dynamic access.  Every engine appends five ints per access, and a
  launch reads the buffer as one array through :func:`event_rows`
  (plain iteration yields a :class:`MemEvent` per row).  This module is
  the only place that knows the stride-5 row layout: everything else
  goes through :func:`event_rows` or :meth:`MemEventColumns.from_rows`.

* :class:`LaunchTrace` — one launch's trace (a GPU launch, a CPU chunk
  or a reduction's joins) as NumPy columns: the memory events of every
  lane in one set of arrays, blocks x lanes count matrices and per-lane
  counter vectors.  It is the only trace above the engines: both
  generated-code engines build it from their event columns and per-unit
  execution counts (:meth:`LaunchTrace.from_unit_counts`), the reference
  interpreter concatenates its per-lane traces into one
  (:meth:`LaunchTrace.from_traces`), and the timing models, the
  runtime's ``trace_log``, the declared-set check and the fuzz
  signatures read the columns; per-lane
  :class:`~repro.exec.interp.ExecTrace` objects are a lazy view for the
  test oracles (:meth:`LaunchTrace.lanes`).

* :class:`PrivateMemoryPool` — recycles the private-memory (``alloca``)
  bytearray.  A fresh buffer is ~1 MiB of zeroed memory; an engine takes
  one for a launch (re-zeroing the written prefix between work-items) and
  the pool hands it back out after re-zeroing only the dirty prefix
  actually written by stores, which is what makes million-launch sweeps
  cheap.

``DEFAULT_MEM_EVENT_CAP`` is the single authoritative default for how many
memory events a trace retains; :class:`~repro.exec.interp.ExecTrace` and
:class:`~repro.runtime.runtime.ConcordRuntime` both derive from it so the
cap the runtime is built with is exactly the cap the traces enforce.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

#: One cap, threaded from the runtime into every trace it creates.  The
#: cache/coalescing models sample at most this many events per launch;
#: events beyond it are counted in ``mem_events_dropped``.
DEFAULT_MEM_EVENT_CAP = 120_000


def per_item_cap(budget: int, n: int, device: str) -> int:
    """The event cap of each work-item of an ``n``-lane launch on
    ``device`` under the launch's global ``budget``.  On the GPU it is an
    even share, but at least 1000 events so that short lanes stay
    representative; on the CPU it is the whole budget, so a chunk keeps
    its first ``budget`` events.  Every engine's launch applies it under
    the running total (once the work-items collectively reach ``budget``,
    later lanes record nothing)."""
    return budget if device == "cpu" else max(1000, budget // max(1, n))


#: Observer counter names for the entries of ``counter_totals()``, which
#: :class:`~repro.exec.interp.ExecTrace` (one lane or call) and
#: :class:`LaunchTrace` (one launch) both report, in this order.
TRACE_COUNTERS = (
    "engine.instructions",
    "engine.flops",
    "engine.int_ops",
    "engine.calls",
    "engine.translations",
    "mem_events.kept",
    "mem_events.dropped",
)


@dataclass
class MemEvent:
    """One dynamic memory access: the row object that iterating a
    :class:`MemEventColumns` yields."""

    instr_uid: int
    seq: int  # k-th dynamic execution of this instruction in this lane
    address: int  # CPU-space virtual address
    size: int
    is_store: bool


class MemEventColumns:
    """Columnar storage for dynamic memory-access events.

    One interleaved unsigned-64 array holds ``(instr_uid, seq, address,
    size, is_store)`` rows with stride 5, so the hot path appends a whole
    event with a single ``fromlist`` call.  Every field is non-negative by
    construction (uids and seqs are counters, addresses and sizes are
    masked to 64 bits).  Iteration yields :class:`MemEvent` rows; hot
    consumers should use :func:`event_rows` to read the rows without
    materializing objects.
    """

    __slots__ = ("data",)

    STRIDE = 5

    def __init__(self):
        self.data = array("Q")

    @classmethod
    def from_rows(cls, rows) -> "MemEventColumns":
        """A buffer holding the given ``(k, 5)`` unsigned-64 event rows
        (the inverse of :func:`event_rows`)."""
        columns = cls()
        columns.data.frombytes(np.ascontiguousarray(rows, np.uint64).tobytes())
        return columns

    def append_raw(
        self, instr_uid: int, seq: int, address: int, size: int, is_store: bool
    ) -> None:
        self.data.fromlist([instr_uid, seq, address, size, 1 if is_store else 0])

    def __len__(self) -> int:
        return len(self.data) // 5

    def __iter__(self):
        data = self.data
        for i in range(0, len(data), 5):
            yield MemEvent(
                data[i], data[i + 1], data[i + 2], data[i + 3], bool(data[i + 4])
            )


def event_rows(events: MemEventColumns) -> np.ndarray:
    """A trace's memory events as a ``(k, 5)`` unsigned-64 array of
    ``(instr_uid, seq, address, size, is_store)`` rows: a view of the
    buffer, which cannot grow while the view is alive."""
    return np.frombuffer(events.data, np.uint64).reshape(-1, 5)


#: The dtype of each :class:`LaunchTrace` event column: the narrowest that
#: holds every value exactly, 26 bytes per kept event.  ``lane`` is below
#: the launch size and ``seq`` below the step limit; ``uid`` stays 64-bit
#: because instruction ids come from a process-wide counter that a
#: long-lived daemon can run past 2**31.
EVENT_DTYPES = {
    "lane": np.int32,
    "uid": np.int64,
    "seq": np.int32,
    "address": np.uint64,
    "size": np.uint8,
    "is_store": np.uint8,
}


def event_column(name: str, values) -> np.ndarray:
    """``values`` in the dtype of event column ``name``; a value that does
    not fit raises :class:`OverflowError`, so a column never wraps."""
    dtype = np.dtype(EVENT_DTYPES[name])
    values = np.asarray(values)
    if values.dtype != dtype and len(values):
        info = np.iinfo(dtype)
        if values.min() < info.min or values.max() > info.max:
            raise OverflowError(f"a {name} value does not fit {dtype.name}")
    return values.astype(dtype, copy=False)


def launch_events(data, kept, dropped, caps) -> dict:
    """The event and cap fields of a :class:`LaunchTrace` from the
    launch's stride-5 event rows (``data``: a flat buffer or ``(k, 5)``
    array, lane-major) and one ``kept`` / ``dropped`` / ``caps`` entry per
    lane."""
    rows = np.asarray(data, np.uint64).reshape(-1, 5)
    kept = np.array(kept, np.int64)
    return dict(
        lane=np.repeat(event_column("lane", np.arange(len(kept))), kept),
        uid=event_column("uid", rows[:, 0]),
        seq=event_column("seq", rows[:, 1]),
        address=np.ascontiguousarray(rows[:, 2]),
        size=event_column("size", rows[:, 3]),
        is_store=event_column("is_store", rows[:, 4]),
        kept=kept,
        dropped=np.array(dropped, np.int64),
        caps=np.array(caps, np.int64),
    )


def _rows_by_uid(n: int, per_lane: list, width: int) -> tuple:
    """Per-lane dicts ``uid -> value`` (``width`` ints each) as ascending
    uids and a ``width x uids x n`` matrix, zero where a lane lacks one."""
    uids = np.fromiter(chain.from_iterable(per_lane), np.int64)
    values = np.array(
        list(chain.from_iterable(lane.values() for lane in per_lane)), np.int64
    ).reshape(len(uids), width)
    keys, row = np.unique(uids, return_inverse=True)
    matrix = np.zeros((width, len(keys), n), np.int64)
    matrix[:, row, np.repeat(np.arange(n), list(map(len, per_lane)))] = values.T
    return keys, matrix


@dataclass(eq=False)
class LaunchTrace:
    """One launch's execution trace, columnar across all its lanes: a GPU
    launch, a CPU chunk, or a reduction's joins.

    * ``lane, uid, seq, address, size, is_store`` — one entry per retained
      memory event, lane-major (``lane`` is non-decreasing) and
      chronological within a lane: exactly the per-lane event lists laid
      end to end.
    * ``kept, dropped, caps`` — per lane: events retained, events counted
      but dropped past the cap, and the cap that lane ran under.
    * ``block_uids`` / ``block_counts`` — a blocks x lanes matrix of
      executed-block counts, and ``branch_uids`` / ``branch_taken`` /
      ``branch_total`` the conditional branches' outcome matrices.  Both
      constructors put the rows in ascending uid order, whichever engine
      ran the lanes.
    * ``instructions, flops, int_ops, translations, calls`` — per-lane
      counter vectors.

    ``n`` is the number of lanes.  Each event column has its
    :data:`EVENT_DTYPES` width (``lane`` and ``seq`` int32, ``uid`` int64,
    ``address`` uint64, ``size`` and ``is_store`` uint8), so a consumer
    widens before arithmetic that could leave it; the per-lane and
    matrix columns are int64.
    """

    n: int
    lane: np.ndarray
    uid: np.ndarray
    seq: np.ndarray
    address: np.ndarray
    size: np.ndarray
    is_store: np.ndarray
    kept: np.ndarray
    dropped: np.ndarray
    caps: np.ndarray
    block_uids: np.ndarray
    block_counts: np.ndarray
    branch_uids: np.ndarray
    branch_taken: np.ndarray
    branch_total: np.ndarray
    instructions: np.ndarray
    flops: np.ndarray
    int_ops: np.ndarray
    translations: np.ndarray
    calls: np.ndarray
    #: the per-lane view, once built (or the traces this one was adapted from)
    per_lane: Optional[list] = None

    @classmethod
    def from_traces(cls, traces) -> "LaunchTrace":
        """Adapt per-lane traces by concatenation — the reference
        interpreter's launches (:meth:`~repro.exec.interp.Interpreter.run_launch`),
        its only caller outside the tests, and the oracle
        :meth:`from_unit_counts` is tested against.  The given traces stay
        the per-lane view."""
        traces = list(traces)
        n = len(traces)
        chunks = [event_rows(trace.mem_events) for trace in traces]
        kept = list(map(len, chunks))
        rows = np.concatenate(chunks) if n else np.empty((0, 5), np.uint64)
        del chunks  # release the buffer exports
        scalars = np.array(
            [
                (
                    t.instructions,
                    t.flops,
                    t.int_ops,
                    t.translations,
                    t.calls,
                    t.mem_events_dropped,
                    t.mem_event_cap,
                )
                for t in traces
            ],
            np.int64,
        ).reshape(n, 7)
        block_uids, (block_counts,) = _rows_by_uid(
            n, [trace.block_counts for trace in traces], 1
        )
        branch_uids, (branch_taken, branch_total) = _rows_by_uid(
            n, [trace.branch_stats for trace in traces], 2
        )
        return cls(
            n=n,
            per_lane=traces,
            **launch_events(rows, kept, scalars[:, 5], scalars[:, 6]),
            block_uids=block_uids,
            block_counts=block_counts,
            branch_uids=branch_uids,
            branch_taken=branch_taken,
            branch_total=branch_total,
            instructions=scalars[:, 0],
            flops=scalars[:, 1],
            int_ops=scalars[:, 2],
            translations=scalars[:, 3],
            calls=scalars[:, 4],
        )

    @classmethod
    def from_unit_counts(cls, n, events: dict, functions) -> "LaunchTrace":
        """The trace of a launch a generated-code engine ran, from what
        both of them collect: the event and cap fields (``events``, as
        :func:`launch_events` spells them) and the unit execution counts
        of every function the launch entered.  Equal, row order included,
        to :meth:`from_traces` over the same lanes traced one by one.

        ``functions`` lists ``(units, lanes, counts, taken)``: the
        function's per-unit totals, the lanes that entered it (ascending),
        and their ``len(lanes) x len(units)`` execution and taken-branch
        counts.  Every per-lane counter is the counts matrix times the
        per-unit totals."""
        counters = np.zeros((5, n), np.int64)
        blocks = []  # (uid, per-lane counts)
        branches = []  # (branch uid, per-lane taken, per-lane total)
        for units, lanes, counts, taken in functions:
            totals = np.array(
                [
                    (u.d_instr, u.d_flops, u.d_int_ops, u.d_translations, u.d_calls)
                    for u in units
                ],
                np.int64,
            ).reshape(len(units), 5)
            counters[:, lanes] += (counts @ totals).T
            for index in np.flatnonzero(counts.any(axis=0)).tolist():
                unit = units[index]
                dense = np.zeros(n, np.int64)
                dense[lanes] = counts[:, index]
                blocks.extend((uid, dense) for uid in unit.uid_list)
                if unit.branch_uid >= 0:
                    branch_taken = np.zeros(n, np.int64)
                    branch_taken[lanes] = taken[:, index]
                    branches.append((unit.branch_uid, branch_taken, dense))
        blocks.sort(key=lambda entry: entry[0])
        branches.sort(key=lambda entry: entry[0])
        none = np.zeros((0, n), np.int64)  # vstack needs one array
        return cls(
            n=n,
            **events,
            block_uids=np.array([uid for uid, _row in blocks], np.int64),
            block_counts=np.vstack([none, *(row for _uid, row in blocks)]),
            branch_uids=np.array([uid for uid, _t, _c in branches], np.int64),
            branch_taken=np.vstack([none, *(taken for _u, taken, _c in branches)]),
            branch_total=np.vstack([none, *(total for _u, _t, total in branches)]),
            instructions=counters[0],
            flops=counters[1],
            int_ops=counters[2],
            translations=counters[3],
            calls=counters[4],
        )

    @property
    def kept_events(self) -> int:
        """Mem events retained across the whole launch."""
        return len(self.uid)

    def counter_totals(self) -> tuple:
        """The launch's :data:`TRACE_COUNTERS` totals."""
        return (
            int(self.instructions.sum()),
            int(self.flops.sum()),
            int(self.int_ops.sum()),
            int(self.calls.sum()),
            int(self.translations.sum()),
            self.kept_events,
            int(self.dropped.sum()),
        )

    def block_totals(self) -> dict:
        """Executed-block histogram merged over the lanes, in row (uid)
        order."""
        totals = self.block_counts.sum(axis=1).tolist()
        return {
            uid: total for uid, total in zip(self.block_uids.tolist(), totals) if total
        }

    def lanes(self) -> list:
        """The per-lane :class:`~repro.exec.interp.ExecTrace` view, built
        on first use.  Only the test oracles, which compare launches lane
        by lane, pay for it; nothing in the runtime asks for it."""
        if self.per_lane is None:
            from .interp import ExecTrace

            block_items = list(
                zip(self.block_uids.tolist(), self.block_counts.tolist())
            )
            branch_items = list(
                zip(
                    self.branch_uids.tolist(),
                    self.branch_taken.tolist(),
                    self.branch_total.tolist(),
                )
            )
            rows = np.empty((len(self.uid), 5), np.uint64)
            for column, values in enumerate(
                (self.uid, self.seq, self.address, self.size, self.is_store)
            ):
                rows[:, column] = values
            ends = np.cumsum(self.kept).tolist()
            fields = (
                "mem_event_cap",
                "mem_events_dropped",
                "instructions",
                "flops",
                "int_ops",
                "translations",
                "calls",
            )
            vectors = (
                self.caps,
                self.dropped,
                self.instructions,
                self.flops,
                self.int_ops,
                self.translations,
                self.calls,
            )
            scalars = zip(*(vector.tolist() for vector in vectors))
            lanes = [
                ExecTrace(
                    block_counts={
                        uid: row[lane] for uid, row in block_items if row[lane]
                    },
                    branch_stats={
                        uid: [taken[lane], total[lane]]
                        for uid, taken, total in branch_items
                        if total[lane]
                    },
                    mem_events=MemEventColumns.from_rows(rows[end - kept : end]),
                    **dict(zip(fields, values)),
                )
                for lane, (kept, end, values) in enumerate(
                    zip(self.kept.tolist(), ends, scalars)
                )
            ]
            self.per_lane = lanes
        return self.per_lane


class PrivateMemoryPool:
    """Recycles zeroed private-memory buffers across kernel launches.

    ``acquire`` returns an all-zero buffer (freshly allocated or recycled);
    ``release`` takes the buffer back together with the caller's dirty
    high-water mark and re-zeroes only that prefix.  Kernels whose allocas
    were all promoted by ``mem2reg`` never touch the pool at all.
    """

    __slots__ = ("size", "_free", "counters")

    def __init__(self, size: int, counters=None):
        self.size = size
        self._free: list[bytearray] = []
        # Optional repro.obs.CounterRegistry; publishes
        # private_pool.reuse / private_pool.alloc when attached.
        self.counters = counters

    def acquire(self) -> bytearray:
        if self._free:
            if self.counters is not None:
                self.counters.add("private_pool.reuse")
            return self._free.pop()
        if self.counters is not None:
            self.counters.add("private_pool.alloc")
        return bytearray(self.size)

    def release(self, buffer: bytearray, dirty: int = 0) -> None:
        if buffer is None or len(buffer) != self.size:
            return
        if dirty > 0:
            dirty = min(dirty, self.size)
            buffer[:dirty] = bytes(dirty)
        self._free.append(buffer)
