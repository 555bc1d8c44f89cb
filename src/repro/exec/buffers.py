"""Compact runtime buffers shared by the execution engines.

Three pieces of infrastructure that keep the hot execution paths cheap:

* :class:`MemEventColumns` — a columnar memory-event buffer (parallel
  ``array`` columns of ints rather than one ``MemEvent`` object per dynamic
  access).  The threaded-code engine appends five ints per access instead
  of allocating an object; both timing models read either
  representation as one array through :func:`event_rows` (plain
  iteration adapts each row back into a ``MemEvent``).  This module is
  the only place that knows the stride-5 row layout: everything else
  goes through :func:`event_rows`, :meth:`MemEventColumns.from_rows` or
  :func:`iter_access_events`.

* :class:`LaunchTrace` — one GPU launch's trace as NumPy columns: the
  memory events of every lane in one set of arrays, a blocks x lanes
  count matrix and per-lane counter vectors.  The vector engine builds
  it straight from its event records, the generated-code engine from its
  launch's one event buffer and harvested unit counts
  (:meth:`LaunchTrace.from_unit_counts`), the reference interpreter's
  per-lane traces are concatenated into one
  (:meth:`LaunchTrace.from_traces`), and the GPU timing model computes on
  the columns; per-lane :class:`~repro.exec.interp.ExecTrace` objects are
  a lazy view (:meth:`LaunchTrace.lanes`).

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
from typing import Optional

import numpy as np

#: One cap, threaded from the runtime into every trace it creates.  The
#: cache/coalescing models sample at most this many events per launch;
#: events beyond it are counted in ``mem_events_dropped``.
DEFAULT_MEM_EVENT_CAP = 120_000

#: Observer counter names for the entries of ``counter_totals()``, which
#: :class:`~repro.exec.interp.ExecTrace` (one lane or chunk) and
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


class MemEventColumns:
    """Columnar storage for dynamic memory-access events.

    One interleaved unsigned-64 array holds ``(instr_uid, seq, address,
    size, is_store)`` rows with stride 5, so the hot path appends a whole
    event with a single ``extend`` call.  Every field is non-negative by
    construction (uids and seqs are counters, addresses and sizes are
    masked to 64 bits).  Iteration yields ``MemEvent`` objects so existing
    consumers work unchanged; hot consumers should use :func:`event_rows`
    to read the rows without materializing objects.
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
        self.data.extend((instr_uid, seq, address, size, 1 if is_store else 0))

    def append(self, event) -> None:
        """Object-style append, so code written against the list
        representation (``ExecTrace.record_mem``/``merge``) works on
        columns too."""
        self.append_raw(
            event.instr_uid, event.seq, event.address, event.size, event.is_store
        )

    def __len__(self) -> int:
        return len(self.data) // 5

    def __iter__(self):
        from .interp import MemEvent

        data = self.data
        for i in range(0, len(data), 5):
            yield MemEvent(
                data[i], data[i + 1], data[i + 2], data[i + 3], bool(data[i + 4])
            )


def event_rows(events) -> np.ndarray:
    """A trace's memory events as a ``(k, 5)`` unsigned-64 array of
    ``(instr_uid, seq, address, size, is_store)`` rows, whichever
    representation holds them.  For columnar storage the result is a view
    of the buffer, which cannot grow while the view is alive."""
    if isinstance(events, MemEventColumns):
        return np.frombuffer(events.data, np.uint64).reshape(-1, 5)
    return np.array(
        [(e.instr_uid, e.seq, e.address, e.size, e.is_store) for e in events],
        np.uint64,
    ).reshape(-1, 5)


def iter_access_events(trace):
    """Stream a trace's memory events as ``(address, size, is_store)``
    tuples, whichever representation the trace holds (the declared-set
    replay needs exactly these three fields)."""
    events = trace.mem_events
    if isinstance(events, MemEventColumns):
        data = events.data
        return zip(data[2::5], data[3::5], data[4::5])
    return ((e.address, e.size, e.is_store) for e in events)


@dataclass(eq=False)
class LaunchTrace:
    """One GPU launch's execution trace, columnar across all its lanes.

    * ``lane, uid, seq, address, size, is_store`` — one entry per retained
      memory event, lane-major (``lane`` is non-decreasing) and
      chronological within a lane: exactly the per-lane event lists laid
      end to end.
    * ``kept, dropped, caps`` — per lane: events retained, events counted
      but dropped past the cap, and the cap that lane ran under.
    * ``block_uids`` / ``block_counts`` — a blocks x lanes matrix of
      executed-block counts.  Rows follow the order in which the per-lane
      ``block_counts`` dicts list their keys, so :meth:`lanes` and
      :meth:`block_totals` reproduce those dicts and their merge
      key-for-key; consumers that need a canonical order sort the uids.
    * ``branch_uids`` / ``branch_taken`` / ``branch_total`` — conditional
      branch outcome matrices, carried only for the per-lane view (the GPU
      model does not price branches).
    * ``instructions, flops, int_ops, translations, calls`` — per-lane
      counter vectors.

    ``n`` is the number of lanes.  All index and count columns are int64
    and ``address`` is uint64.
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
        """Adapt per-lane traces (columnar or list-form events) by
        concatenation — the reference interpreter's launches, and the
        oracle :meth:`from_unit_counts` is tested against.  The given
        traces stay the per-lane view, so their branch statistics are not
        converted."""
        traces = list(traces)
        n = len(traces)
        chunks = [event_rows(trace.mem_events) for trace in traces]
        kept = np.fromiter(map(len, chunks), np.int64, n)
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
        uid_flat: list = []
        count_flat: list = []
        widths = []
        for trace in traces:
            counts = trace.block_counts
            uid_flat.extend(counts)
            count_flat.extend(counts.values())
            widths.append(len(counts))
        row_of = {uid: row for row, uid in enumerate(dict.fromkeys(uid_flat))}
        block_counts = np.zeros((len(row_of), n), np.int64)
        block_counts[
            np.fromiter(map(row_of.__getitem__, uid_flat), np.int64, len(uid_flat)),
            np.repeat(np.arange(n), widths),
        ] = count_flat
        empty = np.zeros((0, n), np.int64)
        return cls(
            n=n,
            per_lane=traces,
            lane=np.repeat(np.arange(n), kept),
            uid=rows[:, 0].astype(np.int64),
            seq=rows[:, 1].astype(np.int64),
            address=np.ascontiguousarray(rows[:, 2]),
            size=rows[:, 3].astype(np.int64),
            is_store=rows[:, 4].astype(np.int64),
            kept=kept,
            dropped=scalars[:, 5],
            caps=scalars[:, 6],
            block_uids=np.fromiter(row_of, np.int64, len(row_of)),
            block_counts=block_counts,
            branch_uids=np.zeros(0, np.int64),
            branch_taken=empty,
            branch_total=empty,
            instructions=scalars[:, 0],
            flops=scalars[:, 1],
            int_ops=scalars[:, 2],
            translations=scalars[:, 3],
            calls=scalars[:, 4],
        )

    @classmethod
    def from_unit_counts(cls, n, events, kept, dropped, caps, functions) -> "LaunchTrace":
        """What :meth:`~repro.exec.compiled.CompiledEngine.run_launch`
        collected, as columns — equal, row order included, to
        :meth:`from_traces` over the same lanes traced one by one.

        ``events`` is the launch's one stride-5 event buffer (lane-major),
        ``kept`` / ``dropped`` / ``caps`` one entry per lane.
        ``functions`` lists what the launch entered as ``(units, lanes,
        rows)``: the function's per-unit totals, the lanes that entered it
        (ascending) and, flat, one harvested accumulator per such lane —
        ``len(units)`` execution counts, as many taken-branch counts, as
        many zeros, and the function's rank among those the lane entered.
        Every per-lane counter is the counts matrix times the per-unit
        totals."""
        kept = np.array(kept, np.int64)
        rows = np.array(events, np.uint64).reshape(-1, 5)
        counters = np.zeros((5, n), np.int64)
        blocks = []  # (first lane, rank there, unit, uid, per-lane counts)
        branches = []  # (..., branch uid, per-lane taken, per-lane total)
        for units, lanes, flat in functions:
            width = len(units)
            lanes = np.array(lanes, np.int64)
            harvest = np.array(flat, np.int64).reshape(len(lanes), 3 * width + 1)
            counts = harvest[:, :width]
            totals = np.array(
                [
                    (u.d_instr, u.d_flops, u.d_int_ops, u.d_translations, u.d_calls)
                    for u in units
                ],
                np.int64,
            ).reshape(width, 5)
            counters[:, lanes] += (counts @ totals).T
            for index in np.flatnonzero(counts.any(axis=0)).tolist():
                unit = units[index]
                first = int((counts[:, index] != 0).argmax())
                key = (int(lanes[first]), int(harvest[first, -1]), index)
                dense = np.zeros(n, np.int64)
                dense[lanes] = counts[:, index]
                blocks.extend((key, uid, dense) for uid in unit.uid_list)
                if unit.branch_uid >= 0:
                    taken = np.zeros(n, np.int64)
                    taken[lanes] = harvest[:, width + index]
                    branches.append((key, unit.branch_uid, taken, dense))
        blocks.sort(key=lambda entry: entry[0])  # stable: uid_list order stays
        branches.sort(key=lambda entry: entry[0])
        none = np.zeros((0, n), np.int64)  # vstack needs one array
        return cls(
            n=n,
            lane=np.repeat(np.arange(n), kept),
            uid=rows[:, 0].astype(np.int64),
            seq=rows[:, 1].astype(np.int64),
            address=np.ascontiguousarray(rows[:, 2]),
            size=rows[:, 3].astype(np.int64),
            is_store=rows[:, 4].astype(np.int64),
            kept=kept,
            dropped=np.array(dropped, np.int64),
            caps=np.array(caps, np.int64),
            block_uids=np.array([uid for _key, uid, _row in blocks], np.int64),
            block_counts=np.vstack([none, *(row for _key, _uid, row in blocks)]),
            branch_uids=np.array([uid for _key, uid, _t, _c in branches], np.int64),
            branch_taken=np.vstack([none, *(taken for _k, _u, taken, _c in branches)]),
            branch_total=np.vstack([none, *(total for _k, _u, _t, total in branches)]),
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
        """Executed-block histogram merged over the lanes, keyed in the
        order a lane-by-lane merge of the per-lane dicts would insert
        them (first lane to execute the block, then row order)."""
        counts = self.block_counts
        order = np.argsort((counts != 0).argmax(axis=1), kind="stable")
        totals = counts.sum(axis=1)
        return {
            uid: total
            for uid, total in zip(
                self.block_uids[order].tolist(), totals[order].tolist()
            )
            if total
        }

    def lanes(self) -> list:
        """The per-lane :class:`~repro.exec.interp.ExecTrace` view, built
        on first use.  Only consumers that want objects per lane pay for
        it: ``keep_traces`` (and the declared-set replay and equivalence
        suites behind it) and tests."""
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
