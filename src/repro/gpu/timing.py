"""GPU performance and energy model from execution traces.

Work-items execute functionally on one of the engines; this module
turns a launch's trace — one columnar
:class:`~repro.exec.buffers.LaunchTrace` — into cycles
and joules on a :class:`~repro.gpu.device.GpuDevice`.  The model is
evaluated with NumPy over the launch's columns but *defined* lane by
lane, warp by warp: transactions reach the LRU in first-touch order and
every float is accumulated left to right in that order (``docs/MODEL.md``,
*Order contract*), so reports do not depend on how the trace was built:

* **SIMT issue with divergence.**  Lanes are grouped into SIMD16 warps in
  index order (the hardware's dispatch order).  For each basic block, the
  baseline issue estimate is ``max over lanes of (times that lane executed
  the block)`` — lanes that skipped it ride along masked, lanes that looped
  more force re-issues.  On top of that, blocks guarded by a conditional
  branch get the **independent-outcomes correction**: in irregular code the
  branch decides differently in every lane on every iteration, so the warp
  must issue the guarded block whenever *any* lane enters it.  With
  per-lane enter probabilities ``p_l`` (measured from the trace), the
  expected issue count is ``occurrences x (1 - prod(1 - p_l))``, which can
  far exceed the per-lane max — this is exactly the cost of the three-way
  data-dependent branch in a Barnes-Hut traversal, invisible to plain
  block-count models.

* **Coalescing and gather cracking.**  Lane accesses from the same dynamic
  occurrence of one memory instruction (``(instr_uid, seq)``) coalesce: the
  warp issues one transaction per distinct cache line touched.  A scattered
  access (many distinct lines) additionally *cracks* into multiple
  data-port messages that occupy EU issue slots — uniform/adjacent loads
  (Raytracer walking the same scene array) are near free on the issue side,
  while pointer-chasing gathers (BarnesHut, SkipList, BTree) pay per line.
  This is the second, often dominant cost of irregular memory on real
  hardware.

* **Un-banked L3 + contention.**  Each transaction probes the shared L3
  (LRU, set-associative).  Transactions from warps resident on *different
  EUs* that touch the same line at the same dynamic position serialize on
  the line's single port — this is the contention the L3OPT transformation
  removes by staggering per-core access order (paper section 4.2).

* **Latency hiding.**  7 threads per EU overlap memory stalls with other
  warps' compute; the residual exposed latency is ``(1 - latency_hiding)``.

The returned :class:`DeviceReport` carries cycles, seconds, joules and the
breakdown the benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exec.buffers import LaunchTrace
from ..ir import Function
from ..ir.types import IntType
from ..ir.values import BINARY_OPS
from .cache import CacheModel, nested_runs
from .device import GpuDevice


@dataclass
class DeviceReport:
    device: str
    seconds: float
    energy_joules: float
    cycles: float = 0.0
    instructions: int = 0
    issue_slots: float = 0.0
    mem_transactions: int = 0
    l3_hits: int = 0
    l3_misses: int = 0
    contention_events: int = 0
    contention_cycles: float = 0.0
    divergence_waste: float = 0.0  # issue slots beyond converged minimum
    translations: int = 0

    def __add__(self, other: "DeviceReport") -> "DeviceReport":
        if other == 0:
            return self
        return DeviceReport(
            device=self.device,
            seconds=self.seconds + other.seconds,
            energy_joules=self.energy_joules + other.energy_joules,
            cycles=self.cycles + other.cycles,
            instructions=self.instructions + other.instructions,
            issue_slots=self.issue_slots + other.issue_slots,
            mem_transactions=self.mem_transactions + other.mem_transactions,
            l3_hits=self.l3_hits + other.l3_hits,
            l3_misses=self.l3_misses + other.l3_misses,
            contention_events=self.contention_events + other.contention_events,
            contention_cycles=self.contention_cycles + other.contention_cycles,
            divergence_waste=self.divergence_waste + other.divergence_waste,
            translations=self.translations + other.translations,
        )

    __radd__ = __add__


#: Gen7.5 EUs have no native 64-bit integer ALU: a 64-bit add/sub (the
#: SVM pointer-translation arithmetic!) cracks into multiple 32-bit ops.
INT64_OP_SLOTS = 3.0
TRANSLATE_SLOTS = 3.0
DIV_SLOTS = 8.0
#: extra issue slots per additional cache line touched by one scattered
#: SIMD16 access (data-port message cracking)
GATHER_CRACK_SLOTS = 2.0


def _instruction_slots(instr) -> float:
    if instr.op == "call" and instr.callee is not None:
        name = instr.callee.name
        if name.startswith("svm.to_"):
            return TRANSLATE_SLOTS
        if name.startswith("math."):
            return 4.0  # transcendentals run on shared EU units
        return 1.0
    if instr.op in ("sdiv", "udiv", "srem", "urem"):
        return DIV_SLOTS
    if instr.op == "fdiv":
        return 4.0
    if instr.op in ("fadd", "fsub", "fmul"):
        # dual FPUs with MAD co-issue: FP arithmetic is the EU's fast path
        return 0.6
    if instr.op in BINARY_OPS and isinstance(instr.type, IntType) and instr.type.bits == 64:
        return INT64_OP_SLOTS
    if instr.op == "gep" and len(instr.operands) > 1:
        return 2.0  # 64-bit address arithmetic
    return 1.0


def block_sizes(kernel: Function) -> dict[int, float]:
    return {
        b.uid: max(1.0, sum(_instruction_slots(i) for i in b.instructions))
        for b in kernel.blocks
    }


def _guarded_blocks(kernel: Function) -> dict[int, int]:
    """Map block uid -> uid of its unique condbr predecessor (if any).

    Such blocks are control-dependent on a data-dependent branch; the
    independent-outcomes divergence correction applies to them.
    """
    preds: dict[int, list] = {}
    for block in kernel.blocks:
        term = block.terminator
        if term is None:
            continue
        for succ in term.targets:
            preds.setdefault(succ.uid, []).append((block, term))
    guarded: dict[int, int] = {}
    for block in kernel.blocks:
        entry = preds.get(block.uid, [])
        if len(entry) == 1 and entry[0][1].op == "condbr":
            guarded[block.uid] = entry[0][0].uid
    return guarded


@dataclass(frozen=True)
class KernelFacts:
    """What the model reads off a kernel's IR, which no launch changes
    (the runtime keeps it in the kernel's ``gpu_function_t`` entry): per
    block, ``uids`` ascending, its issue-slot size and the uid of the
    ``condbr`` block guarding it (-1: none); and, per set of block rows a
    launch of it has reported, what those rows map to (:meth:`rows`)."""

    kernel: Function
    uids: np.ndarray
    slots: np.ndarray
    guard: np.ndarray
    #: ``block_uids.tobytes()`` -> :meth:`rows`'s answer, for at most
    #: :data:`ROW_SETS_KEPT` row sets
    _rows: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, kernel: Function) -> "KernelFacts":
        sizes = block_sizes(kernel)
        guarded = _guarded_blocks(kernel)
        uids = sorted(sizes)
        return cls(
            kernel=kernel,
            uids=np.array(uids, np.int64),
            slots=np.array([sizes[uid] for uid in uids], np.float64),
            guard=np.array([guarded.get(uid, -1) for uid in uids], np.int64),
        )

    def rows(self, block_uids: np.ndarray) -> tuple:
        """For a trace's block rows (ascending uids): each row's slot size
        as a column, and the rows of the blocks guarded by a ``condbr``
        block that is also a row, with the rows of their guards.  A
        callee's block is not the kernel's: one slot, no guard.  Kept
        for the first :data:`ROW_SETS_KEPT` row sets: the launches of one
        kernel report a few, as which blocks ran varies little."""
        key = block_uids.tobytes()
        found = self._rows.get(key)
        if found is None:
            uids = block_uids
            at = np.searchsorted(self.uids, uids).clip(max=len(self.uids) - 1)
            known = self.uids[at] == uids
            guard = np.where(known, self.guard[at], -1)
            guard_row = np.searchsorted(uids, guard).clip(max=len(uids) - 1)
            child = (uids[guard_row] == guard).nonzero()[0]
            found = (np.where(known, self.slots[at], 1.0)[:, None], child, guard_row[child])
            if len(self._rows) < ROW_SETS_KEPT:
                self._rows[key] = found
        return found


#: the most row sets a :class:`KernelFacts` keeps the rows of
#: (:meth:`~KernelFacts.rows`); one kernel's launches report at most four
#: in ``hetero_sched``, ``paper_sweep`` and the overlap figure's BFS pipeline
ROW_SETS_KEPT = 16


def running_sum(values) -> float:
    """Left-to-right float sum.  ``np.add.accumulate`` accumulates
    strictly in order (``np.sum`` adds pairwise blocks), which is the
    order every report float is pinned to."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def _issue_slots(device, facts: KernelFacts, trace: LaunchTrace, warps: int):
    """Per-warp ``(issue, converged)`` slot vectors from the blocks x
    lanes count matrix — the divergence model of the module docstring."""
    w = device.simd_width
    n = trace.n
    # Rows come in ascending uid order from every engine, so float
    # accumulation order does not depend on which one produced the trace.
    size_of, child, parent = facts.rows(trace.block_uids)
    counts = np.zeros((len(size_of), warps * w), np.int64)
    counts[:, :n] = trace.block_counts
    counts = counts.reshape(len(size_of), warps, w)
    lanes_in = np.minimum(w, np.arange(n, n - warps * w, -w))
    block_max = np.maximum.reduce(counts, axis=2)
    estimate = block_max.astype(np.float64)

    # Independent-outcomes correction for blocks guarded by a condbr: the
    # warp issues the block whenever any lane enters it.
    if len(child):
        parent_counts = counts[parent]
        entered = parent_counts > 0
        p_enter = np.minimum(1.0, counts[child] / np.maximum(parent_counts, 1))
        stay_out = 1.0 - p_enter
        stay_out[~entered] = 1.0
        # lane order: the product is order-sensitive, and a reduction
        # along the lane axis multiplies left to right
        miss_all = np.multiply.reduce(stay_out, axis=2)
        parent_occ = block_max[parent]
        lift = parent_occ * (1.0 - miss_all)  # 0 where the guard never ran
        lift[:, lanes_in == 1] = 0.0  # a warp of one lane has no outcomes to mix
        estimate[child] = np.maximum(estimate[child], lift)

    # One running sum per warp, down the rows in sorted-uid order.
    # (The trailing reduction only turns "last row, if any" into a vector.)
    issue = np.add.reduce(np.add.accumulate(estimate * size_of, axis=0)[-1:], axis=0)
    converged = np.add.reduce(
        np.add.accumulate((np.add.reduce(counts, axis=2) / lanes_in) * size_of, axis=0)[-1:],
        axis=0,
    )
    return issue, converged


def touched_lines(address, size, line_bytes: int):
    """Expand each access into the cache lines it touches, low to high:
    per touched line (accesses in order) the access's index and the line
    id.  A zero-size access at a line boundary touches nothing.  When
    every access touches exactly one line the index is ``slice(None)``:
    the accesses themselves, in order."""
    line = np.uint64(line_bytes)
    first = address // line
    # Unsigned arithmetic wraps, so an empty access at address 0 (or one
    # running past 2**64) ends on another line than it starts on.
    last = (address + size.astype(np.uint64) - np.uint64(1)) // line
    if not np.logical_or.reduce(first != last):  # nothing straddles: the usual launch
        return slice(None), first.astype(np.int64)
    event = np.arange(len(address))
    within = (address - first * line).astype(np.int64)
    n_lines = (within + size.astype(np.int64) - 1) // line_bytes + 1
    rows = int(np.add.reduce(n_lines))
    row_event = np.repeat(event, n_lines)
    row_line = first.astype(np.int64)[row_event] + (
        np.arange(rows) - np.repeat(np.cumsum(n_lines) - n_lines, n_lines)
    )
    return row_event, row_line


def _transactions(device, trace: LaunchTrace, warps: int):
    """Coalesce the launch's memory events into cache-line transactions.

    Returns ``(lines, tx_per_warp, occurrences_per_warp,
    contention_extras)``: the deduplicated line sequence in issue order,
    the per-warp counts the gather-cracking term needs, and — in
    first-touch order of the contended ``(uid, seq, line)`` keys — how
    many EUs beyond the line's ports touched each.

    Ordering contract (the sequential LRU and every float sum depend on
    it): warps in index order; within a warp, ``(uid, seq)`` occurrences
    in order of their first event (lane-major, then program order);
    within an occurrence, lines in order of first touch, an access that
    straddles lines touching them low to high.
    """
    if not len(trace.uid):
        none = np.zeros(0, np.int64)
        zeros = np.zeros(warps, np.int64)
        return none, zeros, zeros, none
    # One row per touched line, in touch order (events, then each one's
    # lines low to high).
    row_event, line = touched_lines(trace.address, trace.size, device.l3_line_bytes)
    untouched = False
    if not isinstance(row_event, slice):  # some access straddles or touches nothing
        row_event, line, untouched = _untouched_rows(row_event, line, len(trace.uid))
    warp = trace.lane[row_event] // device.simd_width
    uid, seq = trace.uid[row_event], trace.seq[row_event]
    # The keys' ranges, worked out once for both sorts below (the rows
    # are lane-major: the warps ascend).
    bounds = [(int(warp[0]), int(warp[-1]))]
    bounds += [(int(np.minimum.reduce(key)), int(np.maximum.reduce(key))) for key in (uid, seq, line)]
    # One stable order of the rows by (warp, uid, seq, line): occurrences
    # are its runs of (warp, uid, seq), transactions its runs of all
    # four.  The order being stable, a transaction's run starts at the
    # row that touched its line first; an occurrence's first touch is
    # the earliest of its transactions'.
    order, (occ_start, tx_start) = nested_runs((warp, uid, seq, line), (3, 4), bounds)
    tx_at = tx_start.nonzero()[0]
    occ_row = np.minimum.reduceat(order, occ_start.nonzero()[0])
    tx_occ = np.add.accumulate(occ_start[tx_at], dtype=np.int64) - 1
    if untouched:  # a row on no line opens its occurrence and issues nothing
        issued = line[order[tx_at]] >= 0
        tx_at, tx_occ = tx_at[issued], tx_occ[issued]
    # Issue order: occurrences by first touch and, within one, its lines
    # by first touch — one sort of the (distinct) pairs of first touches.
    rows = len(order)
    issue = occ_row[tx_occ] * rows + order[tx_at]
    del order, occ_start, tx_start, tx_at, tx_occ
    issue.sort()
    tx_row = issue % rows
    del issue
    tx_warp = warp[tx_row]
    occurrences = np.bincount(warp[occ_row], minlength=warps)
    line = line[tx_row]
    eus = device.num_eus
    extras = _contention(
        (uid[tx_row], seq[tx_row], line, tx_warp % eus),
        [*bounds[1:], (0, min(eus - 1, bounds[0][1]))],
        device.l3_line_ports,
    )
    return line, np.bincount(tx_warp, minlength=warps), occurrences, extras


def _untouched_rows(row_event, line, events: int):
    """:func:`touched_lines`' rows plus one on line -1 for each access
    that touches no line (an empty one on a boundary), in access order,
    and whether there was any: such an access still opens its
    occurrence, as every access does."""
    empty = (np.bincount(row_event, minlength=events) == 0).nonzero()[0]
    if not len(empty):
        return row_event, line, False
    row_event = np.concatenate((row_event, empty))
    rows = row_event.argsort(kind="stable")
    line = np.concatenate((line, np.full(len(empty), -1, np.int64)))
    return row_event[rows], line[rows], True


def _contention(keys, bounds, ports: int):
    """For every ``(uid, seq, line)`` key touched from more EUs than the
    line has ports, the number of EUs beyond them — keys in the order of
    the transaction that first touched them.  ``keys`` are the
    transactions' ``(uid, seq, line, eu)`` columns in issue order, and
    ``bounds`` their ranges (:func:`~repro.gpu.cache.nested_runs`)."""
    order, (key_start, eu_start) = nested_runs(keys, (3, 4), bounds)
    key_at = key_start.nonzero()[0]
    extras = np.add.reduceat(eu_start, key_at, dtype=np.int64) - ports
    contended = (extras > 0).nonzero()[0]
    first_tx = np.minimum.reduceat(order, key_at)[contended]
    return extras[contended][first_tx.argsort()]


def time_gpu_kernel(
    device: GpuDevice,
    kernel: Function | KernelFacts,
    trace: LaunchTrace,
    l3: CacheModel | None = None,
    counters=None,
) -> DeviceReport:
    """Price one launch.  ``kernel`` is the launched function or the
    :class:`KernelFacts` already read off it; ``trace`` is the launch's
    :class:`~repro.exec.buffers.LaunchTrace` (``LaunchTrace.from_traces``
    builds one from per-lane :class:`~repro.exec.ExecTrace`)."""
    facts = kernel if isinstance(kernel, KernelFacts) else KernelFacts.of(kernel)
    l3 = l3 or CacheModel(device.l3_size_bytes, device.l3_line_bytes, device.l3_assoc)
    warps = (trace.n + device.simd_width - 1) // device.simd_width

    total_instructions = int(np.add.reduce(trace.instructions))
    total_translations = int(np.add.reduce(trace.translations))

    warp_issue, warp_converged = _issue_slots(device, facts, trace, warps)
    lines, warp_tx, warp_occurrences, extras = _transactions(device, trace, warps)

    # A scattered access cracks into one data-port message per extra line.
    # per warp: its issue slots, then its crack slots
    slots = np.empty(2 * warps)
    slots[0::2] = warp_issue
    slots[1::2] = GATHER_CRACK_SLOTS * np.maximum(0, warp_tx - warp_occurrences)
    total_issue = running_sum(slots)
    converged_issue = running_sum(warp_converged)

    hit = l3.touch(lines)
    mem_transactions = len(lines)
    l3_hits = int(np.count_nonzero(hit))
    l3_misses = mem_transactions - l3_hits
    mem_latency_cycles = running_sum(
        np.where(hit, device.l3_hit_cycles, device.dram_latency_cycles)
    )
    dram_bytes = l3_misses * device.l3_line_bytes

    contention_events = int(np.add.reduce(extras))
    contention_cycles = running_sum(extras * device.contention_penalty_cycles)

    # -- fold into wall-clock cycles
    #
    # Three throughput limits, the slowest wins (standard analytic GPU
    # model):
    #  * compute: each EU issues one SIMD16 instruction per
    #    ``issue_cycles_per_slot`` cycles;
    #  * memory latency: each hardware thread sustains roughly one
    #    outstanding dependent-load chain, so aggregate latency is divided
    #    by EUs x threads — pointer chasing cannot hide more than that
    #    (this is what makes irregular traversals slow on the GPU);
    #  * DRAM bandwidth for the miss traffic.
    # Un-banked-L3 contention serializes on top.
    eus = device.num_eus
    compute_cycles = total_issue * device.issue_cycles_per_slot / eus
    concurrency = min(
        eus * device.threads_per_eu * device.memory_parallelism,
        device.fabric_outstanding_misses
        if l3_misses > l3_hits
        else eus * device.threads_per_eu * device.memory_parallelism,
    )
    latency_cycles = mem_latency_cycles / concurrency
    bandwidth_cycles = dram_bytes / device.dram_bandwidth_bytes_per_cycle
    wall_cycles = (
        max(compute_cycles, latency_cycles, bandwidth_cycles)
        + contention_cycles / eus
    )
    seconds = wall_cycles / device.frequency_hz

    dynamic_energy = (
        total_issue * device.energy_per_issue_slot
        + (l3_hits + l3_misses) * device.energy_per_l3_access
        + l3_misses * device.energy_per_dram_access
    )
    # TDP throttling: if sustained-clock execution would exceed the package
    # power budget, the clock drops and execution stretches until
    # dynamic_power + idle fits inside the budget.
    budget = device.power_budget_watts
    if budget and seconds > 0.0:
        headroom = max(1e-3, budget - device.idle_power_watts)
        min_seconds = dynamic_energy / headroom
        if min_seconds > seconds:
            wall_cycles *= min_seconds / seconds
            seconds = min_seconds
    energy = dynamic_energy + device.idle_power_watts * seconds

    if counters is not None:
        # repro.obs.CounterRegistry; publish the model's event totals so
        # profiles carry the cache/coalescing/contention breakdown.
        counters.add("gpu.l3.hits", l3_hits)
        counters.add("gpu.l3.misses", l3_misses)
        counters.add("gpu.mem_transactions", mem_transactions)
        counters.add("gpu.contention_events", contention_events)
        counters.add("gpu.issue_slots", total_issue)
        counters.add("gpu.translations", total_translations)

    return DeviceReport(
        device=device.name,
        seconds=seconds,
        energy_joules=energy,
        cycles=wall_cycles,
        instructions=total_instructions,
        issue_slots=total_issue,
        mem_transactions=mem_transactions,
        l3_hits=l3_hits,
        l3_misses=l3_misses,
        contention_events=contention_events,
        contention_cycles=contention_cycles,
        divergence_waste=max(0.0, total_issue - converged_issue),
        translations=total_translations,
    )
