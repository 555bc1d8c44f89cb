"""GPU performance and energy model from execution traces.

Work-items execute functionally on one of the engines; this module
turns a launch's trace — a columnar
:class:`~repro.exec.buffers.LaunchTrace`, or the per-lane
:class:`~repro.exec.ExecTrace` records it is adapted from — into cycles
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
from .cache import CacheModel
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
    extra: dict = field(default_factory=dict)

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
            extra={**self.extra, **other.extra},
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
    from ..ir.types import IntType
    from ..ir.values import BINARY_OPS

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


def _running_sum(values) -> float:
    """Left-to-right float sum.  ``np.cumsum`` accumulates strictly in
    order (``np.sum`` adds pairwise blocks), which is the order every
    report float is pinned to."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _run_starts(*sorted_keys) -> np.ndarray:
    """Mask of the positions where any of the (co-sorted) key columns
    changes — the first element of every run of equal keys."""
    same = np.ones(max(0, len(sorted_keys[0]) - 1), bool)
    for key in sorted_keys:
        same &= key[1:] == key[:-1]
    return np.concatenate(([True], ~same))[: len(sorted_keys[0])]


def _issue_slots(device, kernel, trace: LaunchTrace, warps: int):
    """Per-warp ``(issue, converged)`` slot vectors from the blocks x
    lanes count matrix — the divergence model of the module docstring."""
    w = device.simd_width
    n = trace.n
    sizes = block_sizes(kernel)
    guarded = _guarded_blocks(kernel)
    # Canonical (sorted-uid) block order: float accumulation order must not
    # depend on which engine produced the trace.
    order = np.argsort(trace.block_uids)
    uids = trace.block_uids[order].tolist()
    counts = np.zeros((len(uids), warps * w), np.int64)
    counts[:, :n] = trace.block_counts[order]
    counts = counts.reshape(len(uids), warps, w)
    size_of = np.array([sizes.get(uid, 1) for uid in uids], np.float64)[:, None]
    lanes_in = np.full(warps, w)
    lanes_in[-1:] = n - (warps - 1) * w
    block_max = counts.max(axis=2)
    estimate = block_max.astype(np.float64)

    # Independent-outcomes correction for blocks guarded by a condbr: the
    # warp issues the block whenever any lane enters it.
    row_of = {uid: row for row, uid in enumerate(uids)}
    pairs = [
        (row, row_of[guarded[uid]])
        for row, uid in enumerate(uids)
        if guarded.get(uid) in row_of
    ]
    if pairs:
        child, parent = (np.array(rows) for rows in zip(*pairs))
        parent_counts = counts[parent]
        entered = parent_counts > 0
        p_enter = np.minimum(
            1.0, counts[child] / np.where(entered, parent_counts, 1)
        )
        stay_out = np.where(entered, 1.0 - p_enter, 1.0)
        miss_all = np.ones((len(pairs), warps))
        for lane in range(w):  # lane order: the product is order-sensitive
            miss_all *= stay_out[:, :, lane]
        parent_occ = block_max[parent]
        estimate[child] = np.where(
            (lanes_in > 1) & (parent_occ > 0),
            np.maximum(estimate[child], parent_occ * (1.0 - miss_all)),
            estimate[child],
        )

    # One running sum per warp, down the rows in sorted-uid order (the
    # trailing sum only turns "last row, if any" into a vector).
    issue = np.cumsum(estimate * size_of, axis=0)[-1:].sum(axis=0)
    converged = np.cumsum(
        (counts.sum(axis=2) / lanes_in) * size_of, axis=0
    )[-1:].sum(axis=0)
    return issue, converged


def _occurrences(warp, uid, seq):
    """Group events into coalescing occurrences — unique ``(uid, seq,
    warp)`` — numbered by first touch.  Returns each event's occurrence,
    and per occurrence its warp and its ``(uid, seq)`` pair id (shared by
    all warps; contention is counted per pair)."""
    # A stable sort leaves every run's first element at its earliest event.
    order = np.lexsort((warp, seq, uid))
    s_warp = warp[order]
    pair_start = _run_starts(uid[order], seq[order])
    occ_start = pair_start | _run_starts(s_warp)
    # Event order is warp-major, so ranking the occurrences by their first
    # event is the first-touch numbering.
    touch_order = np.argsort(order[occ_start])
    occ_id = np.empty(len(touch_order), np.int64)
    occ_id[touch_order] = np.arange(len(touch_order))
    occ_of_event = np.empty(len(order), np.int64)
    occ_of_event[order] = occ_id[np.cumsum(occ_start) - 1]
    occ_warp = s_warp[occ_start][touch_order]
    occ_pair = (np.cumsum(pair_start) - 1)[occ_start][touch_order]
    return occ_of_event, occ_warp, occ_pair


def _coalesce(occ_of_event, address, size, line_bytes: int):
    """One transaction per distinct ``(occurrence, line)``: returns their
    occurrences and lines in issue order — by occurrence and, within it,
    by first touch."""
    # Expand each access into the lines it touches, low to high.
    first_line = (address // np.uint64(line_bytes)).astype(np.int64)
    within = (address % np.uint64(line_bytes)).astype(np.int64)
    n_lines = (within + size - 1) // line_bytes + 1
    rows = int(n_lines.sum())
    row_event = np.repeat(np.arange(len(n_lines)), n_lines)
    row_line = first_line[row_event] + (
        np.arange(rows) - np.repeat(np.cumsum(n_lines) - n_lines, n_lines)
    )
    row_occ = occ_of_event[row_event]
    order = np.lexsort((row_line, row_occ))
    s_occ, s_line = row_occ[order], row_line[order]
    tx_start = _run_starts(s_occ, s_line)
    # stable sort: ``order[tx_start]`` is the row that touched the line first
    issue_order = np.argsort(s_occ[tx_start] * rows + order[tx_start])
    return s_occ[tx_start][issue_order], s_line[tx_start][issue_order]


def _contention(tx_line, tx_pair, tx_eu, eus: int, ports: int):
    """For every ``(uid, seq, line)`` key touched from more EUs than the
    line has ports, the number of EUs beyond them — keys in the order of
    the transaction that first touched them."""
    pair_eu = tx_pair * eus + tx_eu
    order = np.lexsort((pair_eu, tx_line))
    s_line, s_pair_eu = tx_line[order], pair_eu[order]
    key_start = _run_starts(s_line, s_pair_eu // eus)
    starts = np.flatnonzero(key_start)
    distinct_eus = np.add.reduceat(
        (key_start | _run_starts(s_pair_eu)).astype(np.int64), starts
    )
    extras = np.maximum(0, distinct_eus - ports)
    contended = np.flatnonzero(extras)
    first_tx = np.minimum.reduceat(order, starts)[contended]
    return extras[contended][np.argsort(first_tx)]


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
    occ_of_event, occ_warp, occ_pair = _occurrences(
        trace.lane // device.simd_width, trace.uid, trace.seq
    )
    tx_occ, tx_line = _coalesce(
        occ_of_event, trace.address, trace.size, device.l3_line_bytes
    )
    tx_warp = occ_warp[tx_occ]
    extras = _contention(
        tx_line,
        occ_pair[tx_occ],
        tx_warp % device.num_eus,
        device.num_eus,
        device.l3_line_ports,
    )
    return (
        tx_line,
        np.bincount(tx_warp, minlength=warps),
        np.bincount(occ_warp, minlength=warps),
        extras,
    )


def time_gpu_kernel(
    device: GpuDevice,
    kernel: Function,
    traces: LaunchTrace | list,
    l3: CacheModel | None = None,
    counters=None,
) -> DeviceReport:
    """Price one launch.  ``traces`` is a
    :class:`~repro.exec.buffers.LaunchTrace`, or a plain list of per-lane
    :class:`~repro.exec.ExecTrace` (list-form or columnar events) that is
    adapted into one."""
    trace = (
        traces
        if isinstance(traces, LaunchTrace)
        else LaunchTrace.from_traces(traces)
    )
    l3 = l3 or CacheModel(device.l3_size_bytes, device.l3_line_bytes, device.l3_assoc)
    warps = (trace.n + device.simd_width - 1) // device.simd_width

    total_instructions = int(trace.instructions.sum())
    total_translations = int(trace.translations.sum())

    warp_issue, warp_converged = _issue_slots(device, kernel, trace, warps)
    lines, warp_tx, warp_occurrences, extras = _transactions(device, trace, warps)

    # A scattered access cracks into one data-port message per extra line.
    crack_slots = GATHER_CRACK_SLOTS * np.maximum(0, warp_tx - warp_occurrences)
    # per warp: its issue slots, then its crack slots
    total_issue = _running_sum(np.stack((warp_issue, crack_slots), axis=1).ravel())
    converged_issue = _running_sum(warp_converged)

    l3_access = l3.access
    hit = np.fromiter(map(l3_access, lines.tolist()), bool, len(lines))
    mem_transactions = len(lines)
    l3_hits = int(hit.sum())
    l3_misses = mem_transactions - l3_hits
    mem_latency_cycles = _running_sum(
        np.where(hit, device.l3_hit_cycles, device.dram_latency_cycles)
    )
    dram_bytes = l3_misses * device.l3_line_bytes

    contention_events = int(extras.sum())
    contention_cycles = _running_sum(extras * device.contention_penalty_cycles)

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
