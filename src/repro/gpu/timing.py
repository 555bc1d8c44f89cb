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

from dataclasses import dataclass

import numpy as np

from ..exec.buffers import LaunchTrace
from ..ir import Function
from ..ir.types import IntType
from ..ir.values import BINARY_OPS
from .cache import CacheModel, run_starts, stable_order, stable_runs
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
    ``condbr`` block guarding it (-1: none)."""

    kernel: Function
    uids: np.ndarray
    slots: np.ndarray
    guard: np.ndarray

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


def running_sum(values) -> float:
    """Left-to-right float sum.  ``np.cumsum`` accumulates strictly in
    order (``np.sum`` adds pairwise blocks), which is the order every
    report float is pinned to."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _issue_slots(device, facts: KernelFacts, trace: LaunchTrace, warps: int):
    """Per-warp ``(issue, converged)`` slot vectors from the blocks x
    lanes count matrix — the divergence model of the module docstring."""
    w = device.simd_width
    n = trace.n
    # Canonical (sorted-uid) block order: float accumulation order must not
    # depend on which engine produced the trace.
    order = np.argsort(trace.block_uids)
    uids = trace.block_uids[order]
    counts = np.zeros((len(uids), warps * w), np.int64)
    counts[:, :n] = trace.block_counts[order]
    counts = counts.reshape(len(uids), warps, w)
    # A callee's blocks are not the kernel's: one slot, no guard.
    at = np.searchsorted(facts.uids, uids).clip(max=len(facts.uids) - 1)
    known = facts.uids[at] == uids
    size_of = np.where(known, facts.slots[at], 1.0)[:, None]
    guard = np.where(known, facts.guard[at], -1)
    lanes_in = np.full(warps, w)
    lanes_in[-1:] = n - (warps - 1) * w
    block_max = counts.max(axis=2)
    estimate = block_max.astype(np.float64)

    # Independent-outcomes correction for blocks guarded by a condbr: the
    # warp issues the block whenever any lane enters it.
    guard_row = np.searchsorted(uids, guard).clip(max=len(uids) - 1)
    child = np.flatnonzero(uids[guard_row] == guard)
    if len(child):
        parent = guard_row[child]
        parent_counts = counts[parent]
        entered = parent_counts > 0
        p_enter = np.minimum(
            1.0, counts[child] / np.where(entered, parent_counts, 1)
        )
        stay_out = np.where(entered, 1.0 - p_enter, 1.0)
        miss_all = np.ones((len(child), warps))
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
    # Events are warp-major, so a stable order by (uid, seq) alone leaves
    # each pair's events grouped by warp, every group's first element at
    # its earliest event.
    order, pair_start = stable_runs(uid, seq)
    first = np.flatnonzero(pair_start | run_starts(warp[order]))
    first_event = order[first]
    # ... and ranking the occurrences by their first event is the
    # first-touch numbering.
    is_first = np.zeros(len(order), bool)
    is_first[first_event] = True
    occ_id = (np.cumsum(is_first) - 1)[first_event]
    occ_of_event = np.empty(len(order), np.int64)
    occ_of_event[order] = np.repeat(occ_id, np.diff(first, append=len(order)))
    occ_pair = np.empty(len(occ_id), np.int64)
    occ_pair[occ_id] = np.cumsum(pair_start[first]) - 1
    return occ_of_event, warp[is_first], occ_pair


def touched_lines(address, size, line_bytes: int):
    """Expand each access into the cache lines it touches, low to high:
    per touched line (accesses in order) the access's index and the line
    id.  A zero-size access at a line boundary touches nothing."""
    line = np.uint64(line_bytes)
    first = address // line
    event = np.arange(len(address))
    # Unsigned arithmetic wraps, so an empty access at address 0 (or one
    # running past 2**64) ends on another line than it starts on.
    last = (address + size.astype(np.uint64) - np.uint64(1)) // line
    if np.array_equal(first, last):  # nothing straddles: the usual launch
        return event, first.astype(np.int64)
    within = (address - first * line).astype(np.int64)
    n_lines = (within + size.astype(np.int64) - 1) // line_bytes + 1
    rows = int(n_lines.sum())
    row_event = np.repeat(event, n_lines)
    row_line = first.astype(np.int64)[row_event] + (
        np.arange(rows) - np.repeat(np.cumsum(n_lines) - n_lines, n_lines)
    )
    return row_event, row_line


def _coalesce(occ_of_event, address, size, line_bytes: int):
    """One transaction per distinct ``(occurrence, line)``: returns their
    occurrences and lines in issue order — by occurrence and, within it,
    by first touch."""
    row_event, row_line = touched_lines(address, size, line_bytes)
    row_occ = occ_of_event[row_event]
    order, tx_start = stable_runs(row_occ, row_line)
    # stable sort: ``first_row`` is the row that touched the line first
    first_row = order[tx_start]
    tx_occ = row_occ[first_row]
    issue_order = first_row[stable_order(tx_occ, first_row)]
    return row_occ[issue_order], row_line[issue_order]


def _contention(tx_line, tx_pair, tx_eu, ports: int):
    """For every ``(uid, seq, line)`` key touched from more EUs than the
    line has ports, the number of EUs beyond them — keys in the order of
    the transaction that first touched them."""
    order, eu_start = stable_runs(tx_line, tx_pair, tx_eu)
    starts = np.flatnonzero(run_starts(tx_line[order], tx_pair[order]))
    distinct_eus = np.add.reduceat(eu_start.astype(np.int64), starts)
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

    total_instructions = int(trace.instructions.sum())
    total_translations = int(trace.translations.sum())

    warp_issue, warp_converged = _issue_slots(device, facts, trace, warps)
    lines, warp_tx, warp_occurrences, extras = _transactions(device, trace, warps)

    # A scattered access cracks into one data-port message per extra line.
    crack_slots = GATHER_CRACK_SLOTS * np.maximum(0, warp_tx - warp_occurrences)
    # per warp: its issue slots, then its crack slots
    total_issue = running_sum(np.stack((warp_issue, crack_slots), axis=1).ravel())
    converged_issue = running_sum(warp_converged)

    hit = l3.touch(lines)
    mem_transactions = len(lines)
    l3_hits = int(hit.sum())
    l3_misses = mem_transactions - l3_hits
    mem_latency_cycles = running_sum(
        np.where(hit, device.l3_hit_cycles, device.dram_latency_cycles)
    )
    dram_bytes = l3_misses * device.l3_line_bytes

    contention_events = int(extras.sum())
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
