"""CPU performance and energy model from execution traces.

Iterations execute one at a time on the scalar interpreter; this module
converts the accumulated traces into multicore wall-clock time and package
energy on a :class:`~repro.cpu.device.CpuDevice`:

* base pipeline cost = dynamic instructions / sustained IPC;
* branch costs from per-branch outcome statistics with a bimodal-predictor
  bound: a branch that goes the same way ``p`` of the time mispredicts
  roughly ``(1 - p)`` of executions — highly biased branches are nearly
  free (this is why the paper's desktop CPU handles divergent workloads
  like FaceDetect so well), genuinely data-dependent ones pay the full
  penalty;
* memory stalls through an LLC model, partially hidden by the out-of-order
  window;
* multicore scaling by ``cores × parallel_efficiency`` (TBB-style
  work-stealing over independent iterations scales nearly linearly).
"""

from __future__ import annotations

import numpy as np

from ..exec.buffers import event_rows
from ..exec.interp import ExecTrace
from ..gpu.cache import CacheModel
from ..gpu.timing import DeviceReport, running_sum, touched_lines
from .device import CpuDevice


def time_cpu_execution(
    device: CpuDevice,
    traces: list[ExecTrace],
    llc: CacheModel | None = None,
    counters=None,
) -> DeviceReport:
    """Price the traces' execution.  Evaluated over the traces' event
    columns, but *defined* access by access (``docs/MODEL.md``, *Order
    contract*): events in trace order, an access that straddles lines
    touching them low to high, each line probing the L1 and on a miss the
    LLC, latency accumulated left to right in that order."""
    llc = llc or CacheModel(
        device.llc_size_bytes, device.llc_line_bytes, device.llc_assoc
    )
    l1 = CacheModel(device.l1_size_bytes, device.llc_line_bytes, device.l1_assoc)

    instructions = 0
    mispredicts = 0.0
    branches = 0
    translations = 0

    merged_branches: dict[int, list[int]] = {}
    for trace in traces:
        instructions += trace.instructions
        translations += trace.translations
        for uid, (taken, total) in trace.branch_stats.items():
            slot = merged_branches.setdefault(uid, [0, 0])
            slot[0] += taken
            slot[1] += total

    none = np.empty((0, 5), np.uint64)  # concatenate needs one array
    rows = [none, *(event_rows(trace.mem_events) for trace in traces)]
    _event, lines = touched_lines(
        np.concatenate([chunk[:, 2] for chunk in rows]),
        np.concatenate([chunk[:, 3] for chunk in rows]),
        device.llc_line_bytes,
    )
    del rows  # release the buffer exports
    # L1 hits are effectively free: their latency is covered by the
    # out-of-order window (this is the CPU's big advantage on small
    # pointer-chasing working sets).  L1's misses go on to the LLC, in
    # order.
    l1_miss = ~l1.touch(lines)
    llc_hit = llc.touch(lines[l1_miss])
    latency = np.full(len(lines), device.l1_hit_cycles, np.float64)
    latency[l1_miss] = np.where(
        llc_hit, device.llc_hit_cycles, device.dram_latency_cycles
    )
    mem_latency = running_sum(latency)
    llc_hits = int(llc_hit.sum())
    llc_misses = len(llc_hit) - llc_hits
    l1_hits = len(lines) - len(llc_hit)
    dram_bytes = llc_misses * device.llc_line_bytes

    # Canonical order — float accumulation must not depend on which engine's
    # trace-dict insertion order we got.
    for uid in sorted(merged_branches):
        taken, total = merged_branches[uid]
        branches += total
        bias = max(taken, total - taken) / total if total else 1.0
        mispredicts += total * (1.0 - bias)

    pipeline_cycles = instructions / device.ipc
    branch_cycles = mispredicts * device.branch_mispredict_cycles
    exposed_mem = mem_latency * (1.0 - device.latency_hiding)
    bandwidth_cycles = dram_bytes / device.dram_bandwidth_bytes_per_cycle
    serial_cycles = pipeline_cycles + branch_cycles + max(exposed_mem, bandwidth_cycles)

    scaling = device.cores * device.parallel_efficiency
    wall_cycles = serial_cycles / scaling
    seconds = wall_cycles / device.frequency_hz

    energy = (
        instructions * device.energy_per_instruction
        + (llc_hits + llc_misses) * device.energy_per_llc_access
        + llc_misses * device.energy_per_dram_access
        + device.idle_power_watts * seconds
    )

    if counters is not None:
        # repro.obs.CounterRegistry; publish the model's event totals so
        # profiles carry the cache/branch breakdown.
        counters.add("cpu.l1.hits", l1_hits)
        counters.add("cpu.llc.hits", llc_hits)
        counters.add("cpu.llc.misses", llc_misses)
        counters.add("cpu.branches", branches)
        counters.add("cpu.mispredicts", mispredicts)

    return DeviceReport(
        device=device.name,
        seconds=seconds,
        energy_joules=energy,
        cycles=wall_cycles,
        instructions=instructions,
        mem_transactions=l1_hits + llc_hits + llc_misses,
        l3_hits=llc_hits,
        l3_misses=llc_misses,
        translations=translations,
    )
