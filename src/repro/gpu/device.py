"""Integrated GPU device models.

Parameters follow the paper's two systems (section 5.1):

* **HD 5000** (Ultrabook, i7-4650U): 40 EUs, 7 hardware threads per EU,
  SIMD16, 200 MHz – 1.1 GHz turbo.
* **HD 4600** (desktop, i7-4770): 20 EUs, 7 threads per EU, SIMD16,
  350 MHz – 1.25 GHz turbo.

Both share physical memory with the CPU and cache global memory accesses in
a unified, *un-banked* L3 — the property the L3OPT compiler transformation
exploits (section 4.2).

Cache capacities are scaled down ~32x from the silicon values: the paper's
inputs (6.2M-node road networks, a 3000x2171 image) are ~3 orders of
magnitude larger than the interpreted-simulation inputs, so full-size
caches would hold entire working sets and erase the locality behaviour the
evaluation depends on.  Scaling capacity with input size preserves the
working-set-to-cache ratio (standard practice for scaled simulation).  Energy constants are model parameters calibrated
so the paper's relative results (not absolute joules) reproduce; see
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GpuDevice:
    name: str
    num_eus: int
    threads_per_eu: int
    simd_width: int
    min_freq_hz: float
    max_freq_hz: float
    l3_size_bytes: int
    l3_line_bytes: int
    l3_assoc: int
    l3_hit_cycles: float
    dram_latency_cycles: float
    dram_bandwidth_bytes_per_cycle: float
    #: read/write ports per L3 line — simultaneous same-line accesses from
    #: more EUs than this serialize (the contention L3OPT attacks)
    l3_line_ports: int
    contention_penalty_cycles: float
    #: energy model (joules)
    energy_per_issue_slot: float  # one SIMD16 instruction issue on one EU
    energy_per_l3_access: float
    energy_per_dram_access: float
    idle_power_watts: float  # GPU-slice share of package idle power
    #: fraction of memory latency hidden by multithreading (0..1)
    latency_hiding: float
    #: EU cycles to issue one SIMD16 instruction (the physical ALU is
    #: narrower than 16 lanes, so a SIMD16 op occupies multiple cycles)
    issue_cycles_per_slot: float = 2.6
    #: average outstanding dependent-load chains per hardware thread
    memory_parallelism: float = 1.0
    #: clock actually sustained under the package TDP (the Ultrabook's
    #: 15 W budget keeps HD 5000 far below its 1.1 GHz turbo ceiling)
    sustained_freq_hz: float = 0.0
    #: package power budget while the GPU runs (0 = unconstrained).  When
    #: the activity-based energy model would exceed it, the clock throttles
    #: and execution stretches until power fits — this is how the 15 W
    #: Ultrabook penalizes divergence-heavy kernels whose masked-lane issue
    #: slots burn energy without doing useful work.
    power_budget_watts: float = 0.0
    #: outstanding misses the GTI/memory fabric sustains — a chip-level
    #: property that does NOT scale with EU count, which is why the 40-EU
    #: HD 5000 is no better than the 20-EU HD 4600 on latency-bound
    #: pointer chasing (only on compute)
    fabric_outstanding_misses: float = 48.0

    @property
    def frequency_hz(self) -> float:
        return self.sustained_freq_hz or self.max_freq_hz


def hd5000() -> GpuDevice:
    """Intel HD Graphics 5000 (Ultrabook GT3, 15W shared TDP)."""
    return GpuDevice(
        name="Intel HD Graphics 5000",
        num_eus=40,
        threads_per_eu=7,
        simd_width=16,
        min_freq_hz=200e6,
        max_freq_hz=1.1e9,
        l3_size_bytes=8 * 1024,
        l3_line_bytes=64,
        l3_assoc=16,
        l3_hit_cycles=80.0,
        dram_latency_cycles=300.0,
        dram_bandwidth_bytes_per_cycle=16.0,
        l3_line_ports=1,
        contention_penalty_cycles=18.0,
        energy_per_issue_slot=1100e-12,
        energy_per_l3_access=600e-12,
        energy_per_dram_access=4.0e-9,
        # package idle while the GPU slice runs: parked CPU cores + uncore
        idle_power_watts=5.0,
        latency_hiding=0.80,
        sustained_freq_hz=600e6,
        power_budget_watts=11.0,
    )


def hd4600() -> GpuDevice:
    """Intel HD Graphics 4600 (desktop GT2, 84W package TDP)."""
    return GpuDevice(
        name="Intel HD Graphics 4600",
        num_eus=20,
        threads_per_eu=7,
        simd_width=16,
        min_freq_hz=350e6,
        max_freq_hz=1.25e9,
        l3_size_bytes=8 * 1024,
        l3_line_bytes=64,
        l3_assoc=16,
        l3_hit_cycles=80.0,
        dram_latency_cycles=280.0,
        dram_bandwidth_bytes_per_cycle=20.0,
        l3_line_ports=1,
        contention_penalty_cycles=18.0,
        energy_per_issue_slot=3200e-12,
        energy_per_l3_access=900e-12,
        energy_per_dram_access=6.0e-9,
        # desktop package idle (CPU parked, uncore, VRs) during GPU runs
        idle_power_watts=16.0,
        latency_hiding=0.80,
        sustained_freq_hz=1.25e9,
    )
