"""The construct scheduler (dispatch, history, the split planner).

The scheduler sits between ``ConcordRuntime``'s public constructs and the
device backends.  Single-device policies run a backend's ``run_for`` /
``run_reduce`` (one chunk); the ``auto``/``hybrid`` policies use
:meth:`Scheduler.run_split` to partition one index space across both
backends with greedy earliest-completion-time chunk dispatch.  Either
way :func:`~repro.backend.base.run_construct` runs the construct; the
scheduler only places its chunks:

* Functional execution stays **sequential in global index order**: chunks
  are carved off the front of the remaining range one at a time and run
  immediately on whichever device the dispatcher picked, so a split
  construct mutates the shared region in exactly the order a
  single-device launch would — that is what makes hybrid runs
  bit-identical to ``gpu`` runs.

* Modeled *time* overlaps: each device keeps a virtual clock that
  advances by its chunks' modeled seconds, a chunk goes to the device
  with the earliest estimated completion, and the construct's wall time
  is the later of the two final clocks.  Each backend's chunks price
  against a cache model threaded through the whole construct, so a split
  launch warms the L3/LLC like one big launch.

* Measured chunk throughput feeds the per-kernel history (shared across
  constructs and seedable from a prior profile); the CPU:GPU throughput
  ratio sizes GPU chunks, prices the one-time CPU probe, and backs the
  end-game guard that keeps a slow device from overhanging the finish.
  ``sched.repartition`` counts calibration moves beyond
  :data:`REPARTITION_DELTA`.
"""

from __future__ import annotations

from typing import Optional

from ..backend.base import Plan, run_construct
from .policies import POLICIES

#: A chunk whose recalibrated GPU share moved by more than this counts as
#: a re-partition event (``sched.repartition``).
REPARTITION_DELTA = 0.1

#: Prior CPU slowdown vs the GPU, used to price the CPU probe before any
#: CPU measurement exists for a kernel.
PRIOR_CPU_SLOWDOWN = 8.0

#: A CPU chunk is only dispatched when its estimated completion, padded
#: by this safety factor (chunk cost varies across the index space),
#: still beats the GPU alternative — the end-game guard that keeps the
#: slower device from overhanging the construct's finish.
CPU_SAFETY = 1.25

#: GPU chunks are the CPU chunk size times the calibrated throughput
#: ratio, capped here (keeps launch counts sane on extreme ratios).
MAX_GPU_CHUNK_RATIO = 64


class Scheduler:
    """Dispatches constructs through a placement policy — the runtime's
    ``options.policy`` unless a construct names its own.  It keeps the
    throughput history and holds no runtime: the runtime whose construct
    it places is each dispatch's first argument."""

    def __init__(self, engines: dict):
        #: device -> the lane engine that runs it in the owning runtime
        #: (``ConcordRuntime.lane_engine``), the engine a history row
        #: records and an estimate prefers by default
        self.engines = engines
        #: (body-class name, device) -> [items, device seconds] observed,
        #: plus an engine-qualified (key, device, engine) row per
        #: observation; every recorded launch/chunk refines the estimates.
        #: The engine rows let placement prefer measurements from the lane
        #: engine actually running (columnar vector vs threaded-code) and
        #: keep profiles seeded from one engine from mispricing another.
        self.history: dict[tuple, list] = {}
        self.repartitions = 0

    # -- plumbing ----------------------------------------------------------

    def key_of(self, kinfo) -> str:
        """History key: the body class is stable across the CPU/GPU kernel
        forms (whose IR function names differ)."""
        return kinfo.body_class.name

    # -- dispatch ----------------------------------------------------------

    def run(self, rt, kinfo, n, body, construct, on_cpu=False, policy=None):
        name = policy if policy is not None else rt.options.policy
        if name not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {name!r}; choose from "
                f"{sorted(POLICIES)}"
            )
        fallback = ""
        if on_cpu:
            # paper-faithful on_cpu=True: force the CPU path, no fallback
            name = "cpu"
        elif kinfo.cpu_only and name != "cpu":
            name = "cpu"
            fallback = "restriction fallback"
        counters = rt.counters
        if counters is not None:
            counters.add("sched.constructs")
            counters.add(f"sched.policy.{name}")
            telemetry = rt.obs.telemetry
            if telemetry is not None:
                telemetry.emit(
                    "sched",
                    self.key_of(kinfo),
                    decision="policy",
                    policy=name,
                    construct=construct,
                    n=n,
                    fallback=fallback,
                )
        report = POLICIES[name](rt, kinfo, n, body, construct)
        if fallback:
            report.fallback_reason = fallback
        return report

    # -- throughput history ------------------------------------------------

    def record(
        self,
        key: str,
        device: str,
        items: int,
        seconds: float,
        engine: Optional[str] = None,
    ) -> None:
        if items <= 0 or seconds <= 0.0:
            return
        if engine is None:
            engine = self.engines[device]
        for hkey in ((key, device), (key, device, engine)):
            entry = self.history.setdefault(hkey, [0, 0.0])
            entry[0] += items
            entry[1] += seconds

    def throughput(
        self, key: str, device: str, engine: Optional[str] = None
    ) -> Optional[float]:
        """Observed items/second for one kernel on one device, or ``None``
        before any measurement.  Measurements taken under the engine that
        will actually run (``engine``, defaulting to this runtime's) are
        preferred; the per-device aggregate is the fallback, so history
        seeded by an older profile without engine rows still primes the
        estimate."""
        if engine is None:
            engine = self.engines[device]
        entry = self.history.get((key, device, engine))
        if entry is None:
            entry = self.history.get((key, device))
        if entry is None or entry[1] <= 0.0:
            return None
        return entry[0] / entry[1]

    def gpu_share(self, key: str, default: float = 0.5) -> float:
        """The calibrated GPU fraction of the index space: with measured
        throughputs ``tg``/``tc``, splitting ``tg/(tg+tc)`` of the items
        to the GPU makes both devices finish together."""
        tg = self.throughput(key, "gpu")
        tc = self.throughput(key, "cpu")
        if tg is None or tc is None:
            return default
        return tg / (tg + tc)

    def seed_from_profile(self, rt, doc: dict) -> int:
        """Seed the throughput history from a prior ``repro.obs`` profile
        document (``repro.obs.profile/v1``) of ``rt``'s program, so
        ``auto``/``hybrid`` start calibrated instead of probing.  Returns
        the number of construct records absorbed."""
        names = {}
        for kinfo in rt.program.kernels.values():
            key = self.key_of(kinfo)
            names[kinfo.kernel.name] = key
            names[kinfo.gpu_kernel.name] = key
        # Profiles record which lane engine produced them (meta.engine);
        # seed the matching engine-qualified rows so a vector-engine
        # profile doesn't skew placement for a threaded-code runtime (or
        # vice versa).  CPU lanes always ran threaded code under vector.
        profile_engine = (doc.get("meta") or {}).get("engine")
        seeded = 0
        for construct in doc.get("constructs", []):
            device = construct.get("device")
            key = names.get(construct.get("kernel"))
            if device not in ("cpu", "gpu") or key is None:
                continue
            n = construct.get("n") or 0
            phases = construct.get("phases") or {}
            seconds = phases.get("launch", construct.get("seconds", 0.0))
            if n and seconds:
                engine = rt.lane_engine(device, profile_engine or "unknown")
                self.record(key, device, n, seconds, engine=engine)
                seeded += 1
        return seeded

    # -- split (hybrid / auto warm-up) execution ---------------------------

    def run_split(self, rt, kinfo, n, body, construct, chunk_items, policy_name):
        """One construct partitioned across both backends (see module
        docstring): :func:`~repro.backend.base.run_construct` runs the
        chunks :meth:`_chunks` places."""
        plan = Plan(
            "hybrid",
            ("gpu", "cpu"),
            self._chunks(rt, kinfo, n, chunk_items),
            {"policy": policy_name},
        )
        return run_construct(rt, kinfo, n, body, construct, plan)

    def _chunks(self, rt, kinfo, n, chunk_items):
        """The earliest-completion planner.  ``chunk_items`` is the
        CPU-side chunk granularity; GPU chunks scale up by the calibrated
        throughput ratio.  Each chunk goes to the device with the earliest
        estimated completion, with a cold-start CPU probe and an end-game
        guard; its measured seconds advance that device's clock and feed
        the history before the next chunk is placed."""
        key = self.key_of(kinfo)
        counters = rt.counters
        # Per-device virtual clocks and in-construct throughput (fresher
        # than the cross-construct history, so it wins when present).
        clock = {"gpu": 0.0, "cpu": 0.0}
        items = {"gpu": 0, "cpu": 0}

        def est(device):
            if clock[device] > 0.0 and items[device] > 0:
                return items[device] / clock[device]
            return self.throughput(key, device)

        # Chunks are rounded up to warp (SIMD-width) multiples so GPU
        # chunks keep the exact lane grouping a single launch would have —
        # a misaligned chunk boundary would change the divergence model's
        # warp packing and break timing comparability with ``gpu`` runs.
        warp = max(1, rt.system.gpu.simd_width)
        chunk_items = -(-max(1, chunk_items) // warp) * warp
        lo = 0
        index = 0
        last_share = None
        while lo < n:
            device, size = self._pick(
                est("gpu"), est("cpu"), clock, n - lo, chunk_items, counters
            )
            result = yield device, range(lo, lo + size)
            seconds = result.report.seconds
            clock[device] += seconds
            items[device] += size
            self.record(key, device, size, seconds)
            if counters is not None:
                counters.add(f"sched.chunks.{device}")
                counters.add(f"sched.items.{device}", size)
                telemetry = rt.obs.telemetry
                if telemetry is not None:
                    telemetry.emit(
                        "sched",
                        key,
                        decision="chunk",
                        device=device,
                        chunk=index,
                        lo=lo,
                        items=size,
                    )
            share = self.gpu_share(key)
            if last_share is not None and abs(share - last_share) > REPARTITION_DELTA:
                self.repartitions += 1
                if counters is not None:
                    counters.add("sched.repartition")
            last_share = share
            lo += size
            index += 1

    def _pick(self, tg, tc, clock, remaining, chunk_items, counters):
        """Choose ``(device, size)`` for the next chunk off the front of
        the remaining range — greedy earliest estimated completion with a
        cold-start probe and the end-game guard."""
        if tg is None:
            # Nothing measured yet: a small GPU chunk calibrates the
            # paper's default device first.
            return "gpu", min(remaining, chunk_items)
        if tc is None:
            # CPU still unmeasured.  Probe it once with one chunk, priced
            # at the pessimistic prior — unless the GPU is estimated to
            # finish everything before the probe would land.
            probe_cost = chunk_items * PRIOR_CPU_SLOWDOWN / tg
            if remaining > chunk_items and probe_cost <= remaining / tg:
                if counters is not None:
                    counters.add("sched.probes")
                return "cpu", chunk_items
            return "gpu", min(remaining, chunk_items * int(PRIOR_CPU_SLOWDOWN))
        ratio = max(1, min(MAX_GPU_CHUNK_RATIO, round(tg / tc)))
        cpu_size = min(chunk_items, remaining)
        gpu_size = min(remaining, chunk_items * ratio)
        cpu_finish = clock["cpu"] + cpu_size / tc
        gpu_finish = clock["gpu"] + gpu_size / tg
        gpu_alone = clock["gpu"] + remaining / tg
        if (
            # end-game: the GPU must keep at least one full chunk of work
            # to overlap this CPU chunk — a tail chunk whose real cost
            # exceeds the estimate (chunk cost is index-dependent) would
            # otherwise overhang the construct's finish with nothing left
            # to hide it behind
            remaining - cpu_size >= gpu_size
            and cpu_finish * CPU_SAFETY <= gpu_finish
            and cpu_finish * CPU_SAFETY <= gpu_alone
        ):
            return "cpu", cpu_size
        return "gpu", gpu_size
