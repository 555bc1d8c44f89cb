"""Placement policies: where does a construct's index space run?

A policy is a function ``(rt, kinfo, n, body, construct)`` returning
the construct's ``ExecutionReport``; :data:`POLICIES` names the four.
``cpu`` and ``gpu`` are the paper-faithful single-device paths — one
backend's ``run_for`` / ``run_reduce``.  ``auto`` picks the faster
device per kernel, warming up through a split first construct when it
has no measurements; ``hybrid`` splits every large enough construct
across both backends with the scheduler's earliest-completion chunk
dispatch.  All four feed the scheduler's throughput history, so
decisions sharpen over a run and can be pre-seeded from a prior profile
(``Scheduler.seed_from_profile``).  Policies keep no state: anything
one wants to remember lives in the scheduler's history.
"""

from __future__ import annotations

#: Below this many work-items a hybrid split cannot pay for itself —
#: degrade to the best known single device.
MIN_SPLIT_ITEMS = 4

#: Smallest chunk granularity (work-items) for split dispatch.
MIN_CHUNK = 16

#: CPU-side chunk size is ``max(MIN_CHUNK, n // CHUNK_DIVISOR)`` — about
#: CHUNK_DIVISOR dispatch decisions per construct, enough for the
#: calibration to steer mid-construct without drowning in tiny launches.
CHUNK_DIVISOR = 64


def _chunk_size(n: int) -> int:
    return max(MIN_CHUNK, n // CHUNK_DIVISOR)


def _single(rt, device: str, kinfo, n, body, construct: str):
    """Whole construct on one backend, with the observed launch time fed
    back into the throughput history."""
    backend = rt.backends[device]
    run = backend.run_reduce if construct == "reduce" else backend.run_for
    result = run(rt, kinfo, n, body)
    sched = rt.scheduler
    sched.record(sched.key_of(kinfo), device, n, result.report.seconds)
    return result


def _best_known(sched, kinfo, default: str = "gpu") -> str:
    """The faster device per the history, or ``default`` when either side
    is still unmeasured."""
    key = sched.key_of(kinfo)
    tg = sched.throughput(key, "gpu")
    tc = sched.throughput(key, "cpu")
    if tg is None or tc is None:
        return default
    return "gpu" if tg >= tc else "cpu"


def cpu(rt, kinfo, n, body, construct):
    """Everything on the multicore CPU (the paper's ``on_cpu=True``)."""
    return _single(rt, "cpu", kinfo, n, body, construct)


def gpu(rt, kinfo, n, body, construct):
    """Everything offloaded to the integrated GPU (paper-faithful
    default)."""
    return _single(rt, "gpu", kinfo, n, body, construct)


def auto(rt, kinfo, n, body, construct):
    """Profile-guided single-device placement.

    With throughput history for both devices (from earlier constructs of
    the same kernel, from a split warm-up, or seeded from a prior
    ``repro.obs`` profile), the whole construct goes to the faster one.
    Cold kernels with enough items warm up through one split construct —
    the chunk dispatcher measures both devices as a side effect and the
    winner dominates from the second construct on; tiny cold constructs
    just take the paper's GPU default.  Reductions carry per-item
    scratch copies; they stay whole on the best known device rather than
    paying a split warm-up.
    """
    sched = rt.scheduler
    key = sched.key_of(kinfo)
    known = (
        sched.throughput(key, "gpu") is not None
        and sched.throughput(key, "cpu") is not None
    )
    if construct == "reduce" or known or n < 2 * MIN_CHUNK:
        return _single(rt, _best_known(sched, kinfo), kinfo, n, body, construct)
    return sched.run_split(rt, kinfo, n, body, construct, _chunk_size(n), "auto")


def hybrid(rt, kinfo, n, body, construct):
    """Split each construct across CPU and GPU by calibrated throughput.

    Chunks are dispatched to the device with the earliest estimated
    completion (see ``Scheduler.run_split``); the CPU:GPU throughput
    ratio from the accumulated history sizes GPU chunks and gates CPU
    participation.  Constructs under :data:`MIN_SPLIT_ITEMS` items
    degrade to the best known single device.
    """
    sched = rt.scheduler
    if n < MIN_SPLIT_ITEMS:
        if rt.counters is not None:
            rt.counters.add("sched.degraded")
        return _single(rt, _best_known(sched, kinfo), kinfo, n, body, construct)
    return sched.run_split(rt, kinfo, n, body, construct, _chunk_size(n), "hybrid")


#: name -> policy; ``RunConfig.policy`` takes its choices from it
POLICIES = {"cpu": cpu, "gpu": gpu, "auto": auto, "hybrid": hybrid}
