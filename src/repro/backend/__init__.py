"""Pluggable device backends for the Concord runtime.

A backend is a device.  A :class:`Backend` encapsulates everything
device-specific about running one parallel construct: trace setup, the
per-device timing model, JIT caching (GPU) and the observer bookkeeping.
Which engine runs the lanes is not its decision: it asks the runtime for
one (``ConcordRuntime._make_engine``) and hands it a chunk
(``run_chunk``) or a launch (``run_launch``); see :mod:`repro.exec`.
:class:`CpuBackend` and :class:`GpuBackend` absorb what used to be
``ConcordRuntime``'s four near-duplicate launch paths; the
:mod:`repro.sched` scheduler composes their chunk-level primitives
(``launch`` / ``reduce``) into hybrid co-execution.  See
``docs/RUNTIME.md``.
"""

from .base import Backend, LaunchResult
from .cpu import CpuBackend
from .gpu import GpuBackend

__all__ = ["Backend", "LaunchResult", "CpuBackend", "GpuBackend"]
