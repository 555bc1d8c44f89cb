"""Device backends for the Concord runtime.

A backend is a device: :class:`CpuBackend` and :class:`GpuBackend` run a
chunk of a construct's work-items (``launch`` / ``reduce``) and price it
with their timing model.  Which engine runs the lanes is not their
decision: they ask the runtime for one (``ConcordRuntime._make_engine``)
and hand it a chunk, or a reduction's joins, as a launch
(``run_launch``, through :func:`~repro.backend.base.run_lanes`, the one
writer of ``rt.trace_log``); see :mod:`repro.exec`.  Nothing here makes
a per-lane trace.  Where the chunks run is not their decision either:
:func:`~repro.backend.base.run_construct` runs every construct from a
plan — one chunk for the backends' own ``run_for`` / ``run_reduce``,
earliest-completion chunks for :mod:`repro.sched`'s splits.  See
``docs/RUNTIME.md``.
"""

from .base import LaunchResult
from .cpu import CpuBackend
from .gpu import GpuBackend

__all__ = ["LaunchResult", "CpuBackend", "GpuBackend"]
