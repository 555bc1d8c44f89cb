"""Construct scheduler: pluggable placement policies over device backends.

Every ``parallel_for_hetero`` / ``parallel_reduce_hetero`` construct is
dispatched through a :class:`Scheduler`, which owns the policy registry
(``cpu``, ``gpu``, ``auto``, ``hybrid`` — see :mod:`repro.sched.policies`),
the per-kernel throughput history that calibrates the ``auto``/``hybrid``
decisions, and the machinery for splitting one index space across both
backends.  See ``docs/RUNTIME.md``.
"""

from .policies import (
    POLICIES,
    AutoPolicy,
    CpuPolicy,
    GpuPolicy,
    HybridPolicy,
    Policy,
    register_policy,
)
from .scheduler import Scheduler, parallel_report

__all__ = [
    "AutoPolicy",
    "CpuPolicy",
    "GpuPolicy",
    "HybridPolicy",
    "POLICIES",
    "Policy",
    "Scheduler",
    "parallel_report",
    "register_policy",
]
