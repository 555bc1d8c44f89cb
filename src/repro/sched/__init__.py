"""Construct scheduler: placement policies over device backends.

Every ``parallel_for_hetero`` / ``parallel_reduce_hetero`` construct is
dispatched through a :class:`Scheduler`, which owns the policy table
(``cpu``, ``gpu``, ``auto``, ``hybrid`` — see :mod:`repro.sched.policies`),
the per-kernel throughput history that calibrates the ``auto``/``hybrid``
decisions, and the planner that splits one index space across both
backends.  See ``docs/RUNTIME.md``.
"""

from .policies import POLICIES
from .scheduler import Scheduler

__all__ = ["POLICIES", "Scheduler"]
