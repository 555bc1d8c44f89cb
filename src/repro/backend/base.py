"""The device-backend protocol.

A backend runs *chunks* of a parallel construct on one device and prices
them with that device's timing model.  Two levels of entry points:

* **Construct level** — ``run_for`` / ``run_reduce`` execute a whole
  construct exactly as the pre-refactor monolithic runtime did (same span
  structure, same observer records, bit-identical timing).  The ``cpu``
  and ``gpu`` scheduler policies delegate straight to these.

* **Chunk level** — ``prepare`` / ``launch`` / ``reduce`` run a
  contiguous index range and return the raw :class:`LaunchResult`
  (traces + device report) *without* touching the observer.  The
  scheduler composes these into hybrid constructs and does the
  construct-level bookkeeping itself.

Backends are stateless apart from the owning runtime: every engine,
trace, allocator and counter comes from the :class:`ConcordRuntime`
passed at construction, so two backends over one runtime share the code
cache, private pool and SVM region exactly as the monolith did.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from ..gpu.timing import DeviceReport


@dataclass
class LaunchResult:
    """What one chunk of work cost: the device report plus the traces it
    was priced from — one :class:`~repro.exec.buffers.LaunchTrace` for a
    GPU chunk, one :class:`~repro.exec.ExecTrace` for a CPU chunk (the
    scheduler feeds their ``counter_totals()`` / ``block_totals()`` to
    counter harvesting and source-line attribution)."""

    report: DeviceReport
    traces: list = field(default_factory=list)

    @property
    def kept_events(self) -> int:
        """Mem events retained across this chunk's traces (the scheduler
        charges them against the construct's global cap budget)."""
        return sum(trace.kept_events for trace in self.traces)


class Backend(abc.ABC):
    """One device's execution + timing strategy (see module docstring)."""

    #: device name; doubles as the scheduler registry key
    name: str = ""
    #: what this backend can run ("for", "reduce") and provide ("jit")
    capabilities: frozenset = frozenset()

    def __init__(self, rt):
        self.rt = rt

    # -- chunk-level primitives -------------------------------------------

    @abc.abstractmethod
    def prepare(self, kinfo) -> float:
        """One-time per-kernel setup (e.g. the GPU's vendor JIT); returns
        the simulated seconds charged to *this* call (0.0 when cached)."""

    def jit_preview(self, kinfo) -> float:
        """The cost :meth:`prepare` would charge for this kernel *without*
        performing the setup — the task graph's compile-ahead estimate.
        Backends with no one-time setup preview as free."""
        return 0.0

    @abc.abstractmethod
    def launch(
        self,
        kinfo,
        span: range,
        body_addr: int,
        timing_cache=None,
        budget: Optional[int] = None,
    ) -> LaunchResult:
        """Execute ``operator()`` lanes for every index in ``span`` against
        the body at ``body_addr`` and price them.  ``timing_cache`` threads
        one cache model through consecutive chunks of a construct (so a
        split construct is priced like one launch); ``budget`` caps the
        mem events this chunk may retain."""

    @abc.abstractmethod
    def reduce(
        self,
        kinfo,
        span: range,
        copies: list,
        timing_cache=None,
        budget: Optional[int] = None,
    ) -> LaunchResult:
        """Execute reduction lanes for every index in ``span``, each into
        its private body copy ``copies[index]`` (section 3.3 layout: one
        copy per work-item, joined afterwards by the caller)."""

    # -- construct-level entry points -------------------------------------

    @abc.abstractmethod
    def run_for(self, kinfo, n: int, body):
        """A whole ``parallel_for_hetero`` construct, observer-recorded."""

    @abc.abstractmethod
    def run_reduce(self, kinfo, n: int, body):
        """A whole ``parallel_reduce_hetero`` construct, observer-recorded."""
