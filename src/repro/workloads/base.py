"""Common infrastructure for the nine evaluation workloads (Table 1).

Each workload provides:

* ``source`` — MiniC++ device code (classes, bodies, helpers), compiled by
  the Concord frontend;
* ``build(rt, scale)`` — allocate/fill input structures in SVM and return a
  state object (the paper's host-side setup code);
* ``run(rt, state, on_cpu)`` — execute the workload's heterogeneous loops
  (possibly many launches, e.g. BFS level iterations) and return the
  accumulated :class:`ExecutionReport` list;
* ``validate(rt, state)`` — check results against a pure-Python reference.

Scale 1.0 is the benchmark size; tests use smaller scales.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from ..passes import OptConfig
from ..runtime import (
    CompiledProgram,
    ConcordRuntime,
    ExecutionReport,
    RunConfig,
    compile_source,
)
from ..runtime.system import System


@dataclass
class RunOutcome:
    workload: str
    device: str
    reports: list[ExecutionReport] = field(default_factory=list)
    #: GraphStats when the run went through the task-graph runtime
    graph_stats: object = None
    #: the compiled program the run used
    program: object = None

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.reports)

    @property
    def energy_joules(self) -> float:
        return sum(r.energy_joules for r in self.reports)


class Workload(abc.ABC):
    #: Table 1 metadata
    name: str = ""
    origin: str = ""
    data_structure: str = ""
    parallel_construct: str = "parallel_for_hetero"
    body_class: str = ""
    input_description: str = ""

    #: MiniC++ source of the device code
    source: str = ""

    #: shared-region size of a workload's runtimes
    region_size: int = 1 << 24

    _program_cache: dict = {}

    @classmethod
    def compile(cls, config: OptConfig, observer=None) -> CompiledProgram:
        key = (cls.__name__, config)
        cached = Workload._program_cache.get(key)
        if cached is None or observer is not None:
            # With an observer attached we always compile fresh so the
            # compile/SVM-lower spans and pass statistics are recorded for
            # this observation (the result is equivalent, so it may still
            # refresh the cache).
            cached = compile_source(
                cls.source, config, module_name=cls.name, observer=observer
            )
            Workload._program_cache[key] = cached
        return cached

    @classmethod
    def make_runtime(
        cls, config: OptConfig = None, system: Optional[System] = None, observer=None, **options
    ) -> ConcordRuntime:
        """A runtime over this workload's program; ``options`` are
        :class:`ConcordRuntime` keywords (the :class:`RunConfig` fields
        among them)."""
        program = cls.compile(config or OptConfig.gpu_all(), observer=observer)
        return ConcordRuntime(
            program, system, region_size=cls.region_size, observer=observer, **options
        )

    @abc.abstractmethod
    def build(self, rt: ConcordRuntime, scale: float = 1.0):
        ...

    @abc.abstractmethod
    def run(self, rt: ConcordRuntime, state, on_cpu: bool = False) -> list[ExecutionReport]:
        ...

    @abc.abstractmethod
    def validate(self, rt: ConcordRuntime, state) -> None:
        ...

    @classmethod
    def loc(cls) -> int:
        """Lines of MiniC++ source (Table 1's LoC analogue)."""
        return sum(1 for line in cls.source.splitlines() if line.strip())

    @classmethod
    def device_loc(cls) -> int:
        """Lines inside the parallel body classes (Table 1's device LoC)."""
        lines = cls.source.splitlines()
        count = 0
        depth = 0
        inside = False
        for line in lines:
            stripped = line.strip()
            if not inside and stripped.startswith("class") and cls.body_class in stripped:
                inside = True
                depth = 0
            if inside:
                if stripped:
                    count += 1
                depth += line.count("{") - line.count("}")
                if depth <= 0 and "}" in line and count > 1:
                    inside = False
        return count

    def execute(
        self,
        config: OptConfig,
        system: Optional[System] = None,
        on_cpu: bool = False,
        scale: float = 1.0,
        validate: bool = True,
        observer=None,
        **options,
    ) -> RunOutcome:
        """Convenience: compile, build, run, validate, aggregate.

        ``options`` are :class:`RunConfig` fields and nothing else (any
        other keyword is a ``TypeError``).  A ``policy`` given here
        overrides ``on_cpu``: every construct dispatches through it.  With
        ``graph=True`` every construct goes through the task-graph runtime
        (results stay bit-identical; see ``docs/GRAPH.md``) and the graph's
        accounting is attached to the outcome.
        """
        RunConfig(**options)
        rt = self.make_runtime(config, system, observer=observer, **options)
        policy = options.get("policy")
        if policy is not None:
            on_cpu = False
        state = self.build(rt, scale)
        reports = self.run(rt, state, on_cpu=on_cpu)
        graph_stats = rt.wait() if rt.options.graph else None
        if validate:
            self.validate(rt, state)
        if policy is not None:
            device = reports[0].device if reports else policy
        else:
            device = "cpu" if on_cpu else reports[0].device if reports else "gpu"
        return RunOutcome(
            workload=self.name,
            device=device,
            reports=reports,
            graph_stats=graph_stats,
            program=rt.program,
        )


_REGISTRY: dict[str, type] = {}


def register(cls):
    _REGISTRY[cls.name] = cls
    return cls


def all_workloads() -> dict[str, type]:
    # populate on first use
    from . import (  # noqa: F401
        barneshut,
        bfs,
        btree,
        clothphysics,
        connectedcomponent,
        facedetect,
        raytracer,
        skiplist,
        sssp,
    )

    return dict(_REGISTRY)
