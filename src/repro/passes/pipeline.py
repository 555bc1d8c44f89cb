"""Pass manager and the standard pipelines.

Two pipelines mirror the paper's compiler (section 3 and 4):

* :func:`standard_pipeline` — the classical optimizations run on every
  function (register promotion via mem2reg, constant folding, CSE, DCE,
  CFG simplification, inlining of device functions, tail-recursion
  elimination, loop unrolling bounded by max-live).
* :func:`kernel_pipeline` — device-side lowering for offloaded kernels:
  devirtualization (inline test sequences for virtual calls), SVM pointer
  translation insertion, then optionally PTROPT (section 4.1) and L3OPT
  (section 4.2), followed by a cleanup round.

``OptConfig`` selects the paper's four measured configurations: GPU,
GPU+PTROPT, GPU+L3OPT and GPU+ALL.

Both pipelines resolve their passes through :data:`PASS_REGISTRY` (name →
callable) so that individual passes can be switched off by name via
``OptConfig.disabled`` — the hook the differential fuzzer
(:mod:`repro.fuzz`) uses to compare the full pipeline against every
per-pass-disabled configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..ir import Function, Module, verify_function


def _registry() -> dict:
    from .constfold import constant_fold
    from .cse import common_subexpression_elimination
    from .dce import dead_code_elimination
    from .devirt import expand_virtual_calls
    from .inline import make_inliner
    from .l3opt import reduce_cacheline_contention
    from .licm import loop_invariant_code_motion
    from .mem2reg import promote_memory_to_registers
    from .ptropt import optimize_pointer_translations
    from .simplifycfg import simplify_cfg
    from .svmlower import lower_svm_pointers
    from .tailrec import eliminate_tail_recursion
    from .unroll import unroll_loops

    return {
        "tailrec": eliminate_tail_recursion,
        "inline": make_inliner,  # factory: make_inliner(module) -> pass
        "mem2reg": promote_memory_to_registers,
        "constfold": constant_fold,
        "cse": common_subexpression_elimination,
        "dce": dead_code_elimination,
        "simplifycfg": simplify_cfg,
        "licm": loop_invariant_code_motion,
        "devirt": expand_virtual_calls,  # called as devirt(module, fn)
        "l3opt": reduce_cacheline_contention,
        "svmlower": lower_svm_pointers,
        "ptropt": optimize_pointer_translations,
        "unroll": unroll_loops,
    }


#: Every pipeline pass by name.  The pipelines fetch passes from here at
#: run time, so tests (and the fuzzer's injected-bug self-checks) may
#: monkeypatch an entry and see the change take effect everywhere.
PASS_REGISTRY: dict = _registry()

#: Passes that may be disabled without structurally breaking a device
#: kernel.  ``svmlower`` is excluded: without pointer translation a GPU
#: kernel dereferences CPU virtual addresses and faults by construction.
DISABLEABLE_PASSES: tuple = tuple(
    name for name in PASS_REGISTRY if name != "svmlower"
)

#: Disableable passes whose absence still leaves the kernel runnable on
#: the GPU path.  ``inline`` flattens callees into the kernel so SVM
#: lowering sees every dereference, and ``devirt`` removes vtable loads
#: (vtable pointers are CPU addresses); disabling either is only
#: observable on the CPU path.
GPU_SAFE_DISABLE: tuple = tuple(
    name for name in DISABLEABLE_PASSES if name not in ("inline", "devirt")
)


@dataclass(frozen=True)
class OptConfig:
    """Which optional optimizations to apply to device kernels.

    ``device_alloc`` enables the extension the paper lists as future work
    ("We plan to lift the last two restrictions"): device-side ``new``
    through an atomic bump allocator in the shared region.  Off by
    default, matching the published system.

    ``disabled`` names pipeline passes (keys of :data:`PASS_REGISTRY`)
    to skip entirely — the differential-fuzzing oracle compiles one
    configuration per disabled pass and cross-checks results against the
    full pipeline.
    """

    ptropt: bool = False
    l3opt: bool = False
    classical: bool = True
    unroll: bool = True
    verify: bool = True
    device_alloc: bool = False
    disabled: frozenset = frozenset()

    def __post_init__(self):
        unknown = set(self.disabled) - set(PASS_REGISTRY)
        if unknown:
            raise ValueError(f"unknown passes in disabled set: {sorted(unknown)}")
        # Normalize so configs compare/hash equal regardless of the
        # iterable the caller passed.
        object.__setattr__(self, "disabled", frozenset(self.disabled))

    def without_pass(self, name: str) -> "OptConfig":
        """This configuration with pipeline pass ``name`` switched off."""
        return OptConfig(
            ptropt=self.ptropt,
            l3opt=self.l3opt,
            classical=self.classical,
            unroll=self.unroll,
            verify=self.verify,
            device_alloc=self.device_alloc,
            disabled=self.disabled | {name},
        )

    def cache_key(self) -> str:
        """Canonical string form of this configuration for content-hashed
        compilation artifacts (``repro.runtime.compiler``): every field in
        a fixed order, with the disabled set sorted, so equal configs —
        however constructed — always produce the same stage hashes."""
        return (
            f"ptropt={int(self.ptropt)};l3opt={int(self.l3opt)};"
            f"classical={int(self.classical)};unroll={int(self.unroll)};"
            f"verify={int(self.verify)};device_alloc={int(self.device_alloc)};"
            f"disabled={','.join(sorted(self.disabled))}"
        )

    @property
    def label(self) -> str:
        if self.ptropt and self.l3opt:
            return "GPU+ALL"
        if self.ptropt:
            return "GPU+PTROPT"
        if self.l3opt:
            return "GPU+L3OPT"
        return "GPU"

    @staticmethod
    def gpu() -> "OptConfig":
        return OptConfig()

    @staticmethod
    def gpu_ptropt() -> "OptConfig":
        return OptConfig(ptropt=True)

    @staticmethod
    def gpu_l3opt() -> "OptConfig":
        return OptConfig(l3opt=True)

    @staticmethod
    def gpu_all() -> "OptConfig":
        return OptConfig(ptropt=True, l3opt=True)

    @staticmethod
    def all_configs() -> list["OptConfig"]:
        return [
            OptConfig.gpu(),
            OptConfig.gpu_ptropt(),
            OptConfig.gpu_l3opt(),
            OptConfig.gpu_all(),
        ]


#: The paper's four configurations by label (the CLI's ``--config``
#: choices and the daemon protocol's ``"config"`` strings).
CONFIGS = {config.label: config for config in OptConfig.all_configs()}


@dataclass
class PassStats:
    name: str
    runs: int = 0
    changed: int = 0
    skipped: int = 0  # not run: known to leave the function as it is
    seconds: float = 0.0
    verify_seconds: float = 0.0  # verifying after this pass's changed runs


class PassManager:
    """Runs function passes with optional inter-pass verification, and
    does not re-run a pass it knows would change nothing (docs/PASSES.md)."""

    def __init__(self, verify: bool = True):
        self.verify = verify
        self.stats: dict[str, PassStats] = {}
        #: (function, pass) pairs whose last run reported no change, with no
        #: change by any pass to any function since.  Passes are
        #: deterministic, so running one of these again is a no-op.
        self._clean: set[tuple] = set()

    def run(
        self,
        function: Function,
        passes: list[Callable[[Function], bool]],
        max_iterations: int = 1,
    ) -> bool:
        """Run ``passes`` in order, repeating up to ``max_iterations``
        rounds while any pass reports a change."""
        any_change = False
        for _ in range(max_iterations):
            round_change = False
            for pass_fn in passes:
                name = getattr(pass_fn, "__name__", str(pass_fn))
                stat = self.stats.setdefault(name, PassStats(name))
                if (function, pass_fn) in self._clean:
                    self._skip(stat, pass_fn, function)
                    continue
                start = time.perf_counter()
                changed = bool(pass_fn(function))
                stat.seconds += time.perf_counter() - start
                stat.runs += 1
                if changed:
                    stat.changed += 1
                    round_change = True
                    self._clean.clear()
                    if self.verify:
                        start = time.perf_counter()
                        verify_function(function)
                        stat.verify_seconds += time.perf_counter() - start
                else:
                    self._clean.add((function, pass_fn))
            any_change = any_change or round_change
            if not round_change:
                break
        return any_change

    def _skip(self, stat: PassStats, pass_fn, function: Function) -> None:
        # Its own method so a test can run the pass anyway and see it idle.
        stat.skipped += 1


def _resolve(config: OptConfig, module: Module, names) -> list:
    """Look up enabled passes by name, skipping ``config.disabled``.

    ``inline`` resolves through its factory (it closes over the module)
    and ``devirt`` gets the module bound as its first argument; both keep
    a stable ``__name__`` so ``PassManager.stats`` stays readable.
    """
    passes = []
    for name in names:
        if name in config.disabled:
            continue
        fn = PASS_REGISTRY[name]
        if name == "inline":
            fn = fn(module)
        elif name == "devirt":
            devirt = fn

            def fn(function, _devirt=devirt):
                return _devirt(module, function)

            fn.__name__ = "expand_virtual_calls"
        passes.append(fn)
    return passes


def standard_pipeline(
    module: Module,
    function: Function,
    config: OptConfig,
    manager: Optional[PassManager] = None,
) -> None:
    manager = manager or PassManager(verify=config.verify)
    manager.run(function, _resolve(config, module, ["tailrec"]))
    manager.run(function, _resolve(config, module, ["inline"]))
    manager.run(function, _resolve(config, module, ["mem2reg"]))
    if config.classical:
        cleanup = _resolve(
            config, module, ["constfold", "cse", "dce", "simplifycfg"]
        )
        manager.run(function, cleanup, max_iterations=4)
        manager.run(function, _resolve(config, module, ["licm"]))
        manager.run(function, cleanup, max_iterations=2)
    function.domtree = None  # DominatorTree.of's; nobody asks after the pipeline


def kernel_pipeline(
    module: Module,
    kernel: Function,
    config: OptConfig,
    manager: Optional[PassManager] = None,
    observer=None,
) -> None:
    """Device-side lowering for one kernel function (already past the
    standard pipeline).

    ``observer`` (a ``repro.obs.Observer``) additionally brackets the
    SVM-lowering step in a dedicated phase span; pass-level statistics are
    always available through ``manager.stats`` regardless.
    """
    manager = manager or PassManager(verify=config.verify)
    manager.run(kernel, _resolve(config, module, ["devirt"]))
    # Devirtualization introduces direct calls to the candidate targets;
    # flatten them into the kernel so SVM lowering sees every dereference.
    manager.run(kernel, _resolve(config, module, ["inline"]))
    if config.classical:
        manager.run(
            kernel,
            _resolve(
                config,
                module,
                ["constfold", "cse", "dce", "simplifycfg", "licm"],
            ),
            max_iterations=2,
        )
    if config.l3opt:
        manager.run(kernel, _resolve(config, module, ["l3opt"]))
    svmlower = _resolve(config, module, ["svmlower"])
    if observer is not None:
        with observer.span("svm_lower", "phase", kernel=kernel.name):
            manager.run(kernel, svmlower)
    else:
        manager.run(kernel, svmlower)
    if config.ptropt:
        manager.run(kernel, _resolve(config, module, ["ptropt"]))
        manager.run(
            kernel,
            _resolve(config, module, ["constfold", "cse", "dce", "simplifycfg"]),
            max_iterations=4,
        )
    else:
        # Without PTROPT only trivial cleanup runs; translation arithmetic
        # stays at every dereference, as in the paper's GPU baseline.
        manager.run(kernel, _resolve(config, module, ["dce"]))
    if config.classical and config.unroll:
        manager.run(kernel, _resolve(config, module, ["unroll"]))
        manager.run(
            kernel,
            _resolve(config, module, ["constfold", "dce", "simplifycfg"]),
            max_iterations=2,
        )
    kernel.domtree = None
