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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from ..ir import Function, Module, VerificationError, verify_function


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
    #: verifying, when a stage ends, what the stage's passes changed —
    #: booked on the last of them to change the function
    verify_seconds: float = 0.0


@dataclass(frozen=True)
class Declared:
    """What a registered pass tells the manager about itself, so that it
    is not run where it cannot have work.  Each entry of :data:`DECLARED`
    is argued in docs/PASSES.md and held to ``tests/test_compile_linear.py``
    (d): every run skipped on its strength would have reported "no
    change"."""

    #: an opcode, or ``"loop"``: a function without one has no work for it
    needs: Optional[str] = None
    #: registry names of passes whose changes cannot create work for it;
    #: naming itself says a second run straight after its own finds nothing
    unaffected_by: frozenset = frozenset()


DECLARED: dict = {
    "tailrec": Declared(needs="call"),
    "inline": Declared(needs="call"),
    "mem2reg": Declared(needs="alloca"),
    "cse": Declared(unaffected_by=frozenset({"cse", "dce"})),
    "dce": Declared(unaffected_by=frozenset({"dce"})),
    "devirt": Declared(needs="vcall"),
    "licm": Declared(needs="loop"),
    "unroll": Declared(needs="loop"),
    "l3opt": Declared(needs="loop"),
}


_UNDECLARED = Declared()


def _shape(function: Function) -> set:
    """The opcodes ``function`` holds, plus ``"loop"`` if some branch
    targets its own block or one laid out before it — every cycle has
    such an edge whatever the layout, so no ``"loop"`` means no loop."""
    shape = set()
    position = {block: index for index, block in enumerate(function.blocks)}
    for index, block in enumerate(function.blocks):
        shape.update([instr.op for instr in block.instructions])
        for target in block.instructions[-1].targets if block.instructions else ():
            if position.get(target, 0) <= index:
                shape.add("loop")
    return shape


class PassManager:
    """Runs function passes, does not run one it knows would change
    nothing, and verifies what a stage changed when the stage ends
    (docs/PASSES.md)."""

    def __init__(self, verify: bool = True):
        self.verify = verify
        self.stats: dict[str, PassStats] = {}
        #: the pass behind every changed run so far, oldest first (registry
        #: name if it came through :meth:`passes`, else ``__name__``)
        self._changes: list[str] = []
        #: (function, pass) -> ``len(_changes)`` going into its latest run.
        #: Passes are deterministic: if that run changed nothing, or only
        #: what a second run would leave alone, and every change since is
        #: one the pass declares itself unaffected by, it has no work.
        self._looked: dict[tuple, int] = {}
        #: function -> passes that changed it since it was last verified
        self._unverified: dict[Function, list[str]] = {}
        self._resolved: dict[tuple, Callable] = {}  # (module, registry name) -> pass
        self._declared: dict[Callable, tuple] = {}  # pass -> (registry name, Declared)
        self._shape_of: tuple = (None, -1, frozenset())  # (function, len(_changes), shape)

    def passes(self, config: OptConfig, module: Module, names) -> list:
        """Look up enabled passes by name, skipping ``config.disabled``.

        ``inline`` resolves through its factory (it closes over the module)
        and ``devirt`` gets the module bound as its first argument; both keep
        a stable ``__name__`` so :attr:`stats` stays readable, and both are
        built once per module, so a run of theirs that found nothing is
        remembered like any other pass's.
        """
        passes = []
        for name in names:
            if name in config.disabled:
                continue
            fn = self._resolved.get((module, name))
            if fn is None:
                fn = PASS_REGISTRY[name]
                if name == "inline":
                    fn = fn(module)
                elif name == "devirt":
                    devirt = fn

                    def fn(function, _devirt=devirt):
                        return _devirt(module, function)

                    fn.__name__ = "expand_virtual_calls"
                self._resolved[module, name] = fn
                self._declared[fn] = (name, DECLARED.get(name, _UNDECLARED))
            passes.append(fn)
        return passes

    def run(
        self,
        function: Function,
        passes: list[Callable[[Function], bool]],
        max_iterations: int = 1,
    ) -> bool:
        """Run ``passes`` in order, repeating up to ``max_iterations``
        rounds while any pass reports a change.  Nothing is verified here:
        a pipeline ends its :meth:`stage`, any other caller asks
        ``verify_function`` itself."""
        changes = self._changes
        any_change = False
        for _ in range(max_iterations):
            round_change = False
            for pass_fn in passes:
                name = getattr(pass_fn, "__name__", str(pass_fn))
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = PassStats(name)
                registered, declared = self._declared.get(pass_fn, (name, _UNDECLARED))
                since = self._looked.get((function, pass_fn))
                # nothing changed since (an empty slice), or nothing that matters
                if since is not None and declared.unaffected_by.issuperset(changes[since:]):
                    self._skip(stat, pass_fn, function)
                    continue
                self._looked[function, pass_fn] = len(changes)
                if declared.needs is not None and declared.needs not in self._shape(function):
                    self._skip(stat, pass_fn, function)
                    continue
                start = time.perf_counter()
                changed = bool(pass_fn(function))
                stat.seconds += time.perf_counter() - start
                stat.runs += 1
                if changed:
                    stat.changed += 1
                    round_change = True
                    changes.append(registered)
                    self._unverified.setdefault(function, []).append(name)
            any_change = any_change or round_change
            if not round_change:
                break
        return any_change

    def _skip(self, stat: PassStats, pass_fn, function: Function) -> None:
        # Its own method so a test can run the pass anyway and see it idle.
        stat.skipped += 1

    def _shape(self, function: Function):
        known, epoch, shape = self._shape_of
        if known is not function or epoch != len(self._changes):
            shape = _shape(function)
            self._shape_of = (function, len(self._changes), shape)
        return shape

    @contextmanager
    def stage(self, name: str, function: Function):
        """One pipeline over one function.  Nothing unverified leaves it:
        on the way out ``function`` is verified (``verify=True``) if any
        pass changed it since it was last verified.  A
        ``VerificationError``, or whatever else escapes a pass, names the
        stage and the passes that changed the function since then."""
        try:
            yield
            suspects = self._unverified.get(function)
            if suspects and self.verify:
                start = time.perf_counter()
                verify_function(function)
                self.stats[suspects[-1]].verify_seconds += time.perf_counter() - start
            self._unverified.pop(function, None)
        except Exception as exc:
            suspects = list(dict.fromkeys(self._unverified.get(function, ())))
            where = f"{name} of {function.name}, changed by {', '.join(suspects) or 'no pass'}"
            if isinstance(exc, VerificationError):
                raise VerificationError(f"{where}: {exc}") from exc
            if hasattr(exc, "add_note"):  # Python 3.11
                exc.add_note(f"in {where}")
            raise


def standard_pipeline(
    module: Module,
    function: Function,
    config: OptConfig,
    manager: Optional[PassManager] = None,
) -> None:
    manager = manager or PassManager(verify=config.verify)
    with manager.stage("standard_pipeline", function):
        manager.run(function, manager.passes(config, module, ["tailrec"]))
        manager.run(function, manager.passes(config, module, ["inline"]))
        manager.run(function, manager.passes(config, module, ["mem2reg"]))
        if config.classical:
            cleanup = manager.passes(
                config, module, ["constfold", "cse", "dce", "simplifycfg"]
            )
            manager.run(function, cleanup, max_iterations=4)
            manager.run(function, manager.passes(config, module, ["licm"]))
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
    resolve = manager.passes
    with manager.stage("kernel_pipeline", kernel):
        manager.run(kernel, resolve(config, module, ["devirt"]))
        # Devirtualization introduces direct calls to the candidate targets;
        # flatten them into the kernel so SVM lowering sees every dereference.
        manager.run(kernel, resolve(config, module, ["inline"]))
        if config.classical:
            manager.run(
                kernel,
                resolve(
                    config,
                    module,
                    ["constfold", "cse", "dce", "simplifycfg", "licm"],
                ),
                max_iterations=2,
            )
        if config.l3opt:
            manager.run(kernel, resolve(config, module, ["l3opt"]))
        svmlower = resolve(config, module, ["svmlower"])
        if observer is not None:
            with observer.span("svm_lower", "phase", kernel=kernel.name):
                manager.run(kernel, svmlower)
        else:
            manager.run(kernel, svmlower)
        if config.ptropt:
            manager.run(kernel, resolve(config, module, ["ptropt"]))
            manager.run(
                kernel,
                resolve(config, module, ["constfold", "cse", "dce", "simplifycfg"]),
                max_iterations=4,
            )
        else:
            # Without PTROPT only trivial cleanup runs; translation arithmetic
            # stays at every dereference, as in the paper's GPU baseline.
            manager.run(kernel, resolve(config, module, ["dce"]))
        if config.classical and config.unroll:
            manager.run(kernel, resolve(config, module, ["unroll"]))
            manager.run(
                kernel,
                resolve(config, module, ["constfold", "dce", "simplifycfg"]),
                max_iterations=2,
            )
    kernel.domtree = None
