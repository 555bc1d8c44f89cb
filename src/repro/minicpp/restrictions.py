"""Restriction checking for device code (paper section 2.1).

Concord compiles most C++ to the GPU, but flags constructs the GPU cannot
execute; a flagged kernel produces a compile-time warning and the
``parallel_for_hetero`` / ``parallel_reduce_hetero`` runs on the CPU
instead.  Checked here, on the lowered IR after tail-recursion elimination
and inlining have had their chance:

* recursion that is not tail recursion (tail calls were already rewritten
  to loops by :mod:`repro.passes.tailrec`);
* calls through function pointers — unrepresentable in MiniC++, but an
  explicit check guards IR built by hand through the builder API;
* taking the address of a local variable such that it escapes (stored to
  memory or passed onwards) — GPU private memory is not addressable from
  the shared space;
* device-side memory allocation (``new``/``delete`` lower to
  ``svm.malloc``/``svm.free``);
* exceptions (``throw``/``try`` are rejected by the parser; the checker
  reports them for IR-level completeness).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Function, Instruction, Module


@dataclass(frozen=True)
class Violation:
    kind: str
    function: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] in {self.function}: {self.detail}"


def check_kernel(module: Module, kernel: Function) -> list[Violation]:
    """All restriction violations reachable from ``kernel``."""
    violations: list[Violation] = []
    visited: set[str] = set()
    stack: list[tuple[Function, tuple[str, ...]]] = [(kernel, (kernel.name,))]
    while stack:
        function, path = stack.pop()
        if function.name in visited:
            continue
        visited.add(function.name)
        violations.extend(_check_one(function))
        for instr in function.instructions():
            if instr.op != "call":
                continue
            callee = instr.callee
            if isinstance(callee, Function):
                if callee.name in path:
                    violations.append(
                        Violation(
                            "recursion",
                            function.name,
                            f"recursive call cycle through {callee.name} "
                            "(not eliminable tail recursion)",
                        )
                    )
                    continue
                stack.append((callee, path + (callee.name,)))
    return violations


def _check_one(function: Function) -> list[Violation]:
    violations: list[Violation] = []
    allocas = {
        instr
        for instr in function.instructions()
        if instr.op == "alloca"
    }
    for instr in function.instructions():
        if instr.op == "call":
            callee = instr.callee
            if callee is None:
                violations.append(
                    Violation(
                        "function-pointer",
                        function.name,
                        "indirect call through a function pointer",
                    )
                )
                continue
            name = getattr(callee, "name", "")
            if name in ("svm.malloc", "svm.free"):
                violations.append(
                    Violation(
                        "gpu-allocation",
                        function.name,
                        "memory allocation is not supported on the GPU",
                    )
                )
            if name == "cxx.throw":
                violations.append(
                    Violation("exceptions", function.name, "throw on the GPU")
                )
        if instr.op == "store" and instr.operands[0] in allocas:
            violations.append(
                Violation(
                    "address-of-local",
                    function.name,
                    "address of a local variable escapes to memory",
                )
            )
        if instr.op == "ret" and instr.operands and instr.operands[0] in allocas:
            violations.append(
                Violation(
                    "address-of-local",
                    function.name,
                    "address of a local variable returned",
                )
            )
    return violations
