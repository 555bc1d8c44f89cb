"""The intrinsic functions known to the compiler, runtime and simulators.

Three families:

* ``svm.*`` — shared-virtual-memory pointer translation markers inserted by
  the SVM lowering pass (paper section 3.1).  They are pure arithmetic
  (``to_gpu`` adds the runtime constant ``svm_const``; ``to_cpu`` subtracts
  it), so CSE/DCE and the PTROPT placement pass may move or delete them.
* ``gpu.*`` — work-item identity and device queries available in kernels.
* ``math.*`` / ``atomic.*`` — device math library and atomics.
"""

from __future__ import annotations

import math

from .builder import make_intrinsic
from .types import F32, F64, I32, PointerType, VOID, VOIDPTR
from .values import Intrinsic


def _svm(name: str) -> Intrinsic:
    return make_intrinsic(name, VOIDPTR, [VOIDPTR], side_effects=False)


SVM_TO_GPU = _svm("svm.to_gpu")
SVM_TO_CPU = _svm("svm.to_cpu")

GPU_GLOBAL_ID = make_intrinsic("gpu.global_id", I32, [], side_effects=False)
GPU_NUM_CORES = make_intrinsic("gpu.num_cores", I32, [], side_effects=False)
GPU_BARRIER = make_intrinsic("gpu.barrier", VOID, [], side_effects=True)

ATOMIC_ADD_I32 = make_intrinsic("atomic.add.i32", I32, [PointerType(I32), I32], True)
ATOMIC_MIN_I32 = make_intrinsic("atomic.min.i32", I32, [PointerType(I32), I32], True)
ATOMIC_MAX_I32 = make_intrinsic("atomic.max.i32", I32, [PointerType(I32), I32], True)
ATOMIC_CAS_I32 = make_intrinsic(
    "atomic.cas.i32", I32, [PointerType(I32), I32, I32], True
)
ATOMIC_ADD_F32 = make_intrinsic("atomic.add.f32", F32, [PointerType(F32), F32], True)

_UNARY_F32 = ("sqrt", "fabs", "floor", "ceil", "exp", "log", "sin", "cos", "tan", "rsqrt")
_BINARY_F32 = ("pow", "fmin", "fmax", "atan2")

MATH_INTRINSICS: dict[str, Intrinsic] = {}
for _name in _UNARY_F32:
    MATH_INTRINSICS[f"math.{_name}.f32"] = make_intrinsic(
        f"math.{_name}.f32", F32, [F32], side_effects=False
    )
    MATH_INTRINSICS[f"math.{_name}.f64"] = make_intrinsic(
        f"math.{_name}.f64", F64, [F64], side_effects=False
    )
for _name in _BINARY_F32:
    MATH_INTRINSICS[f"math.{_name}.f32"] = make_intrinsic(
        f"math.{_name}.f32", F32, [F32, F32], side_effects=False
    )
    MATH_INTRINSICS[f"math.{_name}.f64"] = make_intrinsic(
        f"math.{_name}.f64", F64, [F64, F64], side_effects=False
    )

ALL_INTRINSICS: dict[str, Intrinsic] = {
    SVM_TO_GPU.name: SVM_TO_GPU,
    SVM_TO_CPU.name: SVM_TO_CPU,
    GPU_GLOBAL_ID.name: GPU_GLOBAL_ID,
    GPU_NUM_CORES.name: GPU_NUM_CORES,
    GPU_BARRIER.name: GPU_BARRIER,
    ATOMIC_ADD_I32.name: ATOMIC_ADD_I32,
    ATOMIC_MIN_I32.name: ATOMIC_MIN_I32,
    ATOMIC_MAX_I32.name: ATOMIC_MAX_I32,
    ATOMIC_CAS_I32.name: ATOMIC_CAS_I32,
    ATOMIC_ADD_F32.name: ATOMIC_ADD_F32,
    **MATH_INTRINSICS,
}


def _rsqrt(x: float) -> float:
    return 1.0 / math.sqrt(x)


# Host/interpreter evaluation table for the pure math intrinsics.
MATH_EVAL = {
    "sqrt": math.sqrt,
    "fabs": abs,
    "floor": math.floor,
    "ceil": math.ceil,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "rsqrt": _rsqrt,
    "pow": math.pow,
    "fmin": min,
    "fmax": max,
    "atan2": math.atan2,
}
