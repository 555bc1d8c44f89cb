"""Columnar batch-execution engine: whole-chunk NumPy kernels.

The threaded-code engine (:mod:`repro.exec.compiled`) still executes one
Python closure chain *per work-item*; a ``parallel_for_hetero`` over *n*
lanes pays interpreter dispatch *n* times.  This module executes **all
lanes of a launch at once**: every SSA value becomes one ndarray column
(one element per lane), every instruction one vectorized NumPy operation,
and control-flow divergence is handled SIMT-style with per-lane state.

Design:

* **Shared lowering plan.**  Kernels are compiled from the same
  :func:`~repro.exec.compiled.plan_function` plan as the threaded-code
  engine, so superblock structure — and therefore block counts, branch
  statistics and the per-unit instruction/flop/int-op deltas — are
  identical by construction.

* **Pattern-domain registers.**  Integer and pointer values are stored as
  ``int64`` *bit patterns* (the canonical value mod 2**64); floats as
  ``float64`` (f32 values held pre-rounded through ``float32``).  Each
  compiled step knows its operands' static types, so signed/unsigned
  reinterpretation (``view(uint64)``) happens per operation, exactly
  mirroring the scalar engine's Python-int semantics.

* **Dense-frame divergence.**  Lanes are grouped into *segments*: a
  dense frame of register columns plus the machine lane ids it covers.
  A worklist scheduler always executes the lowest pending unit
  (deterministic reconvergence); a conditional branch partitions the
  frame's *live-out* columns by the branch mask (with a no-copy fast
  path when the branch is uniform), and segments arriving at the same
  unit are merged by concatenating their *live-in* columns — liveness is
  computed per unit at compile time, so compaction touches only the
  registers that can still be read.  Steps therefore always operate on
  full dense columns: there is no per-step gather/scatter through an
  active-lane index.

* **Optimistic memory with rollback.**  SVM loads/stores lower to
  gathers/scatters against the region byte array with per-lane bounds
  checks.  Every shared store is journalled (old bytes first); at launch
  end a hazard check rejects any byte stored by one lane and touched by
  another.  Any trap, hazard or unexpected error rolls the journal back
  — restoring the exact pre-launch region bytes — and raises
  :class:`VectorFallback`, so the backend reruns the span through the
  scalar engine and reproduces results, traces and error messages
  bit-for-bit.  Vectorization is therefore *never* observable, only
  faster.

* **Exact traces.**  Memory events are queued raw (one record per
  vector access, canonicalized in one batch at materialization) and
  folded into one columnar :class:`~repro.exec.buffers.LaunchTrace`
  that replicates the scalar GPU backend's per-item cap budgeting, so
  the timing model — and every figure — sees identical inputs; its lazy
  per-lane view is what the scalar engine's ``ExecTrace`` list would be.

Kernels that cannot be vectorized (virtual calls, atomics, device-side
allocation, recursion, aggregate scalars, cross-domain bitcasts) are
classified *gnarly* at compile time and permanently routed to the scalar
engine with no attempt cost.
"""

from __future__ import annotations

import math
from typing import Optional

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    raise ImportError(
        "the vector engine requires numpy, which is a core dependency of "
        "this package — install it with `pip install -e .` (or `pip install "
        "numpy`); the 'compiled' and 'reference' engines work without it"
    ) from exc

from ..ir.intrinsics import MATH_EVAL
from ..ir.types import FloatType, IntType, PointerType, VoidType
from ..ir.values import Constant, Function, GlobalVariable, Instruction
from .buffers import LaunchTrace
from .compiled import account, plan_function
from .interp import (
    _BINOP_EVAL,
    _CAST_EVAL,
    _FLOAT_OPS,
    _MAX_CALL_DEPTH,
    _MAX_STEPS_DEFAULT,
    Interpreter,
)

__all__ = [
    "VectorCodeCache",
    "VectorFallback",
    "VectorFunction",
    "VectorMachine",
    "classify_kernel",
    "run_vectorized",
]

_MASK64 = (1 << 64) - 1
# unit terminator kinds
_T_BR = 0
_T_CONDBR = 1
_T_RET = 2
_PB = Interpreter.PRIVATE_BASE
_PRIV_LIMIT = Interpreter.PRIVATE_WINDOW + 0x1000
_PE = _PB + _PRIV_LIMIT
_PWIDTH_U = np.uint64(_PRIV_LIMIT)
_I64 = np.int64
_U64 = np.uint64
_F32_MAX = float(np.finfo(np.float32).max)
_TWO63F = float(2**63)
_TWO53F = float(2**53)

#: transcendentals evaluated element-wise through the scalar MATH_EVAL
#: table so results (and domain errors) are bit-identical to the scalar
#: engines; the cheap ones below get native NumPy fast paths with guards.
_MATH_EXACT = ("exp", "log", "sin", "cos", "tan", "pow", "atan2")


class VectorFallback(Exception):
    """A launch could not be vectorized (or failed mid-flight after a
    clean rollback); the backend must rerun it on the scalar engine."""

    def __init__(self, reason: str, sticky: bool = False):
        super().__init__(reason)
        self.reason = reason
        #: hazards are data-dependent and likely to repeat — the backend
        #: stops attempting this kernel for the rest of the runtime.
        self.sticky = sticky


class _Gnarly(Exception):
    """Compile-time: the kernel is not vectorizable."""


class _Trap(Exception):
    """Run-time: a lane hit (or may hit) a divergence from scalar
    semantics — abort, roll back, fall back."""

    sticky = False


class _Hazard(_Trap):
    sticky = True


# -- type/domain mapping ------------------------------------------------------
#
# dom "i": canonical value always fits int64 (signed ints, unsigned < 64
# bits); the int64 pattern *is* the canonical value.
# dom "u": canonical value is the uint64 view of the pattern (pointers,
# 64-bit unsigned ints).
# dom "f": float64.


def _dom(type_) -> str:
    if isinstance(type_, FloatType):
        return "f"
    if isinstance(type_, PointerType):
        return "u"
    if isinstance(type_, IntType):
        return "u" if (not type_.signed and type_.bits == 64) else "i"
    if isinstance(type_, VoidType):
        return "v"
    raise _Gnarly(f"non-scalar type {type_}")


def _dtype_of(dom: str):
    return np.float64 if dom == "f" else _I64


def _const_scalar(value, dom: str):
    """A constant in register representation: float for dom f, an int64
    pattern (as a Python int in int64 range) otherwise."""
    if dom == "f":
        return float(value)
    pattern = int(value) & _MASK64
    return pattern - (1 << 64) if pattern >= 1 << 63 else pattern


def _u64(x):
    """uint64 view of a pattern operand (ndarray or Python int)."""
    if isinstance(x, np.ndarray):
        return x.view(_U64)
    return np.uint64(int(x) & _MASK64)


def _i64(x):
    """int64 view of a uint64 result."""
    if isinstance(x, np.ndarray):
        return x.view(_I64)
    pattern = int(x) & _MASK64
    return pattern - (1 << 64) if pattern >= 1 << 63 else pattern


def _finisher_vec(type_):
    """Canonicalize an int64 pattern array to ``type_`` (the vector
    analogue of ``IntType.wrap``): sign-extend through shifts for signed
    types, mask for unsigned — identity at 64 bits."""
    bits = type_.bits
    if bits == 64:
        return None
    if type_.signed:
        sh = np.int64(64 - bits)

        def finish_signed(x):
            return (x << sh) >> sh

        return finish_signed
    mask = np.int64((1 << bits) - 1)

    def finish_unsigned(x):
        return x & mask

    return finish_unsigned


def _finish_f32(r):
    """Round a float64 result through float32, trapping where the scalar
    engine's ``struct.pack('f', ...)`` would raise OverflowError."""
    r = np.asarray(r, np.float64)
    r32 = r.astype(np.float32)
    inf32 = np.isinf(r32)
    if inf32.any():
        # rounding produced an inf: an overflow unless the input already
        # was one (legitimate infs pass through the scalar pack too).
        if bool((inf32 & np.isfinite(r)).any()):
            raise _Trap("finite float overflows f32 pack")
    return r32.astype(np.float64)


def _scalar_spec(type_):
    """(size, view_dtype, decode) for one scalar memory type, or None for
    aggregates.  ``decode`` converts the typed view to the register
    representation; encoding reverses it with C-cast truncation."""
    if isinstance(type_, IntType):
        size = type_.size()
        if type_.signed:
            vdt = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}[size]
        else:
            vdt = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}[size]
        if size == 8 and not type_.signed:
            return size, vdt, "view_i64"
        return size, vdt, "to_i64"
    if isinstance(type_, FloatType):
        if type_.bits == 32:
            return 4, np.float32, "to_f64"
        return 8, np.float64, "f64"
    if isinstance(type_, PointerType):
        return 8, np.uint64, "view_i64"
    return None


def _decode(raw, decode):
    if decode == "to_i64":
        return raw.astype(_I64)
    if decode == "view_i64":
        return raw.view(_I64)
    if decode == "to_f64":
        return raw.astype(np.float64)
    return raw  # f64


def _encode(vals, vdt, decode, k):
    """Register representation -> typed (k,) array of the store dtype."""
    vals = np.asarray(vals)
    if decode == "f64":
        typed = vals.astype(np.float64)
    elif decode == "to_f64":
        typed = vals.astype(np.float32)
        inf32 = np.isinf(typed)
        if inf32.any():
            if bool((inf32 & np.isfinite(vals)).any()):
                raise _Trap("finite float overflows f32 store")
    elif decode == "view_i64":
        typed = vals.view(_U64) if vals.dtype == _I64 else vals.astype(_U64)
    else:
        typed = vals.astype(vdt)
    if typed.shape != (k,):
        out = np.empty(k, typed.dtype)
        out[...] = typed
        typed = out
    return np.ascontiguousarray(typed)


def _dense_col(value, dtype, k):
    """Normalize a step result to an owned-or-shared dense (k,) column of
    ``dtype``.  Columns are never mutated in place anywhere in this
    module, so sharing an operand's array object is safe."""
    arr = np.asarray(value)
    if arr.dtype != dtype:
        arr = arr.astype(dtype)
    if arr.ndim == 0:
        out = np.empty(k, dtype)
        out[...] = arr
        return out
    return arr


def _addr_col(a, k):
    """Normalize an address operand to an int64 pattern column."""
    if isinstance(a, np.ndarray) and a.shape == (k,):
        return a
    out = np.empty(k, _I64)
    out[...] = a
    return out


# -- the machine: per-launch shared state -------------------------------------


class VectorMachine:
    """All mutable launch state: region views, journals, hazard marks,
    per-lane step/trace accumulators, and lazily-grown private memory."""

    def __init__(self, rt, span, num_cores: int):
        region = rt.region
        self.region = region
        self.n = len(span)
        self.global_ids = np.fromiter(span, _I64, self.n)
        self.lane_ids = np.arange(self.n, dtype=_I64)
        self.u8 = np.frombuffer(region.physical.data, np.uint8)
        self.limit = region.size
        self.base_u = np.uint64(region.gpu_base & _MASK64)
        surf = region.surface
        self.cbase_u = np.uint64(region.gpu_base & _MASK64)
        self.cend_u = np.uint64((region.gpu_base + surf.size) & _MASK64)
        self.svm_u = np.uint64(region.svm_const & _MASK64)
        self.collect = rt.collect_mem_events
        self.max_steps = _MAX_STEPS_DEFAULT
        self.num_cores = num_cores
        self._views: dict = {}
        self.records: list = []  # chronological (uid, lanes, addr, size, st)
        self.smarks: list = []  # (offsets, size, lanes) of shared stores
        self.lmarks: list = []  # (offsets, size, lanes) of shared loads
        self.journal: list = []  # (byte-offset matrix, old bytes)
        self.counts: dict = {}  # id(vfn) -> (vfn, hit lists, taken lists)
        self.steps = np.zeros(self.n, _I64)
        self.step_acc: list = []  # (lanes, n_steps) pending settlement
        self.step_hi = 0  # scalar upper bound on any lane's step count
        self.depth = 0
        self.priv = None
        self.priv_w = 0
        self.priv_next = np.full(self.n, 0x1000, _I64)
        self.has_private = False
        self.occ_active = 0
        self.occ_slots = 0

    # -- accounting -------------------------------------------------------

    def counts_for(self, vfn):
        """Per-unit deferred accumulators: ``hits[u]`` collects the lane
        array of every execution of unit ``u``, ``tks[u]`` the lanes that
        took the branch.  Appending a reference is safe because lane
        arrays are never mutated; :meth:`_settled_counts` folds them into
        dense per-lane matrices once per launch."""
        entry = self.counts.get(id(vfn))
        if entry is None:
            units = len(vfn.units)
            entry = (
                vfn,
                [[] for _ in range(units)],
                [[] for _ in range(units)],
            )
            self.counts[id(vfn)] = entry
        return entry[1], entry[2]

    def _settled_counts(self):
        n = self.n
        for vfn, hits, tks in self.counts.values():
            units = len(vfn.units)
            counts = np.zeros((units, n), _I64)
            taken = np.zeros((units, n), _I64)
            for u in range(units):
                h = hits[u]
                if h:
                    if len(h) == 1:
                        counts[u][h[0]] += 1
                    else:
                        counts[u] = np.bincount(
                            np.concatenate(h), minlength=n
                        ).astype(_I64, copy=False)
                t = tks[u]
                if t:
                    if len(t) == 1:
                        taken[u][t[0]] += 1
                    else:
                        taken[u] = np.bincount(
                            np.concatenate(t), minlength=n
                        ).astype(_I64, copy=False)
            yield vfn, counts, taken

    def settle_steps(self, max_steps: int, name: str):
        """Fold the pending (lanes, n_steps) batches into the exact
        per-lane step counts and re-check the limit.  ``step_hi`` tracks
        a scalar upper bound between settlements (every lane's true count
        is at most the settled peak plus the pending batch sum), so the
        exact fold only runs when the bound crosses the limit."""
        steps = self.steps
        for lanes, ns in self.step_acc:
            steps[lanes] += ns
        self.step_acc.clear()
        peak = int(steps.max()) if len(steps) else 0
        self.step_hi = peak
        if peak > max_steps:
            raise _Trap(f"step limit exceeded in {name}")

    # -- memory -----------------------------------------------------------

    def _view(self, vdt):
        key = np.dtype(vdt)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = self.u8.view(vdt)
        return view

    def _bounds(self, au, size):
        off_u = au - self.base_u
        if bool((off_u > np.uint64(self.limit - size)).any()):
            raise _Trap("address outside the shared surface")
        return off_u.view(_I64)

    def load_shared(self, addr_i64, size, vdt, decode, mids):
        au = addr_i64.view(_U64)
        offs = self._bounds(au, size)
        self.lmarks.append((offs, size, mids))
        if size == 1:
            raw = self.u8[offs].view(vdt)
        elif not bool((offs & (size - 1)).any()):
            raw = self._view(vdt)[offs >> _SHIFT[size]]
        else:
            mat = offs[:, None] + np.arange(size, dtype=_I64)
            raw = self.u8[mat].view(vdt)[:, 0]
        return _decode(raw, decode)

    def store_shared(self, addr_i64, vals, size, vdt, decode, mids):
        k = len(mids)
        au = addr_i64.view(_U64)
        offs = self._bounds(au, size)
        typed = _encode(vals, vdt, decode, k)
        self.smarks.append((offs, size, mids))
        mat = offs[:, None] + np.arange(size, dtype=_I64)
        old = self.u8[mat]
        self.journal.append((mat, old))
        self.u8[mat] = typed.view(np.uint8).reshape(k, size)

    # -- private (alloca) memory ------------------------------------------

    def _priv_ensure(self, need: int):
        if need > _PRIV_LIMIT:
            raise _Trap("private access beyond the window")
        if need <= self.priv_w:
            return
        width = max(4096, self.priv_w)
        while width < need:
            width *= 2
        width = min(width, _PRIV_LIMIT)
        fresh = np.zeros((self.n, width), np.uint8)
        if self.priv is not None:
            fresh[:, : self.priv_w] = self.priv
        self.priv = fresh
        self.priv_w = width

    def alloc_private(self, mids, size: int):
        self.has_private = True
        old = self.priv_next[mids]
        self.priv_next[mids] = (old + size + 15) & ~np.int64(15)
        return _PB + old

    def load_private(self, addr_i64, size, vdt, decode, mids):
        offs = addr_i64 - np.int64(_PB)
        if bool((offs < 0).any()):
            raise _Trap("negative private offset")
        self._priv_ensure(int(offs.max()) + size)
        mat = offs[:, None] + np.arange(size, dtype=_I64)
        raw = self.priv[mids[:, None], mat].view(vdt)[:, 0]
        return _decode(raw, decode)

    def store_private(self, addr_i64, vals, size, vdt, decode, mids):
        k = len(mids)
        offs = addr_i64 - np.int64(_PB)
        if bool((offs < 0).any()):
            raise _Trap("negative private offset")
        self._priv_ensure(int(offs.max()) + size)
        typed = _encode(vals, vdt, decode, k)
        mat = offs[:, None] + np.arange(size, dtype=_I64)
        self.priv[mids[:, None], mat] = typed.view(np.uint8).reshape(k, size)

    # -- load/store dispatch (mixed private/shared lanes split) -----------

    def load(self, uid, addr_i64, size, vdt, decode, out_dtype, mids):
        # Fast path: the private window lives outside the shared surface,
        # so one folded bounds check covers both "all in bounds" and "no
        # private lanes" at once (below-base addresses wrap to huge
        # uint64 offsets and fail it too).
        off_u = addr_i64.view(_U64) - self.base_u
        if not bool((off_u > np.uint64(self.limit - size)).any()):
            if self.collect:
                self.records.append((uid, mids, addr_i64, size, False))
            offs = off_u.view(_I64)
            self.lmarks.append((offs, size, mids))
            if size == 1:
                raw = self.u8[offs].view(vdt)
            elif not bool((offs & (size - 1)).any()):
                raw = self._view(vdt)[offs >> _SHIFT[size]]
            else:
                mat = offs[:, None] + np.arange(size, dtype=_I64)
                raw = self.u8[mat].view(vdt)[:, 0]
            return _decode(raw, decode)
        if not self.has_private:
            # no alloca has run: a stray private-window address must fail
            # the bounds check and fall back, reproducing the scalar
            # behaviour exactly.
            raise _Trap("address outside the shared surface")
        au = addr_i64.view(_U64)
        pm = (au - _PB_U) < _PWIDTH_U
        if bool(pm.all()):
            return self.load_private(addr_i64, size, vdt, decode, mids)
        if not bool(pm.any()):
            raise _Trap("address outside the shared surface")
        out = np.empty(len(mids), out_dtype)
        sh = ~pm
        sa, sm = addr_i64[sh], mids[sh]
        if self.collect:
            self.records.append((uid, sm, sa, size, False))
        out[sh] = self.load_shared(sa, size, vdt, decode, sm)
        out[pm] = self.load_private(addr_i64[pm], size, vdt, decode, mids[pm])
        return out

    def store(self, uid, addr_i64, vals, size, vdt, decode, mids):
        off_u = addr_i64.view(_U64) - self.base_u
        if not bool((off_u > np.uint64(self.limit - size)).any()):
            if self.collect:
                self.records.append((uid, mids, addr_i64, size, True))
            k = len(mids)
            offs = off_u.view(_I64)
            typed = _encode(vals, vdt, decode, k)
            self.smarks.append((offs, size, mids))
            mat = offs[:, None] + np.arange(size, dtype=_I64)
            self.journal.append((mat, self.u8[mat]))
            self.u8[mat] = typed.view(np.uint8).reshape(k, size)
            return
        if not self.has_private:
            raise _Trap("address outside the shared surface")
        au = addr_i64.view(_U64)
        pm = (au - _PB_U) < _PWIDTH_U
        if not bool(pm.any()):
            raise _Trap("address outside the shared surface")
        vals = np.asarray(vals)
        if vals.shape != (len(mids),):
            col = np.empty(len(mids), vals.dtype)
            col[...] = vals
            vals = col
        if bool(pm.all()):
            self.store_private(addr_i64, vals, size, vdt, decode, mids)
            return
        sh = ~pm
        sa, sm = addr_i64[sh], mids[sh]
        if self.collect:
            self.records.append((uid, sm, sa, size, True))
        self.store_shared(sa, vals[sh], size, vdt, decode, sm)
        self.store_private(addr_i64[pm], vals[pm], size, vdt, decode, mids[pm])

    # -- rollback + hazard detection --------------------------------------

    def rollback(self):
        """Restore every journalled store in reverse order: the region is
        byte-identical to its pre-launch state."""
        u8 = self.u8
        for mat, old in reversed(self.journal):
            u8[mat] = old
        self.journal.clear()

    def check_hazards(self):
        """Reject the launch if any byte stored by one lane was stored or
        loaded by a different lane: under sequential lane order those
        accesses observe intermediate states the columnar schedule cannot
        reproduce."""
        if not self.smarks:
            return
        offs_parts, own_parts = [], []
        for offs, size, mids in self.smarks:
            mat = offs[:, None] + np.arange(size, dtype=_I64)
            offs_parts.append(mat.ravel())
            own_parts.append(np.repeat(mids, size))
        soff = np.concatenate(offs_parts)
        sown = np.concatenate(own_parts)
        order = np.argsort(soff, kind="stable")
        so = soff[order]
        ow = sown[order]
        if len(so) > 1:
            dup = so[1:] == so[:-1]
            if bool((dup & (ow[1:] != ow[:-1])).any()):
                raise _Hazard("cross-lane store-store collision")
            keep = np.empty(len(so), bool)
            keep[0] = True
            keep[1:] = ~dup
            so = so[keep]
            ow = ow[keep]
        lo, hi = int(so[0]), int(so[-1])
        for offs, size, mids in self.lmarks:
            cand = (offs >= lo - 8) & (offs <= hi)
            if not bool(cand.any()):
                continue
            co = offs[cand]
            cm = mids[cand]
            mat = (co[:, None] + np.arange(size, dtype=_I64)).ravel()
            readers = np.repeat(cm, size)
            pos = np.searchsorted(so, mat)
            pos = np.minimum(pos, len(so) - 1)
            hit = so[pos] == mat
            if bool((hit & (ow[pos] != readers)).any()):
                raise _Hazard("cross-lane store-load overlap")

    # -- trace materialization --------------------------------------------

    def materialize(self, budget: int) -> LaunchTrace:
        """The launch's columnar trace, replicating the scalar GPU
        backend's event-cap budgeting and the threaded-code engine's
        derived counters.  Everything stays an array: per-lane
        ``ExecTrace`` objects exist only if someone asks the result for
        its :meth:`~repro.exec.buffers.LaunchTrace.lanes`."""
        n = self.n
        instructions = np.zeros(n, _I64)
        flops = np.zeros(n, _I64)
        int_ops = np.zeros(n, _I64)
        translations = np.zeros(n, _I64)
        calls = np.zeros(n, _I64)
        uid_totals: dict = {}  # block uid -> per-lane count vector
        stat_totals: dict = {}  # branch uid -> [taken vector, total vector]
        for vfn, counts, taken in self._settled_counts():
            instructions += vfn.d_instr_vec @ counts
            flops += vfn.d_flops_vec @ counts
            int_ops += vfn.d_int_ops_vec @ counts
            translations += vfn.d_translations_vec @ counts
            calls += vfn.d_calls_vec @ counts
            for u, unit in enumerate(vfn.units):
                row = counts[u]
                if not row.any():
                    continue
                for uid in unit.uid_list:
                    t = uid_totals.get(uid)
                    if t is None:
                        uid_totals[uid] = row.copy()
                    else:
                        t += row
                if unit.kind == _T_CONDBR:
                    st = stat_totals.get(unit.branch_uid)
                    if st is None:
                        stat_totals[unit.branch_uid] = [
                            taken[u].copy(),
                            row.copy(),
                        ]
                    else:
                        st[0] += taken[u]
                        st[1] += row
        no_rows = np.zeros((0, n), _I64)  # vstack needs one array
        return LaunchTrace(
            n=n,
            **self._event_columns(budget),
            block_uids=np.fromiter(uid_totals, _I64, len(uid_totals)),
            block_counts=np.vstack([no_rows, *uid_totals.values()]),
            branch_uids=np.fromiter(stat_totals, _I64, len(stat_totals)),
            branch_taken=np.vstack(
                [no_rows, *(taken for taken, _ in stat_totals.values())]
            ),
            branch_total=np.vstack(
                [no_rows, *(total for _, total in stat_totals.values())]
            ),
            instructions=instructions,
            flops=flops,
            int_ops=int_ops,
            translations=translations,
            calls=calls,
        )

    def _event_columns(self, budget: int) -> dict:
        """The event columns of the launch trace from the chronological
        records: apply the scalar backend's cap budget, order the kept
        events per lane, canonicalize their addresses in one batch and
        derive per-(lane, uid) sequence numbers.  Events over a lane's cap
        are dropped before anything is gathered or ranked."""
        n = self.n
        records = self.records
        none = [np.zeros(0, _I64)]
        widths = [len(record[1]) for record in records]
        lanes = np.concatenate([record[1] for record in records] or none)
        totals = np.bincount(lanes, minlength=n)
        # The scalar backend's running budget in closed form: lane i keeps
        # min(total_i, per_item, budget - kept by the lanes before it).
        per_item = max(1000, budget // max(1, n))
        kept_through = np.minimum(
            np.cumsum(np.minimum(totals, per_item)), max(0, budget)
        )
        kept = np.diff(kept_through, prepend=0)
        kept_before = kept_through - kept
        caps = np.minimum(per_item, np.maximum(0, budget - kept_before))
        count = int(kept.sum())

        # Chronological order per lane is a stable sort by lane id (in the
        # narrowest dtype that holds it: 16-bit keys take NumPy's radix
        # sort); each lane keeps the first ``kept[lane]`` of its run.
        order = np.argsort(lanes.astype(np.min_scalar_type(n)), kind="stable")
        run_starts = np.cumsum(totals) - totals
        order = order[np.arange(count) + np.repeat(run_starts - kept_before, kept)]
        lane = np.repeat(np.arange(n), kept)

        record = np.repeat(np.arange(len(records)), widths)[order]
        record_uids = np.array([r[0] for r in records], _I64)
        au = np.concatenate([r[2] for r in records] or none).view(_U64)[order]
        in_surface = (au >= self.cbase_u) & (au < self.cend_u)

        # seq: rank among the lane's accesses by the same instruction.  A
        # lane's kept events are a chronological prefix, so ranking the
        # kept ones alone numbers them as ranking all of them would.
        uids, uid_ranks = np.unique(record_uids, return_inverse=True)
        key = lane * len(uids) + uid_ranks[record]
        perm = np.argsort(
            key.astype(np.min_scalar_type(n * len(uids))), kind="stable"
        )
        sorted_key = key[perm]
        group_start = np.flatnonzero(
            np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))[:count]
        )
        seq = np.empty(count, _I64)
        seq[perm] = np.arange(count) - np.repeat(
            group_start, np.diff(np.append(group_start, count))
        )
        return {
            "lane": lane,
            "uid": record_uids[record],
            "seq": seq,
            "address": np.where(in_surface, au - self.svm_u, au),
            "size": np.array([r[3] for r in records], _I64)[record],
            "is_store": np.array([r[4] for r in records], _I64)[record],
            "kept": kept,
            "dropped": totals - kept,
            "caps": caps,
        }


_SHIFT = {1: 0, 2: 1, 4: 2, 8: 3}
_PB_U = np.uint64(_PB)
_PE_U = np.uint64(_PE)
_ZERO_U = np.uint64(0)
_SIX3_U = np.uint64(63)

_NPCMP = {
    "eq": np.equal,
    "ne": np.not_equal,
    "slt": np.less,
    "sle": np.less_equal,
    "sgt": np.greater,
    "sge": np.greater_equal,
    "oeq": np.equal,
    "one": np.not_equal,
    "olt": np.less,
    "ole": np.less_equal,
    "ogt": np.greater,
    "oge": np.greater_equal,
}
_UPRED = {
    "ult": np.less,
    "ule": np.less_equal,
    "ugt": np.greater,
    "uge": np.greater_equal,
}


def _require_nonneg(x):
    """Signed-sensitive op on a dom-u (pointer / u64) value: the scalar
    engine computes on the *canonical* value, which only agrees with our
    int64/uint64 pattern views while the pattern is non-negative.  Values
    outside that range arise only from already-broken address arithmetic
    — trap and let the scalar engine produce its exact behaviour."""
    if isinstance(x, np.ndarray):
        if bool((x < 0).any()):
            raise _Trap("u64 pattern outside the vector-safe range")
    elif x < 0:
        raise _Trap("u64 pattern outside the vector-safe range")


def _as_pattern(x):
    """Normalize an op result (uint64/bool array or scalar) to an int64
    pattern column or in-range Python int."""
    if isinstance(x, np.ndarray):
        return x.view(_I64) if x.dtype == _U64 else x.astype(_I64)
    return _const_scalar(int(x), "i")


# -- operand getters ----------------------------------------------------------
#
# Dense getters: ``get(regs)`` returns the full dense column for SSA
# values (the frame is compacted per segment, so no index is needed), a
# folded scalar for constants, a late-bound address for globals.


def _is_col(value, slots) -> bool:
    return id(value) in slots


def _get_pat(value, slots):
    if isinstance(value, Constant):
        if _dom(value.type) == "f":
            raise _Gnarly("float constant in integer context")
        return lambda regs, _c=_const_scalar(value.value, "i"): _c
    if isinstance(value, GlobalVariable):

        def read_global(regs, _gv=value):
            address = _gv.address
            if address is None:
                raise _Trap(f"global @{_gv.name} has no address (not loaded)")
            return address

        return read_global
    slot = slots.get(id(value))
    if slot is None:
        raise _Gnarly(f"use of undefined value {value!r}")
    if _dom(value.type) == "f":
        raise _Gnarly("float value in integer context")

    def read(regs, _s=slot):
        return regs[_s]

    return read


def _get_f(value, slots):
    if isinstance(value, Constant):
        return lambda regs, _c=float(value.value): _c
    slot = slots.get(id(value))
    if slot is None or _dom(value.type) != "f":
        raise _Gnarly("non-float value in float context")

    def read(regs, _s=slot):
        return regs[_s]

    return read


def _get_dom(value, slots, dom):
    return _get_f(value, slots) if dom == "f" else _get_pat(value, slots)


def _error_step(message):
    def step_error(m, regs, lanes, _msg=message):
        raise _Trap(_msg)

    return step_error


# -- per-opcode vector lowering ----------------------------------------------


def _gep_addr(instr, slots):
    """Address closure for a gep: used both for the standalone gep step
    and for geps fused into their single consuming load/store."""
    get_base = _get_pat(instr.operands[0], slots)
    offset_u = np.uint64(instr.gep_offset & _MASK64)
    pairs = [
        (_get_pat(value, slots), np.uint64(scale & _MASK64))
        for value, scale in zip(instr.operands[1:], instr.gep_scales)
    ]

    def addr(regs):
        acc = _u64(get_base(regs)) + offset_u
        for get, scale in pairs:
            acc = acc + _u64(get(regs)) * scale
        return _as_pattern(np.asarray(acc))

    return addr


def _compile_load(instr, slots, fused_addr=None):
    spec = _scalar_spec(instr.type)
    if spec is None:
        raise _Gnarly("aggregate load")
    size, vdt, decode = spec
    out_dom = _dom(instr.type)
    out_dtype = _dtype_of(out_dom)
    get_addr = (
        fused_addr
        if fused_addr is not None
        else _get_pat(instr.operands[0], slots)
    )
    slot = slots[id(instr)]
    uid = instr.uid

    def step_load(m, regs, lanes):
        addr = _addr_col(get_addr(regs), len(lanes))
        # m.load always returns a dense (k,) column of out_dtype.
        regs[slot] = m.load(uid, addr, size, vdt, decode, out_dtype, lanes)

    return step_load


def _compile_store(instr, slots, fused_addr=None):
    type_ = instr.operands[0].type
    spec = _scalar_spec(type_)
    if spec is None:
        raise _Gnarly("aggregate store")
    size, vdt, decode = spec
    get_value = _get_dom(instr.operands[0], slots, _dom(type_))
    get_addr = (
        fused_addr
        if fused_addr is not None
        else _get_pat(instr.operands[1], slots)
    )
    uid = instr.uid

    def step_store(m, regs, lanes):
        k = len(lanes)
        value = get_value(regs)
        addr = _addr_col(get_addr(regs), k)
        m.store(uid, addr, value, size, vdt, decode, lanes)

    return step_store


def _compile_gep(instr, slots):
    slot = slots[id(instr)]
    addr = _gep_addr(instr, slots)

    def step_gep(m, regs, lanes):
        regs[slot] = _dense_col(addr(regs), _I64, len(lanes))

    return step_gep


def _compile_compare(instr, slots):
    pred = instr.pred
    slot = slots[id(instr)]
    a0, a1 = instr.operands[0], instr.operands[1]
    if instr.op == "icmp" and pred.startswith("u"):
        cmpfn = _UPRED.get(pred)
        if cmpfn is None:
            raise _Gnarly(f"icmp predicate {pred}")
        type0 = a0.type
        bits = type0.bits if isinstance(type0, IntType) else 64
        mask = np.uint64((1 << bits) - 1)
        ga = _get_pat(a0, slots)
        gb = _get_pat(a1, slots)

        def step_ucmp(m, regs, lanes):
            a = _u64(ga(regs)) & mask
            b = _u64(gb(regs)) & mask
            regs[slot] = _dense_col(cmpfn(a, b), _I64, len(lanes))

        return step_ucmp
    cmpfn = _NPCMP.get(pred)
    if cmpfn is None:
        raise _Gnarly(f"{instr.op} predicate {pred}")
    d0, d1 = _dom(a0.type), _dom(a1.type)
    if instr.op == "fcmp" or d0 == "f" or d1 == "f":
        ga = _get_f(a0, slots)
        gb = _get_f(a1, slots)

        def step_fcmp(m, regs, lanes):
            regs[slot] = _dense_col(cmpfn(ga(regs), gb(regs)), _I64, len(lanes))

        return step_fcmp
    ga = _get_pat(a0, slots)
    gb = _get_pat(a1, slots)
    if "u" in (d0, d1):

        def step_icmp_guard(m, regs, lanes):
            a = ga(regs)
            b = gb(regs)
            _require_nonneg(a)
            _require_nonneg(b)
            regs[slot] = _dense_col(cmpfn(a, b), _I64, len(lanes))

        return step_icmp_guard

    def step_icmp(m, regs, lanes):
        regs[slot] = _dense_col(cmpfn(ga(regs), gb(regs)), _I64, len(lanes))

    return step_icmp


def _compile_binop(instr, slots):
    op = instr.op
    type_ = instr.type
    slot = slots[id(instr)]
    a0, a1 = instr.operands[0], instr.operands[1]
    dense = _is_col(a0, slots) or _is_col(a1, slots)
    if op in _FLOAT_OPS:
        if not isinstance(type_, FloatType):
            raise _Gnarly(f"{op} on non-float type")
        f32 = type_.bits == 32
        ga = _get_f(a0, slots)
        gb = _get_f(a1, slots)
        if op in ("fadd", "fsub", "fmul") and not f32 and dense:
            # hottest path: one ufunc call, result already dense f64.
            ufunc = {
                "fadd": np.add,
                "fsub": np.subtract,
                "fmul": np.multiply,
            }[op]

            def step_ffast(m, regs, lanes):
                regs[slot] = ufunc(ga(regs), gb(regs))

            return step_ffast
        if op == "fadd":

            def compute(a, b):
                return a + b

        elif op == "fsub":

            def compute(a, b):
                return a - b

        elif op == "fmul":

            def compute(a, b):
                return a * b

        elif op == "fdiv":
            # b == 0 mirrors the interpreter's explicit IEEE-ish branch:
            # copysign(inf, a) for a != 0 (nan included), nan otherwise.
            def compute(a, b):
                a = np.asarray(a, np.float64)
                b = np.asarray(b, np.float64)
                ok = b != 0.0
                if bool(ok.all()):
                    return a / b
                safe = np.where(ok, b, 1.0)
                return np.where(
                    ok,
                    a / safe,
                    np.where(a != 0.0, np.copysign(np.inf, a), np.nan),
                )

        else:  # frem — math.fmod raises for inf dividend or zero divisor

            def compute(a, b):
                a = np.asarray(a, np.float64)
                b = np.asarray(b, np.float64)
                if bool((b == 0.0).any()) or bool(np.isinf(a).any()):
                    raise _Trap("fmod domain error")
                return np.fmod(a, b)

        if f32:

            def step_fbin32(m, regs, lanes):
                r = compute(ga(regs), gb(regs))
                regs[slot] = _dense_col(_finish_f32(r), np.float64, len(lanes))

            return step_fbin32

        def step_fbin(m, regs, lanes):
            r = compute(ga(regs), gb(regs))
            regs[slot] = _dense_col(r, np.float64, len(lanes))

        return step_fbin

    if not isinstance(type_, IntType):
        raise _Gnarly(f"{op} on non-int type")
    fin = _finisher_vec(type_)
    tmask = np.uint64((1 << type_.bits) - 1)
    da, db = _dom(a0.type), _dom(a1.type)
    ga = _get_pat(a0, slots)
    gb = _get_pat(a1, slots)

    if op in ("add", "sub", "mul", "and", "or", "xor"):
        ufunc = {
            "add": np.add,
            "sub": np.subtract,
            "mul": np.multiply,
            "and": np.bitwise_and,
            "or": np.bitwise_or,
            "xor": np.bitwise_xor,
        }[op]
        if dense and fin is None:
            # int64 wraps == mod-2**64 pattern arithmetic; no finisher
            # at 64 bits, so a single ufunc call suffices.
            def step_bfast(m, regs, lanes):
                regs[slot] = ufunc(ga(regs), gb(regs))

            return step_bfast

        def step_bin(m, regs, lanes):
            r = ufunc(ga(regs), gb(regs))
            if not isinstance(r, np.ndarray):
                r = np.int64(_const_scalar(int(r), "i"))
            if fin is not None:
                r = fin(r)
            regs[slot] = _dense_col(r, _I64, len(lanes))

        return step_bin

    if op == "shl":

        def step_shl(m, regs, lanes):
            a = _u64(ga(regs))
            b = _u64(gb(regs))
            r = _as_pattern(np.asarray(a << (b & _SIX3_U)))
            if not isinstance(r, np.ndarray):
                r = np.int64(r)
            if fin is not None:
                r = fin(r)
            regs[slot] = _dense_col(r, _I64, len(lanes))

        return step_shl

    if op == "lshr":
        # pre-masked op: both operands are reduced to the result width
        # first, exactly as the scalar engines do.
        def step_lshr(m, regs, lanes):
            a = _u64(ga(regs)) & tmask
            b = _u64(gb(regs)) & tmask
            r = _as_pattern(np.asarray(a >> (b & _SIX3_U)))
            if not isinstance(r, np.ndarray):
                r = np.int64(r)
            if fin is not None:
                r = fin(r)
            regs[slot] = _dense_col(r, _I64, len(lanes))

        return step_lshr

    if op == "ashr":

        def step_ashr(m, regs, lanes):
            a = ga(regs)
            b = gb(regs)
            if da == "u":
                _require_nonneg(a)
            if db == "u":
                _require_nonneg(b)
            aa = np.asarray(a, _I64)
            sh = np.asarray(b, _I64) & np.int64(63)
            r = aa >> sh
            if fin is not None:
                r = fin(r)
            regs[slot] = _dense_col(r, _I64, len(lanes))

        return step_ashr

    if op in ("udiv", "urem"):
        div = op == "udiv"

        def step_udiv(m, regs, lanes):
            a = _u64(ga(regs)) & tmask
            b = np.asarray(_u64(gb(regs)) & tmask)
            if bool((b == 0).any()):
                raise _Trap("division by zero")
            r = _as_pattern(np.asarray(a // b if div else a % b))
            if not isinstance(r, np.ndarray):
                r = np.int64(r)
            if fin is not None:
                r = fin(r)
            regs[slot] = _dense_col(r, _I64, len(lanes))

        return step_udiv

    if op in ("sdiv", "srem"):
        rem = op == "srem"

        def step_sdiv(m, regs, lanes):
            a = ga(regs)
            b = gb(regs)
            if da == "u":
                _require_nonneg(a)
            if db == "u":
                _require_nonneg(b)
            aa = np.asarray(a, _I64)
            bb = np.asarray(b, _I64)
            if bool((bb == 0).any()):
                raise _Trap("division by zero")
            # truncating signed division via unsigned magnitudes — exact
            # for INT64_MIN where abs() would overflow.
            ua = aa.view(_U64)
            ub = bb.view(_U64)
            neg_a = aa < 0
            neg_b = bb < 0
            ma = np.where(neg_a, (~ua) + np.uint64(1), ua)
            mb = np.where(neg_b, (~ub) + np.uint64(1), ub)
            q = ma // mb
            qp = np.where(neg_a ^ neg_b, (~q) + np.uint64(1), q)
            if rem:
                r = (ua - qp * ub).view(_I64)
            else:
                r = qp.view(_I64)
            if fin is not None:
                r = fin(r)
            regs[slot] = _dense_col(r, _I64, len(lanes))

        return step_sdiv

    raise _Gnarly(f"binop {op}")


def _compile_cast(instr, slots):
    op = instr.op
    type_ = instr.type
    slot = slots[id(instr)]
    value = instr.operands[0]
    sd = _dom(value.type)

    if op in ("zext", "sext", "trunc", "ptrtoint"):
        if sd == "f" or not isinstance(type_, IntType):
            raise _Gnarly(f"{op} across domains")
        fin = _finisher_vec(type_)
        get = _get_pat(value, slots)
        if fin is None and _is_col(value, slots):

            def step_icopy(m, regs, lanes):
                regs[slot] = get(regs)

            return step_icopy

        def step_icast(m, regs, lanes):
            r = get(regs)
            if not isinstance(r, np.ndarray):
                r = np.int64(r)
            if fin is not None:
                r = fin(r)
            regs[slot] = _dense_col(r, _I64, len(lanes))

        return step_icast

    if op == "inttoptr":
        if sd == "f":
            raise _Gnarly("inttoptr from float")
        get = _get_pat(value, slots)

        def step_i2p(m, regs, lanes):
            regs[slot] = _dense_col(get(regs), _I64, len(lanes))

        return step_i2p

    if op == "bitcast":
        td = _dom(type_)
        if (sd == "f") != (td == "f"):
            raise _Gnarly("cross-domain bitcast")
        get = _get_dom(value, slots, sd)
        dt = _dtype_of(td)

        def step_bitcast(m, regs, lanes):
            regs[slot] = _dense_col(get(regs), dt, len(lanes))

        return step_bitcast

    if op in ("sitofp", "uitofp"):
        if sd == "f" or not isinstance(type_, FloatType):
            raise _Gnarly(f"{op} across domains")
        f32 = type_.bits == 32
        unsigned = op == "uitofp"
        get = _get_pat(value, slots)

        def step_itof(m, regs, lanes):
            a = get(regs)
            if unsigned:
                r = np.asarray(_u64(a)).astype(np.float64)
            else:
                if sd == "u":
                    _require_nonneg(a)
                r = np.asarray(a, _I64).astype(np.float64)
            if f32:
                r = r.astype(np.float32).astype(np.float64)
            regs[slot] = _dense_col(r, np.float64, len(lanes))

        return step_itof

    if op == "fptosi":
        if not isinstance(type_, IntType):
            raise _Gnarly("fptosi to non-int")
        fin = _finisher_vec(type_)
        get = _get_f(value, slots)

        def step_ftoi(m, regs, lanes):
            a = np.asarray(get(regs), np.float64)
            # int(nan/inf) raises in the scalar engines; huge finite
            # doubles convert via arbitrary precision — both trap here.
            if bool((np.isnan(a) | (a >= _TWO63F) | (a < -_TWO63F)).any()):
                raise _Trap("fptosi outside the int64-exact range")
            r = a.astype(_I64)
            if fin is not None:
                r = fin(r)
            regs[slot] = _dense_col(r, _I64, len(lanes))

        return step_ftoi

    if op == "fpext":
        if sd != "f":
            raise _Gnarly("fpext from non-float")
        get = _get_f(value, slots)

        def step_fpext(m, regs, lanes):
            regs[slot] = _dense_col(get(regs), np.float64, len(lanes))

        return step_fpext

    if op == "fptrunc":
        if sd != "f":
            raise _Gnarly("fptrunc from non-float")
        get = _get_f(value, slots)

        def step_fptrunc(m, regs, lanes):
            regs[slot] = _dense_col(
                _finish_f32(get(regs)), np.float64, len(lanes)
            )

        return step_fptrunc

    raise _Gnarly(f"cast {op}")


def _compile_select(instr, slots):
    slot = slots[id(instr)]
    rd = _dom(instr.type)
    if rd == "v":
        raise _Gnarly("void select")
    cd = _dom(instr.operands[0].type)
    get_cond = _get_dom(instr.operands[0], slots, cd)
    get_true = _get_dom(instr.operands[1], slots, rd)
    get_false = _get_dom(instr.operands[2], slots, rd)
    zero = 0.0 if cd == "f" else 0
    dt = _dtype_of(rd)

    def step_select(m, regs, lanes):
        cond = np.asarray(get_cond(regs)) != zero
        r = np.where(cond, get_true(regs), get_false(regs))
        regs[slot] = _dense_col(r, dt, len(lanes))

    return step_select


def _compile_math(instr, name, slots):
    short = name.split(".")[1]
    fn = MATH_EVAL.get(short)
    if fn is None:
        raise _Gnarly(f"unknown intrinsic {name}")
    f32 = name.endswith(".f32")
    gets = [_get_f(v, slots) for v in instr.operands]
    slot = slots[id(instr)]
    arity = len(gets)

    if arity == 1 and short in ("sqrt", "rsqrt", "fabs", "floor", "ceil"):
        get = gets[0]

        def compute1(a):
            if short == "sqrt":
                if bool((a < 0).any()):
                    raise _Trap("sqrt of a negative")
                return np.sqrt(a)
            if short == "rsqrt":
                # math.sqrt domain error, or 1.0/0.0 ZeroDivisionError
                if bool((a <= 0).any()):
                    raise _Trap("rsqrt domain error")
                return 1.0 / np.sqrt(a)
            if short == "fabs":
                return np.abs(a)
            # floor/ceil: the scalar engines return exact Python ints —
            # beyond 2**53 those diverge from float64, and non-finite
            # inputs raise.
            if bool((~np.isfinite(a)).any()):
                raise _Trap("floor/ceil of a non-finite")
            if not f32 and bool((np.abs(a) >= _TWO53F).any()):
                raise _Trap("floor/ceil beyond float64-exact integers")
            return np.floor(a) if short == "floor" else np.ceil(a)

        def step_math1(m, regs, lanes):
            r = compute1(np.asarray(get(regs), np.float64))
            if f32:
                r = _finish_f32(r)
            regs[slot] = _dense_col(r, np.float64, len(lanes))

        return step_math1

    if arity == 2 and short in ("fmin", "fmax"):
        get_a, get_b = gets
        use_b = np.less if short == "fmin" else np.greater

        def step_math2(m, regs, lanes):
            a = np.asarray(get_a(regs), np.float64)
            b = np.asarray(get_b(regs), np.float64)
            # CPython min/max: return b only when strictly ordered before
            # a — reproduces the nan/tie asymmetry exactly.
            r = np.where(use_b(b, a), b, a)
            if f32:
                r = _finish_f32(r)
            regs[slot] = _dense_col(r, np.float64, len(lanes))

        return step_math2

    # Exact element-wise evaluation through the scalar table: identical
    # libm results, and domain errors become traps (-> scalar fallback
    # reproduces the exception).
    ufn = np.frompyfunc(fn, arity, 1)

    def step_mathn(m, regs, lanes):
        cols = [np.asarray(g(regs), np.float64) for g in gets]
        try:
            r = ufn(*cols).astype(np.float64)
        except Exception as exc:
            raise _Trap(f"math.{short}: {exc}") from None
        if f32:
            r = _finish_f32(r)
        regs[slot] = _dense_col(r, np.float64, len(lanes))

    return step_mathn


# -- function compilation -----------------------------------------------------


class _VUnit:
    __slots__ = (
        "uid_list",
        "name",
        "steps",
        "n_steps",
        "d_instr",
        "d_flops",
        "d_int_ops",
        "d_translations",
        "d_calls",
        "phi_plans",
        "kind",
        "true_index",
        "false_index",
        "cond",
        "branch_uid",
        "ret_get",
        "message",
        "use_slots",
        "def_slots",
        "phi_def_slots",
        "phi_src_by_pred",
        "merge_slots",
        "out_slots",
    )

    def __init__(self):
        self.uid_list = ()
        self.name = ""
        self.steps = ()
        self.n_steps = 0
        self.d_instr = 0
        self.d_flops = 0
        self.d_int_ops = 0
        self.d_translations = 0
        self.d_calls = 0
        self.phi_plans = None
        self.kind = -1
        self.true_index = 0
        self.false_index = 0
        self.cond = None
        self.branch_uid = 0
        self.ret_get = None
        self.message = "bad terminator"
        self.use_slots = set()
        self.def_slots = set()
        self.phi_def_slots = set()
        self.phi_src_by_pred = {}
        self.merge_slots = ()
        self.out_slots = ()


class VectorCodeCache:
    """Compiled :class:`VectorFunction` per IR function, with recursion
    detection via the in-progress set (a recursive cycle cannot be
    lane-synchronously scheduled, so it is gnarly)."""

    def __init__(self, region):
        # Only the SVM translation constant is baked into compiled steps;
        # everything else late-binds through the machine, so a cache can
        # be shared by every runtime whose region uses the same constant
        # (holding the region itself alive here would pin its buffers).
        self.svm_const = int(region.svm_const)
        self._cache: dict = {}
        self._building: set = set()

    def get(self, fn: Function) -> "VectorFunction":
        vfn = self._cache.get(fn)
        if vfn is not None:
            if vfn.__class__ is str:  # memoized gnarly reason
                raise _Gnarly(vfn)
            return vfn
        if fn in self._building:
            raise _Gnarly(f"recursion through {fn.name}")
        self._building.add(fn)
        try:
            vfn = VectorFunction(fn, self)
        except _Gnarly as exc:
            self._cache[fn] = str(exc)
            raise
        finally:
            self._building.discard(fn)
        self._cache[fn] = vfn
        return vfn


class VectorFunction:
    """One IR function lowered to columnar units over the *same*
    superblock plan as the threaded-code engine."""

    __slots__ = (
        "function",
        "name",
        "nregs",
        "arg_slots",
        "arg_doms",
        "units",
        "ret_dtype",
        "maskable",
        "subs",
        "d_instr_vec",
        "d_flops_vec",
        "d_int_ops_vec",
        "d_translations_vec",
        "d_calls_vec",
    )

    def __init__(self, function: Function, cache: VectorCodeCache):
        plan = plan_function(function)
        if plan is None:
            raise _Gnarly(f"{function.name} has no body")
        self.function = function
        self.name = function.name
        self.nregs = plan.nregs
        self.arg_slots = list(plan.arg_slots)
        self.arg_doms = [_dom(arg.type) for arg in function.args]
        self.ret_dtype = None
        self.subs: list = []
        slots = plan.slots

        # A gep whose single use is the address of one load/store can be
        # fused into that memop step: its slot is never read elsewhere,
        # so the gep step (and a register write) disappears.  The gep
        # still participates in the per-unit instruction/int-op deltas.
        ucount: dict = {}
        user: dict = {}
        for chain in plan.units:
            for block in chain:
                for instr in block.instructions:
                    for posn, opv in enumerate(instr.operands):
                        i = id(opv)
                        ucount[i] = ucount.get(i, 0) + 1
                        user[i] = (instr, posn)
        fuse_ok = set()
        for chain in plan.units:
            for block in chain:
                for instr in block.instructions:
                    if instr.op != "gep" or ucount.get(id(instr)) != 1:
                        continue
                    u, posn = user[id(instr)]
                    if (u.op == "load" and posn == 0) or (
                        u.op == "store" and posn == 1
                    ):
                        fuse_ok.add(id(instr))

        self.units = tuple(
            self._compile_unit(
                chain, slots, plan.unit_idx_by_block, cache, fuse_ok
            )
            for chain in plan.units
        )
        self._analyze_liveness()
        self.maskable = any(
            unit.kind == _T_CONDBR for unit in self.units
        ) or any(sub.maskable for sub in self.subs)
        self.d_instr_vec = np.array([u.d_instr for u in self.units], _I64)
        self.d_flops_vec = np.array([u.d_flops for u in self.units], _I64)
        self.d_int_ops_vec = np.array([u.d_int_ops for u in self.units], _I64)
        self.d_translations_vec = np.array(
            [u.d_translations for u in self.units], _I64
        )
        self.d_calls_vec = np.array([u.d_calls for u in self.units], _I64)

    # -- compilation ------------------------------------------------------

    def _compile_unit(self, chain, slots, unit_idx_by_block, cache, fuse_ok):
        unit = _VUnit()
        head = chain[0]
        unit.uid_list = tuple(block.uid for block in chain)
        unit.name = head.name
        unit.phi_plans = self._compile_phis(
            unit, head, head.phis(), slots, unit_idx_by_block
        )

        # geps (globally single-use, memop-addressed) defined in *this*
        # chain and consumed in this chain: those fuse.
        skip: dict = {}
        seen: set = set()
        for block in chain:
            for instr in block.instructions:
                op = instr.op
                if op == "gep" and id(instr) in fuse_ok:
                    seen.add(id(instr))
                elif op == "load":
                    a = instr.operands[0]
                    if id(a) in seen:
                        skip[id(a)] = a
                elif op == "store":
                    a = instr.operands[1]
                    if id(a) in seen:
                        skip[id(a)] = a

        use = unit.use_slots
        defs = unit.def_slots

        def mark_use(v):
            s = slots.get(id(v))
            if s is not None and s not in defs:
                use.add(s)

        steps: list = []
        terminator = None
        term_block = chain[-1]
        n_steps = 0
        last = len(chain) - 1
        for bi, block in enumerate(chain):
            phis = block.phis()
            if bi > 0 and phis:
                moves, error = self._phi_moves(block, phis, chain[bi - 1], slots)
                if error is not None:
                    steps.append(_error_step(error))
                else:
                    for _dst, _phi, value in moves:
                        mark_use(value)
                    for _dst, phi, _value in moves:
                        s = slots.get(id(phi))
                        if s is not None:
                            defs.add(s)
                    steps.append(self._compile_moves(moves, slots))
            n_nonphi = 0
            block_term = None
            for instr in block.instructions:
                op = instr.op
                if op == "phi":
                    continue
                n_nonphi += 1
                if op in ("br", "condbr", "ret", "unreachable"):
                    block_term = instr
                    break
                for opv in instr.operands:
                    mark_use(opv)
                account(instr, unit)
                if op == "gep" and id(instr) in skip:
                    pass  # fused into its single consuming memop below
                elif op == "load" and id(instr.operands[0]) in skip:
                    gep = skip[id(instr.operands[0])]
                    steps.append(
                        _compile_load(instr, slots, _gep_addr(gep, slots))
                    )
                elif op == "store" and id(instr.operands[1]) in skip:
                    gep = skip[id(instr.operands[1])]
                    steps.append(
                        _compile_store(instr, slots, _gep_addr(gep, slots))
                    )
                else:
                    steps.append(self._compile_instr(instr, slots, cache))
                s = slots.get(id(instr))
                if s is not None:
                    defs.add(s)
            n_steps += n_nonphi
            unit.d_instr += len(phis) + n_nonphi
            if bi == last:
                terminator = block_term
                term_block = block
        unit.steps = tuple(steps)
        unit.n_steps = n_steps

        if terminator is None:
            unit.kind = -1
            unit.message = f"{self.name}: block {term_block.name} fell through"
        elif terminator.op == "br":
            unit.kind = _T_BR
            unit.true_index = unit_idx_by_block[terminator.targets[0]]
        elif terminator.op == "condbr":
            unit.kind = _T_CONDBR
            mark_use(terminator.operands[0])
            cd = _dom(terminator.operands[0].type)
            get = _get_dom(terminator.operands[0], slots, cd)
            zero = 0.0 if cd == "f" else 0

            def truth(regs, _g=get, _z=zero):
                return np.asarray(_g(regs)) != _z

            unit.cond = truth
            unit.true_index = unit_idx_by_block[terminator.targets[0]]
            unit.false_index = unit_idx_by_block[terminator.targets[1]]
            unit.branch_uid = terminator.uid
        elif terminator.op == "ret":
            unit.kind = _T_RET
            if terminator.operands:
                mark_use(terminator.operands[0])
                rd = _dom(terminator.operands[0].type)
                if rd == "v":
                    raise _Gnarly("void-typed return value")
                dt = _dtype_of(rd)
                if self.ret_dtype is None:
                    self.ret_dtype = dt
                elif self.ret_dtype != dt:
                    raise _Gnarly("mixed return domains")
                unit.ret_get = _get_dom(terminator.operands[0], slots, rd)
        else:
            unit.kind = -1
            unit.message = f"reached unreachable in {self.name}"
        return unit

    def _analyze_liveness(self):
        """Per-unit backward dataflow at slot granularity.  ``merge_slots``
        (= live-in after entry phis) is what segment merges concatenate;
        ``out_slots`` (= live-out, phi sources included on their edge) is
        what branch partitions subset.  Everything else in a frame is
        dead and never copied."""
        units = self.units
        nunits = len(units)
        live_in = [set() for _ in range(nunits)]
        live_out = [set() for _ in range(nunits)]
        changed = True
        while changed:
            changed = False
            for u in range(nunits - 1, -1, -1):
                unit = units[u]
                if unit.kind == _T_BR:
                    succs = (unit.true_index,)
                elif unit.kind == _T_CONDBR:
                    succs = (unit.true_index, unit.false_index)
                else:
                    succs = ()
                lo = set()
                for s in succs:
                    sunit = units[s]
                    lo |= live_in[s] - sunit.phi_def_slots
                    srcs = sunit.phi_src_by_pred.get(u)
                    if srcs:
                        lo |= srcs
                li = unit.use_slots | (lo - unit.def_slots)
                if lo != live_out[u]:
                    live_out[u] = lo
                    changed = True
                if li != live_in[u]:
                    live_in[u] = li
                    changed = True
        for u, unit in enumerate(units):
            unit.merge_slots = tuple(sorted(live_in[u]))
            unit.out_slots = tuple(sorted(live_out[u]))

    def _phi_moves(self, block, phis, pred, slots):
        moves = []
        for phi in phis:
            try:
                k = phi.phi_blocks.index(pred)
            except ValueError:
                return None, (
                    f"{self.name}: phi in {block.name} has no incoming "
                    f"edge from {pred.name}"
                )
            moves.append((slots[id(phi)], phi, phi.operands[k]))
        return moves, None

    def _compile_phis(self, unit, block, phis, slots, unit_idx_by_block):
        if not phis:
            return None
        plans: dict = {}
        for pred, unit_index in unit_idx_by_block.items():
            if block not in pred.successors():
                continue
            moves, error = self._phi_moves(block, phis, pred, slots)
            if error is not None:
                plans[unit_index] = error
            else:
                plans[unit_index] = self._compile_moves(moves, slots)
                srcs = unit.phi_src_by_pred.setdefault(unit_index, set())
                for _dst, _phi, value in moves:
                    s = slots.get(id(value))
                    if s is not None:
                        srcs.add(s)
        for phi in phis:
            s = slots.get(id(phi))
            if s is not None:
                unit.phi_def_slots.add(s)
        return plans

    def _compile_moves(self, moves, slots):
        gets = []
        dsts = []
        for dst, phi, value in moves:
            dom = _dom(phi.type)
            if dom == "v":
                raise _Gnarly("void phi")
            gets.append(_get_dom(value, slots, dom))
            dsts.append((dst, _dtype_of(dom)))

        def move(m, regs, lanes):
            k = len(lanes)
            values = [g(regs) for g in gets]
            for (dst, dt), value in zip(dsts, values):
                regs[dst] = _dense_col(value, dt, k)

        return move

    def _compile_instr(self, instr, slots, cache):
        op = instr.op
        if op == "load":
            return _compile_load(instr, slots)
        if op == "store":
            return _compile_store(instr, slots)
        if op == "gep":
            return _compile_gep(instr, slots)
        if op in ("icmp", "fcmp"):
            return _compile_compare(instr, slots)
        if op in _BINOP_EVAL:
            return _compile_binop(instr, slots)
        if op in _CAST_EVAL:
            return _compile_cast(instr, slots)
        if op == "select":
            return _compile_select(instr, slots)
        if op == "alloca":
            size = instr.alloc_type.size()
            slot = slots[id(instr)]

            def step_alloca(m, regs, lanes):
                regs[slot] = m.alloc_private(lanes, size)

            return step_alloca
        if op == "call":
            return self._compile_call(instr, slots, cache)
        if op == "vcall":
            raise _Gnarly("virtual call not devirtualized")
        raise _Gnarly(f"unhandled opcode {op}")

    def _compile_call(self, instr, slots, cache):
        callee = instr.callee
        slot = slots.get(id(instr))
        if isinstance(callee, Function):
            sub = cache.get(callee)
            self.subs.append(sub)
            pairs = []
            for value, arg in zip(instr.operands, callee.args):
                dom = _dom(arg.type)
                pairs.append((_get_dom(value, slots, dom), _dtype_of(dom)))
            rd = _dom(instr.type)
            if rd != "v":
                rdt = _dtype_of(rd)
                if sub.ret_dtype is not None and sub.ret_dtype != rdt:
                    raise _Gnarly("call/return domain mismatch")

            def step_call(m, regs, lanes):
                k = len(lanes)
                cols = [_dense_col(get(regs), dt, k) for get, dt in pairs]
                r = sub.invoke(m, cols, lanes)
                if rd != "v":
                    if r is None:
                        raise _Trap(f"{sub.name} returned no value")
                    regs[slot] = _dense_col(r, rdt, k)

            return step_call
        name = getattr(callee, "name", None)
        if name is None:
            raise _Gnarly("unknown callee")
        return self._compile_intrinsic(instr, name, slots, cache)

    def _compile_intrinsic(self, instr, name, slots, cache):
        slot = slots.get(id(instr))
        if name in ("svm.to_gpu", "svm.to_cpu"):
            svm_const = cache.svm_const
            delta = svm_const if name == "svm.to_gpu" else -svm_const
            dc = np.int64(_const_scalar(delta, "i"))
            get = _get_pat(instr.operands[0], slots)

            def step_translate(m, regs, lanes):
                a = get(regs)
                arr = a if isinstance(a, np.ndarray) else np.int64(a)
                au = _u64(arr)
                keep = ((au >= _PB_U) & (au < _PE_U)) | (au == _ZERO_U)
                regs[slot] = _dense_col(
                    np.where(keep, arr, arr + dc), _I64, len(lanes)
                )

            return step_translate
        if name in ("svm.malloc", "svm.free"):
            raise _Gnarly(f"device-side allocator call {name}")
        if name == "gpu.global_id":

            def step_gid(m, regs, lanes):
                regs[slot] = m.global_ids[lanes]

            return step_gid
        if name == "gpu.num_cores":

            def step_cores(m, regs, lanes):
                regs[slot] = np.full(len(lanes), m.num_cores, _I64)

            return step_cores
        if name == "gpu.barrier":

            def step_barrier(m, regs, lanes):
                pass

            return step_barrier
        if name.startswith("atomic."):
            raise _Gnarly(f"atomic intrinsic {name}")
        if name.startswith("math."):
            return _compile_math(instr, name, slots)
        raise _Gnarly(f"unknown intrinsic {name}")

    # -- execution --------------------------------------------------------

    def invoke(self, m: VectorMachine, args, lanes0):
        """Run all lanes of one invocation to completion with a worklist
        of dense segments: pop the lowest pending unit (deterministic
        reconvergence — a unit runs only once no lanes remain at lower
        units), merge the segments parked there over the unit's live-in
        slots, execute its steps on full dense columns, and partition
        the live-out columns at divergent branches."""
        if m.depth > _MAX_CALL_DEPTH:
            raise _Trap(f"call depth limit exceeded in {self.name}")
        m.depth += 1
        try:
            k0 = len(lanes0)
            regs0 = [None] * self.nregs
            for slot, col in zip(self.arg_slots, args):
                regs0[slot] = col
            hits, tks = m.counts_for(self)
            units = self.units
            nregs = self.nregs
            track = self.ret_dtype is not None
            pos0 = np.arange(k0, dtype=_I64) if track else None
            # unit index -> [(prev unit, regs, lanes, pos), ...]
            pending = {0: [(-1, regs0, lanes0, pos0)]}
            ret_cols: list = []
            ret_pos: list = []
            step_acc = m.step_acc
            max_steps = m.max_steps
            while pending:
                u = min(pending)
                segs = pending.pop(u)
                unit = units[u]
                plans = unit.phi_plans
                if plans is not None:
                    for p, rg, ln, _pp in segs:
                        plan = plans.get(p)
                        if plan is None:
                            raise _Trap(
                                f"{self.name}: phi in {unit.name} has no "
                                f"incoming edge"
                            )
                        if plan.__class__ is str:
                            raise _Trap(plan)
                        plan(m, rg, ln)
                if len(segs) == 1:
                    _prev, regs, lanes, pos = segs[0]
                else:
                    lanes = np.concatenate([s[2] for s in segs])
                    pos = (
                        np.concatenate([s[3] for s in segs]) if track else None
                    )
                    cols = [s[1] for s in segs]
                    regs = [None] * nregs
                    for slot in unit.merge_slots:
                        regs[slot] = np.concatenate([c[slot] for c in cols])
                k = len(lanes)
                m.occ_active += k
                m.occ_slots += k0
                hits[u].append(lanes)
                ns = unit.n_steps
                if ns:
                    step_acc.append((lanes, ns))
                    m.step_hi += ns
                    if m.step_hi > max_steps:
                        m.settle_steps(max_steps, self.name)
                for step in unit.steps:
                    step(m, regs, lanes)
                kind = unit.kind
                if kind == _T_BR:
                    pending.setdefault(unit.true_index, []).append(
                        (u, regs, lanes, pos)
                    )
                elif kind == _T_CONDBR:
                    t = unit.cond(regs)
                    if t.shape != lanes.shape:
                        t = np.full(k, bool(t))
                    nt_count = int(np.count_nonzero(t))
                    if nt_count == k:
                        tks[u].append(lanes)
                        pending.setdefault(unit.true_index, []).append(
                            (u, regs, lanes, pos)
                        )
                    elif nt_count == 0:
                        pending.setdefault(unit.false_index, []).append(
                            (u, regs, lanes, pos)
                        )
                    else:
                        nt = ~t
                        tlanes = lanes[t]
                        tks[u].append(tlanes)
                        tregs = [None] * nregs
                        fregs = [None] * nregs
                        for slot in unit.out_slots:
                            col = regs[slot]
                            tregs[slot] = col[t]
                            fregs[slot] = col[nt]
                        pending.setdefault(unit.true_index, []).append(
                            (u, tregs, tlanes, pos[t] if track else None)
                        )
                        pending.setdefault(unit.false_index, []).append(
                            (u, fregs, lanes[nt], pos[nt] if track else None)
                        )
                elif kind == _T_RET:
                    get = unit.ret_get
                    if get is not None:
                        ret_cols.append(
                            _dense_col(get(regs), self.ret_dtype, k)
                        )
                        ret_pos.append(pos)
                else:
                    raise _Trap(unit.message)
            if not ret_cols:
                return None
            out = np.zeros(k0, self.ret_dtype)
            for col, p in zip(ret_cols, ret_pos):
                out[p] = col
            return out
        finally:
            m.depth -= 1


# -- launch entry points ------------------------------------------------------


def classify_kernel(cache: VectorCodeCache, fn: Function):
    """(status, reason, vfn): status is "regular" (no divergence
    anywhere), "maskable" (vectorized with per-lane masks), or "gnarly"
    (permanently routed to the scalar engine)."""
    try:
        vfn = cache.get(fn)
    except _Gnarly as exc:
        return "gnarly", str(exc), None
    return ("maskable" if vfn.maskable else "regular"), "", vfn


def _arg_columns(vfn: VectorFunction, span, args_of):
    rows = [args_of(index) for index in span]
    cols = []
    for j, dom in enumerate(vfn.arg_doms):
        if dom == "f":
            cols.append(np.array([float(row[j]) for row in rows], np.float64))
        else:
            cols.append(
                np.fromiter(
                    (_const_scalar(int(row[j]), "i") for row in rows),
                    _I64,
                    len(rows),
                )
            )
    return cols


def run_vectorized(rt, vfn: VectorFunction, span, args_of, num_cores, budget):
    """Execute one GPU launch columnar; returns ``(machine, trace)``
    with ``trace`` the launch's :class:`~repro.exec.buffers.LaunchTrace`.

    On *any* failure — vectorizability trap, cross-lane hazard, or an
    unexpected error — every journalled store is rolled back so the
    region is byte-identical to its pre-launch state, and
    :class:`VectorFallback` tells the backend to rerun the span through
    the scalar engine (which then reproduces results, traces, and error
    behaviour exactly)."""
    machine = VectorMachine(rt, span, num_cores)
    try:
        cols = _arg_columns(vfn, span, args_of)
        with np.errstate(all="ignore"):
            vfn.invoke(machine, cols, machine.lane_ids)
            machine.check_hazards()
        trace = machine.materialize(budget)
    except _Trap as exc:
        machine.rollback()
        raise VectorFallback(str(exc), sticky=exc.sticky) from None
    except Exception as exc:  # journal safety net: never corrupt memory
        machine.rollback()
        raise VectorFallback(f"{type(exc).__name__}: {exc}") from None
    machine.journal.clear()
    return machine, trace
