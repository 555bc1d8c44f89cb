"""Columnar batch-execution engine: whole-chunk NumPy kernels.

The generated-code engine (:mod:`repro.exec.compiled`) still executes one
Python function chain *per work-item*; a ``parallel_for_hetero`` over *n*
lanes pays interpreter dispatch *n* times.  This module executes **all
lanes of a launch at once**: every SSA value becomes one ndarray column
(one element per lane), every instruction one vectorized NumPy operation,
and control-flow divergence is handled SIMT-style with per-lane state.

Design:

* **Shared lowering plan, shared op table.**  Kernels are lowered from the
  same :func:`~repro.exec.compiled.plan_function` plan as the scalar
  engine, so superblock structure — and therefore block counts, branch
  statistics and the per-unit instruction/flop/int-op deltas — are
  identical by construction; and from the same per-opcode template table,
  whose ``_NP_*`` rows spell each opcode over columns.  Every unit becomes
  **one generated Python function** of straight-line NumPy over local
  column variables (:class:`_UnitWriter`); the text is compiled once per
  program and lives, with the per-kernel routing verdicts, in the
  :class:`VectorCodeCache` the ``CompiledProgram`` owns.

* **Pattern-domain registers.**  Integer and pointer values are stored as
  ``int64`` *bit patterns* (the canonical value mod 2**64); floats as
  ``float64`` (f32 values held pre-rounded through ``float32``).  The
  generator knows every operand's static type, so signed/unsigned
  reinterpretation (``view(U64)``) is written per operation, exactly
  mirroring the scalar engine's Python-int semantics — and knows which
  operands are columns and which are constants, so constants are literals
  in the text and an instruction without a column operand is evaluated at
  generation time.

* **Dense-frame divergence.**  Lanes are grouped into *segments*: a
  dense frame of register columns plus the machine lane ids it covers.
  A worklist scheduler always executes the lowest pending unit
  (deterministic reconvergence); a conditional branch partitions the
  frame's *live-out* columns by the branch mask (with a no-copy fast
  path when the branch is uniform), and segments arriving at the same
  unit are merged by concatenating their *live-in* columns — liveness is
  computed per unit at generation time, so compaction touches only the
  registers that can still be read.  Units therefore always operate on
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
classified *gnarly* at generation time and permanently routed to the
scalar engine with no attempt cost.
"""

from __future__ import annotations

from textwrap import indent

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
from ..ir.values import Constant, Function, GlobalVariable
from .buffers import LaunchTrace
from .compiled import (
    _CASTS,
    _COMPARE,
    _DIV_OPS,
    _INFIX,
    _NP_BINOP,
    _NP_CASTS,
    _NP_EDGE,
    _NP_F32_ROUND,
    _NP_LOAD,
    _NP_MATH,
    _NP_STORE,
    _NP_TRANSLATE,
    _NP_UNIT,
    FunctionPlan,
    _UnitTotals,
    account,
    load_generated,
    plan_function,
    publish_generated,
)
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
_PB_U = np.uint64(_PB)
_PWIDTH_U = np.uint64(_PRIV_LIMIT)
_I64 = np.int64
_U64 = np.uint64
_TWO63F = float(2**63)
_TWO53F = float(2**53)
_SHIFT = {1: 0, 2: 1, 4: 2, 8: 3}


class VectorFallback(Exception):
    """A launch could not be vectorized (or failed mid-flight after a
    clean rollback); the backend must rerun it on the scalar engine."""

    def __init__(self, reason: str, sticky: bool = False):
        super().__init__(reason)
        self.reason = reason
        #: hazards are data-dependent and likely to repeat — the backend
        #: stops attempting this kernel for the rest of the program's life.
        self.sticky = sticky


class _Gnarly(Exception):
    """Generation-time: the kernel is not vectorizable."""


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


def _int64_pattern(value) -> int:
    """An integer or address in register representation: its bit pattern
    mod 2**64, as a Python int in int64 range."""
    pattern = int(value) & _MASK64
    return pattern - (1 << 64) if pattern >= 1 << 63 else pattern


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


# -- what generated code calls out of line -------------------------------------
#
# Guards and the rare operations stay plain functions, as in the scalar
# engine: the generated text names them, it does not repeat them.  Their
# operands are dense columns; each traps exactly where the scalar op
# raises, so the scalar rerun reproduces the error.


def _f32(r):
    """Round a float64 column through float32, trapping where the scalar
    engine's ``struct.pack('f', ...)`` would raise OverflowError."""
    r32 = r.astype(np.float32)
    inf32 = np.isinf(r32)
    # rounding produced an inf: an overflow unless the input already was
    # one (legitimate infs pass through the scalar pack too).
    if inf32.any() and (inf32 & np.isfinite(r)).any():
        raise _Trap("finite float overflows f32 pack")
    return r32.astype(np.float64)


def _nonneg(x):
    """Signed-sensitive op on a dom-u (pointer / u64) value: the scalar
    engine computes on the *canonical* value, which only agrees with our
    int64/uint64 pattern views while the pattern is non-negative.  Values
    outside that range arise only from already-broken address arithmetic
    — trap and let the scalar engine produce its exact behaviour."""
    if (x < 0).any():
        raise _Trap("u64 pattern outside the vector-safe range")
    return x


def _udiv(a, b):
    if (b == 0).any():
        raise _Trap("division by zero")
    return a // b


def _urem(a, b):
    if (b == 0).any():
        raise _Trap("division by zero")
    return a % b


def _quotient(a, b):
    """Truncating signed division via unsigned magnitudes — exact for
    INT64_MIN where abs() would overflow.  Returns the uint64 views of
    both operands and of the quotient."""
    if (b == 0).any():
        raise _Trap("division by zero")
    ua, ub = a.view(_U64), b.view(_U64)
    neg_a, neg_b = a < 0, b < 0
    q = np.where(neg_a, ~ua + 1, ua) // np.where(neg_b, ~ub + 1, ub)
    return ua, ub, np.where(neg_a ^ neg_b, ~q + 1, q)


def _sdiv(a, b):
    return _quotient(a, b)[2].view(_I64)


def _srem(a, b):
    ua, ub, q = _quotient(a, b)
    return (ua - q * ub).view(_I64)


def _fdiv(a, b):
    ok = b != 0.0
    if ok.all():
        return a / b
    # b == 0 mirrors the interpreter's explicit IEEE-ish branch:
    # copysign(inf, a) for a != 0 (nan included), nan otherwise.
    return np.where(
        ok,
        a / np.where(ok, b, 1.0),
        np.where(a != 0.0, np.copysign(np.inf, a), np.nan),
    )


def _frem(a, b):
    # math.fmod raises for an inf dividend or a zero divisor
    if (b == 0.0).any() or np.isinf(a).any():
        raise _Trap("fmod domain error")
    return np.fmod(a, b)


def _fptosi(a):
    # int(nan/inf) raises in the scalar engines; huge finite doubles
    # convert via arbitrary precision — both trap here.
    if (np.isnan(a) | (a >= _TWO63F) | (a < -_TWO63F)).any():
        raise _Trap("fptosi outside the int64-exact range")
    return a.astype(_I64)


def _sqrt(a):
    if (a < 0).any():
        raise _Trap("sqrt of a negative")
    return np.sqrt(a)


def _rsqrt(a):
    # math.sqrt domain error, or 1.0/0.0 ZeroDivisionError
    if (a <= 0).any():
        raise _Trap("rsqrt domain error")
    return 1.0 / np.sqrt(a)


def _whole(rounder, a, f32: bool):
    """floor/ceil: the scalar engines return exact Python ints — beyond
    2**53 those diverge from float64, and non-finite inputs raise."""
    if (~np.isfinite(a)).any():
        raise _Trap("floor/ceil of a non-finite")
    if not f32 and (np.abs(a) >= _TWO53F).any():
        raise _Trap("floor/ceil beyond float64-exact integers")
    return rounder(a)


def _exact(ufn, short: str, *operands):
    """Element-wise evaluation through the scalar ``MATH_EVAL`` table:
    identical libm results, and domain errors become traps."""
    try:
        return ufn(*operands).astype(np.float64)
    except Exception as exc:
        raise _Trap(f"math.{short}: {exc}") from None


def _address(gvar, k: int):
    """A global's address column; addresses are assigned when a runtime
    loads the program."""
    if gvar.address is None:
        raise _Trap(f"global @{gvar.name} has no address (not loaded)")
    return np.full(k, _int64_pattern(gvar.address), _I64)


def _returned(column, name: str):
    if column is None:
        raise _Trap(f"{name} returned no value")
    return column


#: The names generated text may use besides its own ``k<n>`` constants.
_RUNTIME_NAMES = {
    "I64": _I64,
    "U64": _U64,
    "F32": np.float32,
    "F64": np.float64,
    "PB": _PB_U,
    "PWIDTH": _PWIDTH_U,
    "inf": np.inf,
    "nan": np.nan,
    "abs": np.abs,
    "ceil": np.ceil,
    "floor": np.floor,
    "full": np.full,
    "where": np.where,
    "_Trap": _Trap,
    **{
        fn.__name__: fn
        for fn in (
            _address, _exact, _f32, _fdiv, _fptosi, _frem, _nonneg, _returned,
            _rsqrt, _sdiv, _sqrt, _srem, _udiv, _urem, _whole,
        )
    },
    **{
        vdt.__name__: vdt
        for vdt in (
            np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
            np.uint32, np.uint64, np.float32, np.float64,
        )
    },
}

_DTYPE_NAME = {"f": "F64", "i": "I64", "u": "I64"}


# -- lowering stages ----------------------------------------------------------
#
# ``VectorFunction.__init__`` is the driver: plan units -> fold invariants
# -> fuse single-use geps -> pick locals vs slots -> emit text (classifying
# gnarly constructs on the way) -> compile once.

#: Opcodes whose value depends on their operands alone.
_PURE_OPS = frozenset(("gep", "select", "icmp", "fcmp", *_BINOP_EVAL, *_CAST_EVAL))


def _fold_invariants(function: Function, plan) -> tuple:
    """Evaluate every pure instruction with no column operand — constants,
    or instructions folded here — now, through the reference interpreter's
    own evaluator, so the values are the oracle's by construction.

    Returns ``(values, traps)`` keyed by instruction id: the canonical
    value, or the message of the exception the evaluation raised (the
    scalar engine raises it at run time, so the unit traps at that
    point)."""
    oracle = Interpreter(None)
    values: dict = {}
    traps: dict = {}
    progress = True
    while progress:  # a use may precede its definition in block order
        progress = False
        for block in plan.blocks:
            for instr in block.instructions:
                key = id(instr)
                pure = instr.op in _PURE_OPS or (
                    instr.op == "call"
                    and not isinstance(instr.callee, Function)
                    and getattr(instr.callee, "name", "").startswith("math.")
                )
                if not pure or not instr.operands or key in values or key in traps:
                    continue
                if not all(
                    isinstance(v, Constant) or id(v) in values for v in instr.operands
                ):
                    continue
                env = {id(v): values[id(v)] for v in instr.operands if id(v) in values}
                try:
                    values[key] = oracle._execute(function, env, instr, 0)
                except Exception as exc:
                    traps[key] = f"{instr.op}: {exc}"
                progress = True
    return values, traps


def _fusable_geps(plan) -> set:
    """The geps read exactly once, as the address of a load or store later
    in their own unit: their expression is written into that access, so
    the gep needs neither a statement nor a name (it still counts in the
    unit's instruction/int-op deltas)."""
    uses: dict = {}  # id(value) -> use count
    for block in plan.blocks:
        for instr in block.instructions:
            for operand in instr.operands:
                uses[id(operand)] = uses.get(id(operand), 0) + 1
    fused = set()
    for chain in plan.units:
        single = set()  # single-use geps of this unit seen so far
        for block in chain:
            for instr in block.instructions:
                if instr.op == "gep" and uses.get(id(instr)) == 1:
                    single.add(id(instr))
                elif instr.op in ("load", "store"):
                    address = instr.operands[1 if instr.op == "store" else 0]
                    if id(address) in single:  # its one use is this address
                        fused.add(id(address))
    return fused


def _wrap_column(type_: IntType, text: str) -> str:
    """NumPy text canonicalizing an int64 pattern column to ``type_`` (the
    column form of ``IntType.wrap``): sign-extend through shifts for
    signed types, mask for unsigned — identity at 64 bits."""
    bits = type_.bits
    if bits == 64:
        return text
    if type_.signed:
        return f"(({text}) << {64 - bits}) >> {64 - bits}"
    return f"({text}) & {(1 << bits) - 1:#x}"


class _VUnit(_UnitTotals):
    """One unit's generated function plus what the scheduler and the trace
    materialization need to know about it."""

    def __init__(self, chain):
        super().__init__(chain)
        self.name = chain[0].name
        self.n_steps = 0
        self.run = None  # u<i>(m, regs, lanes, k) -> mask | column | None
        self.phi_plans = None  # prev unit -> edge function | error text
        self.kind = -1
        self.true_index = 0
        self.false_index = 0
        self.use_slots = set()
        self.def_slots = set()
        self.phi_def_slots = set()
        self.phi_src_by_pred = {}
        self.merge_slots = ()
        self.out_slots = ()


class _UnitWriter:
    """Writes one function's module text from the op table: ``u<i>`` per
    unit, ``u<i>_<prev>`` per head-phi edge.

    Every operand is statically a *column* (a local ``v<slot>``, a
    ``regs[<slot>]`` read, a global's broadcast address) or *known* (a
    constant, or an instruction :func:`_fold_invariants` evaluated), and
    every statement written has at least one column operand, so NumPy's
    own broadcasting leaves each result a dense ``(k,)`` column of its
    domain's dtype without any run-time normalization."""

    def __init__(self, name, plan, cache, known, traps, fused, escaping, reads):
        self.name = name
        self.plan = plan
        self.slots = plan.slots
        self.cache = cache  # the program's VectorCodeCache, for callees
        self.known = known  # instruction id -> generation-time value
        self.traps = traps  # instruction id -> why evaluating it raises
        self.fused = fused  # ids of geps written into their one access
        self.escaping = escaping  # ids of values that need their regs slot
        self._reads = reads  # per unit: (regs reads, local reads) by value id
        self.subs: list = []  # callees' VectorFunctions
        self.ret_dtype = None
        self.consts: list = []  # k<n>: the generated module's namespace
        self._const_names: dict = {}
        # state of the function being written
        self.lines: list[str] = []
        self.local: set[int] = set()
        self.reg_reads: dict = {}
        self.local_reads: dict = {}

    # -- names and operands ------------------------------------------------

    def _bind(self, obj) -> str:
        """The ``k<n>`` name of an object the text cannot spell."""
        name = self._const_names.get(id(obj))
        if name is None:
            name = self._const_names[id(obj)] = f"k{len(self.consts)}"
            self.consts.append(obj)
        return name

    @staticmethod
    def _literal(value) -> str:
        text = repr(value)  # inf and nan are names of the module
        return f"({text})" if text[0] == "-" else text

    def _known(self, value):
        """The generation-time scalar of a lane-invariant value, or None."""
        if isinstance(value, Constant):
            return value.value
        return self.known.get(id(value))

    def _column(self, value, dom: str) -> str:
        """Text of the column holding ``value``.  One this function reads
        from ``regs`` more than once is loaded into its local first."""
        key = id(value)
        if isinstance(value, GlobalVariable) and dom != "f":
            name = f"g_{self._bind(value)}"
            if key not in self.local:
                self.lines.append(f"{name} = _address({self._bind(value)}, k)")
                self.local.add(key)
            return name
        slot = self.slots.get(key)
        if dom == "f":
            if slot is None or _dom(value.type) != "f":
                raise _Gnarly("non-float value in float context")
        elif slot is None:
            raise _Gnarly(f"use of undefined value {value!r}")
        elif _dom(value.type) == "f":
            raise _Gnarly("float value in integer context")
        if key in self.local:
            return f"v{slot}"
        if self.reg_reads.get(key, 0) > 1:
            self.lines.append(f"v{slot} = regs[{slot}]")
            self.local.add(key)
            return f"v{slot}"
        return f"regs[{slot}]"

    def _pattern(self, value):
        """The int64 pattern of a known integer value, or None."""
        known = self._known(value)
        if known is None:
            return None
        if _dom(value.type) == "f":
            raise _Gnarly("float constant in integer context")
        return _int64_pattern(known)

    def _operand(self, value, dom: str) -> str:
        """Text for a place NumPy broadcasts: a column, or a literal in
        register representation."""
        known = self._known(value) if dom == "f" else self._pattern(value)
        if known is None:
            return self._column(value, dom)
        return self._literal(float(known) if dom == "f" else known)

    def _dense(self, value, dom: str) -> str:
        """Text for a place that needs a column: a known value is
        broadcast."""
        text = self._operand(value, dom)
        if self._known(value) is None:
            return text
        return f"full(k, {text}, {_DTYPE_NAME[dom]})"

    def _unsigned(self, value, bits: int = 64, dense: bool = False) -> str:
        """``value`` as uint64 reduced to its low ``bits`` — the operand
        normalization of the unsigned ops."""
        mask = (1 << bits) - 1
        pattern = self._pattern(value)
        if pattern is not None and not dense:
            return str(pattern & mask)
        text = f"{self._dense(value, 'i')}.view(U64)"
        return text if bits == 64 else f"({text} & {mask:#x})"

    def _target(self, instr) -> str:
        """Assignment target for ``instr``'s result (resolve the operands
        first): its local when this unit reads it again, its ``regs`` slot
        when anything else does."""
        slot = self.slots[id(instr)]
        targets = []
        if id(instr) in self.escaping:
            targets.append(f"regs[{slot}]")
        if self.local_reads.get(id(instr)):
            targets.append(f"v{slot}")
            self.local.add(id(instr))
        return " = ".join(targets) or "_"

    def _emit(self, template: str, **fields) -> None:
        self.lines.extend(template.format(**fields).splitlines())

    def _begin(self, reg_reads: dict, local_reads: dict) -> None:
        self.lines = []
        self.local = set()
        self.reg_reads, self.local_reads = reg_reads, local_reads

    # -- units -------------------------------------------------------------

    def unit(self, index: int, chain) -> tuple:
        """``(text, unit)`` of one superblock: every constituent block's
        instructions back to back (a fused block's phis are plain moves
        from its chain predecessor), then the last block's terminator;
        the head's phis are separate per-edge functions."""
        unit = _VUnit(chain)
        edges = self._head_phis(index, unit, chain[0])
        self._begin(*self._reads[index])
        slots = self.slots
        head_phis = chain[0].phis()
        for phi in head_phis:
            if self.local_reads.get(id(phi)):
                self.lines.append(f"v{slots[id(phi)]} = regs[{slots[id(phi)]}]")
                self.local.add(id(phi))
        for bi, block in enumerate(chain):
            phis = block.phis()
            if bi and phis:
                self._moves(block, phis, chain[bi - 1])
            n_nonphi = 0
            terminator = None
            for instr in block.instructions:
                if instr.op == "phi":
                    continue
                n_nonphi += 1
                if instr.op in ("br", "condbr", "ret", "unreachable"):
                    # Mid-chain this is the fused unconditional br: its
                    # control transfer is the concatenation itself.
                    terminator = instr
                    break
                account(instr, unit)
                self._instruction(instr)
            unit.n_steps += n_nonphi
            unit.d_instr += len(phis) + n_nonphi
        self._terminator(unit, chain[-1], terminator)
        # Upward-exposed reads (the head phis arrive through ``regs``) and
        # definitions, for the scheduler's slot liveness.
        unit.use_slots = {slots[key] for key in self.reg_reads} | {
            slots[id(phi)] for phi in head_phis if self.local_reads.get(id(phi))
        }
        unit.def_slots = {
            slots[id(instr)] for block in chain for instr in block.instructions
        } - {slots[id(phi)] for phi in head_phis}
        body = indent("\n".join(self.lines or ["pass"]), "    ")
        return f"{edges}{_NP_UNIT.format(index=index)}{body}\n", unit

    def _phi_sources(self, block, phis, pred):
        """One (pred, block) edge's incoming values, or the error message
        when a phi has none for it."""
        sources = []
        for phi in phis:
            try:
                sources.append(phi.operands[phi.phi_blocks.index(pred)])
            except ValueError:
                return None, (
                    f"{self.name}: phi in {block.name} has no incoming "
                    f"edge from {pred.name}"
                )
        return sources, None

    def _phi_columns(self, phis, sources) -> str:
        doms = [_dom(phi.type) for phi in phis]
        if "v" in doms:
            raise _Gnarly("void phi")
        return ", ".join(self._dense(v, dom) for v, dom in zip(sources, doms))

    def _moves(self, block, phis, pred) -> None:
        """A fused block's phis: one parallel assignment (Python evaluates
        the whole right-hand side before it assigns any target)."""
        sources, error = self._phi_sources(block, phis, pred)
        if error is not None:
            self.lines.append(f"raise _Trap({error!r})")
            return
        values = self._phi_columns(phis, sources)
        targets = ", ".join(f"v{self.slots[id(phi)]}" for phi in phis)
        self.lines.append(f"{targets} = {values}")
        for phi in phis:
            self.local.add(id(phi))
            if id(phi) in self.escaping:
                slot = self.slots[id(phi)]
                self.lines.append(f"regs[{slot}] = v{slot}")

    def _head_phis(self, index: int, unit: _VUnit, block) -> str:
        """Text of the per-edge move functions of the unit's head phis;
        fills ``unit.phi_plans`` with the edge's function name, or its
        error text."""
        phis = block.phis()
        if not phis:
            return ""
        texts = []
        unit.phi_plans = {}
        for pred, prev in self.plan.unit_idx_by_block.items():
            if block not in pred.successors():
                continue
            sources, error = self._phi_sources(block, phis, pred)
            if error is not None:
                unit.phi_plans[prev] = error
                continue
            self._begin({}, {})  # its own function: every read is from regs
            values = self._phi_columns(phis, sources)
            targets = ", ".join(f"regs[{self.slots[id(phi)]}]" for phi in phis)
            self.lines.append(f"{targets} = {values}")
            texts.append(
                _NP_EDGE.format(index=index, prev=prev)
                + indent("\n".join(self.lines), "    ")
                + "\n"
            )
            unit.phi_plans[prev] = f"u{index}_{prev}"
            unit.phi_src_by_pred[prev] = {
                self.slots[id(v)]
                for v in sources
                if id(v) in self.slots and id(v) not in self.known
            }
        unit.phi_def_slots = {self.slots[id(phi)] for phi in phis}
        return "".join(texts)

    def _terminator(self, unit: _VUnit, block, term) -> None:
        units = self.plan.unit_idx_by_block
        if term is None:
            message = f"{self.name}: block {block.name} fell through"
            self.lines.append(f"raise _Trap({message!r})")
        elif term.op == "br":
            unit.kind = _T_BR
            unit.true_index = units[term.targets[0]]
        elif term.op == "condbr":
            unit.kind = _T_CONDBR
            unit.true_index = units[term.targets[0]]
            unit.false_index = units[term.targets[1]]
            unit.branch_uid = term.uid
            dom = _dom(term.operands[0].type)
            zero = "0.0" if dom == "f" else "0"
            self.lines.append(f"return {self._dense(term.operands[0], dom)} != {zero}")
        elif term.op == "ret":
            unit.kind = _T_RET
            if term.operands:
                dom = _dom(term.operands[0].type)
                if dom == "v":
                    raise _Gnarly("void-typed return value")
                if self.ret_dtype not in (None, _dtype_of(dom)):
                    raise _Gnarly("mixed return domains")
                self.ret_dtype = _dtype_of(dom)
                self.lines.append(f"return {self._dense(term.operands[0], dom)}")
        else:
            message = f"reached unreachable in {self.name}"
            self.lines.append(f"raise _Trap({message!r})")

    # -- instructions ------------------------------------------------------

    def _instruction(self, instr) -> None:
        op = instr.op
        if id(instr) in self.known:
            return  # its users read the value as a literal
        if id(instr) in self.traps:
            self.lines.append(f"raise _Trap({self.traps[id(instr)]!r})")
        elif op == "load":
            self._memory(instr, instr.type, instr.operands[0], None)
        elif op == "store":
            self._memory(instr, instr.operands[0].type, instr.operands[1], instr.operands[0])
        elif op == "gep":
            if id(instr) not in self.fused:
                text = self._gep(instr)
                self.lines.append(f"{self._target(instr)} = {text}")
        elif op in ("icmp", "fcmp"):
            self._compare(instr)
        elif op in _BINOP_EVAL:
            self._binop(instr)
        elif op in _CAST_EVAL:
            self._cast(instr)
        elif op == "select":
            self._select(instr)
        elif op == "alloca":
            size = instr.alloc_type.size()
            self.lines.append(f"{self._target(instr)} = m.alloc_private(lanes, {size})")
        elif op == "call":
            self._call(instr)
        elif op == "vcall":
            raise _Gnarly("virtual call not devirtualized")
        else:
            raise _Gnarly(f"unhandled opcode {op}")

    def _gep(self, instr) -> str:
        """The address column: uint64 arithmetic wraps mod 2**64 like the
        scalar engine's masked Python ints; known terms are summed here."""
        fixed = instr.gep_offset
        terms = []
        for value, scale in zip(instr.operands, (1, *instr.gep_scales)):
            pattern = self._pattern(value)
            if pattern is not None:
                fixed += pattern * scale
            elif scale == 1:
                terms.append(self._unsigned(value))
            else:
                terms.append(f"{self._unsigned(value)} * {scale & _MASK64}")
        if fixed & _MASK64:
            terms.append(str(fixed & _MASK64))
        if len(terms) == 1 and terms[0].endswith(".view(U64)"):
            return terms[0].removesuffix(".view(U64)")  # the base, unmoved
        return f"({' + '.join(terms)}).view(I64)"

    def _memory(self, instr, type_, address, value) -> None:
        """A load (``value`` is None) or a store through the machine."""
        spec = _scalar_spec(type_)
        if spec is None:
            raise _Gnarly(f"aggregate {'load' if value is None else 'store'}")
        size, view, decode = spec
        stored = None if value is None else self._operand(value, _dom(type_))
        if id(address) in self.fused:
            a = self._gep(address)
        else:
            a = self._dense(address, "i")
        access = dict(uid=instr.uid, a=a, size=size, view=view.__name__, decode=decode)
        if value is None:
            dtype = _DTYPE_NAME[_dom(type_)]
            self._emit(_NP_LOAD, d=self._target(instr), dtype=dtype, **access)
        else:
            self._emit(_NP_STORE, value=stored, **access)

    def _guarded(self, value, check: bool, dense: bool = False) -> str:
        """An int operand of a signed-sensitive op; with ``check`` (a
        dom-u value is involved) it must lie where pattern and canonical
        value agree — tested now for a known value, per launch for a
        column."""
        text = self._dense(value, "i") if dense else self._operand(value, "i")
        pattern = self._pattern(value)
        if check and pattern is None:
            return f"_nonneg({text})"
        if check and pattern < 0:
            self.lines.append("raise _Trap('u64 pattern outside the vector-safe range')")
        return text

    def _compare(self, instr) -> None:
        pred = instr.pred
        lhs, rhs = instr.operands
        if instr.op == "icmp" and pred.startswith("u"):
            # The same comparison on operands normalized to their width.
            template = _COMPARE.get("s" + pred[1:])
            if template is None:
                raise _Gnarly(f"icmp predicate {pred}")
            bits = lhs.type.bits if isinstance(lhs.type, IntType) else 64
            a, b = self._unsigned(lhs, bits), self._unsigned(rhs, bits)
        else:
            template = _COMPARE.get(pred)
            if template is None:
                raise _Gnarly(f"{instr.op} predicate {pred}")
            doms = (_dom(lhs.type), _dom(rhs.type))
            if instr.op == "fcmp" or "f" in doms:
                a, b = self._operand(lhs, "f"), self._operand(rhs, "f")
            else:
                a, b = self._guarded(lhs, "u" in doms), self._guarded(rhs, "u" in doms)
        test = template.format(a=a, b=b)
        self.lines.append(f"{self._target(instr)} = ({test}).astype(I64)")

    def _binop(self, instr) -> None:
        op = instr.op
        type_ = instr.type
        lhs, rhs = instr.operands
        if op in _FLOAT_OPS:
            if not isinstance(type_, FloatType):
                raise _Gnarly(f"{op} on non-float type")
            if op in _INFIX:
                text = _INFIX[op].format(a=self._operand(lhs, "f"), b=self._operand(rhs, "f"))
            else:
                text = _NP_BINOP[op].format(a=self._dense(lhs, "f"), b=self._dense(rhs, "f"))
            if type_.bits == 32:
                text = _NP_F32_ROUND.format(text)
        else:
            if not isinstance(type_, IntType):
                raise _Gnarly(f"{op} on non-int type")
            template = _INFIX.get(op) or _NP_BINOP.get(op)
            if template is None:
                raise _Gnarly(f"binop {op}")
            dense = op in _DIV_OPS
            signed = op in ("ashr", "sdiv", "srem")
            text = template.format(
                a=self._guarded(lhs, signed and _dom(lhs.type) == "u", dense),
                b=self._guarded(rhs, signed and _dom(rhs.type) == "u", dense),
                ua=self._unsigned(lhs),
                ub=self._unsigned(rhs),
                ma=self._unsigned(lhs, type_.bits, dense),
                mb=self._unsigned(rhs, type_.bits, dense),
            )
            text = _wrap_column(type_, text)
        self.lines.append(f"{self._target(instr)} = {text}")

    def _cast(self, instr) -> None:
        op = instr.op
        type_ = instr.type
        value = instr.operands[0]
        if op not in _NP_CASTS:
            raise _Gnarly(f"cast {op}")
        narrow = _CASTS[op][0]
        need, template = _NP_CASTS[op]
        if need == "=":
            need = _dom(type_)
        source = _dom(value.type)
        if (
            (source == "f") != (need == "f")
            or (narrow == "int" and not isinstance(type_, IntType))
            or (narrow == "float" and not isinstance(type_, FloatType))
        ):
            raise _Gnarly(f"{op} across domains")
        a = self._column(value, need)
        if op == "sitofp" and source == "u":
            a = f"_nonneg({a})"
        text = template.format(a=a)
        if narrow == "int":
            text = _wrap_column(type_, text)
        elif narrow == "float" and type_.bits == 32:
            text += ".astype(F32).astype(F64)"  # an int cannot overflow f32
        elif narrow == "f32":
            text = _NP_F32_ROUND.format(text)
        self.lines.append(f"{self._target(instr)} = {text}")

    def _select(self, instr) -> None:
        dom = _dom(instr.type)
        if dom == "v":
            raise _Gnarly("void select")
        cond, then, other = instr.operands
        cdom = _dom(cond.type)
        test = f"{self._operand(cond, cdom)} != {'0.0' if cdom == 'f' else '0'}"
        then, other = self._operand(then, dom), self._operand(other, dom)
        self.lines.append(f"{self._target(instr)} = where({test}, {then}, {other})")

    def _call(self, instr) -> None:
        callee = instr.callee
        if not isinstance(callee, Function):
            name = getattr(callee, "name", None)
            if name is None:
                raise _Gnarly("unknown callee")
            text = self._intrinsic(instr, name)
            if text is not None:
                self.lines.append(f"{self._target(instr)} = {text}")
            return
        sub = self.cache.get(callee)
        self.subs.append(sub)
        args = ", ".join(
            self._dense(value, _dom(arg.type))
            for value, arg in zip(instr.operands, callee.args)
        )
        text = f"{self._bind(sub)}.invoke(m, [{args}], lanes)"
        dom = _dom(instr.type)
        if dom != "v":
            if sub.ret_dtype not in (None, _dtype_of(dom)):
                raise _Gnarly("call/return domain mismatch")
            text = f"_returned({text}, {sub.name!r})"
        self.lines.append(f"{self._target(instr)} = {text}")

    def _intrinsic(self, instr, name: str):
        """Expression text of an intrinsic call, or None when the lines
        (if any) were written here."""
        if name in ("svm.to_gpu", "svm.to_cpu"):
            a = self._dense(instr.operands[0], "i")
            if not a.isidentifier():
                self.lines.append(f"a_ = {a}")
                a = "a_"
            sign = "+" if name == "svm.to_gpu" else "-"
            self._emit(_NP_TRANSLATE, d=self._target(instr), a=a, sign=sign)
            return None
        if name in ("svm.malloc", "svm.free"):
            raise _Gnarly(f"device-side allocator call {name}")
        if name == "gpu.global_id":
            return "m.global_ids[lanes]"
        if name == "gpu.num_cores":
            return "full(k, m.num_cores, I64)"
        if name == "gpu.barrier":
            return None
        if name.startswith("atomic."):
            raise _Gnarly(f"atomic intrinsic {name}")
        if name.startswith("math."):
            return self._math(instr, name)
        raise _Gnarly(f"unknown intrinsic {name}")

    def _math(self, instr, name: str) -> str:
        short = name.split(".")[1]
        fn = MATH_EVAL.get(short)
        if fn is None:
            raise _Gnarly(f"unknown intrinsic {name}")
        f32 = name.endswith(".f32")
        # At least one operand is a column, or the call was folded.
        args = [self._operand(v, "f") for v in instr.operands]
        template = _NP_MATH.get(short)
        if template is not None and len(args) == (2 if "{b}" in template else 1):
            text = template.format(a=args[0], b=args[-1], f32=f32)
        else:
            ufn = self._bind(np.frompyfunc(fn, len(args), 1))
            text = f"_exact({ufn}, {short!r}, {', '.join(args)})"
        return _NP_F32_ROUND.format(text) if f32 else text


def _liveness(plan: FunctionPlan):
    """Which values must live in ``regs``, and how each unit reads what.

    Returns ``(escaping, per_unit)``: ``escaping`` holds the ids of values
    some reader cannot reach as a local — a head phi (evaluated on entry,
    before the unit's locals exist), another unit, or a use ahead of the
    definition; ``per_unit[i]`` is ``(reg_reads, local_reads)``, use
    counts keyed by value id, of values read from ``regs`` resp. from the
    local their definition in the same unit assigned."""
    slots = plan.slots
    escaping: set[int] = set()
    per_unit = []
    for chain in plan.units:
        defined: set[int] = set()
        reg_reads: dict[int, int] = {}
        local_reads: dict[int, int] = {}

        def use(value) -> None:
            key = id(value)
            if isinstance(value, Constant) or key not in slots:
                return
            if key in defined:
                local_reads[key] = local_reads.get(key, 0) + 1
            else:
                reg_reads[key] = reg_reads.get(key, 0) + 1
                escaping.add(key)

        for bi, block in enumerate(chain):
            phis = block.phis()
            for phi in phis:
                for operand in phi.operands:
                    if bi:
                        use(operand)
                    elif id(operand) in slots:
                        escaping.add(id(operand))
            defined.update(id(phi) for phi in phis)
            for instr in block.instructions:
                if instr.op == "phi":
                    continue
                for operand in instr.operands:
                    use(operand)
                defined.add(id(instr))
                if instr is plan.terms[id(block)]:
                    break
        per_unit.append((reg_reads, local_reads))
    return escaping, per_unit


class VectorFunction:
    """One IR function lowered to generated columnar units over the *same*
    superblock plan as the scalar engine, plus the worklist scheduler
    that runs them.  Nothing here depends on a region: the launch's
    :class:`VectorMachine` carries the bases, limits and ``svm_const``."""

    def __init__(self, function: Function, cache: "VectorCodeCache"):
        plan = plan_function(function)
        if plan is None:
            raise _Gnarly(f"{function.name} has no body")
        self.function = function
        self.name = function.name
        self.nregs = plan.nregs
        self.arg_slots = list(plan.arg_slots)
        self.arg_doms = [_dom(arg.type) for arg in function.args]
        # Evaluate now what no lane can change: pure instructions over
        # constants, through the reference interpreter's own evaluator.
        known, traps = _fold_invariants(function, plan)
        # A gep read once, by a memory access of its own unit, becomes
        # that access's address expression.
        fused = _fusable_geps(plan) - known.keys() - traps.keys()
        # Locals vs slots: only a value a head phi, another unit or an
        # earlier use reads needs its regs slot (folded ones need nothing).
        escaping, reads = _liveness(plan)
        for reg_reads, _local_reads in reads:
            for key in known:
                reg_reads.pop(key, None)
        # One function of straight-line NumPy per unit; a construct the
        # op table has no column form for raises _Gnarly from here.
        writer = _UnitWriter(
            function.name, plan, cache, known, traps, fused, escaping, reads
        )
        written = [writer.unit(i, chain) for i, chain in enumerate(plan.units)]
        self.units = tuple(unit for _text, unit in written)
        self.ret_dtype = writer.ret_dtype
        self.subs = writer.subs
        # Compile once: the text is the program's from here on.
        self.source = "".join(text for text, _unit in written)
        names = dict(_RUNTIME_NAMES)
        names.update((f"k{i}", value) for i, value in enumerate(writer.consts))
        self.filename, namespace = load_generated(
            f"repro-vjit {self.name}", self.source, names
        )
        for index, unit in enumerate(self.units):
            unit.run = namespace[f"u{index}"]
            if unit.phi_plans is not None:  # edge function names -> functions
                unit.phi_plans = {
                    prev: namespace.get(edge, edge)
                    for prev, edge in unit.phi_plans.items()
                }
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

    def publish(self) -> None:
        """Register the text with :mod:`linecache` so a traceback prints
        the generated statement — when a trap passes through the code,
        not at generation (:func:`~repro.exec.compiled.publish_generated`)."""
        publish_generated(self.filename, self.source)

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

    # -- execution --------------------------------------------------------

    def invoke(self, m: VectorMachine, args, lanes0):
        """Run all lanes of one invocation to completion with a worklist
        of dense segments: pop the lowest pending unit (deterministic
        reconvergence — a unit runs only once no lanes remain at lower
        units), merge the segments parked there over the unit's live-in
        slots, run its generated function on full dense columns, and
        partition the live-out columns at divergent branches."""
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
                        plan(rg, len(ln))
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
                # the branch mask, the returned column or None
                out = unit.run(m, regs, lanes, k)
                kind = unit.kind
                if kind == _T_BR:
                    pending.setdefault(unit.true_index, []).append(
                        (u, regs, lanes, pos)
                    )
                elif kind == _T_CONDBR:
                    nt_count = int(np.count_nonzero(out))
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
                        nt = ~out
                        tlanes = lanes[out]
                        tks[u].append(tlanes)
                        tregs = [None] * nregs
                        fregs = [None] * nregs
                        for slot in unit.out_slots:
                            col = regs[slot]
                            tregs[slot] = col[out]
                            fregs[slot] = col[nt]
                        pending.setdefault(unit.true_index, []).append(
                            (u, tregs, tlanes, pos[out] if track else None)
                        )
                        pending.setdefault(unit.false_index, []).append(
                            (u, fregs, lanes[nt], pos[nt] if track else None)
                        )
                elif out is not None:  # a ret with a value
                    ret_cols.append(out)
                    ret_pos.append(pos)
            if not ret_cols:
                return None
            out = np.zeros(k0, self.ret_dtype)
            for col, p in zip(ret_cols, ret_pos):
                out[p] = col
            return out
        except _Trap:
            self.publish()
            raise
        finally:
            m.depth -= 1


class VectorCodeCache:
    """A program's vector-engine state: the generated
    :class:`VectorFunction` per IR function and, per kernel, the verdict
    that routes its launches to the scalar engine.  One per
    ``CompiledProgram`` object, owned like ``jit_code``: derived from the
    IR, never pickled, shared by every runtime over that program — so
    code is generated, and a kernel probed, once per program."""

    def __init__(self):
        self._cache: dict = {}  # Function -> VectorFunction | gnarly reason
        self._building: set = set()
        #: kernel -> why its launches go scalar though it vectorizes: a
        #: sticky hazard's message, or "low mask occupancy" (the backend
        #: writes, and reads before it even asks for the code)
        self.scalar: dict = {}

    def get(self, fn: Function) -> "VectorFunction":
        """The function's generated code; recursion shows as a request
        for a function still being built (a recursive cycle cannot be
        lane-synchronously scheduled, so it is gnarly)."""
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
                    (_int64_pattern(row[j]) for row in rows),
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
