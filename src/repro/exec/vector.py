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
  whose ``_NP_*`` rows spell each opcode over columns.  Every IR function
  becomes **one generated Python function** of NumPy over local column
  variables (:class:`_ColumnWriter`), printed from the same region tree
  (:mod:`repro.ir.structure`) the scalar engine prints; the text is
  compiled once per program and lives, with the per-kernel routing
  verdicts, in the :class:`VectorCodeCache` the ``CompiledProgram`` owns.

* **Pattern-domain registers.**  Integer and pointer values are stored as
  ``int64`` *bit patterns* (the canonical value mod 2**64); floats as
  ``float64`` (f32 values held pre-rounded through ``float32``).  The
  generator knows every operand's static type, so signed/unsigned
  reinterpretation (``view(U64)``) is written per operation, exactly
  mirroring the scalar engine's Python-int semantics — and knows which
  operands are columns and which are constants, so constants are literals
  in the text and an instruction without a column operand is evaluated at
  generation time.

* **Structured divergence.**  Lanes run as a *segment*: a dense set of
  local columns plus the machine lane ids it covers.  An ``If``
  partitions the columns live on each edge by the branch mask (no copy
  when the branch is uniform), runs each non-empty arm, and concatenates
  at the join what runs off both; a ``Loop`` repeats while lanes remain,
  its exits parked until the last lane leaves, so lanes reconverge where
  the tree's structure does.  Liveness is computed per block at
  generation time, so a partition or a join touches only the columns
  that can still be read, and every statement operates on full dense
  columns: there is no per-step gather/scatter through an active-lane
  index.

* **Optimistic memory with rollback.**  SVM loads/stores lower to
  gathers/scatters against the region byte array with per-lane bounds
  checks; an access splits its lanes into shared and private ones once,
  and each part takes the one routine for its memory.  Every shared store is journalled (old bytes first); at launch
  end a hazard check rejects any byte stored by one lane and touched by
  another.  Any trap, hazard or unexpected error rolls the journal back
  — restoring the exact pre-launch region bytes — and raises
  :class:`VectorFallback`, so :class:`VectorEngine` reruns the span
  through the scalar path and reproduces results, traces and error messages
  bit-for-bit.  Vectorization is therefore *never* observable, only
  faster.

* **Exact traces.**  Memory events are queued raw (one record per
  vector access, canonicalized in one batch at materialization) and
  folded into event columns that replicate the scalar launch's per-item
  cap budgeting; with the per-unit execution counts they go through
  :meth:`~repro.exec.buffers.LaunchTrace.from_unit_counts`, the
  constructor the scalar launch uses, so the timing model — and every
  figure — sees identical inputs; its lazy per-lane view is what the
  scalar engine's per-lane traces would be.

Kernels that cannot be vectorized (virtual calls, atomics, device-side
allocation, recursion, aggregate scalars, cross-domain bitcasts) are
classified *gnarly* at generation time and permanently routed to the
scalar engine with no attempt cost.  That routing is
:class:`VectorEngine`'s: the generated-code engine the runtime builds
for the GPU when ``RunConfig.engine`` is ``vector``.
"""

from __future__ import annotations

import threading

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    raise ImportError(
        "the vector engine requires numpy, which is a core dependency of "
        "this package — install it with `pip install -e .` (or `pip install "
        "numpy`); the 'compiled' and 'reference' engines work without it"
    ) from exc

from ..ir.intrinsics import MATH_EVAL
from ..ir.structure import (
    Block,
    Break,
    Continue,
    Dispatch,
    Forward,
    If,
    Jump,
    Loop,
    Next,
    edge_copies,
)
from ..ir.types import FloatType, IntType, PointerType, VoidType
from ..ir.values import Constant, Function, GlobalVariable
from .buffers import LaunchTrace, UnitTable, event_column, per_item_cap
from .compiled import (
    CompiledEngine,
    _CASTS,
    _COMPARE,
    _DIV_OPS,
    _INFIX,
    _NP_BINOP,
    _NP_CASTS,
    _NP_F32_ROUND,
    _NP_LOAD,
    _NP_MATH,
    _NP_STORE,
    _NP_TRANSLATE,
    FunctionPlan,
    _region_tree,
    load_generated,
    plan_function,
    publish_generated,
    unit_totals,
)
from .interp import (
    _BINOP_EVAL,
    _CAST_EVAL,
    _FLOAT_OPS,
    _MAX_CALL_DEPTH,
    Interpreter,
)

__all__ = [
    "VectorCodeCache",
    "VectorEngine",
    "VectorFallback",
    "VectorFunction",
    "VectorMachine",
    "classify_kernel",
    "run_vectorized",
]

_MASK64 = (1 << 64) - 1
_PB = Interpreter.PRIVATE_BASE
#: Where a work-item's first ``alloca`` lands, as in the scalar engines:
#: private rows start here and are at most the window wide.
_BUMP_BASE = 0x1000
_PRIV_LIMIT = Interpreter.PRIVATE_WINDOW + _BUMP_BASE
_ROW_LIMIT = Interpreter.PRIVATE_WINDOW
_PB_U = np.uint64(_PB)
_PWIDTH_U = np.uint64(_PRIV_LIMIT)
_I64 = np.int64
_U64 = np.uint64
_TWO63F = float(2**63)
_TWO53F = float(2**53)
_SHIFT = {1: 0, 2: 1, 4: 2, 8: 3}


class VectorFallback(Exception):
    """A launch could not be vectorized (or failed mid-flight after a
    clean rollback); the engine must rerun it on the scalar path."""

    def __init__(self, reason: str, sticky: bool = False):
        super().__init__(reason)
        self.reason = reason
        #: hazards are data-dependent and likely to repeat — the engine
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
    per-lane step/trace accumulators, and lazily-grown private memory.
    It is built from the engine whose launch it runs, so the region, the
    global addresses, event collection, the core count and the step limit
    are that engine's."""

    def __init__(self, engine, span):
        region = engine.region
        self.n = len(span)
        self.global_ids = np.fromiter(span, _I64, self.n)
        self.lane_ids = np.arange(self.n, dtype=_I64)
        self.u8 = np.frombuffer(region.physical.data, np.uint8)
        self.limit = region.size
        self.base_u = np.uint64(region.gpu_base & _MASK64)
        self.cend_u = np.uint64((region.gpu_base + region.surface.size) & _MASK64)
        self.svm_u = np.uint64(region.svm_const & _MASK64)
        self.addresses = engine.code_cache.addresses
        self.collect = engine.collect_mem_events
        self.max_steps = engine.max_steps
        self.num_cores = engine.num_cores
        self._views: dict = {}
        self.records: list = []  # chronological (uid, lanes, addr, size, st)
        # (offsets, size, lanes) of shared stores / loads, until the
        # hazard check
        self.smarks: list = []
        self.lmarks: list = []
        self.journal: list = []  # (byte-offset matrix, old bytes)
        self.counts: dict = {}  # id(vfn) -> (vfn, hit lists, taken lists)
        self.steps = np.zeros(self.n, _I64)
        self.step_acc: list = []  # (lanes, n_steps) not yet settled
        self.step_hi = 0  # scalar upper bound on any lane's step count
        self.depth = 0
        self.priv = None
        self.priv_w = 0
        self.priv_next = np.full(self.n, _BUMP_BASE, _I64)
        self.has_private = False
        self.occ_active = 0
        self.occ_slots = 0

    # -- accounting -------------------------------------------------------

    def enter(self, vfn):
        """Lanes enter ``vfn``: its per-unit deferred accumulators.
        ``hits[u]`` collects the lane array of every execution of unit
        ``u``, ``tks[u]`` the lanes that took the branch; appending a
        reference is safe because lane arrays are never mutated."""
        entry = self.counts.get(id(vfn))
        if entry is None:
            units = len(vfn.units)
            entry = self.counts[id(vfn)] = (
                vfn,
                [[] for _ in range(units)],
                [[] for _ in range(units)],
            )
        return entry[1], entry[2]

    def _unit_counts(self):
        """Per entered function, ``(table, lanes, per_unit)`` as
        :meth:`~repro.exec.buffers.LaunchTrace.from_unit_counts` takes
        them: the hit lists folded into per-unit counts of every lane."""
        n, none = self.n, [np.zeros(0, _I64)]
        for vfn, hits, tks in self.counts.values():
            tally = [np.bincount(np.concatenate(lists + none), minlength=n) for lists in hits + tks]
            yield vfn.table, slice(None), np.array(tally, _I64).reshape(-1, n)

    def charge(self, lanes, k: int, k0: int, n_steps: int, name: str) -> None:
        """A unit runs on ``lanes`` (``k`` of them, of the invocation's
        ``k0``): its mask occupancy, and its steps against the limit."""
        self.occ_active += k
        self.occ_slots += k0
        self.step_acc.append((lanes, n_steps))
        self.step_hi += n_steps
        if self.step_hi > self.max_steps:
            self.settle_steps(name)

    def call(self, vfn, args):
        """Run ``vfn`` over every lane of the launch; its result column or
        None.  A trap publishes the text of every function the launch
        entered, so its traceback shows the generated statements — when a
        trap passes through the code, not at generation
        (:func:`~repro.exec.compiled.publish_generated`)."""
        try:
            return vfn.entry(self, self.lane_ids, *args)
        except _Trap:
            for entered, *_accumulators in self.counts.values():
                publish_generated(entered.filename, entered.source)
            raise

    def settle_steps(self, name: str):
        """Fold the unsettled (lanes, n_steps) batches into the exact
        per-lane step counts and re-check the limit.  ``step_hi`` tracks
        a scalar upper bound between settlements (every lane's true count
        is at most the settled peak plus the unsettled batch sum), so the
        exact fold only runs when the bound crosses the limit."""
        steps = self.steps
        for lanes, ns in self.step_acc:
            steps[lanes] += ns
        self.step_acc.clear()
        peak = int(steps.max()) if len(steps) else 0
        self.step_hi = peak
        if peak > self.max_steps:
            raise _Trap(f"step limit exceeded in {name}")

    # -- memory: each access splits its lanes into shared and private once --

    def load(self, uid, addr_i64, size, vdt, decode, out_dtype, mids):
        offs, private = self._split(addr_i64, size)
        if private is None:
            return self._read_shared(uid, addr_i64, offs, size, vdt, decode, mids)
        if bool(private.all()):
            return self._read_private(addr_i64, size, vdt, decode, mids)
        shared = ~private
        out = np.empty(len(mids), out_dtype)
        out[shared] = self._read_shared(
            uid, addr_i64[shared], offs[shared], size, vdt, decode, mids[shared]
        )
        out[private] = self._read_private(
            addr_i64[private], size, vdt, decode, mids[private]
        )
        return out

    def store(self, uid, addr_i64, vals, size, vdt, decode, mids):
        offs, private = self._split(addr_i64, size)
        typed = _encode(vals, vdt, decode, len(mids))
        if private is None:
            self._write_shared(uid, addr_i64, offs, typed, size, mids)
        elif bool(private.all()):
            self._write_private(addr_i64, typed, size, mids)
        else:
            shared = ~private
            self._write_shared(
                uid, addr_i64[shared], offs[shared], typed[shared], size, mids[shared]
            )
            self._write_private(addr_i64[private], typed[private], size, mids[private])

    def _split(self, addr_i64, size):
        """An access's offsets into the region, and the mask of its lanes
        in the private window (``None`` when every lane is shared).  One
        folded unsigned compare tests the shared surface (below-base
        addresses wrap to huge offsets); the private window lies outside
        it.  A lane in neither — or in the window before any ``alloca``
        ran — traps, so the scalar rerun reproduces the fault."""
        off_u = addr_i64.view(_U64) - self.base_u
        outside = off_u > np.uint64(self.limit - size)
        if not bool(outside.any()):
            return off_u.view(_I64), None
        private = (addr_i64.view(_U64) - _PB_U) < _PWIDTH_U
        if not self.has_private or bool((outside & ~private).any()):
            raise _Trap("address outside the shared surface")
        return off_u.view(_I64), private

    def _view(self, vdt):
        key = np.dtype(vdt)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = self.u8.view(vdt)
        return view

    def _read_shared(self, uid, addr_i64, offs, size, vdt, decode, mids):
        if self.collect:
            self.records.append((uid, mids, addr_i64, size, False))
        self.lmarks.append((offs, size, mids))
        if size == 1:
            raw = self.u8[offs].view(vdt)
        elif not bool((offs & (size - 1)).any()):
            raw = self._view(vdt)[offs >> _SHIFT[size]]
        else:
            mat = offs[:, None] + np.arange(size, dtype=_I64)
            raw = self.u8[mat].view(vdt)[:, 0]
        return _decode(raw, decode)

    def _write_shared(self, uid, addr_i64, offs, typed, size, mids):
        if self.collect:
            self.records.append((uid, mids, addr_i64, size, True))
        self.smarks.append((offs, size, mids))
        mat = offs[:, None] + np.arange(size, dtype=_I64)
        self.journal.append((mat, self.u8[mat]))
        self.u8[mat] = typed.view(np.uint8).reshape(len(mids), size)

    # -- private (alloca) memory ------------------------------------------

    def alloc_private(self, mids, size: int):
        self.has_private = True
        old = self.priv_next[mids]
        self.priv_next[mids] = (old + size + 15) & ~np.int64(15)
        return _PB + old

    def _private_bytes(self, addr_i64, size):
        """The byte offsets of an access's private lanes into their rows
        of private memory, grown to cover them.  Rows start at the bump
        base, so they hold what the lanes allocated and no more; they
        grow to need, rounded up to 256 bytes and by at least a quarter.
        An access below the base or past the window traps, and the scalar
        rerun reproduces what it reads."""
        offs = addr_i64 - np.int64(_PB + _BUMP_BASE)
        if int(offs.min()) < 0:
            raise _Trap("private access below the bump base")
        need = int(offs.max()) + size
        if need > _ROW_LIMIT:
            raise _Trap("private access beyond the window")
        if need > self.priv_w:
            width = max(need, self.priv_w + self.priv_w // 4)
            width = min(-(-width // 256) * 256, _ROW_LIMIT)
            fresh = np.zeros((self.n, width), np.uint8)
            if self.priv is not None:
                fresh[:, : self.priv_w] = self.priv
            self.priv = fresh
            self.priv_w = width
        return offs[:, None] + np.arange(size, dtype=_I64)

    def _read_private(self, addr_i64, size, vdt, decode, mids):
        mat = self._private_bytes(addr_i64, size)
        return _decode(self.priv[mids[:, None], mat].view(vdt)[:, 0], decode)

    def _write_private(self, addr_i64, typed, size, mids):
        mat = self._private_bytes(addr_i64, size)
        self.priv[mids[:, None], mat] = typed.view(np.uint8).reshape(len(mids), size)

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
        reproduce.  The marks are needed for nothing else: they are freed
        when the check returns."""
        smarks, lmarks = self.smarks, self.lmarks
        self.smarks = self.lmarks = None
        if not smarks:
            return
        offs_parts, own_parts = [], []
        for offs, size, mids in smarks:
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
        for offs, size, mids in lmarks:
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
        """The launch's columnar trace, through the constructor the scalar
        launch uses too: the event columns below and the unit counts of
        every function the launch entered.  Everything stays an array:
        per-lane ``ExecTrace`` objects exist only if someone asks the
        result for its :meth:`~repro.exec.buffers.LaunchTrace.lanes`."""
        return LaunchTrace.from_unit_counts(
            self.n, self._event_columns(budget), self._unit_counts()
        )

    def _event_columns(self, budget: int) -> dict:
        """The event columns of the launch trace from the chronological
        records: apply the scalar launch's cap budget, order the kept
        events per lane, canonicalize their addresses in one batch and
        derive per-(lane, uid) sequence numbers.  Events over a lane's cap
        are dropped before anything is gathered or ranked, and each array
        as long as all the records is freed once it has been gathered:
        what outlives this call is the size of the kept events."""
        n = self.n
        records, self.records = self.records, None
        none = [np.zeros(0, _I64)]
        # Lane ids go straight into the narrowest dtype that holds them
        # (every id is below n, so the cast is exact): 16-bit keys take
        # NumPy's radix sort.
        lanes = np.concatenate(
            [record[1] for record in records] or none,
            dtype=np.min_scalar_type(n),
            casting="unsafe",
        )
        totals = np.bincount(lanes, minlength=n)
        # The scalar launch's running budget in closed form: lane i keeps
        # min(total_i, per_item, budget - kept by the lanes before it).
        per_item = per_item_cap(budget, n, "gpu")
        kept_through = np.minimum(
            np.cumsum(np.minimum(totals, per_item)), max(0, budget)
        )
        kept = np.diff(kept_through, prepend=0)
        kept_before = kept_through - kept
        caps = np.minimum(per_item, np.maximum(0, budget - kept_before))
        count = int(kept.sum())

        # Chronological order per lane is a stable sort by lane id; each
        # lane keeps the first ``kept[lane]`` of its run.
        order = np.argsort(lanes, kind="stable")
        del lanes
        run_starts = np.cumsum(totals) - totals
        order = order[np.arange(count) + np.repeat(run_starts - kept_before, kept)]

        # A kept event's record is the one whose span of positions holds it.
        ends = np.cumsum([len(record[1]) for record in records])
        record = np.searchsorted(ends, order, side="right")
        record_uids = np.array([r[0] for r in records], _I64)
        sizes = event_column("size", [r[3] for r in records])
        stores = event_column("is_store", [r[4] for r in records])
        address = np.concatenate([r[2] for r in records] or none).view(_U64)[order]
        del records, order
        in_surface = (address >= self.base_u) & (address < self.cend_u)
        np.subtract(address, self.svm_u, out=address, where=in_surface)
        del in_surface

        # seq: rank among the lane's accesses by the same instruction.  A
        # lane's kept events are a chronological prefix, so ranking the
        # kept ones alone numbers them as ranking all of them would.
        uids, uid_ranks = np.unique(record_uids, return_inverse=True)
        key = np.repeat(np.arange(n) * len(uids), kept) + uid_ranks[record]
        perm = np.argsort(
            key.astype(np.min_scalar_type(n * len(uids))), kind="stable"
        )
        sorted_key = key[perm]
        del key
        group_start = np.flatnonzero(
            np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))[:count]
        )
        del sorted_key
        seq = np.empty(count, _I64)
        seq[perm] = np.arange(count) - np.repeat(
            group_start, np.diff(np.append(group_start, count))
        )
        return {
            "lane": np.repeat(event_column("lane", np.arange(n)), kept),
            "uid": record_uids[record],
            "seq": event_column("seq", seq),
            "address": address,
            "size": sizes[record],
            "is_store": stores[record],
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
    """Round a float64 column through float32: the C ``(float)`` cast the
    scalar engines do, so a finite value past the f32 range is ``inf``
    there too."""
    with np.errstate(over="ignore"):
        return r.astype(np.float32).astype(np.float64)


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


def _address(m, gvar, k: int):
    """A global's address column, from the addresses the launching
    runtime gave the program's globals when it loaded it."""
    address = m.addresses.get(gvar.name)
    if address is None:
        raise _Trap(f"global @{gvar.name} has no address (not loaded)")
    return np.full(k, _int64_pattern(address), _I64)


def _returned(column, name: str):
    if column is None:
        raise _Trap(f"{name} returned no value")
    return column


def _join(segments):
    """One segment of several parked ones: each column concatenated over
    them, in order (the one segment itself, when there is one)."""
    if len(segments) == 1:
        return segments[0]
    return tuple(map(np.concatenate, zip(*segments)))


def _result(m, returned, lanes, dtype):
    """What an invocation over ``lanes`` returns: the ``(lanes, column)``
    its ``ret`` statements parked, scattered into ``lanes`` order (None
    when no lane returned a value)."""
    if not returned:
        return None
    if len(returned) == 1 and returned[0][0] is lanes:
        return returned[0][1]
    position = np.empty(m.n, _I64)  # machine lane -> index in lanes
    position[lanes] = np.arange(len(lanes))
    out = np.zeros(len(lanes), dtype)
    for part, column in returned:
        out[position[part]] = column
    return out


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
    "count_nonzero": np.count_nonzero,
    "floor": np.floor,
    "full": np.full,
    "where": np.where,
    "_Trap": _Trap,
    **{
        fn.__name__: fn
        for fn in (
            _address, _exact, _f32, _fdiv, _fptosi, _frem, _join, _nonneg,
            _result, _returned, _rsqrt, _sdiv, _sqrt, _srem, _udiv, _urem, _whole,
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

#: A function: the call depth, the function's unit accumulators (``h_``
#: the lanes of every run of a unit, ``tk_`` of every taken branch), the
#: segment's count, its tree, and the result of the lanes that returned.
_NP_FUNCTION = """\
def f(m, lanes{args}):
    if m.depth > {max_depth}:
        raise _Trap({too_deep!r})
    m.depth += 1
    h_, tk_ = m.enter({owner})
    k = k0_ = len(lanes)
    r_ = []
    l0_ = lanes
{body}
    m.depth -= 1
    return _result(m, r_, l0_, {dtype})
"""

#: An ``If`` splits the segment by its mask: the lanes taking the branch
#: stay (``k`` of them, no copy when they are all) and run the ``then``
#: arm, the others park at ``s<n>_`` (None when there are none) for the
#: ``else`` arm.
_NP_PARTITION = """\
b{n}_ = {test}
n{n}_ = count_nonzero(b{n}_)
if n{n}_ == k:
    s{n}_ = None
elif n{n}_:
    c{n}_ = ~b{n}_
    s{n}_ = ({split})
    {keep} = {kept}
    k = n{n}_
else:
    s{n}_ = ({away})
    k = 0
if k:
    tk_[{unit}].append(lanes)
"""


# -- lowering stages ----------------------------------------------------------
#
# ``VectorFunction.__init__`` is the driver: plan units -> fold invariants
# -> fuse single-use geps -> liveness per block -> print the region tree
# (classifying gnarly constructs on the way) -> compile once.

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
    fused = set()
    for chain in plan.units:
        single = set()  # single-use geps of this unit seen so far
        for block in chain:
            for instr in block.instructions:
                if instr.op == "gep" and plan.uses.get(id(instr)) == 1:
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


class _ColumnWriter:
    """Writes one function's module text from the op table: the region
    tree of its CFG (:mod:`repro.ir.structure`) as one function over a
    *segment* — locals ``v<slot>`` holding one column per live value,
    ``lanes`` the machine lane ids the columns cover, ``k`` their count.

    ``If`` partitions the segment by the branch mask, runs each arm on its
    part and concatenates what runs off both arms at the join; ``Loop`` is
    a ``while`` over the lanes still iterating.  ``Break``, ``Continue``
    and ``Next`` park the segment in the list of the place it goes to —
    the loop's exit or next pass, a ``Forward`` member, a ``Dispatch``
    state, each of which runs over the segments parked for it — and a
    ``ret`` parks the returned column for the result.  A parked segment
    carries the columns live at its target block (:func:`_liveness`) and
    leaves ``k`` 0: the rest of a statement list runs only while lanes
    remain.  :func:`plan_function`'s units stay what is counted: where the
    tree reaches a unit's first block the text records its lanes and
    charges its steps.

    Every operand is statically a *column* (a local, a global's broadcast
    address) or *known* (a constant, or an instruction
    :func:`_fold_invariants` evaluated), and every statement written has at
    least one column operand, so NumPy's own broadcasting leaves each
    result a dense ``(k,)`` column of its domain's dtype without any
    run-time normalization."""

    def __init__(self, owner, plan, cache, known, traps, n_steps):
        self.owner = owner  # the VectorFunction being written
        self.name = owner.name
        self.plan = plan
        self.slots = plan.slots
        self.cache = cache  # the program's VectorCodeCache, for callees
        self.known = known  # instruction id -> generation-time value
        self.traps = traps  # instruction id -> why evaluating it raises
        self.n_steps = n_steps  # per unit
        self.live, self.edge = _liveness(plan, known)
        self.head_of = {id(chain[0]): i for i, chain in enumerate(plan.units)}
        # A gep read once, by a memory access of its own unit, becomes
        # that access's address expression.
        self.fused = _fusable_geps(plan) - known.keys() - traps.keys()
        self.subs: list = []  # callees' VectorFunctions
        self.ret_dtype = None
        self.consts: list = []  # k<n>: the generated module's namespace
        self._const_names: dict = {}
        # what is being written
        self.lines: list[str] = []
        self.depth = 1
        self.count = 0  # constructs so far: their variables' suffix
        self.brk = None  # (list, block) a ``Break`` parks the segment at
        self.cont = None  # (list, block) a ``Continue`` parks it at
        self.parked: dict = {}  # member block -> the list its ``Next`` parks at

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
        """Text of the column holding ``value``."""
        if isinstance(value, GlobalVariable) and dom != "f":
            return f"_address(m, {self._bind(value)}, k)"
        slot = self.slots.get(id(value))
        if dom == "f":
            if slot is None or _dom(value.type) != "f":
                raise _Gnarly("non-float value in float context")
        elif slot is None:
            raise _Gnarly(f"use of undefined value {value!r}")
        elif _dom(value.type) == "f":
            raise _Gnarly("float value in integer context")
        return f"v{slot}"

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
        """Assignment target for ``instr``'s result: its local when
        anything reads it."""
        return f"v{self.slots[id(instr)]}" if self.plan.uses.get(id(instr)) else "_"

    def _line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def _emit(self, template: str, **fields) -> None:
        for line in template.format(**fields).splitlines():
            self._line(line)

    def _trap(self, message: str) -> None:
        self._line(f"raise _Trap({message!r})")

    # -- segments ----------------------------------------------------------

    @staticmethod
    def _spell(slots, mask: str = "") -> str:
        """A segment as text: the columns of ``slots``, then ``lanes``,
        each indexed by ``mask`` when one is given."""
        names = [f"v{slot}" for slot in sorted(slots)] + ["lanes"]
        return "".join(f"{name}{mask and f'[{mask}]'}, " for name in names).rstrip()

    def _park(self, place: str, block) -> None:
        """The segment leaves for ``place``, a list of segments at ``block``."""
        self._line(f"{place}.append(({self._spell(self.live[block])}))")
        self._line("k = 0")

    def _unpark(self, place: str, block) -> None:
        """The segments parked at ``place`` become the current one."""
        self._line(f"{self._spell(self.live[block])} = _join({place})")
        self._line("k = len(lanes)")

    def _ends(self, stmts) -> set:
        """How lanes leave ``stmts``: ``None`` by running off its end,
        ``"ret"``, ``Break``, ``Continue``, or the block of a ``Next``."""
        found, falls = set(), True
        for stmt in stmts:
            if isinstance(stmt, Jump):
                continue
            if isinstance(stmt, Block):
                term = self.plan.terms[id(stmt.block)]
                op = term.op if term else "unreachable"
                ends = {None} if op in ("br", "condbr") else {op} - {"unreachable"}
            elif isinstance(stmt, (Break, Continue)):
                ends = {type(stmt)}
            elif isinstance(stmt, Next):
                ends = {stmt.dst}
            elif isinstance(stmt, If):
                ends = self._ends(stmt.then) | self._ends(stmt.orelse)
            else:  # a region: its own members are not ways out
                arms = [stmt.body] if isinstance(stmt, Loop) else [a for _b, a in stmt.members]
                ends = set().union(*map(self._ends, arms))
                ends -= {block for block, _arm in getattr(stmt, "members", ())}
                if not isinstance(stmt, Forward):  # a loop or state machine: its
                    # ``Break`` leaves it, running off or ``Continue`` go round
                    ends = ends - {None, Break, Continue} | ({None} if Break in ends else set())
            falls = None in ends
            found |= ends - {None}
        return found | {None} if falls else found

    def _arrival(self, stmt):
        """The block lanes are at when they reach ``stmt``."""
        if isinstance(stmt, (Break, Continue)):
            return (self.brk if isinstance(stmt, Break) else self.cont)[1]
        if isinstance(stmt, (Forward, Dispatch)):
            return stmt.members[0][0]
        if isinstance(stmt, Next):
            return stmt.dst
        return stmt.header if isinstance(stmt, Loop) else stmt.block

    # -- the tree ------------------------------------------------------------

    def statements(self, stmts, fall) -> None:
        """``stmts`` over the current segment; running off their end
        reaches block ``fall``.  After a construct some lanes may leave,
        the rest runs only while lanes remain."""
        depth = self.depth
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, Block):
                self._block(stmt.block)
            elif isinstance(stmt, Jump):
                self._jump(stmt.src, stmt.dst)
            elif isinstance(stmt, (Break, Continue)):
                self._park(*(self.brk if isinstance(stmt, Break) else self.cont))
            elif isinstance(stmt, Next):
                self._park(self.parked[stmt.dst], stmt.dst)
            else:
                rest = stmts[index + 1 :]
                after = self._arrival(rest[0]) if rest else fall
                self.count += 1
                if isinstance(stmt, If):
                    self._if(stmt, after, self.count)
                elif isinstance(stmt, Loop):
                    self._loop(stmt, after, self.count)
                else:
                    self._members(stmt, after, self.count)
                if rest and self._ends([stmt]) - {None}:
                    self._line("if k:")
                    self.depth += 1
        self.depth = depth

    def _block(self, block) -> None:
        """The block's instructions; at a unit's first block, the unit's
        lanes and step charge before them."""
        head = self.head_of.get(id(block))
        if head is not None:
            self._line(f"h_[{head}].append(lanes)")
            self._line(f"m.charge(lanes, k, k0_, {self.n_steps[head]}, {self.name!r})")
        if block is self.plan.blocks[0] and block.phis():
            self._trap(f"{self.name}: phi in {block.name} has no incoming edge from <entry>")
        term = self.plan.terms[id(block)]
        for instr in block.instructions:
            if instr is term:
                break
            if instr.op != "phi":
                self._instruction(instr)
        if term is None:
            self._trap(f"{self.name}: block {block.name} fell through")
        elif term.op == "ret":
            if term.operands:
                dom = _dom(term.operands[0].type)
                if dom == "v":
                    raise _Gnarly("void-typed return value")
                if self.ret_dtype not in (None, _dtype_of(dom)):
                    raise _Gnarly("mixed return domains")
                self.ret_dtype = _dtype_of(dom)
                self._line(f"r_.append((lanes, {self._dense(term.operands[0], dom)}))")
            self._line("k = 0")
        elif term.op == "unreachable":
            self._trap(f"reached unreachable in {self.name}")

    def _jump(self, src, dst) -> None:
        """The edge's phi copies as one parallel assignment (Python
        evaluates the whole right-hand side before it assigns any target);
        an edge a phi has no value for traps."""
        copies = edge_copies(src, dst)
        if copies is None:
            self._trap(f"{self.name}: phi in {dst.name} has no incoming edge from {src.name}")
        elif copies:
            doms = [_dom(phi.type) for phi, _value in copies]
            if "v" in doms:
                raise _Gnarly("void phi")
            targets = ", ".join(f"v{self.slots[id(phi)]}" for phi, _value in copies)
            values = ", ".join(self._dense(v, d) for (_phi, v), d in zip(copies, doms))
            self._line(f"{targets} = {values}")

    def _if(self, stmt, after, n: int) -> None:
        """Partition, the two arms, the join: what runs off the ``then`` arm
        parks at ``j<n>_`` while the ``else`` arm runs, and so does what
        runs off the ``else`` arm when both can."""
        block = stmt.block
        term = self.plan.terms[id(block)]
        cond = term.operands[0]
        dom = _dom(cond.type)
        keep, away = (self.edge(block, target) for target in term.targets)
        joined = None in self._ends(stmt.then)
        if joined:
            self._line(f"j{n}_ = []")
        self._emit(
            _NP_PARTITION,
            n=n,
            test=f"{self._dense(cond, dom)} != {'0.0' if dom == 'f' else '0'}",
            keep=self._spell(keep),
            kept=self._spell(keep, f"b{n}_"),
            away=self._spell(away),
            split=self._spell(away, f"c{n}_"),
            unit=self.plan.unit_idx_by_block[block],
        )
        for index, arm in enumerate((stmt.then, stmt.orelse)):
            if index:
                self._line(f"if s{n}_ is not None:")
                self._line(f"    {self._spell(away)} = s{n}_")
                self._line("    k = len(lanes)")
            self.depth += 1
            self.statements(arm, after)
            ends = self._ends(arm)
            if joined and None in ends:
                self._under(ends != {None}, "if k:", self._park, f"j{n}_", after)
            self.depth -= 1
        if joined:
            ends = self._ends(stmt.then) | self._ends(stmt.orelse)
            self._under(ends != {None}, f"if j{n}_:", self._unpark, f"j{n}_", after)

    def _under(self, guard: bool, test: str, write, *args) -> None:
        """``write(*args)``, under ``test`` when ``guard`` says so."""
        if guard:
            self._line(test)
            self.depth += 1
        write(*args)
        self.depth -= guard

    def _loop(self, stmt, after, n: int) -> None:
        """``while`` lanes still iterate: running off the body or
        ``Continue`` is the next pass, ``Break`` parks at ``x<n>_`` until
        the loop is done."""
        header = stmt.header
        ends = self._ends(stmt.body)
        outer = self.brk, self.cont
        self.brk, self.cont = (f"x{n}_", after), (f"c{n}_", header)
        if Break in ends:
            self._line(f"x{n}_ = []")
        self._line("while k:")
        self.depth += 1
        if Continue in ends:
            self._line(f"c{n}_ = []")
        self.statements(stmt.body, header)
        if Continue in ends:
            self._line(f"if c{n}_:")
            self.depth += 1
            if None in ends:
                self._under(True, "if k:", self._park, f"c{n}_", header)
            self._unpark(f"c{n}_", header)
            self.depth -= 1
        self.depth -= 1
        self.brk, self.cont = outer
        if Break in ends:
            self._under(True, f"if x{n}_:", self._unpark, f"x{n}_", after)

    def _members(self, stmt, after, n: int) -> None:
        """Each member of a region runs over the segments parked at
        ``q<n>_`` for it: the region's entry for the first, a ``Next`` of
        another member for the rest.  A ``Forward`` region runs them once,
        in order, parking what runs off a member at ``o<n>_``; a
        ``Dispatch`` region sweeps them in order while segments are parked
        at any of them, and its ``Break`` leaves through ``o<n>_``."""
        members = stmt.members
        cyclic = isinstance(stmt, Dispatch)
        ends = [self._ends(arm) for _block, arm in members]
        leaves = Break in set().union(*ends) if cyclic else any(None in e for e in ends)
        for index, (block, _arm) in enumerate(members):
            self.parked[block] = f"q{n}_[{index}]"
        entry = self._spell(self.live[members[0][0]])
        self._line(f"q{n}_ = [[({entry})]{', []' * (len(members) - 1)}]")
        if leaves:
            self._line(f"o{n}_ = []")
        outer = self.brk
        if cyclic:
            self.brk = (f"o{n}_", after)
            self._line(f"while any(q{n}_):")
            self.depth += 1
        for index, (block, arm) in enumerate(members):
            self._line(f"if q{n}_[{index}]:")
            self.depth += 1
            self._unpark(f"q{n}_[{index}]", block)
            self._line(f"q{n}_[{index}] = []")
            self.statements(arm, after)
            if None in ends[index]:
                self._under(bool(ends[index] - {None}), "if k:", self._park, f"o{n}_", after)
            self.depth -= 1
        self.depth -= cyclic
        self.brk = outer
        if leaves:
            self._under(True, f"if o{n}_:", self._unpark, f"o{n}_", after)

    def text(self, stmts) -> str:
        """The module text: one function ``f(m, lanes, <arguments>)``."""
        self.statements(stmts, None)
        return _NP_FUNCTION.format(
            args="".join(f", v{self.slots[id(arg)]}" for arg in self.owner.function.args),
            max_depth=_MAX_CALL_DEPTH,
            too_deep=f"call depth limit exceeded in {self.name}",
            owner=self._bind(self.owner),
            body="\n".join(self.lines),
            dtype={None: None, np.float64: "F64"}.get(self.ret_dtype, "I64"),
        )

    # -- instructions ------------------------------------------------------

    def _instruction(self, instr) -> None:
        op = instr.op
        if id(instr) in self.known:
            return  # its users read the value as a literal
        if id(instr) in self.traps:
            self._line(f"raise _Trap({self.traps[id(instr)]!r})")
        elif op == "load":
            self._memory(instr, instr.type, instr.operands[0], None)
        elif op == "store":
            self._memory(instr, instr.operands[0].type, instr.operands[1], instr.operands[0])
        elif op == "gep":
            if id(instr) not in self.fused:
                text = self._gep(instr)
                self._line(f"{self._target(instr)} = {text}")
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
            self._line(f"{self._target(instr)} = m.alloc_private(lanes, {size})")
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
            self._line("raise _Trap('u64 pattern outside the vector-safe range')")
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
        self._line(f"{self._target(instr)} = ({test}).astype(I64)")

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
        self._line(f"{self._target(instr)} = {text}")

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
        self._line(f"{self._target(instr)} = {text}")

    def _select(self, instr) -> None:
        dom = _dom(instr.type)
        if dom == "v":
            raise _Gnarly("void select")
        cond, then, other = instr.operands
        cdom = _dom(cond.type)
        test = f"{self._operand(cond, cdom)} != {'0.0' if cdom == 'f' else '0'}"
        then, other = self._operand(then, dom), self._operand(other, dom)
        self._line(f"{self._target(instr)} = where({test}, {then}, {other})")

    def _call(self, instr) -> None:
        callee = instr.callee
        if not isinstance(callee, Function):
            name = getattr(callee, "name", None)
            if name is None:
                raise _Gnarly("unknown callee")
            text = self._intrinsic(instr, name)
            if text is not None:
                self._line(f"{self._target(instr)} = {text}")
            return
        sub = self.cache.get(callee)
        self.subs.append(sub)
        args = "".join(
            f", {self._dense(value, _dom(arg.type))}"
            for value, arg in zip(instr.operands, callee.args)
        )
        text = f"{self._bind(sub.entry)}(m, lanes{args})"
        dom = _dom(instr.type)
        if dom != "v":
            if sub.ret_dtype not in (None, _dtype_of(dom)):
                raise _Gnarly("call/return domain mismatch")
            text = f"_returned({text}, {sub.name!r})"
        self._line(f"{self._target(instr)} = {text}")

    def _intrinsic(self, instr, name: str):
        """Expression text of an intrinsic call, or None when the lines
        (if any) were written here."""
        if name in ("svm.to_gpu", "svm.to_cpu"):
            a = self._dense(instr.operands[0], "i")
            if not a.isidentifier():
                self._line(f"a_ = {a}")
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


def _liveness(plan: FunctionPlan, known) -> tuple:
    """``(live, edge)``: per block, the slots of the columns live where it
    starts, after its phis took their edge's values (backward dataflow
    over the plan, folded values left out); ``edge(src, dst)``, those a
    segment taking that edge carries — the phi sources included."""
    slots = plan.slots

    def columns(values) -> set:
        return {slots[id(v)] for v in values if id(v) in slots and id(v) not in known}

    def edge(src, dst) -> set:
        copies = edge_copies(src, dst) or ()
        return (live[dst] - columns(dst.phis())) | columns(v for _phi, v in copies)

    live = {block: set() for block in plan.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(plan.blocks):
            term = plan.terms[id(block)]
            now = set().union(*(edge(block, dst) for dst in (term.targets if term else ())))
            body = block.instructions
            for instr in reversed(body[: body.index(term) + 1] if term else body):
                if instr.op != "phi":
                    now.discard(slots[id(instr)])
                    now |= columns(instr.operands)
            if now != live[block]:
                live[block] = now
                changed = True
    return live, edge


class VectorFunction:
    """One IR function lowered to one generated columnar function
    (:class:`_ColumnWriter`) over the *same* superblock plan as the scalar
    engine.  ``entry(m, lanes, *columns)`` runs the invocation of those
    lanes and returns their result column (or None).  Nothing here depends
    on a region: the launch's :class:`VectorMachine` carries the bases,
    limits and ``svm_const``."""

    def __init__(self, function: Function, cache: "VectorCodeCache"):
        plan = plan_function(function)
        if plan is None:
            raise _Gnarly(f"{function.name} has no body")
        self.function = function
        self.name = function.name
        self.arg_doms = [_dom(arg.type) for arg in function.args]
        units, n_steps = unit_totals(plan)
        self.units = tuple(units)
        self.table = UnitTable(self.units)
        # Evaluate now what no lane can change: pure instructions over
        # constants, through the reference interpreter's own evaluator.
        known, traps = _fold_invariants(function, plan)
        # One function of NumPy over the region tree; a construct the op
        # table has no column form for raises _Gnarly from here.
        writer = _ColumnWriter(self, plan, cache, known, traps, n_steps)
        self.source = writer.text(_region_tree(function, plan))
        self.ret_dtype = writer.ret_dtype
        self.subs = writer.subs
        # Compile once: the text is the program's from here on.
        names = dict(_RUNTIME_NAMES)
        names.update((f"k{i}", value) for i, value in enumerate(writer.consts))
        try:
            self.filename, namespace = load_generated(
                f"repro-vjit {self.name}", self.source, names
            )
        except (SyntaxError, RecursionError) as exc:  # nested past CPython's limits
            raise _Gnarly(f"generated text does not compile: {exc}") from None
        self.entry = namespace["f"]
        self.maskable = any(
            term is not None and term.op == "condbr" for term in plan.terms.values()
        ) or any(sub.maskable for sub in self.subs)



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
        # Runtimes on several threads share one program: generation runs
        # under this lock, so ``_building`` is one thread's call chain and
        # a callee another thread is generating never reads as recursion.
        self._lock = threading.RLock()
        #: kernel -> why its launches go scalar though it vectorizes: a
        #: sticky hazard's message (:class:`VectorEngine` writes, and reads
        #: before it even asks for the code)
        self.scalar: dict = {}

    def get(self, fn: Function) -> "VectorFunction":
        """The function's generated code; recursion shows as a request
        for a function still being built (a recursive cycle cannot be
        lane-synchronously scheduled, so it is gnarly)."""
        vfn = self._cache.get(fn)
        if vfn is None:
            with self._lock:
                vfn = self._cache.get(fn)
                if vfn is None:
                    vfn = self._generate(fn)
        if vfn.__class__ is str:  # memoized gnarly reason
            raise _Gnarly(vfn)
        return vfn

    def _generate(self, fn: Function):
        if fn in self._building:
            raise _Gnarly(f"recursion through {fn.name}")
        self._building.add(fn)
        try:
            vfn = VectorFunction(fn, self)
        except _Gnarly as exc:
            vfn = str(exc)
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


def run_vectorized(engine, vfn: VectorFunction, span, args_of, budget):
    """Execute one GPU launch columnar on a :class:`VectorMachine` built
    from ``engine``; returns ``(machine, trace)`` with ``trace`` the
    launch's :class:`~repro.exec.buffers.LaunchTrace`.

    On *any* failure — vectorizability trap, cross-lane hazard, or an
    unexpected error — every journalled store is rolled back so the
    region is byte-identical to its pre-launch state, and
    :class:`VectorFallback` tells the engine to rerun the span through
    the scalar path (which then reproduces results, traces, and error
    behaviour exactly)."""
    machine = VectorMachine(engine, span)
    try:
        cols = _arg_columns(vfn, span, args_of)
        with np.errstate(all="ignore"):
            machine.call(vfn, cols)
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


class VectorEngine(CompiledEngine):
    """The generated-code engine whose GPU launches run columnar.

    :meth:`run_launch` tries the program's vector code first for a GPU
    launch and falls back, per kernel, to :meth:`CompiledEngine.run_launch`
    (a CPU chunk runs there directly); ``call_function`` (host calls, a
    GPU-side join) is the inherited scalar one.  The routing, auditable
    through the
    ``vector.*`` counters and the ``vector_classify`` span:

    * a kernel the program already routes scalar (after a sticky hazard)
      skips even the classification;
    * otherwise the kernel is classified (``regular`` / ``maskable`` /
      ``gnarly``); gnarly kernels — irreducible or unsupported constructs,
      un-devirtualized virtual calls, recursion, device-side allocation —
      run scalar;
    * a vectorizable kernel runs optimistically; a trap rolls back every
      store and the launch re-runs scalar, so results never diverge; a
      sticky trap (a cross-lane hazard) routes the kernel scalar for the
      rest of the program object's life, counted once as
      ``vector.routed.hazard``.

    ``vector_code`` is the program's :class:`VectorCodeCache` (code and
    verdicts shared by every runtime over the program object),
    ``classified`` the owning runtime's set of kernels whose
    classification its span and counters already show, and ``obs_span``
    the runtime's span factory.
    """

    def __init__(self, *args, vector_code, classified: set, obs_span, **kwargs):
        super().__init__(*args, **kwargs)
        self.vector_code = vector_code
        self.classified = classified
        self.obs_span = obs_span

    def _classify(self, kernel):
        """``classify_kernel``'s answer from the program's code cache; the
        first ask by this runtime is the one its span and counters show."""
        if kernel in self.classified:
            return classify_kernel(self.vector_code, kernel)
        self.classified.add(kernel)
        with self.obs_span("vector_classify", "vector", kernel=kernel.name):
            got = classify_kernel(self.vector_code, kernel)
        if self.counters is not None:
            if got[0] == "gnarly":
                self.counters.add("vector.kernels_gnarly")
            else:
                self.counters.add("vector.kernels_vectorized")
        return got

    def run_launch(self, function: Function, span, args_of, budget: int) -> LaunchTrace:
        if span and self.device == "gpu":
            trace = self._columnar(function, span, args_of, budget)
            if trace is not None:
                return trace
            if self.counters is not None:
                self.counters.add("vector.fallbacks")
        return super().run_launch(function, span, args_of, budget)

    def _columnar(self, function: Function, span, args_of, budget: int):
        """The launch run columnar, or ``None`` where the routing sends
        it to the scalar path (the region is then as it was)."""
        scalar = self.vector_code.scalar
        if function in scalar:
            return None
        kind, _reason, vfn = self._classify(function)
        if kind == "gnarly":
            return None
        try:
            with self.obs_span("vector_launch", "vector", kernel=function.name, n=len(span)):
                machine, trace = run_vectorized(self, vfn, span, args_of, budget)
        except VectorFallback as fb:
            if fb.sticky:
                scalar[function] = str(fb)
                if self.counters is not None:
                    self.counters.add("vector.routed.hazard")
            return None
        counters = self.counters
        if counters is not None:
            n = len(span)
            # The scalar path counts engine.invocations once per
            # work-item; one vector launch is n of those.
            counters.add("engine.invocations", n)
            counters.add(f"engine.invocations.{self.device}", n)
            counters.add("vector.lanes_retired", n)
            # Occupancy ratio = vector.mask_occupancy / vector.mask_slots:
            # active lane-steps over issued lane-slots across all units.
            counters.add("vector.mask_occupancy", int(machine.occ_active))
            counters.add("vector.mask_slots", int(machine.occ_slots))
        return trace
