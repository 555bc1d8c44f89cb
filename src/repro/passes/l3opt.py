"""L3OPT — reduce GPU cache-line contention (paper section 4.2).

The integrated GPU's L3 is shared by all cores and is *not banked*: when
several cores touch the same cache line in the same cycle, accesses
serialize.  A common irregular-kernel shape makes this worst-case: an
innermost loop that walks the *same* array in the *same* order on every
work-item (e.g. "for each node, scan all N candidates").  Every core is at
the same ``j`` at roughly the same time, hammering one line.

The paper's fix is a compile-time iteration-order stagger per Figure 5:

    int start = i / W;               // W = number of GPU cores
    for (j = 0; j < N; j++) {
        j_tmp = (j + start) % N;
        ... = a[j_tmp];
    }

We implement it as an IR loop transformation.  A candidate loop must be:

* an innermost natural loop with a canonical induction variable:
  phi ``j`` starting at 0, stepped by +1, exiting on ``j < N`` /
  ``j != N`` with loop-invariant ``N``;
* memory access order must be permutable: every other header phi is a
  commutative reduction (add/fadd/mul/fmul/and/or/xor/min/max via select),
  and the loop body writes no shared memory (loads only);
* the loop must contain at least one *work-item-uniform* address: a load
  whose address does not depend on the work-item id.  (If every lane reads
  different data there is no same-line contention to fix.)

The rewrite inserts ``start = global_id / W`` in the preheader and replaces
body uses of ``j`` with ``(j + start) % N``, leaving the increment and the
exit test on the original ``j``.
"""

from __future__ import annotations

from typing import Optional

from ..ir import (
    Constant,
    Function,
    Instruction,
    IRBuilder,
    find_loops,
)
from ..ir.intrinsics import GPU_GLOBAL_ID, GPU_NUM_CORES
from ..ir.types import IntType


def reduce_cacheline_contention(function: Function) -> bool:
    if not function.blocks:
        return False
    changed = False
    for loop in find_loops(function):
        if not loop.is_innermost() or len(loop.latches) != 1:
            continue
        candidate = _match_candidate(function, loop)
        if candidate is None:
            continue
        _apply_stagger(function, loop, candidate)
        changed = True
    return changed


class _Candidate:
    def __init__(self, iv: Instruction, step: Instruction, bound, preheader):
        self.iv = iv
        self.step = step
        self.bound = bound
        self.preheader = preheader


def _match_candidate(function: Function, loop) -> Optional[_Candidate]:
    header = loop.header
    latch = loop.latches[0]
    preds = function.compute_preds()
    outside_preds = [p for p in preds[header] if p not in loop.blocks]
    if len(outside_preds) != 1:
        return None
    preheader = outside_preds[0]

    iv = step = None
    for phi in header.phis():
        init, stepval = _phi_init_step(phi, preheader, latch)
        if init is None:
            continue
        if (
            isinstance(init, Constant)
            and init.value == 0
            and isinstance(stepval, Instruction)
            and stepval.op == "add"
            and _is_plus_one(stepval, phi)
        ):
            iv, step = phi, stepval
            break
    if iv is None:
        return None

    # All other header phis must be commutative reductions.
    for phi in header.phis():
        if phi is iv:
            continue
        if not _is_reduction_phi(phi, preheader, latch, loop):
            return None

    bound = _loop_bound(function, loop, iv, step)
    if bound is None:
        return None

    if not _body_is_permutable(function, loop, iv, step):
        return None
    if _has_escaping_values(function, loop, iv, step):
        return None
    if not _has_uniform_access(function, loop):
        return None
    return _Candidate(iv, step, bound, preheader)


def _phi_init_step(phi, preheader, latch):
    if len(phi.operands) != 2:
        return None, None
    values = dict(zip(phi.phi_blocks, phi.operands))
    if preheader not in values or latch not in values:
        return None, None
    return values[preheader], values[latch]


def _is_plus_one(add: Instruction, phi: Instruction) -> bool:
    a, b = add.operands
    return (a is phi and isinstance(b, Constant) and b.value == 1) or (
        b is phi and isinstance(a, Constant) and a.value == 1
    )


_REDUCTION_OPS = frozenset(
    "add fadd mul fmul and or xor fmin fmax smin smax".split()
)


def _is_reduction_phi(phi, preheader, latch, loop) -> bool:
    _, stepval = _phi_init_step(phi, preheader, latch)
    if stepval is None:
        return False
    if stepval is phi:
        return True  # value unchanged in loop
    if not isinstance(stepval, Instruction):
        return False
    if stepval.op in _REDUCTION_OPS and phi in stepval.operands:
        return True
    if stepval.op == "select":
        # Only the true min/max pattern select(cmp(x, phi), x, phi) is
        # permutation-invariant.  Index selects (argmin: select(cmp(t,
        # best_t), j, best_j)) are NOT: under ties the result depends on
        # iteration order, which the stagger changes -> reject.
        cond, val_a, val_b = stepval.operands
        if phi not in (val_a, val_b):
            return False
        other = val_a if val_b is phi else val_b
        if not (isinstance(cond, Instruction) and cond.op in ("icmp", "fcmp")):
            return False
        return other in cond.operands
    if stepval.op == "call" and stepval.callee is not None:
        name = stepval.callee.name
        if name.startswith("math.fmin") or name.startswith("math.fmax"):
            return phi in stepval.operands
    return False


def _loop_bound(function, loop, iv, step):
    """Find the exit test ``iv < N`` (or ``step != N`` / ``step < N``).

    The loop must have exactly ONE exiting branch and it must be the
    canonical counter test.  Any additional exit is an early break whose
    outcome depends on iteration order, which the stagger permutes — e.g.
    a search loop that stops at the first match would visit a rotated
    prefix instead.
    """
    exit_terms = []
    for block in loop.ordered():
        term = block.terminator
        if term is None or term.op != "condbr":
            continue
        if any(t not in loop.blocks for t in term.targets):
            exit_terms.append(term)
    if len(exit_terms) != 1:
        return None
    cond = exit_terms[0].operands[0]
    if not isinstance(cond, Instruction) or cond.op != "icmp":
        return None
    lhs, rhs = cond.operands
    for a, b in ((lhs, rhs), (rhs, lhs)):
        if a is iv or a is step:
            if cond.pred in ("slt", "ult", "ne", "sle", "ule", "sgt", "ugt"):
                if _is_loop_invariant(b, loop):
                    return b
    return None


def _is_loop_invariant(value, loop) -> bool:
    if isinstance(value, Constant):
        return True
    if isinstance(value, Instruction):
        return value.block not in loop.blocks
    return True  # arguments/globals


def _body_is_permutable(function, loop, iv, step) -> bool:
    for block in loop.ordered():
        for instr in block.instructions:
            if instr.op == "store":
                pointer = instr.operands[1]
                if not _is_private(pointer):
                    return False
            if instr.op == "call" and instr.callee is not None:
                if instr.callee.name.startswith("atomic."):
                    return False
    return True


def _is_private(pointer) -> bool:
    seen = 0
    while isinstance(pointer, Instruction) and seen < 32:
        if pointer.op == "alloca":
            return True
        if pointer.op == "gep":
            pointer = pointer.operands[0]
            seen += 1
            continue
        return False
    return False


def _has_escaping_values(function, loop, iv, step) -> bool:
    """True if a value computed in the loop is used after it.  Such a use
    observes the *last* iteration's value, and the stagger changes which
    element that is.  Reduction results escape through header phis (already
    vetted as commutative); the counter itself always exits equal to the
    bound, so ``iv``/``step`` are safe.

    Header phis other than ``iv`` passed ``_is_reduction_phi``, so their
    final value is order-independent — but the *step* instruction of a
    min/max select is not (a post-loop use of the select sees the running
    value at the last visited index only if the loop completed, which it
    did; select steps are order-independent too once the loop runs to
    completion).  Every non-phi body instruction is conservatively treated
    as order-dependent.
    """
    safe = {id(iv), id(step)}
    for phi in loop.header.phis():
        safe.add(id(phi))
        values = dict(zip(phi.phi_blocks, phi.operands))
        for block, value in values.items():
            if block in loop.blocks:
                # The latch-side reduction step yields the same final value
                # regardless of visit order (commutative by construction).
                safe.add(id(value))
    for block in function.blocks:
        if block in loop.blocks:
            continue
        for instr in block.instructions:
            for op in instr.operands:
                if (
                    isinstance(op, Instruction)
                    and op.block in loop.blocks
                    and id(op) not in safe
                ):
                    return True
    return False


def _has_uniform_access(function, loop) -> bool:
    """At least one load in the loop whose address does not derive from the
    work-item id (so all lanes read the same locations)."""
    divergent = _id_dependent_values(function)
    for block in loop.ordered():
        for instr in block.instructions:
            if instr.op == "load" and id(instr.operands[0]) not in divergent:
                return True
    return False


def _id_dependent_values(function) -> set[int]:
    dependent: set[int] = set()
    changed = True
    while changed:
        changed = False
        for instr in function.instructions():
            if id(instr) in dependent:
                continue
            if instr.op == "call" and instr.callee is GPU_GLOBAL_ID:
                dependent.add(id(instr))
                changed = True
                continue
            # Kernel convention: the work-item index argument is named "i".
            if any(
                id(op) in dependent
                or (getattr(op, "name", None) == "i" and op.__class__.__name__ == "Argument")
                for op in instr.operands
            ):
                dependent.add(id(instr))
                changed = True
            if instr.op == "load" and any(
                id(op) in dependent for op in instr.operands
            ):
                dependent.add(id(instr))
                changed = True
    return dependent


def _apply_stagger(function: Function, loop, candidate: _Candidate) -> None:
    """Emit the Figure 5 rewrite in strength-reduced form.

    The naive ``j_tmp = (j + start) % N`` costs an integer division on
    every iteration (slow on GPU EUs), so we keep ``j_tmp`` as a second
    induction variable with wrap-around: it starts at ``start % N`` (one
    division in the preheader) and steps ``j_tmp+1 == N ? 0 : j_tmp+1``.
    """
    from ..ir import Constant, add_phi_incoming

    header = loop.header
    latch = loop.latches[0]
    iv = candidate.iv
    step = candidate.step
    bound = candidate.bound
    preheader = candidate.preheader
    itype: IntType = iv.type  # loop counters are integers

    # Preheader: start = (global_id() / num_cores()) % N
    pre_term = preheader.terminator
    insert_at = preheader.instructions.index(pre_term)

    loop_loc = iv.loc  # stagger arithmetic is charged to the loop counter

    def pre_insert(instr):
        nonlocal insert_at
        instr.loc = loop_loc
        preheader.insert(insert_at, instr)
        insert_at += 1
        return instr
    gid = Instruction("call", GPU_GLOBAL_ID.return_type, [], name="l3.gid")
    gid.callee = GPU_GLOBAL_ID
    pre_insert(gid)
    cores = Instruction("call", GPU_NUM_CORES.return_type, [], name="l3.W")
    cores.callee = GPU_NUM_CORES
    pre_insert(cores)
    gid_ext = gid
    cores_ext = cores
    if itype.bits != 32:
        gid_ext = pre_insert(Instruction("sext", itype, [gid], name="l3.gid.ext"))
        cores_ext = pre_insert(Instruction("sext", itype, [cores], name="l3.W.ext"))
    start = pre_insert(
        Instruction("udiv", itype, [gid_ext, cores_ext], name="l3.start")
    )
    jt0 = pre_insert(Instruction("urem", itype, [start, bound], name="l3.jt0"))

    # Header: j_tmp as a wrap-around induction variable.
    jtmp = Instruction("phi", itype, [], name="l3.j_tmp")
    jtmp.loc = loop_loc
    header.insert(0, jtmp)
    jtmp.annotations["l3opt"] = True
    add_phi_incoming(jtmp, jt0, preheader)

    # Latch: j_tmp' = (j_tmp + 1 == N) ? 0 : j_tmp + 1
    latch_term = latch.terminator
    latch_at = latch.instructions.index(latch_term)
    inc = Instruction("add", itype, [jtmp, Constant(itype, 1)], name="l3.jt.inc")
    inc.loc = loop_loc
    latch.insert(latch_at, inc)
    wrap = Instruction("icmp", _bool_type(), [inc, bound], name="l3.jt.wrap")
    wrap.pred = "eq"
    wrap.loc = loop_loc
    latch.insert(latch_at + 1, wrap)
    nxt = Instruction(
        "select", itype, [wrap, Constant(itype, 0), inc], name="l3.jt.next"
    )
    nxt.loc = loop_loc
    latch.insert(latch_at + 2, nxt)
    add_phi_incoming(jtmp, nxt, latch)

    # Replace body uses of j with j_tmp, except the increment, the exit
    # compare and the stagger arithmetic itself.
    protected = {id(step), id(inc), id(wrap), id(nxt)}
    for block in loop.ordered():
        for instr in block.instructions:
            if id(instr) in protected or instr.op == "phi":
                continue
            if instr.op == "icmp" and _feeds_exit(instr, loop):
                continue
            instr.replace_uses_of(iv, jtmp)
    function.attributes["l3opt_applied"] = (
        function.attributes.get("l3opt_applied", 0) + 1
    )


def _bool_type():
    from ..ir.types import BOOL

    return BOOL


def _feeds_exit(icmp: Instruction, loop) -> bool:
    for block in loop.ordered():
        term = block.terminator
        if (
            term is not None
            and term.op == "condbr"
            and term.operands[0] is icmp
            and any(t not in loop.blocks for t in term.targets)
        ):
            return True
    return False
