"""Automatic reducer: shrink a diverging program to a minimal reproducer.

Both generators keep their programs as JSON spec trees (plain dicts and
lists), so reduction is structural, generator-agnostic, and never produces
a spec the renderer cannot handle (value references are modular, loop
bounds stay positive).  The algorithm is greedy ddmin-style hill climbing
to a fixed point:

1. **prune** — delete statements one at a time (innermost lists first),
   and hoist ``if``/``loop`` bodies over their parent;
2. **shrink** — drive numeric leaves toward zero (loop bounds toward 1)
   and zero out input-array elements;
3. **defeature** — drop whole feature dimensions (floats, virtual calls,
   helper methods, the reduce construct, alloca/call/float IR flags).

A candidate is kept only while ``predicate(rebuild(doc))`` still reports
the divergence; predicates that raise count as "divergence gone", so the
reducer can never wander into specs the frontend rejects.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

#: Keys that hold nested statement lists inside a statement dict.
STMT_LIST_KEYS = ("body", "then", "else")

#: Numeric keys the shrinker must not touch: identity, structural
#: invariants (power-of-two mask; element count tied to array lengths).
PROTECTED_KEYS = frozenset({"seed", "aux_len", "n"})

#: Keys shrunk toward 1 instead of 0 (zero-trip loops still reproduce
#: less often than single-trip ones, and the renderer allows any >= 0).
ONE_FLOOR_KEYS = frozenset({"bound", "trips"})


@dataclass
class ReductionResult:
    doc: dict
    attempts: int  # predicate evaluations
    kept: int  # accepted shrink steps


def _holds(candidate: dict, rebuild, predicate) -> bool:
    try:
        return bool(predicate(rebuild(copy.deepcopy(candidate))))
    except Exception:
        return False


def _stmt_lists(doc: dict):
    """Every statement list in the spec, innermost first."""
    collected = []
    stack = [doc.get("stmts", [])]
    while stack:
        stmts = stack.pop()
        collected.append(stmts)
        for stmt in stmts:
            if not isinstance(stmt, dict):
                continue
            for key in STMT_LIST_KEYS:
                child = stmt.get(key)
                if isinstance(child, list):
                    stack.append(child)
    return reversed(collected)


def _numeric_slots(node, out, inside_stmt=False):
    """Collect (container, key_or_index) slots holding shrinkable numbers."""
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, bool) or key in PROTECTED_KEYS:
                continue
            if isinstance(value, (int, float)):
                out.append((node, key))
            else:
                _numeric_slots(value, out, inside_stmt)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                out.append((node, index))
            else:
                _numeric_slots(value, out, inside_stmt)


class _Reducer:
    def __init__(self, doc, rebuild, predicate, max_attempts):
        self.doc = copy.deepcopy(doc)
        self.rebuild = rebuild
        self.predicate = predicate
        self.max_attempts = max_attempts
        self.attempts = 0
        self.kept = 0

    def _accept(self, candidate: dict) -> bool:
        if self.attempts >= self.max_attempts:
            return False
        self.attempts += 1
        if _holds(candidate, self.rebuild, self.predicate):
            self.doc = candidate
            self.kept += 1
            return True
        return False

    # -- passes -----------------------------------------------------------

    def prune_stmts(self) -> bool:
        """Delete statements; hoist compound-statement bodies."""
        changed = False
        progress = True
        while progress and self.attempts < self.max_attempts:
            progress = False
            # Work over a snapshot of list identities; after an accepted
            # candidate the doc is replaced, so re-walk from scratch.
            for stmts in list(_stmt_lists(self.doc)):
                for index in reversed(range(len(stmts))):
                    stmt = stmts[index]
                    candidates = [None]  # plain deletion
                    if isinstance(stmt, dict):
                        if stmt.get("k") == "loop":
                            candidates.append(list(stmt["body"]))
                        elif stmt.get("k") == "if":
                            candidates.append(
                                list(stmt["then"]) + list(stmt["else"])
                            )
                    for replacement in candidates:
                        candidate = copy.deepcopy(self.doc)
                        # Find the same list in the copy by walking in
                        # parallel: positions of statement lists are
                        # stable under deepcopy.
                        target = self._twin(candidate, stmts)
                        if target is None or index >= len(target):
                            continue
                        if replacement is None:
                            del target[index]
                        else:
                            target[index : index + 1] = copy.deepcopy(
                                replacement
                            )
                        if self._accept(candidate):
                            changed = True
                            progress = True
                            break
                    if progress:
                        break
                if progress:
                    break
        return changed

    def _twin(self, candidate: dict, stmts: list):
        """The list in ``candidate`` at the same structural position as
        ``stmts`` is in ``self.doc``."""
        pairs = list(zip(_stmt_lists(self.doc), _stmt_lists(candidate)))
        for original, copied in pairs:
            if original is stmts:
                return copied
        return None

    def shrink_numbers(self) -> bool:
        changed = False
        slots = []
        _numeric_slots(self.doc, slots)
        for position in range(len(slots)):
            if self.attempts >= self.max_attempts:
                break
            # Re-collect against the current doc: accepted candidates
            # replaced it wholesale.
            slots_now = []
            _numeric_slots(self.doc, slots_now)
            if position >= len(slots_now):
                break
            container, key = slots_now[position]
            value = container[key]
            floor = 1 if key in ONE_FLOOR_KEYS else 0
            if value == floor:
                continue
            candidate = copy.deepcopy(self.doc)
            slots_copy = []
            _numeric_slots(candidate, slots_copy)
            c_container, c_key = slots_copy[position]
            c_container[c_key] = float(floor) if isinstance(value, float) else floor
            if self._accept(candidate):
                changed = True
        return changed

    def drop_features(self) -> bool:
        changed = False
        flips = [
            ("uses_floats", False),
            ("uses_virtual", False),
            ("uses_helper", False),
            ("construct", "for"),
            ("use_alloca", False),
            ("use_call", False),
            ("use_floats", False),
        ]
        for key, value in flips:
            if self.attempts >= self.max_attempts:
                break
            if key not in self.doc or self.doc[key] == value:
                continue
            candidate = copy.deepcopy(self.doc)
            candidate[key] = value
            if self._accept(candidate):
                changed = True
        return changed

    def run(self, max_rounds: int) -> ReductionResult:
        for _ in range(max_rounds):
            round_changed = False
            round_changed |= self.prune_stmts()
            round_changed |= self.drop_features()
            round_changed |= self.shrink_numbers()
            if not round_changed or self.attempts >= self.max_attempts:
                break
        return ReductionResult(self.doc, self.attempts, self.kept)


def reduce_spec(
    doc: dict,
    rebuild,
    predicate,
    max_rounds: int = 6,
    max_attempts: int = 400,
) -> ReductionResult:
    """Shrink ``doc`` while ``predicate(rebuild(doc))`` stays truthy.

    ``rebuild`` maps a spec dict back to a program object (e.g.
    ``SourceProgram.from_dict``); ``predicate`` re-runs the oracle that
    found the divergence.  The original doc is never mutated.
    """
    if not _holds(doc, rebuild, predicate):
        # Not reproducible — return the input untouched (flaky or
        # environment-dependent divergence; the driver records it as-is).
        return ReductionResult(copy.deepcopy(doc), 1, 0)
    return _Reducer(doc, rebuild, predicate, max_attempts).run(max_rounds)
