"""Source-line attribution: charge modeled execution cost to MiniC++ lines.

The frontend stamps every IR instruction with a ``loc`` — a tuple of
``(line, col)`` frames, innermost first, extended by inlining with the
call site's frames (the LLVM ``inlinedAt`` shape).  The runtime records
one ``(kernel, device, block_counts)`` sample per launch
(:meth:`repro.obs.core.Observer.record_kernel_trace`): the executed-block
histogram merged over all work items.  Because every instruction of a
block executes exactly as many times as its block, the whole per-line
cost model is reconstructible *post hoc* from the static kernel IR and
that histogram — the engines do zero extra per-instruction work.

Cost units per executed instruction:

* on the GPU — the issue-slot weights of the timing model
  (:func:`repro.gpu.timing._instruction_slots`), so a line's share of
  slots matches its share of modeled EU cycles;
* on the CPU — one unit per instruction (the CPU pipeline model charges
  ``instructions / ipc`` cycles, so cycle share equals instruction
  share).

Alongside the cycle units each line accrues memory traffic (bytes moved
by its loads/stores), SVM pointer translations (``svm.to_gpu`` calls
charged to the access they guard), and devirtualized-dispatch compare
chains (:mod:`repro.passes.devirt` marks those with the
``devirt_chain`` annotation).
"""

from __future__ import annotations

from typing import Optional

LINES_SCHEMA_VERSION = "repro.obs.lines/v1"


def _blocks_by_uid(module, cache: dict) -> dict:
    """uid -> (block, function) over every function in ``module``.

    Block uids are globally unique (``itertools.count``), so one launch's
    histogram can span several functions of the module — e.g. a reduce
    body plus its join — and still resolve unambiguously.
    """
    key = id(module)
    found = cache.get(key)
    if found is None:
        found = {}
        for function in module.functions.values():
            for block in function.blocks:
                found[block.uid] = (block, function)
        cache[key] = found
    return found


def _new_bucket() -> dict:
    return {
        "units": 0.0,
        "gpu_slots": 0.0,
        "cpu_instrs": 0,
        "instructions": 0,
        "mem_bytes": 0,
        "translations": 0,
        "devirt_hits": 0,
    }


def _charge(bucket: dict, instr, count: int, device: str, slots: float) -> None:
    if device == "gpu":
        bucket["units"] += slots * count
        bucket["gpu_slots"] += slots * count
    else:
        bucket["units"] += count
        bucket["cpu_instrs"] += count
    bucket["instructions"] += count
    if instr.op == "load":
        bucket["mem_bytes"] += instr.type.size() * count
    elif instr.op == "store":
        bucket["mem_bytes"] += instr.operands[0].type.size() * count
    if (
        instr.op == "call"
        and instr.callee is not None
        and instr.callee.name.startswith("svm.to_")
    ):
        bucket["translations"] += count
    if instr.annotations.get("devirt_chain"):
        bucket["devirt_hits"] += count


def build_line_report(observer, meta: Optional[dict] = None) -> dict:
    """Fold an observer's launch samples into a per-line report document.

    Unlocated instructions (hand-built IR, synthesized glue that no pass
    could anchor) land in an explicit ``unattributed`` bucket rather than
    vanishing, and ``totals.attributed_fraction`` reports how much of the
    modeled cost has a source line.
    """
    from ..gpu.timing import _instruction_slots

    per_line: dict[int, dict] = {}
    unattributed = _new_bucket()
    module_cache: dict = {}
    source_text = ""

    for kernel, device, block_counts in observer.line_samples:
        module = kernel.module
        if module is not None and getattr(module, "source_text", ""):
            source_text = module.source_text
        resolve = _blocks_by_uid(module, module_cache) if module is not None else {}
        for uid, count in block_counts.items():
            found = resolve.get(uid)
            if found is None:
                continue
            block, _function = found
            for instr in block.instructions:
                slots = _instruction_slots(instr) if device == "gpu" else 1.0
                loc = instr.loc
                if loc:
                    line, col = loc[0]
                    bucket = per_line.get(line)
                    if bucket is None:
                        bucket = per_line[line] = _new_bucket()
                        bucket["line"] = line
                        bucket["col"] = col
                    else:
                        bucket["col"] = min(bucket["col"], col)
                else:
                    bucket = unattributed
                _charge(bucket, instr, count, device, slots)

    totals = _new_bucket()
    for bucket in list(per_line.values()) + [unattributed]:
        for key in (
            "units",
            "gpu_slots",
            "cpu_instrs",
            "instructions",
            "mem_bytes",
            "translations",
            "devirt_hits",
        ):
            totals[key] += bucket[key]
    attributed_units = totals["units"] - unattributed["units"]
    totals["attributed_units"] = attributed_units
    totals["attributed_fraction"] = (
        attributed_units / totals["units"] if totals["units"] > 0 else 1.0
    )

    source_lines = source_text.splitlines()
    lines = sorted(per_line.values(), key=lambda b: (-b["units"], b["line"]))
    for bucket in lines:
        index = bucket["line"] - 1
        bucket["source"] = (
            source_lines[index].strip() if 0 <= index < len(source_lines) else ""
        )

    return {
        "schema": LINES_SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "totals": totals,
        "lines": lines,
        "unattributed": unattributed,
    }


def annotate_workload(name: str, *args, observer=None, **kwargs) -> dict:
    """Compile, run and line-attribute one workload; returns the report.
    Takes :func:`repro.obs.profile.run_named_workload`'s arguments — the
    same lookup and ``KeyError`` contract as ``profile_workload``."""
    from .core import Observer
    from .profile import run_named_workload

    observer = observer if observer is not None else Observer()
    _outcome, meta = run_named_workload(name, observer, *args, **kwargs)
    return build_line_report(observer, meta=meta)


def render_line_report(doc: dict, top: int = 20) -> str:
    """Human-readable hot-line table for one report document."""
    meta = doc.get("meta", {})
    totals = doc["totals"]
    out = []
    title = meta.get("workload", "report")
    context = ", ".join(
        f"{key}={meta[key]}"
        for key in ("system", "engine", "scale", "device")
        if key in meta
    )
    out.append(f"Hot lines: {title}" + (f" ({context})" if context else ""))
    out.append(
        "attributed {:.1%} of {:,.0f} modeled cost units "
        "across {} source line(s)".format(
            totals["attributed_fraction"], totals["units"], len(doc["lines"])
        )
    )
    out.append("")
    header = (
        f"{'UNITS':>14} {'%':>6} {'GPU-SLOTS':>12} {'CPU-INSTR':>10} "
        f"{'MEM-BYTES':>12} {'XLAT':>8} {'DEVIRT':>7}  LINE  SOURCE"
    )
    out.append(header)
    out.append("-" * len(header))
    total_units = totals["units"] or 1.0
    for bucket in doc["lines"][:top]:
        out.append(
            "{units:>14,.0f} {pct:>6.1%} {gpu:>12,.0f} {cpu:>10,} "
            "{mem:>12,} {xlat:>8,} {devirt:>7,}  {line:>4}  {source}".format(
                units=bucket["units"],
                pct=bucket["units"] / total_units,
                gpu=bucket["gpu_slots"],
                cpu=bucket["cpu_instrs"],
                mem=bucket["mem_bytes"],
                xlat=bucket["translations"],
                devirt=bucket["devirt_hits"],
                line=bucket["line"],
                source=bucket.get("source", ""),
            )
        )
    una = doc["unattributed"]
    if una["units"]:
        out.append(
            "{units:>14,.0f} {pct:>6.1%} {gpu:>12,.0f} {cpu:>10,} "
            "{mem:>12,} {xlat:>8,} {devirt:>7,}     ?  <no source location>".format(
                units=una["units"],
                pct=una["units"] / total_units,
                gpu=una["gpu_slots"],
                cpu=una["cpu_instrs"],
                mem=una["mem_bytes"],
                xlat=una["translations"],
                devirt=una["devirt_hits"],
            )
        )
    return "\n".join(out)

