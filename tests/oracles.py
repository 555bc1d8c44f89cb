"""Replaced implementations, frozen as references.

**The frontend** (PR 24, at the end of this file): the character-walk
lexer (:func:`oracle_tokenize`) and the eleven-level ladder
``_parse_binary`` (:class:`OracleParser`), verbatim, against which the
one-regex lexer and the precedence-climbing parser are compared token
for token and node for node (``tests/test_frontend_oracles.py``).

**The per-access timing models**: what ``repro.gpu.cache``,
``repro.cpu.timing`` and ``repro.gpu.timing`` computed one access at a
time before they became array programs.  They exist only here, as the
references the array models are compared with — hit for hit and with
full ``DeviceReport`` equality, floats included, because the models'
contract is an *accumulation order* (``docs/MODEL.md``, *Order
contract*), not a tolerance.

Each is kept verbatim rather than re-spelled (``sum()`` over floats is a
plain left-to-right sum on the CPython 3.11 the suite runs on); the only
edits are the ``Oracle`` names, both oracles taking their lanes from
each ``LaunchTrace``'s per-lane view, the GPU oracle unwrapping the
``KernelFacts`` the backend passes, ``OracleCacheModel.resident`` (a
read-only view for comparing states), and what no longer exists to be
mirrored: ``CacheModel.publish`` and ``DeviceReport.extra``.

* :class:`OracleCacheModel` — one ``OrderedDict`` recency list per set,
  walked one line at a time.
* :func:`oracle_time_cpu_execution` — a tuple stream, two floor
  divisions, a ``range`` and two cache walks per access.
* :func:`oracle_time_gpu_kernel` — one Python loop per warp over
  per-lane ``ExecTrace`` objects, a dict of ``(uid, seq)`` occurrences, a
  dict of lines per occurrence and a set of EUs per touched ``(uid, seq,
  line)``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.cpu.device import CpuDevice
from repro.exec.buffers import LaunchTrace
from repro.gpu.timing import (
    GATHER_CRACK_SLOTS,
    DeviceReport,
    KernelFacts,
    _guarded_blocks,
    block_sizes,
)


def iter_mem_events(trace):
    """Stream a trace's memory events as ``(instr_uid, seq, address, size)``
    tuples.

    The timing models only need these four fields; streaming tuples avoids
    building a ``MemEvent`` per row.
    """
    data = trace.mem_events.data
    return zip(data[0::5], data[1::5], data[2::5], data[3::5])


@dataclass
class OracleCacheStats:
    hits: int = 0
    misses: int = 0


class OracleCacheModel:
    """LRU set-associative cache over line ids (``address // line_size``)."""

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int):
        if size_bytes % (line_bytes * assoc) != 0:
            raise ValueError("cache size must be a multiple of line*assoc")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (line_bytes * assoc)
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = OracleCacheStats()

    def access(self, line: int) -> bool:
        """Touch a line; returns True on hit."""
        bucket = self._sets[line % self.num_sets]
        if line in bucket:
            bucket.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        bucket[line] = True
        if len(bucket) > self.assoc:
            bucket.popitem(last=False)
        return False

    @property
    def resident(self) -> list:
        """(Not part of the frozen model.)  The resident lines as
        ``CacheModel.resident`` lists them: sets ascending, each set from
        least to most recently used."""
        return [line for bucket in self._sets for line in bucket]


def oracle_time_cpu_execution(
    device: CpuDevice,
    traces: list[LaunchTrace],
    llc: OracleCacheModel | None = None,
    counters=None,
) -> DeviceReport:
    traces = [lane for trace in traces for lane in trace.lanes()]
    llc = llc or OracleCacheModel(
        device.llc_size_bytes, device.llc_line_bytes, device.llc_assoc
    )
    l1 = OracleCacheModel(device.l1_size_bytes, device.llc_line_bytes, device.l1_assoc)

    instructions = 0
    l1_hits = 0
    mispredicts = 0.0
    branches = 0
    llc_hits = 0
    llc_misses = 0
    mem_latency = 0.0
    dram_bytes = 0
    translations = 0

    merged_branches: dict[int, list[int]] = {}
    for trace in traces:
        instructions += trace.instructions
        translations += trace.translations
        for uid, (taken, total) in trace.branch_stats.items():
            slot = merged_branches.setdefault(uid, [0, 0])
            slot[0] += taken
            slot[1] += total
        for _uid, _seq, address, size in iter_mem_events(trace):
            first = address // device.llc_line_bytes
            last = (address + size - 1) // device.llc_line_bytes
            for line in range(first, last + 1):
                if l1.access(line):
                    # L1 hits are effectively free: their latency is
                    # covered by the out-of-order window (this is the CPU's
                    # big advantage on small pointer-chasing working sets)
                    l1_hits += 1
                    mem_latency += device.l1_hit_cycles
                elif llc.access(line):
                    llc_hits += 1
                    mem_latency += device.llc_hit_cycles
                else:
                    llc_misses += 1
                    mem_latency += device.dram_latency_cycles
                    dram_bytes += device.llc_line_bytes

    # Canonical order — float accumulation must not depend on which engine's
    # trace-dict insertion order we got.
    for uid in sorted(merged_branches):
        taken, total = merged_branches[uid]
        branches += total
        bias = max(taken, total - taken) / total if total else 1.0
        mispredicts += total * (1.0 - bias)

    pipeline_cycles = instructions / device.ipc
    branch_cycles = mispredicts * device.branch_mispredict_cycles
    exposed_mem = mem_latency * (1.0 - device.latency_hiding)
    bandwidth_cycles = dram_bytes / device.dram_bandwidth_bytes_per_cycle
    serial_cycles = pipeline_cycles + branch_cycles + max(exposed_mem, bandwidth_cycles)

    scaling = device.cores * device.parallel_efficiency
    wall_cycles = serial_cycles / scaling
    seconds = wall_cycles / device.frequency_hz

    energy = (
        instructions * device.energy_per_instruction
        + (llc_hits + llc_misses) * device.energy_per_llc_access
        + llc_misses * device.energy_per_dram_access
        + device.idle_power_watts * seconds
    )

    if counters is not None:
        # repro.obs.CounterRegistry; publish the model's event totals so
        # profiles carry the cache/branch breakdown.
        counters.add("cpu.l1.hits", l1_hits)
        counters.add("cpu.llc.hits", llc_hits)
        counters.add("cpu.llc.misses", llc_misses)
        counters.add("cpu.branches", branches)
        counters.add("cpu.mispredicts", mispredicts)

    return DeviceReport(
        device=device.name,
        seconds=seconds,
        energy_joules=energy,
        cycles=wall_cycles,
        instructions=instructions,
        mem_transactions=l1_hits + llc_hits + llc_misses,
        l3_hits=llc_hits,
        l3_misses=llc_misses,
        translations=translations,
    )


def oracle_time_gpu_kernel(device, kernel, traces, l3=None, counters=None):
    if isinstance(traces, LaunchTrace):
        traces = traces.lanes()
    if isinstance(kernel, KernelFacts):  # what the backend passes
        kernel = kernel.kernel
    sizes = block_sizes(kernel)
    guarded = _guarded_blocks(kernel)
    l3 = l3 or OracleCacheModel(device.l3_size_bytes, device.l3_line_bytes, device.l3_assoc)
    w = device.simd_width

    total_issue = 0.0
    converged_issue = 0.0
    total_instructions = 0
    total_translations = 0

    mem_transactions = 0
    l3_hits = 0
    l3_misses = 0
    mem_latency_cycles = 0.0
    dram_bytes = 0

    # contention bookkeeping: (instr_uid, seq, line) -> set of EU ids
    line_touches: dict[tuple, set] = {}

    num_warps = (len(traces) + w - 1) // w
    for warp_index in range(num_warps):
        lanes = traces[warp_index * w : (warp_index + 1) * w]
        eu = warp_index % device.num_eus

        # -- compute issue (divergence model)
        block_max: dict[int, int] = {}
        block_sum: dict[int, int] = {}
        per_lane_counts: list[dict] = []
        for lane in lanes:
            total_instructions += lane.instructions
            total_translations += lane.translations
            per_lane_counts.append(lane.block_counts)
            for uid, count in lane.block_counts.items():
                if count > block_max.get(uid, 0):
                    block_max[uid] = count
                block_sum[uid] = block_sum.get(uid, 0) + count
        warp_issue = 0.0
        for uid in sorted(block_max):
            max_count = block_max[uid]
            estimate = float(max_count)
            parent = guarded.get(uid)
            if parent is not None and len(lanes) > 1:
                parent_occ = block_max.get(parent, 0)
                if parent_occ > 0:
                    miss_all = 1.0
                    for counts in per_lane_counts:
                        parent_count = counts.get(parent, 0)
                        if parent_count <= 0:
                            continue
                        p_enter = min(1.0, counts.get(uid, 0) / parent_count)
                        miss_all *= 1.0 - p_enter
                    estimate = max(estimate, parent_occ * (1.0 - miss_all))
            warp_issue += estimate * sizes.get(uid, 1)
        warp_converged = sum(
            (block_sum[uid] / len(lanes)) * sizes.get(uid, 1)
            for uid in sorted(block_sum)
        )
        total_issue += warp_issue
        converged_issue += warp_converged

        # -- memory transactions (coalescing per dynamic occurrence)
        occurrence: dict[tuple, list] = {}
        setdefault = occurrence.setdefault
        for lane in lanes:
            for instr_uid, seq, address, size in iter_mem_events(lane):
                setdefault((instr_uid, seq), []).append((address, size))
        line_bytes = device.l3_line_bytes
        l3_access = l3.access
        l3_hit_cycles = device.l3_hit_cycles
        dram_latency = device.dram_latency_cycles
        touches_setdefault = line_touches.setdefault
        warp_tx = 0
        for key, events in occurrence.items():
            lines = {}
            for address, size in events:
                first = address // line_bytes
                last = (address + size - 1) // line_bytes
                if first == last:
                    lines[first] = True
                else:
                    for line in range(first, last + 1):
                        lines[line] = True
            warp_tx += len(lines)
            instr_uid, seq = key
            for line in lines:
                mem_transactions += 1
                if l3_access(line):
                    l3_hits += 1
                    mem_latency_cycles += l3_hit_cycles
                else:
                    l3_misses += 1
                    mem_latency_cycles += dram_latency
                    dram_bytes += line_bytes
                touches_setdefault((instr_uid, seq, line), set()).add(eu)
        crack_slots = GATHER_CRACK_SLOTS * max(0, warp_tx - len(occurrence))
        total_issue += crack_slots

    contention_events = 0
    contention_cycles = 0.0
    ports = device.l3_line_ports
    for eus in line_touches.values():
        extra = max(0, len(eus) - ports)
        if extra:
            contention_events += extra
            contention_cycles += extra * device.contention_penalty_cycles

    eus = device.num_eus
    compute_cycles = total_issue * device.issue_cycles_per_slot / eus
    concurrency = min(
        eus * device.threads_per_eu * device.memory_parallelism,
        device.fabric_outstanding_misses
        if l3_misses > l3_hits
        else eus * device.threads_per_eu * device.memory_parallelism,
    )
    latency_cycles = mem_latency_cycles / concurrency
    bandwidth_cycles = dram_bytes / device.dram_bandwidth_bytes_per_cycle
    wall_cycles = (
        max(compute_cycles, latency_cycles, bandwidth_cycles)
        + contention_cycles / eus
    )
    seconds = wall_cycles / device.frequency_hz

    dynamic_energy = (
        total_issue * device.energy_per_issue_slot
        + (l3_hits + l3_misses) * device.energy_per_l3_access
        + l3_misses * device.energy_per_dram_access
    )
    budget = device.power_budget_watts
    if budget and seconds > 0.0:
        headroom = max(1e-3, budget - device.idle_power_watts)
        min_seconds = dynamic_energy / headroom
        if min_seconds > seconds:
            wall_cycles *= min_seconds / seconds
            seconds = min_seconds
    energy = dynamic_energy + device.idle_power_watts * seconds

    if counters is not None:
        counters.add("gpu.l3.hits", l3_hits)
        counters.add("gpu.l3.misses", l3_misses)
        counters.add("gpu.mem_transactions", mem_transactions)
        counters.add("gpu.contention_events", contention_events)
        counters.add("gpu.issue_slots", total_issue)
        counters.add("gpu.translations", total_translations)

    return DeviceReport(
        device=device.name,
        seconds=seconds,
        energy_joules=energy,
        cycles=wall_cycles,
        instructions=total_instructions,
        issue_slots=total_issue,
        mem_transactions=mem_transactions,
        l3_hits=l3_hits,
        l3_misses=l3_misses,
        contention_events=contention_events,
        contention_cycles=contention_cycles,
        divergence_waste=max(0.0, total_issue - converged_issue),
        translations=total_translations,
    )


def use_oracles(monkeypatch) -> None:
    """Make every pricing call of the runtime go to the oracles: both
    backends' timing functions and the caches a construct shares
    between its chunks."""
    import repro.backend.base as construct_body
    import repro.backend.cpu as cpu_backend
    import repro.backend.gpu as gpu_backend
    import repro.cpu.timing as cpu_timing

    monkeypatch.setattr(gpu_backend, "time_gpu_kernel", oracle_time_gpu_kernel)
    for module in (gpu_backend, cpu_backend, cpu_timing):
        monkeypatch.setattr(module, "time_cpu_execution", oracle_time_cpu_execution)
    monkeypatch.setattr(construct_body, "CacheModel", OracleCacheModel)


# -- the frontend (PR 24) -------------------------------------------------------
#
# ``_tokens`` / ``_number`` / ``_skip_int_suffix`` are the lexer as it was,
# byte for byte — including its four bugs, which the differential steps
# around and ``tests/test_frontend.py`` pins: a hex literal's integer
# suffix is left behind as an identifier, ``0x`` alone raises
# ``ValueError``, a quote at the end of input raises ``IndexError``, and
# an escaped character literal's text loses its opening quote.
# ``OracleParser`` is today's parser with the ladder put back.

from typing import Iterator  # noqa: E402

from repro.minicpp import ast  # noqa: E402
from repro.minicpp.lexer import KEYWORDS, LexError, Token  # noqa: E402
from repro.minicpp.parser import Parser  # noqa: E402

# Multi-character operators, longest first so maximal munch works.
_ORACLE_OPERATORS = [
    "<<=", ">>=", "->*", "...",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
    ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]



def oracle_tokenize(source: str) -> list:
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    pos = 0
    line = 1
    col = 1
    length = len(source)

    def advance(n: int) -> None:
        nonlocal pos, line, col
        for _ in range(n):
            if pos < length and source[pos] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            pos += 1

    while pos < length:
        ch = source[pos]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            advance((end - pos) if end != -1 else (length - pos))
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end == -1:
                raise LexError("unterminated block comment", line, col)
            advance(end + 2 - pos)
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            start_line, start_col = line, col
            while pos < length and (source[pos].isalnum() or source[pos] == "_"):
                advance(1)
            text = source[start:pos]
            kind = "keyword" if text in KEYWORDS else "ident"
            yield Token(kind, text, start_line, start_col)
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < length and source[pos + 1].isdigit()):
            yield _number(source, pos, line, col, advance)
            continue
        if ch == "'":
            start_line, start_col = line, col
            advance(1)
            if pos < length and source[pos] == "\\":
                advance(1)
                escape = source[pos]
                mapping = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39}
                if escape not in mapping:
                    raise LexError(f"unknown escape \\{escape}", line, col)
                value = mapping[escape]
                advance(1)
            else:
                value = ord(source[pos])
                advance(1)
            if pos >= length or source[pos] != "'":
                raise LexError("unterminated character literal", line, col)
            advance(1)
            yield Token("char", source[pos - 3 : pos], start_line, start_col, value)
            continue
        matched = False
        for operator in _ORACLE_OPERATORS:
            if source.startswith(operator, pos):
                yield Token("op", operator, line, col)
                advance(len(operator))
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r}", line, col)
    yield Token("eof", "", line, col)


def _number(source: str, pos: int, line: int, col: int, advance) -> Token:
    start = pos
    length = len(source)
    is_float = False
    if source.startswith(("0x", "0X"), pos):
        end = pos + 2
        while end < length and source[end] in "0123456789abcdefABCDEF":
            end += 1
        text = source[start:end]
        advance(end - pos)
        _skip_int_suffix(source, advance)
        return Token("int", text, line, col, int(text, 16))
    end = pos
    while end < length and source[end].isdigit():
        end += 1
    if end < length and source[end] == "." and not source.startswith("..", end):
        is_float = True
        end += 1
        while end < length and source[end].isdigit():
            end += 1
    if end < length and source[end] in "eE":
        mark = end + 1
        if mark < length and source[mark] in "+-":
            mark += 1
        if mark < length and source[mark].isdigit():
            is_float = True
            end = mark
            while end < length and source[end].isdigit():
                end += 1
    text = source[start:end]
    advance(end - pos)
    if is_float:
        suffix_f = False
        # optional f/F suffix
        # (we peek via the original source — advance already consumed digits)
        nonlocal_pos = end
        if nonlocal_pos < length and source[nonlocal_pos] in "fF":
            suffix_f = True
            advance(1)
        return Token("float", text + ("f" if suffix_f else ""), line, col, float(text))
    value = int(text)
    _skip_int_suffix(source, advance, at=end)
    return Token("int", text, line, col, value)


def _skip_int_suffix(source: str, advance, at: int = -1) -> None:
    # Accept (and ignore) u/U/l/L suffixes such as 10u, 3UL, 7LL.
    # ``advance`` tracks position internally, so we just consume greedily.
    # We cannot read the position back from advance, so callers pass ``at``.
    if at == -1:
        return
    pos = at
    count = 0
    while pos < len(source) and source[pos] in "uUlL" and count < 3:
        pos += 1
        count += 1
    for _ in range(count):
        advance(1)


class OracleParser(Parser):
    """One recursive call per precedence level per operand."""

    _PRECEDENCE = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._PRECEDENCE):
            return self._parse_unary()
        ops = self._PRECEDENCE[level]
        lhs = self._parse_binary(level + 1)
        while self.current.kind == "op" and self.current.text in ops:
            token = self.advance()
            rhs = self._parse_binary(level + 1)
            lhs = ast.Binary(line=token.line, col=token.column, op=token.text, lhs=lhs, rhs=rhs)
        return lhs

