"""The lane engine is decided in one place, and a trace has one layout.

A backend is a device and an engine is a lane runner:

* ``RunConfig.engine`` is read where the runtime builds engines
  (``repro/runtime/runtime.py``) and where the scheduler keys its
  history rows (``repro/sched/scheduler.py``), and nowhere else;
* ``repro.backend`` has no engine-specific backend;
* every engine runs a call, a CPU chunk and a GPU launch;
* every trace's memory events are one ``MemEventColumns`` buffer, whose
  readers never branch on a layout, and ``MemEvent`` is only the row
  object that iterating the buffer yields.
"""

import ast
import importlib.util
import pathlib

import repro
import repro.backend
from repro.exec import (
    CompiledEngine,
    ExecTrace,
    Interpreter,
    MemEventColumns,
    VectorEngine,
)
from repro.exec.regions import RegionInterpreter

ROOT = pathlib.Path(repro.__file__).parent
ENGINE_NAMES = {"reference", "compiled", "vector"}
#: engine construction, history rows
DECIDERS = {"runtime/runtime.py", "sched/scheduler.py"}


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text())


def _names_an_engine(operand) -> bool:
    """Whether a comparison operand is, or lists, an engine name."""
    if isinstance(operand, ast.Constant):
        return operand.value in ENGINE_NAMES
    if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_an_engine(element) for element in operand.elts)
    return False


def _engine_decisions(tree) -> list:
    """Line numbers that read ``.options.engine`` or compare a value with
    an engine name."""
    lines = []
    for node in ast.walk(tree):
        reads = (
            isinstance(node, ast.Attribute)
            and node.attr == "engine"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "options"
        )
        compares = isinstance(node, ast.Compare) and any(
            _names_an_engine(operand) for operand in (node.left, *node.comparators)
        )
        if reads or compares:
            lines.append(node.lineno)
    return lines


def test_the_engine_is_decided_once():
    decided = {}
    offenders = []
    for name, tree in _modules():
        lines = _engine_decisions(tree)
        if name in DECIDERS:
            decided[name] = lines
        else:
            offenders.extend(f"{name}:{line}" for line in lines)
    assert not offenders
    assert all(decided.get(name) for name in DECIDERS)  # the guard sees them


def test_backends_are_devices():
    assert importlib.util.find_spec("repro.backend.vector") is None
    assert not (ROOT / "backend" / "vector.py").exists()
    assert repro.backend.__all__ == ["Backend", "LaunchResult", "CpuBackend", "GpuBackend"]


def test_every_engine_runs_a_call_a_chunk_and_a_launch():
    for engine in (Interpreter, RegionInterpreter, CompiledEngine, VectorEngine):
        for method in ("call_function", "run_chunk", "run_launch"):
            assert callable(getattr(engine, method, None)), (engine.__name__, method)


class _MemEventCalls(ast.NodeVisitor):
    """The qualified name of every function that calls ``MemEvent(...)``."""

    def __init__(self):
        self.scope: list = []
        self.sites: list = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "MemEvent":
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def test_a_trace_has_one_event_layout():
    assert isinstance(ExecTrace().mem_events, MemEventColumns)
    buffers = ast.parse((ROOT / "exec" / "buffers.py").read_text())
    readers = {
        node.name: node
        for node in buffers.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("event_rows", "iter_access_events")
    }
    assert len(readers) == 2
    for name, reader in readers.items():
        assert not [
            node
            for node in ast.walk(reader)
            if isinstance(node, ast.Name) and node.id == "isinstance"
        ], name
    sites = set()
    for name, tree in _modules():
        calls = _MemEventCalls()
        calls.visit(tree)
        sites.update((name, site) for site in calls.sites)
    assert sites == {("exec/buffers.py", "MemEventColumns.__iter__")}
