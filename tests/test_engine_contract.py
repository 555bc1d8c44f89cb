"""The lane engine is decided in one place, a trace has one layout, and
a construct has one body.

A backend is a device and an engine is a lane runner:

* ``RunConfig.engine`` is read, and an engine name compared, only in
  ``repro/runtime/runtime.py`` (``ConcordRuntime.lane_engine``, which the
  engine factory and the scheduler's history rows both ask);
* ``repro.backend`` has no engine-specific backend and no backend base
  class;
* every engine runs a call and a launch, a CPU chunk being a launch;
* every trace's memory events are one ``MemEventColumns`` buffer, whose
  readers never branch on a layout, and ``MemEvent`` is only the row
  object that iterating the buffer yields;
* a construct is recorded and reported only by ``run_construct`` and
  the CPU's TBB-style reduction, and a placement policy is a function;
* the per-item event-cap floor is written once, the vector machine has
  one shared-memory access path, and ``LaunchTrace.from_unit_counts`` is
  the one constructor from unit counts to a launch trace;
* both generated-code engines print the region tree: no unit worklist is
  left under ``repro.exec``.
"""

import ast
import importlib.util
import pathlib
import re

import repro
import repro.backend
import repro.sched
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
#: ``ConcordRuntime.lane_engine`` and the engine factory that asks it
DECIDERS = {"runtime/runtime.py"}


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
    assert repro.backend.__all__ == ["LaunchResult", "CpuBackend", "GpuBackend"]


def test_every_engine_runs_a_call_a_chunk_and_a_launch():
    """A CPU chunk is a launch: no engine keeps a lifecycle of its own
    for one."""
    for engine in (Interpreter, RegionInterpreter, CompiledEngine, VectorEngine):
        for method in ("call_function", "run_launch"):
            assert callable(getattr(engine, method, None)), (engine.__name__, method)
        assert not hasattr(engine, "run_chunk"), engine.__name__


def _text_prefix(node) -> str:
    """The literal start of a string or f-string argument."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


class _CallSites(ast.NodeVisitor):
    """The qualified name of every function that calls one of ``names``,
    as ``name(...)`` or ``obj.name(...)``, with a first argument starting
    with ``prefix`` when one is given."""

    def __init__(self, names, prefix=None):
        self.names = set(names)
        self.prefix = prefix
        self.scope: list = []
        self.sites: list = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called in self.names and (
            self.prefix is None
            or (node.args and _text_prefix(node.args[0]).startswith(self.prefix))
        ):
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def _call_sites(*names, prefix=None) -> set:
    sites = set()
    for name, tree in _modules():
        calls = _CallSites(names, prefix)
        calls.visit(tree)
        sites.update((name, site) for site in calls.sites)
    return sites


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
    assert _call_sites("MemEvent") == {("exec/buffers.py", "MemEventColumns.__iter__")}


def _class(relative: str, name: str) -> ast.ClassDef:
    tree = ast.parse((ROOT / relative).read_text())
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name]
    return cls


def _attributes(node) -> set:
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_the_vector_machine_says_each_thing_once():
    # one budget rule: the per-item event cap floor
    sources = [path.read_text() for path in ROOT.rglob("*.py")]
    assert sum(text.count("max(1000,") for text in sources) == 1
    # one memory path: load and store split lanes once, then call one
    # shared and one private routine; only the split tests the bounds
    machine = {
        node.name: node
        for node in _class("exec/vector.py", "VectorMachine").body
        if isinstance(node, ast.FunctionDef)
    }
    assert not {"load_shared", "store_shared", "load_private", "store_private"} & set(machine)
    bounded = {name for name, node in machine.items() if "limit" in _attributes(node)}
    assert bounded == {"__init__", "_split"}
    for name in ("load", "store"):
        assert not _attributes(machine[name]) & {"u8", "priv", "records", "limit", "base_u"}
    # one constructor from unit counts to a launch trace
    vfn = _class("exec/vector.py", "VectorFunction")
    assert not [attr for attr in _attributes(vfn) if attr.startswith("d_") and attr.endswith("_vec")]
    assert _call_sites("from_unit_counts") == {
        ("exec/compiled.py", "CompiledEngine.run_launch"),
        ("exec/vector.py", "VectorMachine.materialize"),
    }


def test_a_construct_has_one_body():
    bodies = {("backend/base.py", "run_construct"), ("backend/cpu.py", "CpuBackend.run_reduce")}
    assert _call_sites("_span", prefix="construct:") == bodies
    assert _call_sites("_record_construct", "ExecutionReport") == bodies | {
        ("runtime/runtime.py", "ExecutionReport.__add__"),
    }
    policies = ast.parse((ROOT / "sched" / "policies.py").read_text())
    assert not [node for node in ast.walk(policies) if isinstance(node, ast.ClassDef)]
    assert set(repro.sched.POLICIES) == {"cpu", "gpu", "auto", "hybrid"}
    for package in (repro.backend, repro.sched):
        for name in ("Backend", "register_policy", "Policy"):
            assert name not in package.__all__ and not hasattr(package, name)
    for backend in (repro.backend.CpuBackend, repro.backend.GpuBackend):
        assert backend.__bases__ == (object,)
        assert not hasattr(backend, "capabilities")


def test_no_unit_worklist_under_exec():
    """The vector engine runs the region tree, as the compiled engine
    does: no pending-unit worklist (``min(pending)``), per-predecessor phi
    plans or unit terminator kinds come back."""
    worklist = re.compile(r"\bpending\b|\bphi_plans\b|\b_T_(BR|CONDBR|RET)\b")
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "exec").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if worklist.search(line)
    ]
    assert offenders == []
