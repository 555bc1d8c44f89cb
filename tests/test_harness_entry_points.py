"""The names the benchmark harness rebinds exist where it looks them up.

A traced run (``benchmarks/e2e/run.py --traced``) wraps each layer's entry
point by name (``benchmarks/e2e/spans.py``): ``owner.__dict__[attr]`` on a
class, ``getattr`` on a module.  The harness's own tests run outside this
suite, so without these a rename under ``src/`` breaks the traced mode
silently.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from repro.obs import Observer
from repro.runtime import compiler
from repro.runtime.graph import TaskGraph
from repro.service.daemon import CompileService
from repro.workloads import all_workloads
from repro.workloads.base import Workload

SPANS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("harness_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


def _parameters(function) -> list:
    return list(inspect.signature(function).parameters)


@pytest.mark.parametrize(
    "module_name, class_name, attr",
    [row[:3] for row in TARGETS],
    ids=[f"{row[1] or row[0]}.{row[2]}" for row in TARGETS],
)
def test_a_target_resolves_where_instrument_looks(module_name, class_name, attr):
    owner = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(owner, attr))
    else:
        owner = getattr(owner, class_name)
        assert isinstance(owner, type)
        assert attr in owner.__dict__
        assert callable(getattr(owner, attr))


def test_the_names_install_rebinds_beside_the_targets():
    for attr in ("compile", "run"):
        assert _parameters(CompileService.__dict__[attr]) == ["self", "payload"]
    compile_ = Workload.__dict__["compile"]
    assert isinstance(compile_, classmethod)
    parameters = inspect.signature(compile_.__func__).parameters
    assert list(parameters) == ["cls", "config", "observer"]
    assert parameters["observer"].default is None
    assert callable(TaskGraph.__dict__["wait"])
    assert _parameters(compiler.frontend_stage)[0] == "source"
    for cls in all_workloads().values():
        for attr in ("build", "run", "validate"):
            assert callable(cls.__dict__[attr]), (cls.__name__, attr)


def test_the_worker_reads_an_observer_s_counters():
    observer = Observer()
    observer.counters.add("engine.instructions", 3)
    assert observer.counters.as_dict() == {"engine.instructions": 3}
