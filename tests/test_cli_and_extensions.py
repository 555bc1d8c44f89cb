"""Tests for the CLI compiler driver and the device-allocation extension
(the restriction the paper plans to lift as future work)."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import pytest

from repro.__main__ import build_parser
from repro.__main__ import main as cli_main
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, ConcordWarning, RunConfig, compile_source, ultrabook

ALLOC_SRC = """
class Node {
public:
  Node* next;
  int tag;
};
class BuilderBody {
public:
  Node** heads;
  int chain_length;
  void operator()(int i) {
    Node* head = 0;
    for (int k = 0; k < chain_length; k++) {
      Node* fresh = new Node();
      fresh->tag = i * 100 + k;
      fresh->next = head;
      head = fresh;
    }
    heads[i] = head;
  }
};
"""


class TestDeviceAllocExtension:
    def test_flagged_without_extension(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prog = compile_source(ALLOC_SRC, OptConfig.gpu_all())
        assert prog.kernel_for("BuilderBody").cpu_only
        assert any(issubclass(w.category, ConcordWarning) for w in caught)

    def test_runs_on_gpu_with_extension(self):
        config = OptConfig(ptropt=True, l3opt=True, device_alloc=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prog = compile_source(ALLOC_SRC, config)
        assert not prog.kernel_for("BuilderBody").cpu_only
        assert not any(issubclass(w.category, ConcordWarning) for w in caught)

        rt = ConcordRuntime(prog, ultrabook())
        from repro.ir.types import I64, ptr

        n, chain = 6, 4
        heads = rt.new_array(ptr(I64), n)
        body = rt.new("BuilderBody")
        body.heads = heads
        body.chain_length = chain
        report = rt.parallel_for_hetero(n, body)
        assert report.device == "gpu"

        # host walks the device-allocated linked lists through SVM
        for i in range(n):
            node_addr = heads[i]
            tags = []
            while node_addr:
                node = rt.view("Node", node_addr)
                tags.append(node.tag)
                node_addr = node.next
            assert tags == [i * 100 + k for k in reversed(range(chain))]

        # the bump cursor reflects what kernels allocated
        assert rt.device_heap().used_bytes >= n * chain * 16

    def test_device_heap_exhaustion(self):
        from repro.svm import SharedRegion
        from repro.svm.allocator import DeviceBumpAllocator, OutOfSharedMemory

        region = SharedRegion(1 << 12)
        heap = DeviceBumpAllocator(region, region.cpu_base, 256)
        heap.calloc(100)
        with pytest.raises(OutOfSharedMemory):
            heap.calloc(200)
        heap.reset()
        assert heap.used_bytes == 0
        heap.calloc(200)  # fits again after reset


class TestCli:
    @pytest.fixture()
    def source_file(self, tmp_path):
        path = tmp_path / "kernel.cpp"
        path.write_text(
            """
            class Body {
            public:
              int* data;
              void operator()(int i) { data[i] = i * 2; }
            };
            """
        )
        return str(path)

    def test_compile_emit_opencl(self, source_file, capsys):
        assert cli_main(["compile", source_file, "--emit", "opencl"]) == 0
        out = capsys.readouterr().out
        assert "__kernel void" in out

    def test_compile_emit_ir(self, source_file, capsys):
        assert cli_main(["compile", source_file, "--emit", "ir"]) == 0
        out = capsys.readouterr().out
        assert "func @kernel.Body" in out

    def test_compile_emit_stats(self, source_file, capsys):
        assert cli_main(["compile", source_file, "--emit", "stats"]) == 0
        out = capsys.readouterr().out
        assert "irregularity" in out

    def test_compile_list_kernels(self, source_file, capsys):
        assert cli_main(["compile", source_file, "--emit", "kernels"]) == 0
        out = capsys.readouterr().out
        assert "Body: for" in out

    def test_run(self, source_file, capsys, tmp_path):
        # Body with no pointer fields can't run meaningfully, but a body
        # writing through a null pointer would fault; use a self-contained
        # kernel instead.
        path = tmp_path / "pure.cpp"
        path.write_text(
            """
            class Pure {
            public:
              int sink;
              void operator()(int i) {
                int x = i * i;
                sink = x;
              }
            };
            """
        )
        assert cli_main(["run", str(path), "--body", "Pure", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "device=gpu" in out

    @pytest.mark.parametrize(
        "shape, size, status",
        [("sum", 300, 0), ("sum", 2000, 0), ("parentheses", 2000, 1)],
    )
    def test_long_sum_compiles_or_gets_a_diagnostic(self, tmp_path, shape, size, status):
        """A chain of operators costs the frontend no frames, however long
        (PR 24; a 2 000-term sum used to be refused); it still recurses on
        nesting, and an expression nested deeper than it can hold is a
        one-line error, never a traceback.  Through ``python -m repro`` so
        the stack depth is the CLI's."""
        path = tmp_path / "sum.cpp"
        if shape == "sum":
            chain = " + ".join(f"data[i + {k}]" for k in range(size))
        else:
            chain = "(" * size + "data[i]" + ")" * size
        path.write_text(
            "class Sum {\npublic:\n  int* data;\n  int* out;\n"
            f"  void operator()(int i) {{ out[i] = {chain}; }}\n}};\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "compile", str(path), "--emit", "kernels"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == status, done.stderr
        assert "Traceback" not in done.stderr
        if status == 0:
            assert done.stdout == "Sum: for\n"
        else:
            assert done.stderr == f"{path}: error: expression nested too deeply " \
                "for the frontend (a few hundred levels of parentheses or " \
                "unary operators); split it across statements\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "bfs", "--scale", "0.05", "--output"],
            ["annotate", "bfs", "--scale", "0.05", "--output"],
            ["watch", "--output"],
            ["serve", "--selftest", "--clients", "1", "--sources", "1",
             "--stats-output"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_is_an_error_line(self, argv, tmp_path, capsys, monkeypatch):
        """The work is done, the report cannot be written: one
        ``error:`` line and exit 1, as for an unreadable input file —
        at the parent each of these ended in a raw ``FileNotFoundError``."""
        monkeypatch.chdir(tmp_path)  # serve's default store lands here
        target = tmp_path / "no_such_dir" / "report.json"
        assert cli_main(argv + [str(target)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write {target}: No such file or directory" in err

    def test_no_kernels_error(self, tmp_path, capsys):
        path = tmp_path / "nothing.cpp"
        path.write_text("class Plain { public: int x; };")
        assert cli_main(["compile", str(path)]) == 1


class TestRunOptionsDeclaredOnce:
    """Drift guard: every :class:`RunConfig` field is a flag of ``run``,
    ``profile`` and ``annotate`` with the field's choices, a daemon
    run-request field, and — set away from its default — in the profile
    ``meta``."""

    @staticmethod
    def _away_from_default() -> dict:
        return {
            spec.name: next(c for c in spec.metadata["choices"] if c != spec.default)
            for spec in fields(RunConfig)
        }

    def test_every_field_is_a_flag_with_its_choices(self):
        sub = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command in ("run", "profile", "annotate"):
            flags = {action.dest: action for action in sub.choices[command]._actions}
            for spec in fields(RunConfig):
                action = flags[spec.name]
                assert action.option_strings == ["--" + spec.name.replace("_", "-")]
                if isinstance(spec.default, bool):
                    assert action.const is True and action.nargs == 0
                else:
                    assert action.choices == list(spec.metadata["choices"])
                assert action.default is None  # left out: the field's default

    def test_every_field_is_a_daemon_run_field(self, tmp_path):
        from repro.service import CompileService

        service = CompileService(str(tmp_path))
        for spec in fields(RunConfig):
            with pytest.raises(ValueError, match=f"^{spec.name}="):
                service.run({"workload": "BFS", "scale": 0.05, spec.name: "bogus"})
        assert service.store.stats()["artifacts"] == 0

    def test_every_field_reaches_the_profile_meta(self, tmp_path, capsys):
        chosen = self._away_from_default()
        argv = ["profile", "bfs", "--scale", "0.05", "--output", str(tmp_path / "p.json")]
        for name, value in chosen.items():
            flag = "--" + name.replace("_", "-")
            argv += [flag] if value is True else [flag, value]
        assert cli_main(argv) == 0
        meta = json.loads((tmp_path / "p.json").read_text())["meta"]
        assert {name: meta[name] for name in chosen} == chosen
