"""The compile service: artifact store, daemon, and load generator.

``docs/SERVICE.md`` promises three things this file holds the code to:
the store never trusts a damaged artifact (corruption and truncation
fall back to a recompile, counted under ``service.cache_corrupt``),
concurrent writers — including two separate processes — race benignly
on one store, and a warm daemon request for an identical
(source, options) pair skips the frontend, the pipeline and the closure
emission entirely (asserted via the ``service.closure_*`` counters).
"""

import http.client
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import pytest

from repro.obs import Observer
from repro.obs.telemetry import AggregatorSink
from repro.runtime.compiler import (
    compile_cached,
    frontend_key,
    pipeline_key,
    program_key,
)
from repro.service import (
    ArtifactStore,
    ServiceClient,
    generate_sources,
    run_load,
    serve,
    validate_report,
)
from repro.workloads import all_workloads

SOURCE = """
class Counter {
public:
    int* data;
    void operator()(int i) { data[i] = data[i] + 7; }
};
"""


#: 60 sequential ``if``s: a block chain too deep to pickle at the default
#: recursion limit (``pickle.dumps`` fails on it from about 50).
DEEP_SOURCE = (
    "class Deep {\npublic:\n  int* data;\n  void operator()(int i) {\n"
    "    int acc = 0;\n"
    + "".join(f"    if (data[i] > {k}) {{ acc = acc + {k}; }}\n" for k in range(60))
    + "    data[i] = acc;\n  }\n};\n"
)


class _Gate:
    """Pickles as ``0`` after calling ``hook`` from inside the pickler."""

    def __init__(self, hook):
        self.hook = hook

    def __reduce__(self):
        self.hook()
        return int, ()


def _compile_into(store, source=SOURCE, observer=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compile_cached(source, store=store, observer=observer)


def _artifact_paths(store):
    found = []
    for dirpath, _dirs, names in os.walk(store.root):
        found.extend(
            os.path.join(dirpath, n) for n in names if n.endswith(".art")
        )
    return sorted(found)


class TestArtifactStore:
    def test_roundtrip_counts_hits_and_misses(self):
        observer = Observer()
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root, counters=observer.counters)
            assert store.get("frontend", "ab" * 32) is None
            store.put("frontend", "ab" * 32, {"payload": 1})
            assert store.get("frontend", "ab" * 32) == {"payload": 1}
        counters = observer.counters.as_dict()
        assert counters["service.store_misses"] == 1
        assert counters["service.store_hits"] == 1
        assert counters["service.store_puts"] == 1
        assert store.stats()["hits"] == 1

    def test_rejects_non_hex_keys(self):
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            with pytest.raises(ValueError):
                store.get("frontend", "../../etc/passwd")
            with pytest.raises(ValueError):
                store.put("frontend", "", {})

    @pytest.mark.parametrize(
        "damage",
        ["truncate_header", "truncate_payload", "flip_byte", "garbage"],
    )
    def test_corrupt_artifact_counts_and_recompiles(self, damage):
        """Every flavor of damage must read as a miss, bump
        ``service.cache_corrupt``, delete the file, and leave
        ``compile_cached`` to recompile and repopulate."""
        observer = Observer()
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root, counters=observer.counters)
            _program, stages = _compile_into(store)
            assert stages == {"closure": "miss"}
            [path] = _artifact_paths(store)  # the program, nothing else
            assert os.sep + "closure" + os.sep in path
            blob = open(path, "rb").read()
            if damage == "truncate_header":
                blob = blob[:10]
            elif damage == "truncate_payload":
                blob = blob[: len(blob) // 2]
            elif damage == "flip_byte":
                middle = len(blob) // 2
                blob = blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1:]
            else:
                blob = b"not an artifact at all"
            with open(path, "wb") as handle:
                handle.write(blob)

            program, stages = _compile_into(store, observer=observer)
            # A damaged program is no program: recompile and re-put.
            assert stages == {"closure": "miss"}
            assert open(path, "rb").read() != blob
            assert observer.counters.get("service.cache_corrupt") == 1
            assert observer.counters.get("service.closure_misses") == 1
            assert program.kernels  # the recompile is a real program
            # ... and the store healed: warm on the next request.
            _again, stages = _compile_into(store)
            assert stages == {"closure": "hit"}

    def test_incompatible_pickle_is_corrupt_not_fatal(self):
        """A digest-valid artifact that does not unpickle (written by an
        incompatible code version) is discarded, not raised."""
        import hashlib
        import pickle

        from repro.service.store import STORE_MAGIC

        observer = Observer()
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root, counters=observer.counters)
            payload = pickle.dumps(object())[:-1]  # valid-ish, truncated opcode
            blob = STORE_MAGIC + hashlib.sha256(payload).digest() + payload
            path = store._path("frontend", "cd" * 32)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(blob)
            assert store.get("frontend", "cd" * 32) is None
            assert observer.counters.get("service.cache_corrupt") == 1
            assert not os.path.exists(path)

    def test_eviction_under_tiny_byte_budget(self):
        """A byte budget far below one artifact's size forces the store
        to evict oldest-first after every put — it may hold at most the
        newest artifact and must count every eviction."""
        observer = Observer()
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(
                root, byte_budget=1024, counters=observer.counters
            )
            # two programs = two puts, each larger than the budget
            _compile_into(store)
            _compile_into(store, source=SOURCE.replace("7", "9"))
            assert store.evictions == 2
            assert observer.counters.get("service.store_evictions") == 2
            assert _artifact_paths(store) == []
            # The next request recompiles (evicted != corrupt) ...
            _program, stages = _compile_into(store)
            assert stages == {"closure": "miss"}
            assert observer.counters.get("service.cache_corrupt", 0) == 0

    def test_concurrent_puts_keep_the_recursion_limit_raised(self):
        """``put`` raises the process-wide recursion limit around its
        pickle and restores it after.  Thread A is held inside its pickle
        until B is inside its own (or, the pickles being serialized,
        until it is plain B cannot get there); B then pickles a program
        too deep for the default limit, after A has restored it."""
        from repro.runtime import compile_source

        deep = compile_source(DEEP_SOURCE)
        limit = sys.getrecursionlimit()
        a_inside, b_inside, a_done = (threading.Event() for _ in range(3))
        failures = []

        def hold_a():
            a_inside.set()
            b_inside.wait(timeout=0.2)

        def hold_b():
            b_inside.set()
            assert a_done.wait(timeout=30)

        def put_a(store):
            store.put("closure", "aa" * 32, _Gate(hold_a))
            a_done.set()

        def put_b(store):
            assert a_inside.wait(timeout=30)
            try:
                store.put("closure", "bb" * 32, (_Gate(hold_b), deep))
            except RecursionError as exc:
                failures.append(exc)

        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            threads = [
                threading.Thread(target=target, args=(store,))
                for target in (put_a, put_b)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert failures == []
            _gate, stored = store.get("closure", "bb" * 32)
            assert stored.program_id == deep.program_id
        assert sys.getrecursionlimit() == limit

    def test_eviction_is_lru_by_access(self):
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            store.put("frontend", "aa" * 32, b"x" * 100)
            store.put("frontend", "bb" * 32, b"y" * 100)
            # Touch the older artifact so the newer one becomes LRU.
            older, newer = store._path("frontend", "aa" * 32), store._path(
                "frontend", "bb" * 32
            )
            os.utime(older, (1, 1))
            os.utime(newer, (2, 2))
            assert store.get("frontend", "aa" * 32) is not None  # re-stamps mtime
            store.byte_budget = os.path.getsize(older) + 10
            store._evict_to_budget()
            assert os.path.exists(older)
            assert not os.path.exists(newer)

    def test_concurrent_writers_two_processes(self):
        """Two separate processes compiling the same source into one
        store must both succeed, leave exactly one healthy artifact, and
        serve a warm third compile."""
        with tempfile.TemporaryDirectory() as root:
            script = (
                "import sys, warnings\n"
                "from repro.runtime.compiler import compile_cached\n"
                "from repro.service import ArtifactStore\n"
                "source = open(sys.argv[2]).read()\n"
                "with warnings.catch_warnings():\n"
                "    warnings.simplefilter('ignore')\n"
                "    program, stages = compile_cached(\n"
                "        source, store=ArtifactStore(sys.argv[1]))\n"
                "print(program.program_id)\n"
            )
            src_path = os.path.join(root, "input.cpp")
            with open(src_path, "w") as handle:
                handle.write(SOURCE)
            env = dict(os.environ)
            env["PYTHONPATH"] = (
                os.path.join(os.path.dirname(__file__), "..", "src")
                + os.pathsep
                + env.get("PYTHONPATH", "")
            )
            store_dir = os.path.join(root, "store")
            procs = [
                subprocess.Popen(
                    [sys.executable, "-c", script, store_dir, src_path],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    env=env,
                    text=True,
                )
                for _ in range(2)
            ]
            ids = []
            for proc in procs:
                out, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err
                ids.append(out.strip())
            # Content addressing: both processes computed the same id.
            assert len(set(ids)) == 1
            store = ArtifactStore(store_dir)
            # No torn/tmp files left behind by the racing writers.
            stray = [
                name
                for _dir, _sub, names in os.walk(store_dir)
                for name in names
                if not name.endswith(".art")
            ]
            assert stray == []
            assert len(_artifact_paths(store)) == 1
            program, stages = _compile_into(store)
            assert stages == {"closure": "hit"}
            assert program.program_id == ids[0]


class TestAggregatorPercentiles:
    def _close(self, sink, name, seconds):
        sink.emit({
            "kind": "span_close", "name": name, "wall_seconds": seconds
        })

    def test_percentiles_over_samples(self):
        sink = AggregatorSink(span_samples=100)
        for ms in range(1, 101):
            self._close(sink, "service_request", ms / 1000.0)
        got = sink.percentiles("service_request", (50, 99))
        assert got["p50"] == pytest.approx(0.051)
        assert got["p99"] == pytest.approx(0.1)

    def test_reservoir_is_bounded(self):
        sink = AggregatorSink(span_samples=8)
        for _ in range(100):
            self._close(sink, "service_request", 1.0)
        self._close(sink, "service_request", 9.0)
        assert len(sink._samples["service_request"]) == 8
        assert sink.percentiles("service_request")["p99"] == 9.0

    def test_off_by_default(self):
        sink = AggregatorSink()
        self._close(sink, "service_request", 1.0)
        assert sink.percentiles("service_request") == {}
        # The rollup still aggregates as before.
        assert sink.spans["service_request"] == [1, 1.0]


@pytest.fixture(scope="module")
def daemon():
    """One live daemon (ephemeral port, temp store) shared by the HTTP
    tests; requests hit it over real sockets."""
    with tempfile.TemporaryDirectory() as root:
        server, service = serve(root, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield ServiceClient(host, port), service
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestDaemon:
    def test_health(self, daemon):
        client, _service = daemon
        assert client.health() == {"ok": True}

    def test_warm_compile_skips_every_stage(self, daemon):
        client, service = daemon
        source = SOURCE.replace("7", "11")
        cold = client.compile(source=source, config="GPU+ALL")
        assert cold["ok"], cold
        assert cold["stages"] == {"closure": "miss"}
        puts = service.observer.counters.get("service.store_puts")
        warm = client.compile(source=source, config="GPU+ALL")
        assert warm["stages"] == {"closure": "hit"}
        assert warm["program_id"] == cold["program_id"]
        counters = service.observer.counters.as_dict()
        assert counters["service.closure_hits"] >= 1
        assert counters["service.store_puts"] == puts  # nothing recompiled
        # Different config = a different program: nothing is shared
        # between the two, so it is one more compile and one more put.
        other = client.compile(source=source, config="GPU")
        assert other["stages"] == {"closure": "miss"}
        assert other["program_id"] != cold["program_id"]
        assert service.observer.counters.get("service.store_puts") == puts + 1

    def test_compile_emits_opencl_on_request(self, daemon):
        client, _service = daemon
        reply = client.compile(source=SOURCE, emit="opencl")
        assert reply["ok"]
        [text] = list(reply["opencl"].values())
        assert "__kernel" in text

    def test_run_workload(self, daemon):
        client, _service = daemon
        reply = client.run(workload="BFS", scale=0.05)
        assert reply["ok"], reply
        assert reply["constructs"] > 0
        assert reply["seconds"] > 0
        assert len(reply["program_id"]) == 64

    SCALAR_SOURCE = """
class Accum {
public:
    int total;
    int step;
    void operator()(int i) { total = total + i * step; }
};
"""

    def test_run_single_kernel(self, daemon):
        client, _service = daemon
        reply = client.run(
            source=self.SCALAR_SOURCE, body="Accum", n=8,
            fields={"step": 2},
        )
        assert reply["ok"], reply
        assert reply["n"] == 8
        assert reply["device"] == "gpu"

    def test_bad_requests_do_not_kill_the_daemon(self, daemon):
        client, _service = daemon
        assert not client.compile(config="GPU+ALL")["ok"]  # no source
        assert not client.compile(source=SOURCE, config="NOPE")["ok"]
        assert not client.run(workload="NoSuchWorkload")["ok"]
        assert not client._request("POST", "/v1/compile", [1, 2, 3]).get(
            "ok", False
        )  # non-object body
        assert not client._request("GET", "/v1/nope").get("ok")
        assert client.health() == {"ok": True}
        stats = client.stats()
        # The malformed body and the 404 are rejected at the HTTP layer
        # before any handler runs; the other three count as errors.
        assert stats["counters"]["service.errors"] >= 3

    @pytest.mark.parametrize("reply", ["small", "large"])
    def test_keep_alive_requests_do_not_wait_out_nagle(self, daemon, reply):
        """One persistent connection: a reply written as two small sends
        (headers, then body) costs every request after the first Nagle +
        delayed ACK, ~40 ms; so does the tail of one larger than the
        write buffer (Raytracer's OpenCL text is ~30 kB)."""
        client, _service = daemon
        if reply == "small":
            method, path, body = "GET", "/v1/health", None
        else:
            source = all_workloads()["Raytracer"].source
            method, path = "POST", "/v1/compile"
            body = json.dumps({"source": source, "emit": "opencl"})
        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        walls = []
        try:
            for _ in range(30):
                started = time.perf_counter()
                conn.request(method, path, body=body)
                assert json.loads(conn.getresponse().read())["ok"]
                walls.append(time.perf_counter() - started)
        finally:
            conn.close()
        assert sorted(walls)[len(walls) // 2] < 0.010

    @pytest.mark.parametrize(
        "length, status", [("-1", 400), ("ten", 400), (str(9 << 20), 413)]
    )
    def test_content_length_is_checked_before_any_read(self, daemon, length, status):
        """No body is ever sent: a handler that went on to read one would
        block until this client timed out."""
        client, _service = daemon
        conn = http.client.HTTPConnection(client.host, client.port, timeout=5)
        try:
            conn.putrequest("POST", "/v1/compile")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == status
            assert response.getheader("Connection") == "close"
            assert not json.loads(response.read())["ok"]
        finally:
            conn.close()
        assert client.health() == {"ok": True}

    @pytest.mark.parametrize(
        "payload",
        [
            {"source": SCALAR_SOURCE, "body": "Accum", "n": 10**9},
            {"source": SCALAR_SOURCE, "body": "Accum", "n": 0},
            {"workload": "BFS", "scale": 1e6},
            {"workload": "BFS", "scale": 0},
        ],
    )
    def test_unbounded_run_is_refused_before_the_run_lock(self, daemon, payload):
        """Run requests execute one at a time: one asking for 10**9
        work-items or scale 1e6 would hold every later one.  It is refused
        while another run holds the lock, so before any compile, allocation
        or wait."""
        client, service = daemon
        errors = service.observer.counters.get("service.errors")
        programs = service.store.stats()["artifacts"]
        with service._exec_lock:
            with pytest.raises(ValueError, match="must be in"):
                service.run(dict(payload))
            conn = http.client.HTTPConnection(client.host, client.port, timeout=5)
            try:
                conn.request("POST", "/v1/run", body=json.dumps(payload))
                response = conn.getresponse()
                assert response.status == 400
                assert "must be in" in json.loads(response.read())["error"]
            finally:
                conn.close()
        assert service.observer.counters.get("service.errors") == errors + 2
        assert service.store.stats()["artifacts"] == programs
        # the limits themselves are served
        assert client.run(source=self.SCALAR_SOURCE, body="Accum", n=1)["ok"]

    def test_stats_report_latency_and_store(self, daemon):
        client, _service = daemon
        client.compile(source=SOURCE)
        stats = client.stats()
        assert stats["ok"]
        assert stats["store"]["artifacts"] > 0
        assert "service_request.compile" in stats["latency"]
        p = stats["latency"]["service_request.compile"]
        assert 0 < p["p50"] <= p["p99"]
        assert stats["counters"]["service.requests"] >= 2

    def test_memory_cache_counts_as_all_stage_hits(self, daemon):
        client, service = daemon
        source = SOURCE.replace("7", "13")
        client.compile(source=source)
        before = service.observer.counters.get("service.memory_hits", 0)
        hits = service.observer.counters.get("service.closure_hits", 0)
        reads = service.store.hits + service.store.misses
        again = client.compile(source=source)
        assert again["stages"] == {"closure": "hit"}
        assert service.observer.counters.get("service.memory_hits") == before + 1
        # ... counted as the closure hit it stands in for, without a read
        assert service.observer.counters.get("service.closure_hits") == hits + 1
        assert service.store.hits + service.store.misses == reads

    def test_concurrent_clients_agree(self, daemon):
        client, _service = daemon
        source = SOURCE.replace("7", "17")
        results = []
        lock = threading.Lock()

        def worker():
            reply = client.compile(source=source)
            with lock:
                results.append(reply)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r["ok"] for r in results)
        assert len({r["program_id"] for r in results}) == 1


class TestLoadGenerator:
    def test_sources_are_distinct(self):
        pool = generate_sources(5)
        assert len(set(pool)) == 5
        keys = {frontend_key(s) for s in pool}
        assert len(keys) == 5

    def test_run_load_against_live_daemon(self):
        with tempfile.TemporaryDirectory() as root:
            server, _service = serve(root, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            try:
                report = run_load(
                    lambda: ServiceClient(host, port), clients=2, sources=2
                )
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)
        assert validate_report(report) == []
        assert report["cold"]["requests"] == 4
        assert report["warm"]["requests"] == 4
        assert report["warm_hits"] > 0
        assert report["p50_speedup"] > 1.0
        assert json.dumps(report)  # the stats artifact must serialize

    def test_validate_report_flags_problems(self):
        good = {
            "clients": 2, "sources": 2, "warm_hits": 4,
            "cold": {"requests": 4, "errors": []},
            "warm": {"requests": 4, "errors": []},
        }
        assert validate_report(good) == []
        assert validate_report(
            {**good, "warm_hits": 0}
        ) == ["no warm closure-stage hits recorded (service.closure_hits == 0)"]
        assert validate_report(
            {**good, "warm": {"requests": 3, "errors": []}}
        )
        assert validate_report(
            {**good, "cold": {"requests": 4, "errors": ["boom"]}}
        )


class TestCompileLedger:
    def test_watch_trends_compile_series(self, tmp_path):
        """The contract between the harness's result line and the watch:
        a real ``compile_mix`` line, stored verbatim as an entry,
        validates and yields the four gated series plus one trended
        series per layer the workload entered.  It fails the day the
        two disagree on the shape.  (``compile_cold_s`` / ``compile_warm_s``
        are the v1 ledger's ``COMPILE`` section's successors.)"""
        from repro.obs.schema import check
        from repro.obs.watch import (
            LEDGER_ENTRY_SCHEMA,
            build_watch_report,
            validate_watch_report,
        )

        root = os.path.join(os.path.dirname(__file__), "..")
        done = subprocess.run(
            [
                sys.executable,
                os.path.join(root, "benchmarks", "e2e", "run.py"),
                "--workload", "compile_mix", "--traced", "--smoke",
            ],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        line = done.stdout.splitlines()[-1]
        shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
        (tmp_path / "BENCH_0.json").write_text(line + "\n")

        entry = json.loads(line)
        assert check(entry, LEDGER_ENTRY_SCHEMA, "entry") == []
        runs = entry["compile_mix"]
        assert runs["end_to_end"]["metrics"]["compile_cold_s"]["value"] > 0
        assert runs["end_to_end"]["metrics"]["compile_warm_s"]["value"] > 0

        report = build_watch_report(str(tmp_path))
        validate_watch_report(report)
        assert report["errors"] == [] and report["verdict"]["ok"]
        gated = {s["metric"] for s in report["series"] if "bound" in s}
        assert gated == {"setup_s", "iter_wall_s", "iter_cpu_s", "peak_rss_mb"}
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            listed = {m["name"] for m in json.load(handle)["per_layer"]}
        entered = {
            name
            for name, cell in runs["per_layer"]["metrics"].items()
            if cell["value"] > 0
        }
        trended = {s["metric"] for s in report["series"] if "bound" not in s}
        assert trended == entered & listed
        assert {"passes.pipeline_s", "minicpp.frontend_s", "store.get_s"} <= trended
        assert not any(name.startswith(("exec.", "vector.")) for name in trended)
        assert all(s["workload"] == "compile_mix" for s in report["series"])
