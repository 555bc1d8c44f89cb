"""The compile service: artifact store, daemon, and load generator.

``docs/SERVICE.md`` promises three things this file holds the code to:
the store never trusts a damaged artifact (corruption and truncation
fall back to a recompile, counted under ``service.cache_corrupt``),
concurrent writers — including two separate processes — race benignly
on one store, and a warm daemon request for an identical
(source, options) pair skips the frontend, the pipeline and the closure
emission entirely (asserted via the ``service.closure_*`` counters).
"""

import copy
import http.client
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import pytest

from repro.passes import OptConfig
from repro.runtime import ConcordRuntime
from repro.runtime.compiler import (
    compile_cached,
    compile_source,
    frontend_key,
    pipeline_key,
    program_key,
)
from repro.runtime.system import desktop, ultrabook
from repro.service import (
    ArtifactStore,
    CompileService,
    ServiceClient,
    generate_sources,
    run_load,
    serve,
    validate_report,
)
from repro.service.daemon import LATENCY_SAMPLES, percentiles
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


def _compile_into(store, source=SOURCE):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compile_cached(source, store=store)


def _post(client, path, payload):
    """One raw request: ``(status, reply)``."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _artifact_paths(store):
    found = []
    for dirpath, _dirs, names in os.walk(store.root):
        found.extend(
            os.path.join(dirpath, n) for n in names if n.endswith(".art")
        )
    return sorted(found)


class TestArtifactStore:
    def test_roundtrip_counts_hits_and_misses(self):
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            assert store.get("frontend", "ab" * 32) is None
            store.put("frontend", "ab" * 32, {"payload": 1})
            assert store.get("frontend", "ab" * 32) == {"payload": 1}
            stats = store.stats()
        assert (store.misses, store.hits, store.puts) == (1, 1, 1)
        assert (stats["misses"], stats["hits"], stats["puts"]) == (1, 1, 1)

    def test_concurrent_misses_are_counted_exactly(self, tmp_path):
        """Four threads each read 5 000 missing artifacts from the
        daemon's store while the interpreter switches threads every few
        bytecodes: not one of the 20 000 misses may be lost, in the
        store's tally or in ``/v1/stats``."""
        service = CompileService(tmp_path)
        store = service.store
        key = "ab" * 32

        def miss():
            for _ in range(5000):
                assert store.get("closure", key) is None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=miss) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.misses == 20000
        assert service.stats()["counters"]["service.store_misses"] == 20000

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
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
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

            program, stages = _compile_into(store)
            # A damaged program is no program: recompile and re-put.
            assert stages == {"closure": "miss"}
            assert open(path, "rb").read() != blob
            assert store.corrupt == 1
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

        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            payload = pickle.dumps(object())[:-1]  # valid-ish, truncated opcode
            blob = STORE_MAGIC + hashlib.sha256(payload).digest() + payload
            path = store._path("frontend", "cd" * 32)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(blob)
            assert store.get("frontend", "cd" * 32) is None
            assert (store.corrupt, store.misses) == (1, 1)
            assert not os.path.exists(path)

    def test_eviction_under_tiny_byte_budget(self):
        """A byte budget far below one artifact's size forces the store
        to evict oldest-first after every put — it may hold at most the
        newest artifact and must count every eviction."""
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root, byte_budget=1024)
            # two programs = two puts, each larger than the budget
            _compile_into(store)
            _compile_into(store, source=SOURCE.replace("7", "9"))
            assert store.evictions == 2
            assert store.stats()["evictions"] == 2
            assert _artifact_paths(store) == []
            # The next request recompiles (evicted != corrupt) ...
            _program, stages = _compile_into(store)
            assert stages == {"closure": "miss"}
            assert store.corrupt == 0

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


class TestLatencyPercentiles:
    """``/v1/stats`` latency: nearest-rank quantiles over a bounded window
    of each ``service_request*`` name's last ``LATENCY_SAMPLES`` wall
    times."""

    def test_percentiles_over_samples(self):
        got = percentiles([ms / 1000.0 for ms in range(1, 101)], (50, 99))
        assert got["p50"] == pytest.approx(0.051)
        assert got["p99"] == pytest.approx(0.1)

    def test_window_is_bounded(self, tmp_path):
        service = CompileService(tmp_path)

        def finish(wall, times):
            for _ in range(times):
                service._finish_request("compile", time.perf_counter() - wall, True)

        finish(9.0, 100)
        finish(0.0, LATENCY_SAMPLES)  # pushes every 9 s sample out
        window = service._latency["service_request.compile"]
        assert len(window) == LATENCY_SAMPLES and max(window) < 9.0
        finish(9.0, 25)  # more than 1 % of the window
        latency = service.stats()["latency"]["service_request.compile"]
        assert latency["p50"] < 9.0 <= latency["p99"]

    def test_an_endpoint_never_asked_has_no_row(self, tmp_path):
        service = CompileService(tmp_path)
        assert service.stats()["latency"] == {}
        assert sorted(service.stats()["latency"]) == [
            "service_request",
            "service_request.stats",
        ]


class TestStatsRecordedOnce:
    """Every fact ``/v1/stats`` reports has one record, changed only under
    its owner's lock."""

    KEYS = {"ok", "uptime_seconds", "counters", "latency", "store", "process"}

    def test_stats_keep_their_shape_after_300_requests(self, tmp_path):
        service = CompileService(tmp_path)
        sources = [SOURCE.replace("7", str(k)) for k in (31, 37, 41)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for index in range(298):
                assert service.compile({"source": sources[index % 3]})["ok"]
        with pytest.raises(KeyError):
            service.compile({})
        service.stats()
        stats = service.stats()
        assert set(stats) == self.KEYS
        counters = stats["counters"]
        assert {name for name in counters if name.startswith("service.")} == {
            "service.closure_hits",
            "service.closure_misses",
            "service.errors",
            "service.memory_hits",
            "service.requests",
            "service.requests.compile",
            "service.requests.stats",
            "service.store_misses",
            "service.store_puts",
        }
        assert counters["service.requests"] == 300
        assert counters["service.requests.compile"] == 299
        assert counters["service.errors"] == 1
        assert counters["service.closure_misses"] == 3
        assert counters["service.closure_hits"] == counters["service.memory_hits"] == 295
        assert counters["service.store_misses"] == stats["store"]["misses"] == 3
        assert counters["service.store_puts"] == stats["store"]["puts"] == 3
        # the daemon counts its own facts, and only those
        assert all(name.startswith("service.") for name in counters)
        assert sorted(stats["latency"]) == [
            "service_request",
            "service_request.compile",
            "service_request.stats",
        ]
        for row in stats["latency"].values():
            assert set(row) == {"p50", "p90", "p99"}
            assert 0 <= row["p50"] <= row["p90"] <= row["p99"]

    def test_a_run_request_counts_its_program_lookup(self, tmp_path):
        """A run request counts the lookup of its program as a compile
        request does: a closure miss, then, on a repeat, a memory hit
        (which stands in for a closure hit)."""
        service = CompileService(tmp_path)
        payload = {"workload": "BFS", "scale": 0.05}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert service.run(dict(payload))["ok"]
            counters = service.stats()["counters"]
            assert counters["service.closure_misses"] == 1
            assert "service.closure_hits" not in counters
            assert "service.memory_hits" not in counters
            assert service.run(dict(payload))["ok"]
        counters = service.stats()["counters"]
        assert counters["service.requests.run"] == 2
        assert counters["service.closure_misses"] == 1
        assert counters["service.closure_hits"] == counters["service.memory_hits"] == 1
        assert all(name.startswith("service.") for name in counters)

    def test_concurrent_requests_are_counted_exactly(self, tmp_path):
        """Four threads of compile requests, each a store hit (the memory
        LRU holds nothing), while the interpreter switches threads every
        few bytecodes: the daemon's counters and the store's tallies
        count every request."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            compile_cached(SOURCE, store=ArtifactStore(tmp_path))
        service = CompileService(tmp_path)
        service.MEMORY_PROGRAMS = 0
        rounds = 150
        errors = []

        def client():
            try:
                for _ in range(rounds):
                    assert service.compile({"source": SOURCE})["stages"] == {"closure": "hit"}
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                threads = [threading.Thread(target=client) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        counters = service.stats()["counters"]
        requests = 4 * rounds
        assert counters["service.requests"] == requests
        assert counters["service.requests.compile"] == requests
        assert counters["service.closure_hits"] == requests
        assert counters["service.store_hits"] == requests


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
        puts = service.store.puts
        warm = client.compile(source=source, config="GPU+ALL")
        assert warm["stages"] == {"closure": "hit"}
        assert warm["program_id"] == cold["program_id"]
        assert service.counters["service.closure_hits"] >= 1
        assert service.store.puts == puts  # nothing recompiled
        # Different config = a different program: nothing is shared
        # between the two, so it is one more compile and one more put.
        other = client.compile(source=source, config="GPU")
        assert other["stages"] == {"closure": "miss"}
        assert other["program_id"] != cold["program_id"]
        assert service.store.puts == puts + 1

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

    def test_chunked_body_is_refused_before_any_read(self, daemon):
        """A chunked compile with a ``GET`` pipelined behind it, over one
        socket.  A handler that read ``Content-Length or 0`` answered the
        compile 400, parsed the leftover chunk bytes as the next request
        and never answered the ``GET``: now the compile answers 411 and
        the connection closes, so no byte of the body is parsed."""
        client, _service = daemon
        body = json.dumps({"source": SOURCE}).encode()
        request = (
            b"POST /v1/compile HTTP/1.1\r\nHost: daemon\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
            + b"GET /v1/health HTTP/1.1\r\nHost: daemon\r\n\r\n"
        )
        with socket.create_connection((client.host, client.port), timeout=5) as sock:
            sock.sendall(request)
            received = b""
            while chunk := sock.recv(65536):  # until the daemon closes
                received += chunk
        head, _, reply = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411"), received
        assert b"\r\nConnection: close" in head
        assert not json.loads(reply)["ok"]  # the only reply on the socket
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
    def test_unbounded_run_is_refused_before_any_compile(self, daemon, payload):
        """Nothing bounds how long a run takes, so one asking for 10**9
        work-items or scale 1e6 would hold a handler thread until the
        process is killed.  It is refused before any compile or
        allocation, in-process and over HTTP, and counted."""
        client, service = daemon
        errors = service.counters.get("service.errors")
        programs = service.store.stats()["artifacts"]
        with pytest.raises(ValueError, match="must be in"):
            service.run(dict(payload))
        status, reply = _post(client, "/v1/run", payload)
        assert status == 400 and "must be in" in reply["error"]
        assert service.counters.get("service.errors") == errors + 2
        assert service.store.stats()["artifacts"] == programs
        # the limits themselves are served
        assert client.run(source=self.SCALAR_SOURCE, body="Accum", n=1)["ok"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("system", "Desktop"),
            ("system", "deskto"),
            ("engine", "fast"),
            ("policy", "sometimes"),
            ("graph", "yes"),
            ("graph_placement", "greedy"),
            ("declared_check", "loud"),
        ],
    )
    def test_bad_run_field_is_refused_before_any_compile(self, daemon, field, value):
        """``"Desktop"`` and ``"deskto"`` used to run on the Ultrabook, and
        an unknown engine was refused only after the compile.  Every field
        is checked first: 400 with the field named, counted, nothing
        compiled (neither program below is in the store yet)."""
        client, service = daemon
        errors = service.counters.get("service.errors")
        programs = service.store.stats()["artifacts"]
        workload = {"workload": "BFS", "scale": 0.05, "config": "GPU+L3OPT", field: value}
        with pytest.raises(ValueError, match=f"^{field}="):
            service.run(workload)
        kernel = {"source": SOURCE.replace("7", "23"), "body": "Counter", "n": 4}
        status, reply = _post(client, "/v1/run", {**kernel, field: value})
        assert status == 400 and f"{field}=" in reply["error"], reply
        assert service.counters.get("service.errors") == errors + 2
        assert service.store.stats()["artifacts"] == programs

    def test_run_fields_reach_the_runtime(self, daemon):
        """What a run request chooses is what an in-process run with the
        same options computes."""
        client, _service = daemon
        options = {"engine": "vector", "policy": "hybrid", "graph": True}
        reply = client.run(workload="BFS", scale=0.05, system="desktop", **options)
        assert reply["ok"], reply
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outcome = all_workloads()["BFS"]().execute(None, desktop(), scale=0.05, **options)
        assert (reply["seconds"], reply["energy_joules"]) == (
            outcome.seconds,
            outcome.energy_joules,
        )
        ultrabook_reply = client.run(workload="BFS", scale=0.05, **options)
        assert ultrabook_reply["seconds"] != reply["seconds"]

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

    def test_stats_report_the_process_memory(self, daemon):
        client, _service = daemon
        memory = client.stats()["process"]
        assert memory["peak_rss_mb"] > 0
        if sys.platform.startswith("linux"):  # VmRSS needs /proc
            assert 0 < memory["rss_mb"] <= memory["peak_rss_mb"]

    def test_memory_cache_counts_as_all_stage_hits(self, daemon):
        client, service = daemon
        source = SOURCE.replace("7", "13")
        client.compile(source=source)
        before = service.counters.get("service.memory_hits", 0)
        hits = service.counters.get("service.closure_hits", 0)
        reads = service.store.hits + service.store.misses
        again = client.compile(source=source)
        assert again["stages"] == {"closure": "hit"}
        assert service.counters.get("service.memory_hits") == before + 1
        # ... counted as the closure hit it stands in for, without a read
        assert service.counters.get("service.closure_hits") == hits + 1
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


class _Live:
    """An in-process daemon on its own port that counts the connections
    it accepts and the headers of every request it parses."""

    def __init__(self, root):
        self.server, self.service = serve(root, port=0)
        self.accepts = []
        self.requests = []
        accept, requests = self.server.get_request, self.requests

        def get_request():
            pair = accept()
            self.accepts.append(pair[1])
            return pair

        class Recording(self.server.RequestHandlerClass):
            def parse_request(self):
                ok = super().parse_request()
                if ok:
                    requests.append((self.command, self.path, dict(self.headers)))
                return ok

        self.server.get_request = get_request
        self.server.RequestHandlerClass = Recording
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.client = ServiceClient(*self.server.server_address[:2], timeout=30)

    def close(self):
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


@pytest.fixture
def live(tmp_path):
    daemon = _Live(str(tmp_path))
    try:
        yield daemon
    finally:
        daemon.close()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestKeepAliveClient:
    """A ``ServiceClient`` keeps one HTTP/1.1 connection per calling
    thread, and replaces one the daemon closed, once, unseen."""

    def test_sequential_requests_open_one_connection(self, live):
        client = live.client
        for index in range(12):
            assert client.health() == {"ok": True}
            assert client.compile(source=SOURCE.replace("7", str(40 + index % 3)))["ok"]
        assert client.stats()["ok"]
        assert len(live.accepts) == 1
        assert len(live.requests) == 25

    def test_two_threads_never_share_a_connection(self, live):
        client = live.client
        ports, errors = {}, []
        barrier = threading.Barrier(3)

        def worker(name):
            try:
                barrier.wait(timeout=10)
                seen = set()
                for _ in range(6):
                    assert client.health() == {"ok": True}
                    seen.add(client._local.conn.sock.getsockname()[1])
                ports[name] = seen
                client.close()
            except Exception as exc:  # a worker's failure fails the test below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(len(seen) == 1 for seen in ports.values())
        assert len(set().union(*ports.values())) == 3
        assert len(live.accepts) == 3

    def test_a_connection_closed_at_the_idle_timeout_is_replaced(self, live, monkeypatch):
        from repro.service import daemon

        monkeypatch.setattr(daemon, "IDLE_TIMEOUT_S", 0.2)
        client = live.client
        assert client.health() == {"ok": True}
        time.sleep(0.6)  # the daemon closes the idle connection
        assert client.compile(source=SOURCE)["ok"]
        assert client.health() == {"ok": True}
        assert len(live.accepts) == 2

    def test_a_connection_close_reply_drops_the_connection(self, live, monkeypatch):
        from repro.service import daemon

        monkeypatch.setattr(daemon, "MAX_BODY_BYTES", -1)  # every POST is refused, 413
        client = live.client
        assert client.health() == {"ok": True}
        refused = client._request("POST", "/v1/compile")
        assert not refused["ok"] and "Content-Length" in refused["error"]
        assert "conn" not in client._local.__dict__
        assert client.health() == {"ok": True}
        assert len(live.accepts) == 2

    def test_a_daemon_restarted_on_the_same_port_is_reached_unseen(self, tmp_path):
        port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
            + [p for p in [env.get("PYTHONPATH")] if p]
        )
        processes = []

        def start():
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store", str(tmp_path),
                 "--port", str(port)],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            processes.append(process)
            assert "http://" in process.stdout.readline()

        def stop():
            process = processes[-1]
            process.kill()
            process.wait()
            process.stdout.close()

        client = ServiceClient("127.0.0.1", port, timeout=30)
        try:
            start()
            assert client.health() == {"ok": True}
            stop()
            start()  # same port, a new process: the kept connection is dead
            assert client.compile(source=SOURCE)["ok"]
            stop()
            # nothing listens: the retry's fresh connection is refused, and raises
            with pytest.raises(ConnectionRefusedError):
                client.health()
            assert "conn" not in client._local.__dict__
        finally:
            client.close()
            stop()

    def test_a_fresh_connection_to_a_dead_port_raises(self):
        client = ServiceClient("127.0.0.1", _free_port(), timeout=5)
        with pytest.raises(ConnectionRefusedError):
            client.health()
        assert "conn" not in client._local.__dict__

    def test_every_post_carries_content_length(self, live):
        client = live.client
        client.compile(source=SOURCE)
        client.run(source=TestDaemon.SCALAR_SOURCE, body="Accum", n=2)
        client._request("POST", "/v1/compile", [1, 2])
        client._request("POST", "/v1/compile")
        client.shutdown()
        posts = [headers for command, _path, headers in live.requests if command == "POST"]
        assert len(posts) == 5
        for headers in posts:
            assert "Transfer-Encoding" not in headers
            assert int(headers["Content-Length"]) >= 0


class TestReplyWarnings:
    """A compile reply's ``warnings`` are its program's: two requests in
    flight at once used to swap the process-wide warnings state under
    each other, so a clean program's reply carried another's warning."""

    FIB = """
class FibBody {
public:
  int* out;
  int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
  }
  void operator()(int i) { out[i] = fib(i); }
};
"""
    ADD = """
class AddBody {
public:
  int* out;
  void operator()(int i) { out[i] = out[i] + 1; }
};
"""

    def test_overlapping_requests_each_carry_their_own_warnings(self, tmp_path, monkeypatch):
        from repro.runtime import compiler

        service = CompileService(str(tmp_path))
        real = compiler.frontend_stage
        add_compiling, fib_done = threading.Event(), threading.Event()

        def staged(source, *args, **kwargs):
            # Fib's request compiles while Add's is inside its own compile
            if "FibBody" in source:
                assert add_compiling.wait(10)
            else:
                add_compiling.set()
                assert fib_done.wait(10)
            return real(source, *args, **kwargs)

        monkeypatch.setattr(compiler, "frontend_stage", staged)
        replies = {}

        def request(name, source):
            replies[name] = service.compile({"source": source})
            if name == "fib":
                fib_done.set()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            filters = list(warnings.filters)
            threads = [
                threading.Thread(target=request, args=("fib", self.FIB)),
                threading.Thread(target=request, args=("add", self.ADD)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert replies["add"]["warnings"] == []
            [fib] = replies["fib"]["warnings"]
            assert "FibBody cannot run on the GPU" in fib
            assert warnings.filters == filters  # nothing swapped them
            # a memory hit and a store hit answer the same
            assert service.compile({"source": self.FIB})["warnings"] == [fib]
            assert CompileService(str(tmp_path)).compile({"source": self.FIB})["warnings"] == [fib]

    def test_no_handler_enters_catch_warnings(self):
        import inspect

        from repro.service import daemon

        assert "catch_warnings" not in inspect.getsource(daemon)


class TestConcurrentRuns:
    """Run requests take no lock: the memory LRU hands every request for
    a program the same object, so a run must write nothing on it that
    another run reads."""

    REQUESTS = (
        {"workload": "Raytracer", "scale": 0.05},
        {"workload": "Raytracer", "scale": 0.05, "engine": "vector"},
        {"workload": "BFS", "scale": 0.05},
        {"workload": "BarnesHut", "scale": 0.05, "engine": "vector"},
    )
    THREADS, ROUNDS = 4, 10

    def test_concurrent_runs_equal_sequential_ones(self, tmp_path):
        service = CompileService(str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = [service.run(dict(payload)) for payload in self.REQUESTS]
        assert all(reply["ok"] for reply in expected), expected
        replies, errors = [], []

        def client(offset):
            # each thread walks the requests from its own offset, so every
            # round has all four in flight on the shared program objects
            try:
                for _ in range(self.ROUNDS):
                    for k in range(len(self.REQUESTS)):
                        index = (offset + k) % len(self.REQUESTS)
                        replies.append((index, service.run(dict(self.REQUESTS[index]))))
            except Exception as exc:  # validate() raising lands here
                errors.append(exc)

        # switch threads every few bytecodes, not every 5 ms, so runs
        # interleave inside loading and binding, not only between requests
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(self.THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(replies) == self.THREADS * self.ROUNDS * len(self.REQUESTS)
        for index, reply in replies:
            assert reply == expected[index], self.REQUESTS[index]
        assert service.counters.get("service.errors", 0) == 0

    @pytest.mark.parametrize("engine", ["compiled", "vector", "reference"])
    def test_a_run_writes_nothing_on_the_program(self, engine):
        """Loading Raytracer used to grow ``module.symbol_ids`` from 4 to 6
        entries and give its 3 globals addresses, on the object the
        daemon shares between requests.  Besides the derived
        ``jit_code`` / ``vector_code``, no attribute of the program, its
        module, functions or globals may change."""
        workload = all_workloads()["Raytracer"]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            program = compile_source(workload.source, OptConfig.gpu_all())
        module = program.module

        def snapshot():
            owners = [program, module, *module.functions.values()]
            attributes = [
                {
                    name: copy.copy(value) if isinstance(value, (dict, list, set)) else value
                    for name, value in vars(owner).items()
                    if name not in ("jit_code", "vector_code")
                }
                for owner in owners
            ]
            addresses = {name: gvar.address for name, gvar in module.globals.items()}
            return dict(module.symbol_ids), addresses, attributes

        before = snapshot()
        assert len(before[0]) == 4 and len(before[1]) == 3
        rt = ConcordRuntime(program, ultrabook(), engine=engine)
        state = workload.build(rt, 0.05)
        workload.run(rt, state)
        workload.validate(rt, state)
        assert snapshot() == before
        assert set(rt.global_addresses) == set(module.globals)


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
