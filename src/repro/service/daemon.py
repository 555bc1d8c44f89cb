"""The persistent compile service: ``python -m repro serve``.

A long-lived daemon that accepts **concurrent** compile and run requests
over local HTTP (JSON bodies), answering compiles through
``repro.runtime.compiler.compile_cached`` backed by a shared on-disk
:class:`~repro.service.store.ArtifactStore` of finished programs — so
the second request for an identical (source, options) pair skips the
frontend, the pipeline and the closure emission entirely, in this
process or any other pointed at the same store.

Protocol (all endpoints under ``/v1``; see ``docs/SERVICE.md``)::

    POST /v1/compile   {"source": str, "config": "GPU+ALL", ...}
    POST /v1/run       {"source": ..., "body": str, "n": int, ...}
                       or {"workload": "BFS", "scale": 0.1, ...}
    GET  /v1/stats     counters, store stats, request-latency p50/p99
    GET  /v1/health    {"ok": true}
    POST /v1/shutdown  graceful stop

Observability: every request runs under a private ``repro.obs`` span
(``service_request``) whose close event — with the measured wall time —
is folded into the daemon's shared :class:`AggregatorSink` under a
lock, so ``/v1/stats`` reports per-endpoint p50/p99 without the
lock-free observer ever being shared across threads.  ``service.*``
counters account closure hits/misses, corrupt artifacts, evictions,
requests and errors.

Isolation: compile and run requests are concurrent.  A run request's
``system``, its size and its ``RunConfig`` fields (one request field per
dataclass field) are checked before anything is compiled.  The
in-memory LRU hands one program object to every request for it, and a
run writes nothing on it but derived caches (generated engine code, the
vector engine's routing verdicts), which results, traces and reports
never depend on; the runtime keeps the symbol table and global
addresses of its load.  See ``docs/SERVICE.md``.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from dataclasses import asdict, fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..passes import CONFIGS, OptConfig
from ..runtime import ConcordRuntime, RunConfig, system_named
from ..runtime.compiler import restriction_warnings
from .store import ArtifactStore

__all__ = ["CompileService", "ServiceClient", "serve"]

#: Retained request-latency samples per span name (p50/p99 window).
LATENCY_SAMPLES = 2048

#: Largest request body the daemon will read (the biggest workload source
#: is ~10 kB); anything longer is refused with 413 before any read.
MAX_BODY_BYTES = 8 << 20

#: Seconds a kept-alive connection may wait for its next request line
#: before the daemon closes it, so an abandoned connection frees its
#: handler thread.  Headers, bodies and replies are not timed.
IDLE_TIMEOUT_S = 15.0

#: Largest work-item count and workload scale a run request may ask for.
#: Nothing bounds how long a run takes (a deadline is open work), so an
#: unbounded one would hold a handler thread and its memory until the
#: process is killed.
MAX_RUN_ITEMS = 1 << 20
MAX_RUN_SCALE = 2.0


def _resolve_config(spec) -> OptConfig:
    if spec is None:
        return OptConfig.gpu_all()
    if isinstance(spec, str):
        if spec not in CONFIGS:
            raise ValueError(f"unknown config {spec!r} (expected one of {sorted(CONFIGS)})")
        return CONFIGS[spec]
    if isinstance(spec, dict):
        disabled = frozenset(spec.get("disabled", ()))
        return OptConfig(
            ptropt=bool(spec.get("ptropt", False)),
            l3opt=bool(spec.get("l3opt", False)),
            classical=bool(spec.get("classical", True)),
            unroll=bool(spec.get("unroll", True)),
            verify=bool(spec.get("verify", True)),
            device_alloc=bool(spec.get("device_alloc", False)),
            disabled=disabled,
        )
    raise ValueError(f"config must be a label or object, got {type(spec).__name__}")


class CompileService:
    """The request handlers, independent of any transport (the HTTP layer
    below and the in-process tests both drive this object directly)."""

    #: hot deserialized programs kept in memory (bounded LRU): a warm
    #: request for a program this process already loaded skips even the
    #: store read + unpickle, not just the compile
    MEMORY_PROGRAMS = 64

    def __init__(self, store_dir, byte_budget=None, span_samples=LATENCY_SAMPLES):
        from collections import OrderedDict

        from ..obs import Observer, Telemetry
        from ..obs.telemetry import AggregatorSink

        self.observer = Observer()
        self.aggregator = AggregatorSink(span_samples=span_samples)
        self.observer.attach_telemetry(Telemetry(sinks=[self.aggregator]))
        self.store = ArtifactStore(
            store_dir, byte_budget=byte_budget, counters=self.observer.counters
        )
        #: guards the shared observer/telemetry/aggregator (they are not
        #: thread-safe; requests record into private observers and merge)
        self._obs_lock = threading.Lock()
        self._memory: OrderedDict = OrderedDict()  # closure key -> program
        self._mem_lock = threading.Lock()
        self.started = time.time()

    # -- request plumbing ----------------------------------------------------

    def _finish_request(self, endpoint: str, request_obs, started: float, ok: bool):
        """Merge one request's private observer into the shared metrics."""
        wall = time.perf_counter() - started
        with self._obs_lock:
            counters = self.observer.counters
            counters.add("service.requests")
            counters.add(f"service.requests.{endpoint}")
            if not ok:
                counters.add("service.errors")
            if request_obs is not None:
                counters.merge(request_obs.counters)
            telemetry = self.observer.telemetry
            if telemetry is not None:
                telemetry.emit(
                    "span_close",
                    "service_request",
                    category="service",
                    endpoint=endpoint,
                    wall_seconds=wall,
                )
                telemetry.emit(
                    "span_close",
                    f"service_request.{endpoint}",
                    category="service",
                    endpoint=endpoint,
                    wall_seconds=wall,
                )
        return wall

    def _request_observer(self):
        from ..obs import Observer

        return Observer()

    def _compile_through_caches(self, source, config, module_name, observer):
        """Memory cache → artifact store → compile.  A memory hit still
        counts as a closure hit (the request skipped the compile), plus
        ``service.memory_hits``."""
        from ..runtime.compiler import (
            compile_cached,
            frontend_key,
            pipeline_key,
            program_key,
        )

        ckey = program_key(pipeline_key(frontend_key(source, module_name), config))
        with self._mem_lock:
            program = self._memory.get(ckey)
            if program is not None:
                self._memory.move_to_end(ckey)
        if program is not None:
            observer.counters.add("service.memory_hits")
            observer.counters.add("service.closure_hits")
            return program, {"closure": "hit"}
        program, stages = compile_cached(
            source, config, module_name=module_name,
            store=self.store, observer=observer,
        )
        with self._mem_lock:
            self._memory[ckey] = program
            self._memory.move_to_end(ckey)
            while len(self._memory) > self.MEMORY_PROGRAMS:
                self._memory.popitem(last=False)
        return program, stages

    # -- endpoints -------------------------------------------------------------

    def compile(self, payload: dict) -> dict:
        """Compile (through the caches) and describe the program."""
        started = time.perf_counter()
        request_obs = self._request_observer()
        ok = False
        try:
            source = payload["source"]
            config = _resolve_config(payload.get("config"))
            module_name = payload.get("module_name", "concord")
            with request_obs.span("service_request", "service", endpoint="compile"):
                program, stages = self._compile_through_caches(
                    source, config, module_name, request_obs
                )
            result = {
                "ok": True,
                "program_id": program.program_id,
                "stages": stages,
                "config": config.label,
                "kernels": {
                    name: {
                        "construct": kinfo.construct,
                        "cpu_only": kinfo.cpu_only,
                        "opencl_bytes": len(kinfo.opencl_source),
                    }
                    for name, kinfo in program.kernels.items()
                },
                # from the program, not from the process's warnings
                # machinery, which concurrent requests share
                "warnings": restriction_warnings(program),
            }
            if payload.get("emit") == "opencl":
                result["opencl"] = {
                    name: kinfo.opencl_source
                    for name, kinfo in program.kernels.items()
                    if not kinfo.cpu_only
                }
            ok = True
            return result
        finally:
            self._finish_request("compile", request_obs, started, ok)

    def run(self, payload: dict) -> dict:
        """Compile (through the store) and execute — one kernel over a
        zero-initialized body, or a whole registered workload."""
        started = time.perf_counter()
        request_obs = self._request_observer()
        ok = False
        try:
            with request_obs.span("service_request", "service", endpoint="run"):
                # every field is checked before any compile or allocation
                if "workload" in payload:
                    handler, size = self._run_workload, float(payload.get("scale", 0.1))
                    if not 0 < size <= MAX_RUN_SCALE:
                        raise ValueError(
                            f"scale must be in (0, {MAX_RUN_SCALE}], got {size}"
                        )
                else:
                    handler, size = self._run_kernel, int(payload.get("n", 16))
                    if not 1 <= size <= MAX_RUN_ITEMS:
                        raise ValueError(
                            f"n must be in 1..{MAX_RUN_ITEMS}, got {size}"
                        )
                system = system_named(payload.get("system", "ultrabook"))
                options = RunConfig(
                    **{
                        spec.name: payload[spec.name]
                        for spec in fields(RunConfig)
                        if spec.name in payload
                    }
                )
                result = handler(payload, size, system, options, request_obs)
            ok = True
            return result
        finally:
            self._finish_request("run", request_obs, started, ok)

    def _run_workload(self, payload: dict, scale: float, system, options, request_obs) -> dict:
        from ..workloads import all_workloads

        registry = all_workloads()
        name = payload["workload"]
        if name not in registry:
            raise ValueError(f"unknown workload {name!r} (expected one of {sorted(registry)})")
        cls = registry[name]
        config = _resolve_config(payload.get("config"))
        program = self._cached_program(cls.source, config, module_name=cls.name,
                                       observer=request_obs)
        rt = ConcordRuntime(program, system, region_size=cls.region_size, **asdict(options))
        workload = cls()
        state = workload.build(rt, scale)
        reports = workload.run(rt, state, on_cpu=bool(payload.get("on_cpu", False)))
        if payload.get("validate", True):
            workload.validate(rt, state)
        return {
            "ok": True,
            "workload": name,
            "program_id": program.program_id,
            "constructs": len(reports),
            "device": reports[0].device if reports else "gpu",
            "seconds": sum(r.seconds for r in reports),
            "energy_joules": sum(r.energy_joules for r in reports),
        }

    def _run_kernel(self, payload: dict, n: int, system, options, request_obs) -> dict:
        config = _resolve_config(payload.get("config"))
        program = self._cached_program(
            payload["source"], config,
            module_name=payload.get("module_name", "concord"),
            observer=request_obs,
        )
        rt = ConcordRuntime(program, system, **asdict(options))
        body_name = payload["body"]
        kinfo = program.kernel_for(body_name)
        body = rt.new(body_name)
        for field_name, value in (payload.get("fields") or {}).items():
            setattr(body, field_name, value)
        on_cpu = bool(payload.get("on_cpu", False))
        if kinfo.construct == "reduce":
            report = rt.parallel_reduce_hetero(n, body, on_cpu=on_cpu)
        else:
            report = rt.parallel_for_hetero(n, body, on_cpu=on_cpu)
        return {
            "ok": True,
            "program_id": program.program_id,
            "body": body_name,
            "n": n,
            "device": report.device,
            "seconds": report.seconds,
            "energy_joules": report.energy_joules,
        }

    def _cached_program(self, source, config, module_name, observer):
        program, _stages = self._compile_through_caches(
            source, config, module_name, observer
        )
        return program

    def stats(self) -> dict:
        started = time.perf_counter()
        ok = False
        try:
            with self._obs_lock:
                counters = dict(sorted(self.observer.counters.as_dict().items()))
                latency = {
                    name: self.aggregator.percentiles(name, (50, 90, 99))
                    for name in sorted(self.aggregator.spans)
                    if name.startswith("service_request")
                }
            result = {
                "ok": True,
                "uptime_seconds": time.time() - self.started,
                "counters": counters,
                "latency": latency,
                "store": self.store.stats(),
                "process": process_memory(),
            }
            ok = True
            return result
        finally:
            self._finish_request("stats", None, started, ok)


def process_memory() -> dict:
    """This process's resident set now and at its peak, in MB (MiB):
    ``VmRSS`` and ``VmHWM`` from ``/proc/self/status``; where there is no
    ``/proc``, the peak from ``getrusage`` and no current figure."""
    kib = {}
    try:
        with open("/proc/self/status") as status:
            for line in status:
                key, _, value = line.partition(":")
                if key in ("VmRSS", "VmHWM"):
                    kib[key] = int(value.split()[0])
    except OSError:
        pass
    if "VmHWM" not in kib:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS
        kib["VmHWM"] = peak // 1024 if sys.platform == "darwin" else peak
    rss = kib.get("VmRSS")
    return {
        "rss_mb": None if rss is None else round(rss / 1024, 1),
        "peak_rss_mb": round(kib["VmHWM"] / 1024, 1),
    }


# -- HTTP layer -----------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    service: CompileService = None  # set by serve()
    quiet = True
    #: A reply written as two small sends (headers, then body) makes a
    #: keep-alive client wait out Nagle + delayed ACK, ~40 ms a request.
    #: Buffered, headers and body leave in one send when the request ends;
    #: a reply larger than the buffer still leaves in several, so no Nagle.
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # pragma: no cover - log plumbing
        if not self.quiet:
            super().log_message(fmt, *args)

    def handle_one_request(self):
        # idle until the request line arrives; a timeout closes the connection
        self.connection.settimeout(IDLE_TIMEOUT_S)
        super().handle_one_request()

    def parse_request(self) -> bool:
        # the rest of the request and its reply wait as long as they take
        self.connection.settimeout(None)
        return super().parse_request()

    def _reply(self, status: int, doc: dict) -> None:
        blob = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(blob)

    def _payload(self, length: int) -> dict:
        raw = self.rfile.read(length) if length else b"{}"
        doc = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def do_GET(self):
        if self.path == "/v1/health":
            self._reply(200, {"ok": True})
        elif self.path == "/v1/stats":
            self._reply(200, self.service.stats())
        else:
            self._reply(404, {"ok": False, "error": f"no such endpoint {self.path}"})

    def do_POST(self):
        if self.path == "/v1/shutdown":
            self._reply(200, {"ok": True})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        if "Transfer-Encoding" in self.headers:
            # A chunked body is not read here: its chunks would be parsed
            # as the next request on the connection.  Refused before any
            # read, and the connection closes.
            self.close_connection = True
            self._reply(
                411, {"ok": False, "error": "a request body needs Content-Length"}
            )
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # Refused before any read: a negative length would block this
            # thread until the peer hangs up, an unbounded one makes the
            # daemon buffer whatever it is sent.  The body stays unread, so
            # the connection cannot carry another request.
            self.close_connection = True
            self._reply(
                400 if length < 0 else 413,
                {"ok": False, "error": f"Content-Length must be 0..{MAX_BODY_BYTES}"},
            )
            return
        try:
            payload = self._payload(length)
            if self.path == "/v1/compile":
                self._reply(200, self.service.compile(payload))
            elif self.path == "/v1/run":
                self._reply(200, self.service.run(payload))
            else:
                self._reply(404, {"ok": False, "error": f"no such endpoint {self.path}"})
        except Exception as exc:  # one bad request must not kill the daemon
            self._reply(400, {"ok": False, "error": f"{type(exc).__name__}: {exc}"})


def serve(store_dir, host="127.0.0.1", port=0, byte_budget=None, quiet=True):
    """Build the service and a ready-to-run HTTP server bound to
    ``(host, port)`` (port 0 = ephemeral).  Returns ``(server, service)``;
    the caller runs ``server.serve_forever()`` (the CLI does) or drives it
    from a thread (tests and the selftest do)."""
    service = CompileService(store_dir, byte_budget=byte_budget)
    handler = type("_BoundHandler", (_Handler,), {"service": service, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server, service


class ServiceClient:
    """Minimal stdlib HTTP client for the daemon (load generator, tests,
    and anything else that wants to talk to ``repro serve``).

    Each calling thread keeps one persistent HTTP/1.1 connection, so a
    request pays for its work and not for a connection and a daemon
    handler thread; two threads never share one.  A request that fails
    on a *reused* connection because the daemon closed it while it was
    idle (``RemoteDisconnected``, ``ConnectionResetError``,
    ``BrokenPipeError``) is sent once more on a fresh connection; one
    that fails on a fresh connection raises.  A reply that says
    ``Connection: close`` drops the connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    def _request(self, method: str, path: str, payload=None) -> dict:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                return self._exchange(conn, method, path, body, headers)
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                pass  # closed by the daemon while idle: once more, on a fresh one
        conn = self._local.conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        return self._exchange(conn, method, path, body, headers)

    def _exchange(self, conn, method: str, path: str, body, headers: dict) -> dict:
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            self.close()
        doc = json.loads(raw.decode("utf-8"))
        doc.setdefault("ok", response.status == 200)
        return doc

    def close(self) -> None:
        """Close the calling thread's connection, if it has one."""
        conn = self._local.__dict__.pop("conn", None)
        if conn is not None:
            conn.close()

    def compile(self, **payload) -> dict:
        return self._request("POST", "/v1/compile", payload)

    def run(self, **payload) -> dict:
        return self._request("POST", "/v1/run", payload)

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def shutdown(self) -> dict:
        return self._request("POST", "/v1/shutdown")
