"""Synthetic many-client load for the compile service.

``python -m repro serve --selftest`` drives this module (the repo
benchmark's ``service_mix`` borrows only :func:`generate_sources`): it
starts from a pool of *distinct* generated MiniC++ sources, then hammers
a running daemon with ``clients`` concurrent threads, two phases —

* **cold** — every source is seen for the first time, so each request
  pays frontend + pipeline + closure;
* **warm** — the same sources again (every client touches every source),
  so each request must answer from the closure artifact alone.

The report carries client-observed p50/p99 latency per phase, the
cold/warm speedup, and the daemon's own ``/v1/stats`` snapshot (closure
hit/miss counters, store stats, server-side request percentiles) —
the evidence the service-smoke CI job archives.
"""

from __future__ import annotations

import threading
import time

__all__ = ["generate_sources", "run_load", "render_report", "validate_report"]

#: Realistically sized client programs: helper classes with methods to
#: inline, pointer chasing, loops — enough frontend + pipeline work
#: (~50ms cold) that the warm path's store read is the 5x+ win the
#: service exists for, not a wash against HTTP overhead.
_SOURCE_TEMPLATE = """
class Vec{tag} {{
public:
  float x; float y; float z;
  float dot(Vec{tag}* o) {{ return x * o->x + y * o->y + z * o->z; }}
  float norm2() {{ return x * x + y * y + z * z; }}
  void scale(float f) {{ x = x * f; y = y * f; z = z * f; }}
  void axpy(float a, Vec{tag}* o) {{
    x = x + a * o->x; y = y + a * o->y; z = z + a * o->z;
  }}
}};

class Node{tag} {{
public:
  int value;
  int weight;
  Node{tag}* next;
  int chase(int depth) {{
    int acc = value;
    Node{tag}* cur = next;
    int d = 0;
    while (cur != 0 && d < depth) {{
      acc = acc + cur->value * {mult} + cur->weight;
      cur = cur->next;
      d = d + 1;
    }}
    return acc;
  }}
}};

class LoadBody{tag} {{
public:
  Vec{tag}* vecs;
  Node{tag}* nodes;
  int* out;
  float factor;
  int rounds;
  void operator()(int i) {{
    Vec{tag}* v = &vecs[i];
    float acc = v->norm2();
    int r = 0;
    while (r < rounds) {{
      v->axpy(0.25f, v);
      acc = acc + v->dot(v) * factor;
      r = r + 1;
    }}
    int chased = nodes[i].chase({depth});
    out[i] = chased + (int)acc + {addend};
  }}
}};
"""


def generate_sources(count: int) -> list:
    """``count`` distinct-but-similar MiniC++ programs: same shape, unique
    constants, so every one hashes (and compiles) differently."""
    return [
        _SOURCE_TEMPLATE.format(
            tag=i, mult=(i % 7) + 2, addend=i * 13 + 1, depth=(i % 5) + 3
        )
        for i in range(count)
    ]


def _percentile(samples: list, q: int) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(len(ordered) * q / 100)))
    return ordered[rank]


def _phase(client_factory, clients: int, sources: list, config: str) -> dict:
    """Issue one compile request per (client, source) pair, all clients
    concurrent, and collect per-request wall latencies."""
    latencies: list = []
    errors: list = []
    lock = threading.Lock()

    def worker(worker_index: int) -> None:
        client = client_factory()
        # Stagger source order per worker so concurrent clients collide on
        # the same key — the interesting contention case for the store.
        order = sources[worker_index % len(sources):] + sources[: worker_index % len(sources)]
        for source in order:
            started = time.perf_counter()
            reply = client.compile(source=source, config=config)
            wall = time.perf_counter() - started
            with lock:
                if reply.get("ok"):
                    latencies.append(wall)
                else:
                    errors.append(reply.get("error", "unknown error"))

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    return {
        "requests": len(latencies),
        "errors": errors,
        "wall_seconds": wall,
        "p50_seconds": _percentile(latencies, 50),
        "p99_seconds": _percentile(latencies, 99),
        "mean_seconds": sum(latencies) / len(latencies) if latencies else 0.0,
    }


def run_load(
    client_factory,
    clients: int = 4,
    sources: int = 8,
    config: str = "GPU+ALL",
) -> dict:
    """Run the two-phase load against a daemon reachable through
    ``client_factory()`` (→ a ``ServiceClient``-shaped object).

    The cold phase issues ``clients × sources`` requests over ``sources``
    distinct programs — only the first request per program is truly cold;
    concurrent duplicates may already hit, which is exactly the
    shared-store behavior the daemon exists for.  The warm phase repeats
    the same matrix and must answer every request from the store.
    """
    pool = generate_sources(sources)
    cold = _phase(client_factory, clients, pool, config)
    warm = _phase(client_factory, clients, pool, config)
    stats = client_factory().stats()
    counters = stats.get("counters", {})
    warm_hits = counters.get("service.closure_hits", 0)
    speedup = (
        cold["p50_seconds"] / warm["p50_seconds"]
        if warm["p50_seconds"] > 0
        else float("inf")
    )
    return {
        "schema": "repro.service.load/v1",
        "clients": clients,
        "sources": sources,
        "config": config,
        "cold": cold,
        "warm": warm,
        "warm_hits": warm_hits,
        "p50_speedup": speedup,
        "stats": stats,
    }


def validate_report(report: dict) -> list:
    """Structural + acceptance checks; returns a list of problems (empty
    when the load test proves what it is supposed to prove)."""
    problems = []
    for phase_name in ("cold", "warm"):
        phase = report.get(phase_name, {})
        if phase.get("errors"):
            problems.append(f"{phase_name} phase had errors: {phase['errors'][:3]}")
        if phase.get("requests", 0) <= 0:
            problems.append(f"{phase_name} phase issued no successful requests")
    if report.get("warm_hits", 0) <= 0:
        problems.append("no warm closure-stage hits recorded (service.closure_hits == 0)")
    expected = report.get("clients", 0) * report.get("sources", 0)
    warm = report.get("warm", {})
    if warm.get("requests", 0) != expected:
        problems.append(
            f"warm phase completed {warm.get('requests')} requests, expected {expected}"
        )
    return problems


def render_report(report: dict) -> str:
    cold, warm = report["cold"], report["warm"]
    lines = [
        f"service load: {report['clients']} clients x {report['sources']} sources "
        f"[{report['config']}]",
        f"  cold: {cold['requests']} requests  p50 {cold['p50_seconds'] * 1e3:.2f}ms  "
        f"p99 {cold['p99_seconds'] * 1e3:.2f}ms  wall {cold['wall_seconds']:.2f}s",
        f"  warm: {warm['requests']} requests  p50 {warm['p50_seconds'] * 1e3:.2f}ms  "
        f"p99 {warm['p99_seconds'] * 1e3:.2f}ms  wall {warm['wall_seconds']:.2f}s",
        f"  warm closure hits: {report['warm_hits']}   "
        f"p50 speedup: {report['p50_speedup']:.1f}x",
    ]
    store = report.get("stats", {}).get("store", {})
    if store:
        lines.append(
            f"  store: {store.get('artifacts', 0)} artifacts, "
            f"{store.get('bytes', 0)} bytes"
        )
    return "\n".join(lines)
