"""Compile-service benchmarks: warm-vs-cold request latency and stage
cache behavior under the synthetic many-client load.

Library performance of this reproduction itself (wall-clock, like
``bench_kernels.py``), not simulated time.  The load generator is the
same one ``python -m repro serve --selftest`` and the service-smoke CI
job run; here pytest-benchmark tracks the cold and warm request paths
separately so regressions in either show up as distinct series.
"""

import tempfile
import threading

import pytest

from repro.service import (
    ServiceClient,
    generate_sources,
    run_load,
    serve,
    validate_report,
)


@pytest.fixture()
def daemon():
    with tempfile.TemporaryDirectory() as store_dir:
        server, service = serve(store_dir, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield host, port, service
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


def test_cold_compile_request(benchmark, daemon):
    """Every request a distinct program: a whole compile and one put."""
    host, port, _service = daemon
    client = ServiceClient(host, port)
    sources = iter(generate_sources(512))

    def cold():
        reply = client.compile(source=next(sources), config="GPU+ALL")
        assert reply["ok"] and reply["stages"]["closure"] == "miss"

    benchmark.pedantic(cold, rounds=10, iterations=1)


def test_warm_compile_request(benchmark, daemon):
    """Every request the same program: answered from the caches."""
    host, port, _service = daemon
    client = ServiceClient(host, port)
    source = generate_sources(1)[0]
    assert client.compile(source=source, config="GPU+ALL")["ok"]  # prime

    def warm():
        reply = client.compile(source=source, config="GPU+ALL")
        assert reply["ok"] and reply["stages"] == {"closure": "hit"}

    benchmark.pedantic(warm, rounds=30, iterations=1)


def test_many_client_load(daemon):
    """The full two-phase load: warm hits present, warm p50 at least 5x
    better than cold — the service's acceptance bar."""
    host, port, _service = daemon
    report = run_load(
        lambda: ServiceClient(host, port), clients=4, sources=6
    )
    assert validate_report(report) == []
    assert report["p50_speedup"] >= 5.0, (
        f"warm p50 only {report['p50_speedup']:.1f}x better than cold"
    )
