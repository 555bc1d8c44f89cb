"""Command-line compiler driver.

Usage::

    python -m repro compile FILE.cpp [--config GPU|GPU+PTROPT|GPU+L3OPT|GPU+ALL]
                                      [--emit ir|opencl|stats|kernels]
    python -m repro run FILE.cpp --body CLASS --n N [--config ...]
                                      [--system ultrabook|desktop] [--on-cpu]
                                      [RUN OPTIONS] [--flight-record DIR]
    python -m repro profile WORKLOAD [--scale S] [--system ultrabook|desktop] [--on-cpu]
                                      [RUN OPTIONS] [--no-validate]
                                      [--format json|csv] [--output FILE]
                                      [--trace FILE.json] [--flight-record DIR]
                                      [--events FILE]
    python -m repro annotate WORKLOAD [--scale S] [--system ultrabook|desktop] [--on-cpu]
                                      [RUN OPTIONS] [--no-validate]
                                      [--top N] [--format text|json] [--output FILE]
    python -m repro fuzz [--seed N] [--iterations K]
                         [--target all|TARGET]
                         [--corpus DIR] [--no-reduce] [--max-divergences M]
                         [--trace FILE.json] [--flight-record DIR]
    python -m repro watch [--dir DIR] [--check] [--format text|json] [--output FILE]
    python -m repro serve [--store DIR] [--host H] [--port P]
                          [--byte-budget BYTES] [--verbose]
                          [--selftest] [--clients N] [--sources K]
                          [--stats-output FILE]

RUN OPTIONS are one flag per field of ``repro.runtime.RunConfig``, the
same on ``run``, ``profile`` and ``annotate``; a flag left out leaves its
field at the default::

    [--engine compiled|reference|vector] [--policy cpu|gpu|auto|hybrid]
    [--graph] [--graph-placement policy|ect] [--declared-check off|warn|trap]

``compile`` parses and compiles a MiniC++ translation unit and prints the
requested artifact for every heterogeneous body class found.  ``run``
additionally executes a kernel over a zero-initialized body (useful for
smoke-testing kernels whose body needs no host setup).  ``profile`` runs
one of the nine registered evaluation workloads under the observability
layer and emits its per-kernel profile document (JSON by default; see
``docs/OBSERVABILITY.md`` for the schema).  ``annotate`` attributes the
modeled execution cost of a workload to MiniC++ source lines and prints a
hot-line report (see ``docs/PROFILING.md``).  ``--trace FILE`` on ``profile``
and ``fuzz`` additionally writes a Chrome ``trace_event`` file loadable
in about://tracing or Perfetto.  ``fuzz`` runs a deterministic
differential-fuzzing campaign over ``TARGET``, a name in
``repro.fuzz.TARGETS`` (see ``docs/FUZZING.md``), exits non-zero
on any divergence, and writes reduced reproducers to ``--corpus``.
``--graph`` routes submissions through the task-graph runtime
(``docs/GRAPH.md``): ``run`` and ``profile`` report the overlap stats.

``--flight-record DIR`` arms the flight recorder (``docs/TELEMETRY.md``):
any trap or fuzz divergence dumps a postmortem bundle — the observer's
last events, live counters, open spans, and the trapping kernel + source line
— into DIR.  ``watch`` reads the benchmark ledger — the ``BENCH_<n>.json``
result lines of ``benchmarks/e2e/run.py`` beside ``BENCHMARK.json`` — and
gates every end-to-end series against the bound ``BENCHMARK.json`` gives it
(``docs/PROFILING.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .analysis import kernel_mix
from .fuzz import TARGETS
from .ir import format_function
from .passes import CONFIGS
from .runtime import ALL_SYSTEMS, ConcordRuntime, RunConfig, compile_source, system_named


def _add_run_arguments(parser, scale: bool = True) -> None:
    """What a command that runs something takes: ``--system``,
    ``--on-cpu`` (and ``--scale`` for a registered workload), then one
    flag per :class:`RunConfig` field with that field's choices — a flag
    left out leaves its field at the default."""
    if scale:
        parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--system", choices=list(ALL_SYSTEMS), default="ultrabook")
    parser.add_argument(
        "--on-cpu", action="store_true", help="run on the multicore CPU (--policy overrides)"
    )
    for spec in fields(RunConfig):
        flag = "--" + spec.name.replace("_", "-")
        what = f"{spec.metadata['what']} (default: {spec.default})"
        if isinstance(spec.default, bool):
            parser.add_argument(flag, action="store_true", default=None, help=what)
        else:
            parser.add_argument(
                flag, choices=list(spec.metadata["choices"]), default=None, help=what
            )


def _run_options(args) -> dict:
    """The :class:`RunConfig` fields the command line set."""
    given = {spec.name: getattr(args, spec.name) for spec in fields(RunConfig)}
    return {name: value for name, value in given.items() if value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro")
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser("compile", help="compile a MiniC++ file")
    compile_parser.add_argument("file")
    compile_parser.add_argument("--config", choices=sorted(CONFIGS), default="GPU+ALL")
    compile_parser.add_argument(
        "--emit", choices=["ir", "opencl", "stats", "kernels"], default="opencl"
    )

    run_parser = sub.add_parser("run", help="compile and execute one kernel")
    run_parser.add_argument("file")
    run_parser.add_argument("--body", required=True, help="body class name")
    run_parser.add_argument("--n", type=int, default=16)
    run_parser.add_argument("--config", choices=sorted(CONFIGS), default="GPU+ALL")
    _add_run_arguments(run_parser, scale=False)
    run_parser.add_argument(
        "--flight-record",
        default=None,
        metavar="DIR",
        help="dump a postmortem bundle into DIR if the kernel traps",
    )

    profile_parser = sub.add_parser(
        "profile", help="run a registered workload under the observability layer"
    )
    profile_parser.add_argument("workload", help="workload name, e.g. bfs")
    _add_run_arguments(profile_parser)
    profile_parser.add_argument("--no-validate", action="store_true")
    profile_parser.add_argument("--format", choices=["json", "csv"], default="json")
    profile_parser.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )
    profile_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also write a Chrome trace_event JSON file",
    )
    profile_parser.add_argument(
        "--flight-record",
        default=None,
        metavar="DIR",
        help="dump a postmortem bundle into DIR if the workload traps",
    )
    profile_parser.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="stream telemetry events to FILE as JSON lines",
    )

    annotate_parser = sub.add_parser(
        "annotate", help="attribute modeled cost to source lines"
    )
    annotate_parser.add_argument("workload", help="workload name, e.g. bfs")
    _add_run_arguments(annotate_parser)
    annotate_parser.add_argument("--no-validate", action="store_true")
    annotate_parser.add_argument(
        "--top", type=int, default=20, help="lines to show in the text report"
    )
    annotate_parser.add_argument("--format", choices=["text", "json"], default="text")
    annotate_parser.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    fuzz_parser = sub.add_parser(
        "fuzz", help="run a differential fuzzing campaign"
    )
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.add_argument("--iterations", type=int, default=200)
    fuzz_parser.add_argument("--target", choices=("all", *TARGETS), default="all")
    fuzz_parser.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="write reduced reproducers into DIR (created if missing)",
    )
    fuzz_parser.add_argument(
        "--no-reduce",
        action="store_true",
        help="report divergences without shrinking them",
    )
    fuzz_parser.add_argument(
        "--max-divergences",
        type=int,
        default=5,
        help="stop the campaign after this many divergences",
    )
    fuzz_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also write a Chrome trace_event JSON file",
    )
    fuzz_parser.add_argument(
        "--flight-record",
        default=None,
        metavar="DIR",
        help="write postmortem bundles for divergences into DIR "
        "(defaults to the corpus directory when --corpus is given)",
    )
    fuzz_parser.add_argument(
        "--no-flight-record",
        action="store_true",
        help="disable the campaign's default flight recorder",
    )

    watch_parser = sub.add_parser(
        "watch", help="trend report over the whole benchmark ledger"
    )
    watch_parser.add_argument(
        "--dir",
        default=".",
        help="directory of BENCHMARK.json and the BENCH_<n>.json entries "
        "(default: current directory)",
    )
    watch_parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the verdict is OK",
    )
    watch_parser.add_argument("--format", choices=["text", "json"], default="text")
    watch_parser.add_argument(
        "--output", default=None, help="write to FILE instead of stdout"
    )

    serve_parser = sub.add_parser(
        "serve", help="run the persistent compile service daemon"
    )
    serve_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store directory (default: .repro-store under the cwd)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0, help="port to bind (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--byte-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU-evict store artifacts beyond this total size",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve_parser.add_argument(
        "--selftest",
        action="store_true",
        help="start the daemon, run the synthetic many-client load test "
        "against it, report warm-vs-cold latency, and exit non-zero if "
        "the run proves nothing (no warm hits / failed requests)",
    )
    serve_parser.add_argument(
        "--clients", type=int, default=4, help="selftest: concurrent clients"
    )
    serve_parser.add_argument(
        "--sources", type=int, default=6, help="selftest: distinct programs"
    )
    serve_parser.add_argument(
        "--stats-output",
        default=None,
        metavar="FILE",
        help="selftest: also write the load report + daemon stats as JSON",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "profile":
        return _profile(args)
    if args.command == "annotate":
        return _annotate(args)
    if args.command == "fuzz":
        return _fuzz(args)
    if args.command == "watch":
        return _watch(args)
    if args.command == "serve":
        return _serve(args)
    try:
        with open(args.file) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc.strerror}", file=sys.stderr)
        return 1
    config = CONFIGS[args.config]
    from .minicpp import LexError, LowerError, ParseError, SemaError

    try:
        program = compile_source(source, config)
    except (LexError, ParseError, SemaError, LowerError) as exc:
        print(f"{args.file}: error: {exc}", file=sys.stderr)
        return 1

    if args.command == "compile":
        if args.emit == "kernels":
            for name, kinfo in program.kernels.items():
                marker = " (CPU-only: restriction fallback)" if kinfo.cpu_only else ""
                print(f"{name}: {kinfo.construct}{marker}")
            return 0
        if not program.kernels:
            print("no heterogeneous body classes found", file=sys.stderr)
            return 1
        for name, kinfo in program.kernels.items():
            print(f"// ===== {name} [{args.config}] =====")
            if args.emit == "ir":
                print(format_function(kinfo.gpu_kernel))
            elif args.emit == "opencl":
                print(kinfo.opencl_source)
            elif args.emit == "stats":
                mix = kernel_mix(program, name)
                print(
                    f"control {mix.control_pct:.1f}%  memory {mix.memory_pct:.1f}%  "
                    f"remaining {mix.remaining_pct:.1f}%  "
                    f"(irregularity {mix.irregularity_pct:.1f}%)"
                )
        return 0

    # run
    from .exec import ExecutionError
    from .runtime.graph import DeclaredSetViolation
    from .svm import MemoryFault

    observer = None
    recorder = None
    if args.flight_record:
        from .obs import FlightRecorder, Observer

        observer = Observer()
        recorder = FlightRecorder(args.flight_record, observer=observer)
    rt = ConcordRuntime(
        program, system_named(args.system), observer=observer, **_run_options(args)
    )
    try:
        body = rt.new(args.body)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    try:
        report = rt.parallel_for_hetero(
            args.n, body, on_cpu=args.on_cpu and args.policy is None
        )
    except (MemoryFault, ExecutionError, DeclaredSetViolation) as exc:
        if recorder is not None:
            bundle = recorder.record(
                exc,
                runtime=rt,
                context={"command": "run", "body": args.body, "n": args.n},
            )
            print(f"flight bundle: {bundle}", file=sys.stderr)
        print(
            f"error: kernel faulted: {exc}\n"
            f"note: `repro run` launches over a zero-initialized {args.body}; "
            "bodies that dereference pointer fields need host-side setup "
            "(see examples/) and cannot be driven from this command",
            file=sys.stderr,
        )
        return 1
    print(
        f"{args.body}: device={report.device} n={args.n} "
        f"time={report.seconds:.3e}s energy={report.energy_joules:.3e}J"
    )
    if rt.options.graph:
        stats = rt.wait()
        print(
            f"graph: {stats.executed} construct(s), {stats.waves} wave(s), "
            f"{sum(stats.edges.values())} edge(s), "
            f"wall {stats.wall_seconds:.3e}s "
            f"(sync {stats.sync_seconds:.3e}s, {stats.speedup:.2f}x)"
        )
    return 0


def _write_output(path: str, text: str) -> bool:
    """Write a finished report to ``path``; a path that cannot be
    written is reported like an unreadable input file, not raised."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _profile(args) -> int:
    import json

    from .obs import (
        JsonLinesSink,
        Observer,
        SchemaError,
        profile_to_csv,
        profile_workload,
        validate_profile,
        write_trace,
    )

    sinks = [JsonLinesSink(args.events)] if args.events else []
    observer = Observer(sinks=sinks)
    recorder = None
    if args.flight_record:
        from .obs import FlightRecorder

        recorder = FlightRecorder(args.flight_record, observer=observer)
    try:
        doc = profile_workload(
            args.workload,
            scale=args.scale,
            system=system_named(args.system),
            on_cpu=args.on_cpu,
            validate=not args.no_validate,
            observer=observer,
            **_run_options(args),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    except Exception as exc:
        if recorder is not None:
            bundle = recorder.record(
                exc, context={"command": "profile", "workload": args.workload}
            )
            print(f"flight bundle: {bundle}", file=sys.stderr)
        raise
    finally:
        for sink in sinks:
            sink.close()
            print(f"events: {sink.path}", file=sys.stderr)
    try:
        validate_profile(doc)
    except SchemaError as exc:
        print(f"error: emitted profile failed validation: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        write_trace(observer.events, args.trace, meta=doc["meta"])
        print(f"trace: {args.trace}", file=sys.stderr)
    if args.format == "csv":
        rendered = profile_to_csv(doc)
    else:
        rendered = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if args.output:
        if not _write_output(args.output, rendered):
            return 1
        totals = doc["totals"]
        print(
            f"{doc['meta']['workload']}: {totals['constructs']} constructs, "
            f"{totals['seconds']:.3e}s simulated "
            f"({totals['attributed_fraction']:.1%} attributed) -> {args.output}"
        )
    else:
        sys.stdout.write(rendered)
    return 0


def _annotate(args) -> int:
    import json

    from .obs import annotate_workload, render_line_report

    try:
        doc = annotate_workload(
            args.workload,
            scale=args.scale,
            system=system_named(args.system),
            on_cpu=args.on_cpu,
            validate=not args.no_validate,
            **_run_options(args),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    if args.format == "json":
        rendered = json.dumps(doc, indent=2) + "\n"
    else:
        rendered = render_line_report(doc, top=args.top) + "\n"
    if args.output:
        if not _write_output(args.output, rendered):
            return 1
        totals = doc["totals"]
        print(
            f"{doc['meta']['workload']}: {totals['attributed_fraction']:.1%} of "
            f"{totals['units']:,.0f} modeled units attributed -> {args.output}"
        )
    else:
        sys.stdout.write(rendered)
    return 0


def _watch(args) -> int:
    import json

    from .obs.watch import (
        build_watch_report,
        render_watch_report,
        validate_watch_report,
    )

    report = build_watch_report(args.dir)
    validate_watch_report(report)
    verdict = report["verdict"]
    if args.format == "json":
        rendered = json.dumps(report, indent=2) + "\n"
    else:
        rendered = render_watch_report(report) + "\n"
    if args.output:
        if not _write_output(args.output, rendered):
            return 1
        print(
            f"watch: {verdict['series']} series over {verdict['entries']} "
            f"entr{'y' if verdict['entries'] == 1 else 'ies'}, "
            f"{'OK' if verdict['ok'] else 'FAILED'} -> {args.output}"
        )
    else:
        sys.stdout.write(rendered)
    if args.check and not verdict["ok"]:
        print(
            f"error: ledger verdict FAILED: {len(report['errors'])} error(s), "
            f"{len(verdict['regressed'])} gated series past their bound",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve(args) -> int:
    import json
    import threading

    from .service import (
        ServiceClient,
        render_report,
        run_load,
        serve,
        validate_report,
    )

    store_dir = args.store or os.path.join(os.getcwd(), ".repro-store")
    server, service = serve(
        store_dir,
        host=args.host,
        port=args.port,
        byte_budget=args.byte_budget,
        quiet=not args.verbose,
    )
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} (store: {store_dir})")

    if not args.selftest:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0

    # Selftest: drive the daemon we just started with the synthetic
    # many-client load, then report and gate on what it proved.
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        report = run_load(
            lambda: ServiceClient(host, port),
            clients=args.clients,
            sources=args.sources,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    print(render_report(report))
    if args.stats_output:
        if not _write_output(args.stats_output, json.dumps(report, indent=2)):
            return 1
        print(f"stats: {args.stats_output}")
    problems = validate_report(report)
    for problem in problems:
        print(f"error: selftest: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _fuzz(args) -> int:
    from .fuzz import FuzzDriver
    from .obs import FlightRecorder, Observer

    observer = Observer()
    # The campaign driver arms the flight recorder by default whenever
    # there is somewhere to put bundles, so reduced reproducers ship with
    # their postmortem context; --no-flight-record opts out.
    flight_dir = args.flight_record or args.corpus
    recorder = None
    if flight_dir and not args.no_flight_record:
        recorder = FlightRecorder(flight_dir, observer=observer)
    driver = FuzzDriver(
        seed=args.seed,
        iterations=args.iterations,
        target=args.target,
        corpus_dir=args.corpus,
        observer=observer,
        reduce=not args.no_reduce,
        max_divergences=args.max_divergences,
        flight_recorder=recorder,
    )
    report = driver.run(progress=lambda line: print(line, flush=True))
    print(report.summary())
    if args.trace:
        from .obs import write_trace

        write_trace(
            observer.events,
            args.trace,
            meta={"command": "fuzz", "seed": args.seed, "target": args.target},
        )
        print(f"trace: {args.trace}")
    counters = observer.counters
    detail = ", ".join(
        f"{name}={int(counters.get(name))}"
        for name in (
            "fuzz.iterations",
            "fuzz.divergences",
            "fuzz.frontend_rejected",
            "fuzz.reduction_attempts",
        )
        if name in counters
    )
    if detail:
        print(f"counters: {detail}")
    for path in report.corpus_files:
        print(f"reproducer: {path}")
    if not report.ok:
        for divergence in report.divergences:
            print(
                f"divergence (target={divergence.target}, "
                f"iteration={divergence.iteration}):",
                file=sys.stderr,
            )
            for diff in divergence.diffs:
                print(f"  {diff}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
