"""CLI for the evaluation harness.

Usage::

    python -m repro.eval table1
    python -m repro.eval fig6
    python -m repro.eval fig7 [--scale 0.5]
    python -m repro.eval fig8 | fig9 | fig10
    python -m repro.eval svm
    python -m repro.eval overlap
    python -m repro.eval all
    python -m repro.eval fig7 --trace eval-trace.json

``--trace FILE`` passes an observer to every measurement the chosen
experiment performs and writes a Chrome ``trace_event`` file at the end
(load it in about://tracing or Perfetto).

``report`` exits 1 when a shape target of :mod:`repro.eval.targets` fails,
or when one listed there as a known gap holds again (``FIXED``: take it
off the list); every other experiment exits 0.
"""

from __future__ import annotations

import argparse
import sys

from . import (
    FIGURES,
    format_figure6,
    format_svm_overhead,
    format_table1,
    measure_figures,
    measure_overlap,
)
from .report import generate_report

#: experiment -> ``scale`` -> its text; Figures 7-10 are not here, they
#: are views of one measurement per system (``measure_figures``)
PRINTERS = {
    "table1": format_table1,
    "fig6": lambda scale: format_figure6(),
    "svm": lambda scale: format_svm_overhead(),
    "overlap": lambda scale: measure_overlap(scale=scale).render(),
}

#: what ``all`` prints, in order
EXPERIMENTS = ("table1", "fig6", *FIGURES, "svm", "overlap")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.eval")
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "report", "all"])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome trace_event JSON file of every measurement",
    )
    args = parser.parse_args(argv)

    observer = None
    if args.trace:
        from ..obs import Observer

        observer = Observer()

    checks = []
    experiments = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    drawn = measure_figures([e for e in experiments if e in FIGURES], args.scale, observer)
    for experiment in experiments:
        if experiment == "report":
            text, checks = generate_report(args.scale, observer)
        elif experiment in drawn:
            text = drawn[experiment].render()
        else:
            text = PRINTERS[experiment](args.scale)
        print(text + "\n")
    if observer is not None:
        from ..obs import write_trace

        write_trace(
            observer.events,
            args.trace,
            meta={"command": "eval", "experiment": args.experiment, "scale": args.scale},
        )
        print(f"trace: {args.trace}")
    return 0 if all(check.ok for check in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
