"""One-shot markdown report: every table and figure, the paper-vs-measured
table and the shape targets' verdicts.

``python -m repro.eval report [--scale 0.5] > results.md`` regenerates the
whole evaluation and **exits 1 when a shape target fails or a listed gap
no longer does** (:mod:`repro.eval.targets`), so a fresh checkout confirms
the reproduction in one command.  EXPERIMENTS.md carries this output at
scale 1.0 verbatim between its two ``report`` marker comments.
"""

from __future__ import annotations

from collections import Counter

from .figures import FIGURES, measure_figures
from .svm_overhead import format_svm_overhead, measure_svm_overhead
from .tables import figure6_mixes, format_figure6, format_table1
from .targets import PAPER, Check, Results, shape_checks


def measure(scale: float, observer=None) -> Results:
    return Results(
        **measure_figures(FIGURES, scale, observer),
        overhead=measure_svm_overhead(),
        mixes=figure6_mixes(),
    )


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [headers, ["---"] * len(headers), *rows]
    return "".join("| " + " | ".join(line) + " |\n" for line in lines)


def generate_report(scale: float = 1.0, observer=None) -> tuple[str, list[Check]]:
    """The report text and the verdicts it ends with."""
    results = measure(scale, observer)
    blocks = [
        format_table1(scale),
        format_figure6(results.mixes),
        *(
            fig.render()
            for fig in (results.fig7, results.fig8, results.fig9, results.fig10)
        ),
        format_svm_overhead(results.overhead),
    ]
    out = ["# Reproduction report\n\n", f"Workload scale: {scale}\n\n"]
    out += [f"```\n{block}\n```\n\n" for block in blocks]

    out.append("## Paper vs measured\n\n")
    out.append(
        "Figure rows are GPU+ALL bars; section 5.3 rows are a configuration's "
        "speed over plain GPU.\n\n"
    )
    out.append(
        _markdown_table(
            ["artifact", "quantity", "paper", "source", "measured"],
            [
                [
                    p.artifact,
                    p.quantity,
                    p.paper,
                    p.source,
                    p.unit.format(p.measure(results)),
                ]
                for p in PAPER
            ],
        )
    )

    checks = shape_checks(results, scale)
    out.append("\n## Shape targets (paper vs this run)\n\n")
    out.append(
        _markdown_table(
            ["check", "expected", "measured", "status"],
            [
                [
                    c.name,
                    c.expected,
                    c.measured,
                    f"{c.status} ({c.cause})" if c.cause else c.status,
                ]
                for c in checks
            ],
        )
    )
    count = Counter(c.status for c in checks)
    out.append(
        f"\n{count['PASS']}/{len(checks)} shape targets hold; "
        f"{count['GAP']} known gap(s), {count['FAIL']} failed, "
        f"{count['FIXED']} listed as a gap but fixed.\n"
    )
    return "".join(out), checks
