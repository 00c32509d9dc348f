"""Experiment harness: one module per paper figure, plus ablations.

Each module's ``run()`` returns a :class:`~repro.bench.harness.FigureResult`
that renders the same rows/series the paper reports;
``examples/scaling_study.py`` prints every table and
``tests/test_bench_figures.py`` holds each to the paper's shape.
"""

from repro.bench.harness import FigureResult, fmt_seconds
from repro.bench import ablations, fig6, fig7, fig8, fig9, fig10, fig11

__all__ = [
    "FigureResult",
    "fmt_seconds",
    "ablations",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
]
