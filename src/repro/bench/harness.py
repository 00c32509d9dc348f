"""Shared experiment-harness utilities: result tables and formatting.

Every figure module returns a :class:`FigureResult` — named series of
(x, value) rows — which renders as the fixed-width table
``examples/scaling_study.py`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FigureResult:
    """One reproduced figure: labeled series over a shared x-axis."""

    figure: str
    title: str
    x_label: str
    x_values: list
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_series(self, name: str, values: list[float]) -> None:
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(self.x_values)} x points"
            )
        self.series[name] = list(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def table(self, precision: int = 3) -> str:
        """Render the figure as an aligned text table."""
        headers = [self.x_label] + list(self.series)
        rows: list[list[str]] = []
        for i, x in enumerate(self.x_values):
            row = [str(x)]
            for name in self.series:
                row.append(f"{self.series[name][i]:.{precision}f}")
            rows.append(row)
        widths = [
            max(len(headers[c]), *(len(row[c]) for row in rows))
            for c in range(len(headers))
        ]
        lines = [f"== {self.figure}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def fmt_seconds(value: float) -> str:
    """Human-scale duration formatting for report notes."""
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.0f}ms"
    if value < 120.0:
        return f"{value:.2f}s"
    if value < 7200.0:
        return f"{value / 60.0:.1f}min"
    return f"{value / 3600.0:.2f}h"
