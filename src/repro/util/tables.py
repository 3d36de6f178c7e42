"""Plain-text rendering of experiment tables and series.

The experiment reports print the same rows/series the paper's figures show;
these helpers keep that output aligned and copy-paste friendly.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def _format_cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
    title: str = "",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    str_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(
    series: Mapping[str, Sequence[float]],
    x_label: str = "x",
    x_values: Sequence[object] = (),
    precision: int = 3,
    title: str = "",
) -> str:
    """Render named numeric series side by side (one row per x value)."""
    names = list(series)
    if not names:
        return title
    length = len(series[names[0]])
    for name in names:
        if len(series[name]) != length:
            raise ValueError(f"series {name!r} has length {len(series[name])}, expected {length}")
    xs = list(x_values) if x_values else list(range(length))
    if len(xs) != length:
        raise ValueError(f"x_values has length {len(xs)}, expected {length}")
    rows = [[xs[i]] + [series[name][i] for name in names] for i in range(length)]
    return render_table([x_label] + names, rows, precision=precision, title=title)
