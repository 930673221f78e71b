"""Plain-text rendering of benchmark results.

The benchmark scripts print the rows they measure in a fixed-width table that
is easy to diff.
"""

from __future__ import annotations

from typing import Any, Sequence


def _render_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render a fixed-width table with a header rule."""
    rendered_rows = [[_render_cell(value) for value in row] for row in rows]
    rendered_headers = [str(header) for header in headers]
    widths = [len(header) for header in rendered_headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(rendered_headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)
