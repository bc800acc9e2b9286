"""Plain-text tables for benchmark reports.

No plotting library is available offline, so benchmark harnesses report their
figures as aligned text tables (plus the ASCII charts in
:mod:`repro.analysis.plotting`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_kv"]


def _format_cell(value: object, floatfmt: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return floatfmt.format(value)
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: "Sequence[str] | None" = None,
    floatfmt: str = "{:.4g}",
    title: str = "",
) -> str:
    """Render dictionaries as an aligned text table.

    Parameters
    ----------
    rows:
        One mapping per row.
    columns:
        Column order; defaults to the keys of the first row.
    floatfmt:
        Format spec applied to float cells.
    title:
        Optional heading line.
    """
    if not rows:
        return title or "(empty table)"
    column_names = list(columns) if columns else list(rows[0])
    rendered = [
        [_format_cell(row.get(column, ""), floatfmt) for column in column_names]
        for row in rows
    ]
    widths = [
        max(len(column_names[i]), max(len(row[i]) for row in rendered))
        for i in range(len(column_names))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(name.ljust(width) for name, width in zip(column_names, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_kv(mapping: Mapping[str, object], floatfmt: str = "{:.4g}") -> str:
    """Render a mapping as aligned ``key : value`` lines."""
    if not mapping:
        return "(empty)"
    width = max(len(str(key)) for key in mapping)
    return "\n".join(
        f"{str(key).ljust(width)} : {_format_cell(value, floatfmt)}"
        for key, value in mapping.items()
    )
