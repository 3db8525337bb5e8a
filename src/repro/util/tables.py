"""ASCII table rendering for experiment reports.

The benchmark harness prints the same rows the paper's tables/figures
report; this module renders them in aligned monospace columns.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def _cell(value: object, spec: str | None) -> str:
    if spec is not None and isinstance(value, (int, float)) and not isinstance(value, bool):
        return format(value, spec)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    float_format: str = ".3f",
) -> str:
    """Render rows as an aligned ASCII table.

    Parameters
    ----------
    headers:
        Column titles.
    rows:
        Row values; floats are formatted with ``float_format``.
    title:
        Optional title line printed above the table.
    float_format:
        Format spec applied to float cells (ints print as-is).
    """
    rendered_rows = []
    for row in rows:
        rendered = []
        for value in row:
            if isinstance(value, float):
                rendered.append(_cell(value, float_format))
            else:
                rendered.append(_cell(value, None))
        rendered_rows.append(rendered)

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    separator = "  ".join("-" * w for w in widths)
    parts = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append(separator)
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def percent(fraction: float) -> float:
    """``fraction`` as a percentage: a :func:`format_columns` conversion."""
    return fraction * 100.0


def format_columns(
    rows: Sequence[Mapping],
    columns: Mapping[str, str | tuple],
    *,
    title: str,
    float_format: str = ".3f",
) -> str:
    """Render summary-row mappings as an aligned ASCII table.

    ``columns`` maps each header to the row key its cells show, or to
    ``(key, convert)`` for cells that show ``convert(row[key])``.
    """
    cells = [
        [
            row[spec] if isinstance(spec, str) else spec[1](row[spec[0]])
            for spec in columns.values()
        ]
        for row in rows
    ]
    return format_table(list(columns), cells, title=title, float_format=float_format)
