"""Plain-text result tables for the benchmark harness output."""

from __future__ import annotations

from typing import List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table with a title line, for bench stdout.

    >>> print(format_table(["a", "b"], [[1, 2.5]], title="demo"))
    == demo ==
    a  b
    -  ---
    1  2.5
    """
    rendered: List[List[str]] = [
        [_cell(value) for value in row] for row in rows
    ]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in rendered))
        if rendered
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(f"== {title} ==")
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def format_markdown(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """The same cells as :func:`format_table`, as a GitHub table.

    >>> print(format_markdown(["a", "b"], [[1, 2.5]]))
    | a | b |
    |---|---|
    | 1 | 2.5 |
    """
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "---|" * len(headers)]
    lines.extend(
        "| " + " | ".join(_cell(value) for value in row) + " |"
        for row in rows
    )
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)
