"""Tiny ASCII chart helper for terminal output.

The original WebUI rendered link-load and element-load graphs in
Flash; the examples render the same series as horizontal bar charts so
a deployment can be eyeballed from a terminal.
"""

from __future__ import annotations

from typing import Dict


def bar_chart(
    data: Dict[str, float],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal bars, one per labelled value.

    >>> print(bar_chart({"a": 2.0, "b": 1.0}, width=4))
    a  ████ 2
    b  ██   1
    """
    if not data:
        return ""
    top = max(data.values()) or 1.0
    label_width = max(len(label) for label in data)
    lines = []
    for label, value in data.items():
        filled = round(max(value, 0.0) / top * width)
        bar = ("█" * filled).ljust(width)
        rendered = f"{value:g}{unit}"
        lines.append(f"{label.ljust(label_width)}  {bar} {rendered}")
    return "\n".join(lines)
