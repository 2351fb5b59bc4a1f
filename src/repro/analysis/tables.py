"""Plain-text table rendering for experiment reports.

Every experiment driver prints its results in the same row/column layout
as the corresponding table of the paper; this module holds the shared
formatting (fixed-point hit ratios rendered like the paper's ``.39``,
dashes for absent operations, aligned columns).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_ratio", "format_table"]


def format_ratio(value: Optional[float], digits: int = 2) -> str:
    """Render a ratio the way the paper does: ``.39``, ``-`` when absent."""
    if value is None:
        return "-"
    if value != value:  # NaN
        return "-"
    text = f"{value:.{digits}f}"
    if text.startswith("0."):
        return text[1:]
    if text.startswith("-0."):
        return "-" + text[2:]
    return text


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(cells)
        ).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    parts.extend(line(row) for row in materialized)
    return "\n".join(parts)
