"""Paper-style table rendering for benchmark output."""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(
    rows: List[Dict[str, object]],
    columns: Sequence[str],
    float_format: str = "{:.2f}",
    highlight_best: Sequence[str] = (),
) -> str:
    """Render rows as an aligned text table.

    ``highlight_best`` columns get a ``*`` on their maximum value,
    mirroring the paper's bold-best convention.
    """
    best: Dict[str, float] = {}
    for col in highlight_best:
        values = [r[col] for r in rows if isinstance(r.get(col), (int, float))]
        if values:
            best[col] = max(values)

    def cell(row: Dict[str, object], col: str) -> str:
        value = row.get(col, "-")
        if isinstance(value, float):
            text = float_format.format(value)
        else:
            text = str(value)
        if col in best and isinstance(value, (int, float)) and value == best[col]:
            text += "*"
        return text

    widths = {
        col: max(len(col), *(len(cell(r, col)) for r in rows)) if rows else len(col)
        for col in columns
    }
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    sep = "-" * len(header)
    lines = [header, sep]
    for row in rows:
        lines.append("  ".join(cell(row, col).ljust(widths[col]) for col in columns))
    return "\n".join(lines)
