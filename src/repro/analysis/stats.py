"""Result formatting for benchmark output."""

from __future__ import annotations

from typing import Iterable

__all__ = ["format_table"]


def format_table(headers: list[str], rows: Iterable[Iterable]) -> str:
    """Plain-text table for benchmark output (the paper-figure rows)."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)
