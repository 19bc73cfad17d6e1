"""Tabular reporting helpers for the benchmark harness.

Formats the aligned-column tables of the CLI and the benchmark logs
(the Table I and II reproductions among them).
"""

from __future__ import annotations

__all__ = ["format_table"]


def format_table(headers, rows, *, title=None):
    """Render an aligned plain-text table.

    ``rows`` is a list of tuples; ``None`` cells render as ``--``.
    """
    cells = [[("--" if c is None else str(c)) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)

