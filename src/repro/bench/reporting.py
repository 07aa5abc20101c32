"""Plain-text rendering for experiment reports.

The paper's artifacts are one figure (an efficiency-vs-parameter plot) and
one table; these helpers render both as terminal text: aligned tables and a
coarse ASCII chart for the figure, so ``python -m repro figure6``
shows the same story as the paper's plot without any plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "ascii_chart"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned plain-text table.

    Floats are shown with 3 decimals; everything else via ``str``.
    """
    def cell(v: object) -> str:
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
        for i, s in enumerate(row):
            widths[i] = max(widths[i], len(s))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(s.rjust(widths[i]) for i, s in enumerate(cells))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def ascii_chart(
    series: dict[str, list[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
    y_max: float | None = None,
) -> str:
    """A coarse ASCII scatter chart of one or more ``(x, y)`` series.

    Each series gets a marker character (``o``, ``*``, ``+``, ``x``...);
    collisions show the later series' marker.  ``y`` starts at 0 so
    efficiency plots read like the paper's Figure 6.
    """
    markers = "o*+x#@"
    points = [(k, pts) for k, pts in series.items() if pts]
    if not points:
        return "(no data)"
    xs = [x for _, pts in points for x, _ in pts]
    ys = [y for _, pts in points for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_hi = y_max if y_max is not None else max(ys) * 1.1
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= 0:
        y_hi = 1.0

    grid = [[" "] * width for _ in range(height)]
    for s_idx, (_, pts) in enumerate(points):
        mark = markers[s_idx % len(markers)]
        for x, y in pts:
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int(min(max(y, 0.0), y_hi) / y_hi * (height - 1))
            grid[height - 1 - row][col] = mark

    lines = []
    for r, row_cells in enumerate(grid):
        y_val = y_hi * (height - 1 - r) / (height - 1)
        lines.append(f"{y_val:6.2f} |" + "".join(row_cells))
    lines.append(" " * 7 + "+" + "-" * width)
    lines.append(
        " " * 8 + f"{x_lo:<.0f}".ljust(width - 8) + f"{x_hi:>.0f}  ({x_label})"
    )
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {name}"
        for i, (name, _) in enumerate(points)
    )
    lines.append(f"  {y_label};  {legend}")
    return "\n".join(lines)
