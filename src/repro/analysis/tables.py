"""Plain-text table rendering for experiment output.

Every experiment produces a :class:`Table` — the same rows/series the
paper's figure or table reports — which renders to aligned ASCII for
the terminal and to CSV for downstream plotting.
"""

from __future__ import annotations

import dataclasses
import io
from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


@dataclasses.dataclass
class Table:
    """A titled grid of results."""

    title: str
    headers: List[str]
    rows: List[List[Cell]] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)
    #: How the results were produced (e.g. which replay engine ran each
    #: policy).  Reported in experiment manifests; never rendered, so
    #: text and CSV output do not depend on it.
    provenance: Dict[str, object] = dataclasses.field(default_factory=dict)

    def add_row(self, *cells: Cell) -> None:
        self.rows.append(list(cells))

    def column(self, name: str) -> List[Cell]:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def render(self, float_format: str = "{:.3f}") -> str:
        return format_table(self, float_format=float_format)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(self.headers) + "\n")
        for row in self.rows:
            out.write(",".join(_csv_cell(cell) for cell in row) + "\n")
        return out.getvalue()


def _format_cell(cell: Cell, float_format: str) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return float_format.format(cell)
    return str(cell)


def _csv_cell(cell: Cell) -> str:
    if cell is None:
        return ""
    text = str(cell)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def format_table(table: Table, float_format: str = "{:.3f}") -> str:
    """Render a :class:`Table` as aligned monospaced text."""
    grid = [table.headers] + [
        [_format_cell(cell, float_format) for cell in row] for row in table.rows
    ]
    widths = [
        max(len(str(grid_row[col])) for grid_row in grid)
        for col in range(len(table.headers))
    ]
    lines = [table.title, "=" * max(len(table.title), 1)]
    header = "  ".join(
        str(cell).ljust(width) for cell, width in zip(grid[0], widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in grid[1:]:
        lines.append(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        )
    for note in table.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def mean(values: Sequence[float]) -> Optional[float]:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None
