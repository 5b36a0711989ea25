"""Plain-text table rendering for the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional


@dataclass
class TableResult:
    """One regenerated table: title, headers, rows, footnotes."""

    table_id: str  # e.g. "Table 4"
    title: str
    headers: List[str]
    rows: List[List[Any]]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        cells = [self.headers] + [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(row[i])) for row in cells) for i in range(len(self.headers))
        ]
        lines = [f"{self.table_id}: {self.title}"]
        lines.append(
            "  " + " | ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  " + "-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  "
                + " | ".join(
                    _fmt(v).ljust(w) for v, w in zip(row, widths)
                )
            )
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def row_for(self, key: str) -> Optional[List[Any]]:
        for row in self.rows:
            if str(row[0]) == key:
                return row
        return None

    def column(self, header: str) -> List[Any]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    return str(value)


def check_mark(flag: bool) -> str:
    return "X" if flag else "-"
