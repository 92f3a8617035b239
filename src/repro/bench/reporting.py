"""Plain-text table rendering for benchmark output.

The benches print paper-style tables to stdout; pytest captures them
per-test, and running with ``-s`` (or reading the benchmark logs) shows
the reproduced rows next to pytest-benchmark's timing table.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, Iterable, List, Optional, Sequence


class Table:
    """A fixed-column ASCII table builder.

    Usage::

        table = Table("E3: runtime vs disclosure", ["|S|", "seconds"])
        table.add_row([0, 0.21])
        print(table.render())
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self._rows: List[List[str]] = []

    def add_row(self, values: Iterable) -> None:
        """Append one row; values are stringified with sensible float
        formatting."""
        formatted = [_format_cell(value) for value in values]
        if len(formatted) != len(self.columns):
            raise ValueError(
                f"row has {len(formatted)} cells for {len(self.columns)} columns"
            )
        self._rows.append(formatted)

    def render(self) -> str:
        """The table as a string, header underlined, columns aligned."""
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in self._rows))
            if self._rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = "  ".join(
            name.rjust(width) for name, width in zip(self.columns, widths)
        )
        lines = [f"== {self.title} ==", header, "-" * len(header)]
        for row in self._rows:
            lines.append(
                "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)

    def print(self) -> None:
        """Render to stdout with surrounding blank lines."""
        print()
        print(self.render())
        print()


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 0.01:
            return f"{value:.4f}"
        return f"{value:.2e}"
    return str(value)


def format_seconds(seconds: float) -> str:
    """Human scale: µs/ms/s."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def update_bench_json(
    path: str,
    name: str,
    metrics: Dict[str, float],
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Merge one benchmark record into a shared JSON trajectory file.

    The record carries the metric dict verbatim plus enough environment
    context (CPU count, Python version, timestamp) to interpret
    absolute numbers. The existing document is read, records are keyed
    by their ``bench`` name under a ``"benches"`` map, only this
    bench's entry is replaced, and the others are left alone (e23 and
    e24 both land in ``BENCH_serving.json``). Returns the record written
    for ``name``.
    """
    import os

    record: Dict[str, object] = {
        "bench": name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "metrics": {key: float(value) for key, value in metrics.items()},
    }
    if meta:
        record["meta"] = meta
    benches: Dict[str, object] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing, dict) and isinstance(
            existing.get("benches"), dict
        ):
            benches = existing["benches"]
    except (OSError, ValueError):
        pass  # absent or unreadable: start a fresh document
    benches[name] = record
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"benches": benches}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return record
