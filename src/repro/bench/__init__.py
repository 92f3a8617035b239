"""Benchmark-harness utilities shared by the ``benchmarks/`` suite.

Each experiment bench (one per paper table/figure, see ``DESIGN.md``)
uses these helpers to print the same rows/series the paper reports, so
running ``pytest benchmarks/ --benchmark-only`` regenerates the whole
evaluation section in text form.
"""

from repro.bench.reporting import (
    Table,
    format_seconds,
    update_bench_json,
)

__all__ = [
    "Table",
    "format_seconds",
    "update_bench_json",
]
