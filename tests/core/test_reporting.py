"""Tests for the benchmark reporting helpers."""

import json

import pytest

from repro.bench.reporting import (
    Table,
    format_seconds,
    update_bench_json,
)


class TestTable:
    def test_render_alignment(self):
        table = Table("demo", ["name", "value"])
        table.add_row(["alpha", 1])
        table.add_row(["b", 22])
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "== demo =="
        assert "name" in lines[1] and "value" in lines[1]
        # All data rows share the header's width.
        assert len(lines[3]) == len(lines[1])
        assert len(lines[4]) == len(lines[1])

    def test_float_formatting(self):
        table = Table("t", ["v"])
        table.add_row([0.12345678])
        table.add_row([1234.5678])
        table.add_row([1.5e-7])
        table.add_row([0])
        rendered = table.render()
        assert "0.1235" in rendered      # 4 decimal places mid-range
        assert "1234.6" in rendered      # 1 decimal for large
        assert "1.50e-07" in rendered    # scientific for tiny
        assert "\n" in rendered

    def test_row_width_mismatch_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_empty_table_renders_header(self):
        rendered = Table("empty", ["col"]).render()
        assert "col" in rendered

    def test_print_outputs(self, capsys):
        table = Table("p", ["x"])
        table.add_row([1])
        table.print()
        out = capsys.readouterr().out
        assert "== p ==" in out

    def test_bool_cells(self):
        table = Table("t", ["flag"])
        table.add_row([True])
        assert "True" in table.render()


class TestFormatters:
    def test_format_seconds_scales(self):
        assert format_seconds(5e-7) == "0.5us"
        assert format_seconds(2e-3) == "2.0ms"
        assert format_seconds(1.25) == "1.25s"


class TestBenchJson:
    def test_update_keeps_other_benches(self, tmp_path):
        """Two experiments sharing one trajectory file must not clobber
        each other (e23 and e24 both report into BENCH_serving.json)."""
        path = str(tmp_path / "bench.json")
        update_bench_json(path, "e23", {"speedup": 2.9})
        update_bench_json(path, "e24", {"speedup": 3.5})
        update_bench_json(path, "e23", {"speedup": 3.0})  # re-run replaces
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert set(doc["benches"]) == {"e23", "e24"}
        assert doc["benches"]["e23"]["metrics"]["speedup"] == 3.0
        assert doc["benches"]["e24"]["metrics"]["speedup"] == 3.5
