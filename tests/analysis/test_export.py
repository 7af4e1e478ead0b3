"""Tests for CSV export of experiment artifacts."""

import csv
from types import SimpleNamespace

from repro.analysis.cdf import Cdf
from repro.analysis.export import (
    cdf_rows,
    csv_text,
    failure_grid_rows,
    memory_series_rows,
    overhead_rows,
    write_csv,
)
from repro.analysis.overhead import MemoryOverheadSeries
from repro.experiments.table import ResultTable
from repro.simulation.metrics import MemorySample


def cell(sr, cs):
    return SimpleNamespace(sr_attack_failure_rate=sr, cs_attack_failure_rate=cs)


def make_grid():
    # TRC2's row stops short: it has no 6 h cell.
    return ResultTable("T", ("trace",), (("3 h", str), ("6 h", str)), {
        "TRC1": (cell(0.5, 0.9), cell(0.6, 0.95)),
        "TRC2": (cell(0.4, 0.85),),
    })


class TestExport:
    def test_csv_text_roundtrip(self):
        text = csv_text(("a", "b"), [(1, 2), (3, 4)])
        parsed = list(csv.reader(text.splitlines()))
        assert parsed == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("x",), [(1,), (2,)])
        assert path.read_text().splitlines() == ["x", "1", "2"]

    def test_failure_grid_rows(self):
        headers, rows = failure_grid_rows(make_grid())
        assert headers[0] == "trace"
        assert ("TRC1", "3 h", "0.500000", "0.900000") in rows
        # TRC2 has no 6 h cell: skipped, not fabricated.
        assert len(rows) == 3

    def test_cdf_rows(self):
        cdf = Cdf.from_samples([1.0, 2.0])
        headers, rows = cdf_rows(cdf, [1.0, 3.0])
        assert rows == [("1", "0.500000"), ("3", "1.000000")]

    def test_memory_series_rows(self):
        series = {
            "DNS": MemoryOverheadSeries(
                "DNS", [MemorySample(86400.0, 5, 50)]
            )
        }
        headers, rows = memory_series_rows(series)
        assert rows == [("DNS", "1.0000", 5, 50)]

    def test_overhead_rows(self):
        headers, rows = overhead_rows({"Refresh": -0.05})
        assert rows == [("Refresh", "-0.050000")]

    def test_grid_csv_is_parseable_end_to_end(self, tmp_path):
        headers, rows = failure_grid_rows(make_grid())
        path = tmp_path / "grid.csv"
        write_csv(path, headers, rows)
        with open(path) as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed[0]["trace"] == "TRC1"
        assert float(parsed[0]["sr_failure_rate"]) == 0.5
