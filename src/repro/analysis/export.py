"""CSV export of experiment artifacts.

Every result type the experiments produce can be flattened to CSV for
external plotting (gnuplot/matplotlib/R).  The text renderings in
:mod:`repro.analysis.report` are for reading; these are for plotting.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analysis.cdf import Cdf
from repro.analysis.overhead import MemoryOverheadSeries

if TYPE_CHECKING:  # imported for annotations only: avoids a cycle with
    # repro.experiments, which imports this module for CSV export.
    from repro.experiments.table import ResultTable


def write_csv(
    path: Path | str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Write rows to ``path`` with a header line."""
    with open(path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)


def csv_text(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """The CSV as a string (for tests and stdout piping)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def failure_grid_rows(grid: "ResultTable") -> tuple[tuple[str, ...], list[tuple]]:
    """Flatten a Figures 4-11 grid :class:`~repro.experiments.table.ResultTable`.

    One row per (trace, column): trace, column, sr_rate, cs_rate.
    """
    headers = ("trace", "column", "sr_failure_rate", "cs_failure_rate")
    rows: list[tuple] = []
    for trace_name, cells in grid.rows.items():
        for column, cell in zip(grid.headers, cells):
            rows.append(
                (
                    trace_name,
                    column,
                    f"{cell.sr_attack_failure_rate:.6f}",
                    f"{cell.cs_attack_failure_rate:.6f}",
                )
            )
    return headers, rows


def cdf_rows(
    cdf: Cdf, points: Sequence[float]
) -> tuple[tuple[str, ...], list[tuple]]:
    """Flatten a CDF evaluated at ``points``."""
    headers = ("x", "cdf")
    rows = [(f"{x:g}", f"{y:.6f}") for x, y in cdf.evaluate(points)]
    return headers, rows


def memory_series_rows(
    series: dict[str, MemoryOverheadSeries]
) -> tuple[tuple[str, ...], list[tuple]]:
    """Flatten Figure 12's per-scheme occupancy time series."""
    headers = ("scheme", "time_days", "zones_cached", "records_cached")
    rows = []
    for label, entry in series.items():
        for sample in entry.samples:
            rows.append(
                (
                    label,
                    f"{sample.time / 86400.0:.4f}",
                    sample.zones_cached,
                    sample.records_cached,
                )
            )
    return headers, rows


def overhead_rows(mean_overhead: dict[str, float]) -> tuple[tuple[str, ...], list[tuple]]:
    """Flatten Table 2's per-scheme message overheads."""
    headers = ("scheme", "message_overhead")
    rows = [
        (label, f"{overhead:.6f}") for label, overhead in mean_overhead.items()
    ]
    return headers, rows
