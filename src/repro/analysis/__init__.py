"""Post-processing: CDFs, overheads, text reports."""

from repro.analysis.cdf import Cdf
from repro.analysis.overhead import MemoryOverheadSeries
from repro.analysis.report import format_table, render_series

__all__ = [
    "Cdf",
    "MemoryOverheadSeries",
    "format_table",
    "render_series",
]
