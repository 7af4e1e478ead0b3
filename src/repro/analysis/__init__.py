"""Post-processing: CDFs, gap measurements, overheads, text reports."""

from repro.analysis.cdf import Cdf
from repro.analysis.gaps import GapSample, GapTracker
from repro.analysis.overhead import MemoryOverheadSeries
from repro.analysis.report import format_table, render_series

__all__ = [
    "Cdf",
    "GapSample",
    "GapTracker",
    "MemoryOverheadSeries",
    "format_table",
    "render_series",
]
