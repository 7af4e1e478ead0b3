"""The one result shape every experiment returns: a table of rows.

An experiment is a list of ``(row key, ReplaySpec)`` pairs run through
one :func:`~repro.experiments.parallel.run_rows` call, plus the columns
it shows, declared as ``(header, row -> cell text)`` pairs.  A row is
one replay's :class:`~repro.simulation.metrics.ReplayMetrics`, or, when
several specs share a key, the tuple of their records in spec order
(a grid row holds one record per column).  :class:`ResultTable` renders
the rows and answers the row/cell/column-mean lookups benches and tests
make, so no experiment carries its own result class.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterable

from repro.analysis.report import format_table, render_failure_block

#: A declared column: its header and the function that renders one row.
Column = tuple[str, Callable[[Any], object]]

#: A number read off one record (or one row).
Metric = Callable[[Any], float]

#: Attack-window failure rates, the currency of the attack experiments.
SR = attrgetter("sr_attack_failure_rate")
CS = attrgetter("cs_attack_failure_rate")


def percent(metric: Metric, digits: int = 2) -> Callable[[Any], str]:
    """Cell text ``'12.34 %'`` for a fractional metric."""
    return lambda row: f"{metric(row) * 100:.{digits}f} %"


def grid_columns(
    headers: Iterable[str], text: Callable[[Any], object]
) -> tuple[Column, ...]:
    """Columns of a grid row: column ``i`` shows ``text(row[i])``."""
    return tuple(
        (header, lambda row, index=index: text(row[index]))
        for index, header in enumerate(headers)
    )


#: The two panels of Figures 4-11: SR failures above, CS failures below.
FAILURE_PANELS = (
    ("failed queries from stub resolvers", SR),
    ("failed queries from caching servers", CS),
)


@dataclass
class ResultTable:
    """Rows keyed by label, rendered through the declared columns.

    ``keys`` heads the key cells (a tuple row key fills several).  With
    ``panels`` set, the rows are trace grids and the table renders one
    failure block per ``(title suffix, metric)`` panel instead.
    """

    title: str
    keys: tuple[str, ...]
    columns: tuple[Column, ...]
    rows: dict[Any, Any]
    panels: tuple[tuple[str, Metric], ...] = ()

    @property
    def headers(self) -> tuple[str, ...]:
        """The column headers, key headers excluded."""
        return tuple(header for header, _ in self.columns)

    def row(self, key: Any) -> Any:
        return self.rows[key]

    def cell(self, key: Any, column: str) -> Any:
        """The record behind one grid cell."""
        if column not in self.headers:
            raise KeyError(f"no column {column!r}")
        return self.rows[key][self.headers.index(column)]

    def column_mean(self, column: str, metric: Metric) -> float:
        """Mean of ``metric`` over one grid column's cells."""
        values = [metric(self.cell(key, column)) for key in self.rows]
        if not values:
            raise KeyError(f"no data for column {column!r}")
        return sum(values) / len(values)

    def column_mean_sr(self, column: str) -> float:
        return self.column_mean(column, SR)

    def column_mean_cs(self, column: str) -> float:
        return self.column_mean(column, CS)

    def render(self) -> str:
        if self.panels:
            return "\n\n".join(
                render_failure_block(
                    f"{self.title} — {suffix}",
                    {key: dict(zip(self.headers, map(metric, cells)))
                     for key, cells in self.rows.items()},
                    self.headers,
                )
                for suffix, metric in self.panels
            )
        body = [
            (*(key if isinstance(key, tuple) else (key,)),
             *(text(row) for _, text in self.columns))
            for key, row in self.rows.items()
        ]
        return format_table((*self.keys, *self.headers), body, title=self.title)
