"""Which faults a set of probes can tell apart.

Each probe (measurement) assigns every candidate fault edge an exact
resistance reading; stacking probes gives each edge a column of readings.
A probe set solves the detection problem precisely when all columns are
distinct.  When the "nothing is broken" outcome must be told apart too,
the healthy network is one more column, holding each probe's unaltered
reading.  `reading_classes` turns the exact readings (rationals, or the
INFINITE open-circuit sentinel; no tolerance anywhere) into small integer
class ids without building a Fraction, and every question here groups
the columns of that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .network import Edge, FaultMode, Measurement, Network, _check_measurement


@dataclass(frozen=True)
class EquivalenceClasses:
    """Partition of the edge set by exact equality of one probe's readings."""

    measurement: Measurement
    classes: tuple[tuple[Edge, ...], ...]


def reading_classes(
    net: Network, measurements: Sequence[Measurement], mode: FaultMode, no_fault: bool = False
) -> list[list[int]]:
    """Per probe, each column's class id: equal ids exactly when the readings are equal.

    The columns are the edges in edge order, then, with `no_fault`, the
    healthy network, which reads alike with exactly the faults that leave
    the reading unaltered.  Ids are numbered from 0 in column order within
    each row, so every id of a row is below the column count.  No probes
    give no rows.
    """
    table = []
    for m in measurements:
        _check_measurement(net, m)
        table.append(net._reading_kernel.classes(m.r, m.s, mode, no_fault))
    return table


def _column_groups(table: Sequence[Sequence[int]], column_count: int) -> list[list[int]]:
    """Columns whose class ids agree in every row, grouped in order of first column.

    With no rows every column reads alike, so they form one group.
    """
    groups: dict[tuple, list[int]] = {}
    for j, column in enumerate(zip(*table) if table else [()] * column_count):
        groups.setdefault(column, []).append(j)
    return list(groups.values())


def merged_pairs(
    columns: Sequence[Edge | None], table: Sequence[Sequence[int]]
) -> list[tuple[Edge, Edge | None]]:
    """Column pairs whose class ids agree in every row of `table`, in column order.

    `columns` names the table's columns: the edges, then None for the
    healthy network when it is one.  An empty table merges every pair.
    """
    pairs = sorted(
        (group[x], group[y])
        for group in _column_groups(table, len(columns))
        for x in range(len(group))
        for y in range(x + 1, len(group))
    )
    return [(columns[i], columns[j]) for i, j in pairs]


def equivalence_classes(net: Network, m: Measurement, mode: FaultMode) -> EquivalenceClasses:
    """Group edges that one probe cannot tell apart (identical exact readings)."""
    groups = _column_groups(reading_classes(net, [m], mode), len(net.edges))
    return EquivalenceClasses(m, tuple(tuple(net.edges[j] for j in g) for g in groups))


def is_distinguishing(
    net: Network, measurements: Sequence[Measurement], mode: FaultMode
) -> bool:
    """True iff all fault columns of the signature matrix are pairwise distinct."""
    return not undistinguished_pairs(net, measurements, mode)


def undistinguished_pairs(
    net: Network, measurements: Sequence[Measurement], mode: FaultMode
) -> list[tuple[Edge, Edge]]:
    """All edge pairs left with identical columns; empty iff distinguishing."""
    return merged_pairs(net.edges, reading_classes(net, measurements, mode))
