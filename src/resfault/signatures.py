"""Signature matrices: which faults a set of probes can tell apart.

Each probe (measurement) assigns every candidate fault edge an exact
resistance reading; stacking probes gives each edge a column of readings.
A probe set solves the detection problem precisely when all columns are
distinct.  Everything here compares exact rationals (or the INFINITE
open-circuit sentinel) -- no tolerances anywhere.  Questions about which
faults a probe set separates are answered on `reading_classes`, small
integer class ids keyed on the exact readings, so they never build a
Fraction; `build_signature` forms the readings themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .network import (
    Edge,
    FaultMode,
    Measurement,
    Network,
    Resistance,
    effective_resistance,
    perturbed_effective_resistance,
    reading_keys,
)


class UndetectableFaultError(ValueError):
    """No available probe can tell the named fault from a healthy network."""

    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(
            f"no candidate measurement distinguishes fault {edge.pair} from the "
            "unaltered network"
        )


@dataclass(frozen=True)
class SignatureMatrix:
    """Probe-by-edge table of faulted resistance readings for one fault mode."""

    measurements: tuple[Measurement, ...]
    edges: tuple[Edge, ...]
    mode: FaultMode
    entries: tuple[tuple[Resistance, ...], ...]  # rows follow measurements

    def entry(self, m_index: int, e_index: int) -> Resistance:
        return self.entries[m_index][e_index]

    def column(self, e_index: int) -> tuple[Resistance, ...]:
        return tuple(row[e_index] for row in self.entries)

    def columns(self) -> list[tuple[Resistance, ...]]:
        return [self.column(j) for j in range(len(self.edges))]


@dataclass(frozen=True)
class EquivalenceClasses:
    """Partition of the edge set by exact equality of one probe's readings."""

    measurement: Measurement
    classes: tuple[tuple[Edge, ...], ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)


def build_signature(
    net: Network, measurements: Sequence[Measurement], mode: FaultMode
) -> SignatureMatrix:
    """Evaluate every (probe, fault) reading; ordering is deterministic."""
    ms = tuple(measurements)
    if not ms:
        raise ValueError("need at least one measurement")
    rows = tuple(
        tuple(perturbed_effective_resistance(net, m, e, mode) for e in net.edges)
        for m in ms
    )
    return SignatureMatrix(ms, net.edges, mode, rows)


def reading_classes(
    net: Network, measurements: Sequence[Measurement], mode: FaultMode
) -> list[list[int]]:
    """Per probe, each edge's class id: equal ids exactly when the readings are equal.

    Ids are numbered from 0 in edge order within each row, so every id of
    a row is below the edge count.
    """
    ms = tuple(measurements)
    if not ms:
        raise ValueError("need at least one measurement")
    table = []
    for m in ms:
        ids: dict = {}
        table.append([ids.setdefault(key, len(ids)) for key in reading_keys(net, m, mode)])
    return table


def merged_pairs(
    edges: Sequence[Edge], table: Sequence[Sequence[int]]
) -> list[tuple[Edge, Edge]]:
    """Edge pairs whose class ids agree in every row of `table`, in edge order."""
    by_column: dict[tuple, list[int]] = {}
    for j, column in enumerate(zip(*table)):
        by_column.setdefault(column, []).append(j)
    pairs = [
        (edges[group[x]], edges[group[y]])
        for group in by_column.values()
        for x in range(len(group))
        for y in range(x + 1, len(group))
    ]
    pairs.sort()
    return pairs


def equivalence_classes(net: Network, m: Measurement, mode: FaultMode) -> EquivalenceClasses:
    """Group edges that one probe cannot tell apart (identical exact readings)."""
    groups: dict[object, list[Edge]] = {}
    for e, key in zip(net.edges, reading_keys(net, m, mode)):
        groups.setdefault(key, []).append(e)
    classes = tuple(tuple(g) for g in sorted(groups.values(), key=lambda g: g[0]))
    return EquivalenceClasses(m, classes)


def is_distinguishing(
    net: Network, measurements: Sequence[Measurement], mode: FaultMode
) -> bool:
    """True iff all fault columns of the signature matrix are pairwise distinct."""
    columns = list(zip(*reading_classes(net, measurements, mode)))
    return len(set(columns)) == len(columns)


def undistinguished_pairs(
    net: Network, measurements: Sequence[Measurement], mode: FaultMode
) -> list[tuple[Edge, Edge]]:
    """All edge pairs left with identical columns; empty iff distinguishing."""
    return merged_pairs(net.edges, reading_classes(net, measurements, mode))


def extend_for_no_fault(
    net: Network,
    measurements: Sequence[Measurement],
    mode: FaultMode,
    candidates: Iterable[Measurement] | None = None,
) -> list[Measurement]:
    """Grow a distinguishing set so it also detects "nothing is broken".

    If some edge's fault column coincides with the healthy-network column
    (there can be at most one such edge, because the columns are already
    pairwise distinct), append one candidate probe that separates them.
    Raises UndetectableFaultError when no candidate does, which can only
    happen with a restricted candidate pool: probing the suspect edge's
    own endpoints always sees the fault.
    """
    ms = list(measurements)
    sig = build_signature(net, ms, mode)
    cols = sig.columns()
    if len(set(cols)) != len(cols):
        raise ValueError("measurement set must be distinguishing before extension")
    baseline = tuple(effective_resistance(net, m) for m in ms)
    colliding = [sig.edges[j] for j, col in enumerate(cols) if col == baseline]
    if not colliding:
        return ms
    (edge,) = colliding
    pool = list(candidates) if candidates is not None else net.measurements()
    chosen = set(ms)
    for cand in pool:
        if cand in chosen:
            continue
        if perturbed_effective_resistance(net, cand, edge, mode) != effective_resistance(
            net, cand
        ):
            return ms + [cand]
    raise UndetectableFaultError(edge)
