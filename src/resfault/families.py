"""Generators for the supported graph families and their canonical labeling.

A complete k-partite shape is an ordered (nondecreasing) list of partition
sizes.  Vertices are numbered partition by partition: partition 0 holds
0..parts[0]-1, partition 1 the next block, and so on.  All table lookups,
strategies and bounds in the rest of the package assume this labeling.

The network builders make a new network on every call and keep no copy:
a network, with the reading kernel and oracle graphs it memoizes, lives
only as long as its caller holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .network import Measurement, Network


@dataclass(frozen=True)
class KPartiteShape:
    """Partition sizes of a complete k-partite graph, nondecreasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in self.parts):
            raise ValueError("partition sizes must be integers")
        if len(self.parts) < 2:
            raise ValueError("a k-partite shape needs at least two partitions")
        if any(p < 1 for p in self.parts):
            raise ValueError("partition sizes must be positive")
        if list(self.parts) != sorted(self.parts):
            raise ValueError("partition sizes must be nondecreasing")

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def partition_of(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range")
        i = 0
        while v >= self.parts[i]:  # ends within range: v < n was checked above
            v -= self.parts[i]
            i += 1
        return i

    def vertices(self, i: int) -> range:
        off = sum(self.parts[:i])
        return range(off, off + self.parts[i])

    def network(self) -> Network:
        return kpartite_network(self)


def complete_network(n: int) -> Network:
    """Unit-conductance complete graph on n vertices."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return Network.from_edge_list(
        n, [(u, v, Fraction(1)) for u in range(n) for v in range(u + 1, n)]
    )


def kpartite_network(shape: KPartiteShape) -> Network:
    """Unit-conductance complete k-partite graph in canonical labeling."""
    edges = []
    for i in range(shape.k):
        for j in range(i + 1, shape.k):
            for u in shape.vertices(i):
                for v in shape.vertices(j):
                    edges.append((u, v, Fraction(1)))
    return Network.from_edge_list(shape.n, edges)


def measurement_orbit_representatives(shape: KPartiteShape) -> list[Measurement]:
    """One probe pair per orbit of the automorphism group.

    Vertices within a partition are interchangeable, and whole partitions
    of equal size are interchangeable, so pair orbits are classified by
    the (multiset of) partition sizes they touch.  Kept only for
    perfbench/workloads.py, which still seeds exact solves with it.
    """
    reps: list[Measurement] = []
    seen: set[tuple] = set()
    for i in range(shape.k):
        for j in range(i, shape.k):
            if i == j:
                if shape.parts[i] < 2:
                    continue
                key = ("same", shape.parts[i])
                verts = list(shape.vertices(i))
                m = Measurement(verts[0], verts[1])
            else:
                key = ("cross", tuple(sorted((shape.parts[i], shape.parts[j]))))
                m = Measurement(shape.vertices(i)[0], shape.vertices(j)[0])
            if key not in seen:
                seen.add(key)
                reps.append(m)
    return reps


def complete_orbit_representatives(n: int) -> list[Measurement]:
    """The complete graph is pair-transitive: a single representative (perfbench only)."""
    return [Measurement(0, 1)]
