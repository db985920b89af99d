"""Resistive network model and exact effective-resistance computation.

A network is a connected weighted simple graph; weights are conductances
(reciprocal resistances) kept as exact rationals throughout.  Each network
is grounded once, at vertex 0: one fraction-free inversion of the reduced
Laplacian, scaled to integers, gives an integer adjugate and determinant,
from which every base resistance and every single-fault reading follows
by the rank-one (Sherman-Morrison) update in integer arithmetic.  Within
one probe, the readings differ only by the update's correction term, so
the kernel numbers the faults that read alike (one class-id row per
probe, see `signatures.reading_classes`) from that term's reduced
integers, without forming a Fraction.  A direct oracle that rebuilds the
altered graph from scratch is kept alongside as an independent cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Union

from .linalg import fraction_free_invert


class InfiniteResistance:
    """Open-circuit reading: the fault separated the probed pair.

    All instances compare equal to each other and unequal to every finite
    value, so signature entries containing them group correctly.
    """

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, InfiniteResistance)

    def __hash__(self):
        return hash("InfiniteResistance")

    def __repr__(self):
        return "INFINITE"


INFINITE = InfiniteResistance()

Resistance = Union[Fraction, InfiniteResistance]


class FaultMode(enum.Enum):
    """How the adversary alters the chosen edge.

    REMOVED: conductance drops to 0 (the resistor is gone, resistance -> inf).
    SHORTED: conductance grows without bound (resistance -> 0, the edge is
    effectively contracted).
    """

    REMOVED = "removed"
    SHORTED = "shorted"


@dataclass(frozen=True, order=True)
class Edge:
    u: int
    v: int
    conductance: Fraction

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self loop at vertex {self.u}")
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)
        object.__setattr__(self, "conductance", Fraction(self.conductance))
        if self.conductance <= 0:
            raise ValueError(f"conductance must be positive, got {self.conductance}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True, order=True)
class Measurement:
    """Unordered probe pair; normalized so r < s."""

    r: int
    s: int

    def __post_init__(self):
        if self.r == self.s:
            raise ValueError(f"measurement endpoints must differ, got {self.r}")
        if self.r > self.s:
            r, s = self.s, self.r
            object.__setattr__(self, "r", r)
            object.__setattr__(self, "s", s)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.r, self.s)


@dataclass(frozen=True)
class Network:
    """Connected simple graph with positive rational conductances.

    Vertices are 0..n-1.  Construction validates simplicity, ranges and
    connectivity; use `from_edge_list` to merge parallel edges first.  The
    reading kernel, the edge index and the oracle's rebuilt graphs are
    built on first use and kept on the instance.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("network needs at least one vertex")
        seen = set()
        for e in self.edges:
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise ValueError(f"edge {e.pair} out of range for n={self.n}")
            if e.pair in seen:
                raise ValueError(f"duplicate edge {e.pair}; merge parallel edges first")
            seen.add(e.pair)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        if len(_components(self.n, [e.pair for e in self.edges])) > 1:
            raise ValueError("network must be connected")

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int, object]]) -> "Network":
        """Build a network, merging parallel edges by summing conductances."""
        merged: dict[tuple[int, int], Fraction] = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            key = (min(u, v), max(u, v))
            merged[key] = merged.get(key, Fraction(0)) + Fraction(w)
        return cls(n, tuple(Edge(u, v, w) for (u, v), w in merged.items()))

    @cached_property
    def _reading_kernel(self) -> "_ReadingKernel":
        """One grounding of the network (one inversion); see `_ReadingKernel`."""
        return _ReadingKernel(self)

    @cached_property
    def _edge_positions(self) -> dict[tuple[int, int], int]:
        """Edge pair -> position in `edges`."""
        return {e.pair: j for j, e in enumerate(self.edges)}

    @cached_property
    def _oracle_views(self) -> dict:
        """(fault mode, fault pair) -> the rebuilt graph the oracle reads."""
        return {}

    def edge_between(self, u: int, v: int) -> Edge:
        j = self._edge_positions.get((min(u, v), max(u, v)))
        if j is None:
            raise KeyError(f"no edge between {u} and {v}")
        return self.edges[j]

    def measurements(self) -> list[Measurement]:
        """All unordered vertex pairs: the default probe universe."""
        return [Measurement(r, s) for r in range(self.n) for s in range(r + 1, self.n)]


def _components(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 with these edges.

    Each component is ascending, and they come in order of lowest vertex.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [start]
        while stack:
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        components.append(sorted(comp))
    return components


class _ReadingKernel:
    """One grounding of a network, shared by every probe and every fault.

    Vertex 0 is the ground.  With c the lcm of the conductance
    denominators, c L is an integer matrix (L the reduced Laplacian), and
    its fraction-free inversion gives integers P, D with L^-1 = c P / D;
    P is padded with a zero row and column at the ground, so it indexes
    vertices directly.  For a probe x = e_r - e_s the base resistance is
    R = c base / D, with base = x^T P x.  A fault on edge (a, b) of conductance p/q
    drives that conductance to infinity (shorted) or to 0 (removed): a
    rank-one change to the Laplacian along v = e_a - e_b.  With the
    integers X = v^T P x and Z = v^T P v, the Sherman-Morrison formula
    gives, in both modes,

        R' = c (base den - k X^2) / (D den)

    with per-edge integers (k, den) fixed by the mode when the kernel is
    built (`terms`):

        shorted:  k = 1,      den = Z
        removed:  k = -p c,   den = q D - p c Z

    den is 0 only for a removed bridge (its effective resistance equals
    its own resistance).  Removing a bridge leaves R when X = 0 (no probe
    current crosses it: both probe ends lie on one side) and separates
    the pair otherwise.
    """

    __slots__ = ("p", "det", "scale", "terms")

    def __init__(self, net: Network):
        scale = lcm(*(e.conductance.denominator for e in net.edges))
        lap = [[0] * (net.n - 1) for _ in range(net.n - 1)]
        for e in net.edges:
            w = e.conductance.numerator * (scale // e.conductance.denominator)
            a, b = e.u - 1, e.v - 1  # reduced indices; a = -1 is the ground
            lap[b][b] += w
            if a >= 0:
                lap[a][a] += w
                lap[a][b] -= w
                lap[b][a] -= w
        adj, det = fraction_free_invert(lap)
        p = [[0] * net.n] + [[0] + row for row in adj]
        self.p, self.det, self.scale = p, det, scale
        shorted, removed = [], []
        for e in net.edges:
            a, b, w = e.u, e.v, e.conductance
            z = p[a][a] + p[b][b] - 2 * p[a][b]
            pc = w.numerator * scale
            shorted.append((a, b, 1, z))
            removed.append((a, b, -pc, w.denominator * det - pc * z))
        # Per mode, per edge: (a, b, k, den).
        self.terms = {FaultMode.SHORTED: tuple(shorted), FaultMode.REMOVED: tuple(removed)}

    def base(self, r: int, s: int) -> int:
        """x^T P x for the probe (r, s): R = c * base / D."""
        p = self.p
        return p[r][r] + p[s][s] - 2 * p[r][s]

    def classes(self, r: int, s: int, mode: FaultMode, no_fault: bool) -> list[int]:
        """The probe's class-id row: equal ids exactly when the readings are equal.

        The columns are the edges in order, then, with `no_fault`, the
        healthy network.  The base value, c and D are common to the row, so
        each fault is keyed by its correction term (k X^2, den) reduced to
        lowest terms (den >= 0); (0, 1) when X = 0, which is the healthy
        network's key, and INFINITE when den = 0 and X != 0 (a bridge that
        separates the probe pair).  Ids are numbered from 0 in column order.
        """
        d = [x - y for x, y in zip(self.p[r], self.p[s])]
        no_change = (0, 1)
        ids: dict = {}
        out: list[int] = []
        append = out.append
        for a, b, k, den in self.terms[mode]:
            x = d[a] - d[b]
            if not x:
                key = no_change
            elif not den:
                key = INFINITE
            else:
                x *= k * x
                g = gcd(x, den)
                key = (x // g, den // g)
            append(ids.setdefault(key, len(ids)))
        if no_fault:
            append(ids.setdefault(no_change, len(ids)))
        return out

    def reading(self, r: int, s: int, j: int, mode: FaultMode) -> Resistance:
        """Faulted resistance of the probe (r, s) when edge j is faulted."""
        p, c, det = self.p, self.scale, self.det
        a, b, k, den = self.terms[mode][j]
        x = p[r][a] - p[r][b] - p[s][a] + p[s][b]
        base = self.base(r, s)
        if not den:
            return INFINITE if x else Fraction(c * base, det)
        return Fraction(c * (base * den - k * x * x), det * den)


def _check_measurement(net: Network, m: Measurement):
    if m.s >= net.n or m.r < 0:
        raise ValueError(f"measurement {m.pair} out of range for n={net.n}")


def _fault_index(net: Network, fault: Edge) -> int:
    j = net._edge_positions.get(fault.pair)
    if j is None or net.edges[j] != fault:
        raise ValueError(f"fault edge {fault.pair} is not in the network")
    return j


def effective_resistance(net: Network, m: Measurement) -> Fraction:
    """Effective resistance between the probe pair (exact)."""
    _check_measurement(net, m)
    kernel = net._reading_kernel
    return Fraction(kernel.scale * kernel.base(m.r, m.s), kernel.det)


def perturbed_effective_resistance(
    net: Network, m: Measurement, fault: Edge, mode: FaultMode
) -> Resistance:
    """Effective resistance after the fault alters one edge.

    Evaluates the rank-one (Sherman-Morrison) update on the network's one
    grounding; see `_ReadingKernel` for the formula.  A removed bridge
    reads INFINITE when it separates the probe pair and the unaltered
    value otherwise, straight from the formula's integers.
    """
    j = _fault_index(net, fault)
    _check_measurement(net, m)
    return net._reading_kernel.reading(m.r, m.s, j, mode)


def _deleted_edge_view(net: Network, fault: Edge):
    """Edge-deleted graph, split into relabeled connected components.

    Returns (component id per vertex, local index per vertex, component
    subnetworks).
    """
    kept = [e for e in net.edges if e != fault]
    components = _components(net.n, [e.pair for e in kept])
    comp_id = [0] * net.n
    locals_ = [0] * net.n
    for cid, comp in enumerate(components):
        for local, v in enumerate(comp):
            comp_id[v], locals_[v] = cid, local
    edges: list[list] = [[] for _ in components]
    for e in kept:
        edges[comp_id[e.u]].append((locals_[e.u], locals_[e.v], e.conductance))
    networks = (Network.from_edge_list(len(c), es) for c, es in zip(components, edges))
    return (tuple(comp_id), tuple(locals_), tuple(networks))


def _contracted_view(net: Network, fault: Edge):
    """Graph with the fault edge contracted and parallels merged; plus the relabeling."""
    a, b = fault.u, fault.v

    def remap(x: int) -> int:
        if x == b:
            x = a
        return x if x < b else x - 1

    merged = Network.from_edge_list(
        net.n - 1,
        [(remap(e.u), remap(e.v), e.conductance) for e in net.edges if e != fault],
    )
    return (merged, tuple(remap(x) for x in range(net.n)))


def direct_effective_resistance_oracle(
    net: Network, m: Measurement, fault: Edge, mode: FaultMode
) -> Resistance:
    """Recompute the faulted resistance by building the altered graph.

    Removal deletes the edge (answer INFINITE if the pair is separated);
    shorting contracts it, merging parallel edges that appear.  This path
    shares no update formula with `perturbed_effective_resistance` and is
    the verification oracle for it.  The altered graph is built once per
    (mode, fault) and kept on the network.
    """
    _fault_index(net, fault)
    views = net._oracle_views
    key = (mode, fault.pair)
    if key not in views:
        build = _deleted_edge_view if mode is FaultMode.REMOVED else _contracted_view
        views[key] = build(net, fault)
    if mode is FaultMode.REMOVED:
        comp_id, locals_, networks = views[key]
        if comp_id[m.r] != comp_id[m.s]:
            return INFINITE
        sub = networks[comp_id[m.r]]
        return effective_resistance(sub, Measurement(locals_[m.r], locals_[m.s]))
    merged, remap = views[key]
    rr, ss = remap[m.r], remap[m.s]
    if rr == ss:
        return Fraction(0)
    return effective_resistance(merged, Measurement(rr, ss))
