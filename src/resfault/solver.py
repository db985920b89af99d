"""Exact and greedy solvers for the minimum distinguishing probe set.

The problem is a test cover: the universe is all unordered pairs of
candidate fault edges, and a probe "covers" the pairs it tells apart
(different exact readings).  A probe set distinguishes every fault iff
its covered pairs are the whole universe.

solve_exact runs iterative-deepening branch and bound over bitmask pair
sets: targets grow from a counting lower bound until a plan of the target
size exists, so the first plan found is provably minimum.  Branching
picks an uncovered pair with the fewest covering probes (read off masks
bucketed by coverer count) and tries each of them; subtrees are cut when
some uncovered pair has no usable coverer, or when even the best
single-probe coverage cannot finish within the target.  Once a child
fails, its probe is banned from the subtrees of its later siblings: the
failed subtree already tried every cover that contains it.  For
vertex-transitive families the caller can supply first-probe orbit
representatives, which shrinks the root fanout to the number of probe
types; a failed root is banned from the later roots the same way.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from math import ceil
from operator import itemgetter
from typing import Sequence

from .families import KPartiteShape
from .network import Edge, FaultMode, Measurement, Network
from .signatures import merged_pairs, reading_classes
from .strategies import MeasurementPlan


@dataclass(frozen=True)
class ExactSolution:
    plan: MeasurementPlan
    optimal: bool = True


@dataclass(frozen=True)
class Infeasible:
    """Even the full candidate pool cannot separate these edge pairs."""

    witness_pairs: tuple[tuple[Edge, Edge], ...]


@dataclass(frozen=True)
class TimedOut:
    """Search budget exhausted: best known plan and the size proven necessary.

    `lower_bound` is the smallest target not yet refuted: the search
    proved that no plan of fewer probes exists.
    """

    incumbent: MeasurementPlan | None
    lower_bound: int


class _Deadline(Exception):
    pass


class _CoverInstance:
    """Bitmask view of the test-cover problem, built from a class-id table.

    Pair (i, j) of edges, i < j, is one bit; the pairs of edge i fill one
    segment of ne-i-1 bits, bit j-i-1 of it, and segments follow edge
    order from bit 0.  A candidate's mask holds the pairs its row
    separates (different class ids): segment i is the set of edges outside
    row[i]'s class shifted right by i+1, and a row's segments are joined
    in one binary-string conversion, so no loop runs per pair.

    `buckets` partitions the pairs by how many candidates cover them, in
    ascending count order; the counts are summed bit-sliced (a carry-save
    adder over the masks, one bit plane per binary digit of the count).
    """

    def __init__(self, table: Sequence[Sequence[int]], edge_count: int):
        ne = edge_count
        self.pair_count = ne * (ne - 1) // 2
        self.full = (1 << self.pair_count) - 1
        every = (1 << ne) - 1
        self.masks: list[int] = []
        for row in table:
            members: dict[int, int] = {}
            for e, cid in enumerate(row):
                members[cid] = members.get(cid, 0) | 1 << e
            segments = [
                format((every ^ members[row[i]]) >> (i + 1), f"0{ne - i - 1}b")
                for i in range(ne - 2, -1, -1)
            ]
            self.masks.append(int("".join(segments) or "0", 2))
        planes: list[int] = []  # planes[k]: pairs whose coverer count has bit k set
        for carry in self.masks:
            for k, plane in enumerate(planes):
                if not carry:
                    break
                planes[k], carry = plane ^ carry, plane & carry
            if carry:
                planes.append(carry)
        self.buckets = [self.full] if self.full else []
        for plane in reversed(planes):
            self.buckets = [part for b in self.buckets for part in (b & ~plane, b & plane) if part]
        self.coverers_of: dict[int, list[int]] = {}  # filled per pivot on first use

    def pivot(self, missing: int) -> int:
        """The missing pair with the fewest coverers, ties to the lowest bit."""
        hit = next(hit for hit in (missing & b for b in self.buckets) if hit)
        return (hit & -hit).bit_length() - 1

    def search(
        self, target: int, chosen: list[int], covered: int, banned: int, deadline: float
    ) -> list[int] | None:
        """Depth-first cover of every pair with at most `target` candidates.

        Candidates in the `banned` bitmask are left out: each is a refuted
        earlier sibling of a node on the path, whose subtree already tried
        every cover that includes it at this target.
        """
        if covered == self.full:
            return chosen
        if len(chosen) >= target:
            return None
        if time.monotonic() > deadline:
            raise _Deadline
        masks = self.masks
        missing = self.full & ~covered
        reachable = 0
        gains: dict[int, int] = {}
        for j, m in enumerate(masks):
            hit = m & missing
            if hit and not banned >> j & 1:
                reachable |= hit
                gains[j] = hit.bit_count()
        if reachable != missing:
            return None
        if ceil(missing.bit_count() / max(gains.values())) > target - len(chosen):
            return None
        # Pivot on static coverer counts; probes already chosen cannot cover
        # the pivot, and `gains` drops the banned ones.
        pivot = self.pivot(missing)
        coverers = self.coverers_of.get(pivot)
        if coverers is None:
            coverers = [j for j, m in enumerate(masks) if m >> pivot & 1]
            self.coverers_of[pivot] = coverers
        for j in sorted((j for j in coverers if j in gains), key=lambda j: (-gains[j], j)):
            result = self.search(target, chosen + [j], covered | masks[j], banned, deadline)
            if result is not None:
                return result
            banned |= 1 << j
        return None


def _greedy_order(table: Sequence[Sequence[int]], edge_count: int) -> list[int] | None:
    """Candidate indices in greedy order; None if the pool stops splitting first.

    Each step picks the row that raises the number of fault classes the
    most (ties to the earliest).  Classes are integer ids refined by each
    chosen row (partition refinement); only edges in classes of two or
    more can still split, so only those are counted.
    """
    ne = edge_count
    labels = [0] * ne
    active = list(range(ne))
    chosen: list[int] = []
    classes = 1 if ne else 0
    while classes < ne:
        # Some class has two members, so `active` has two or more entries and
        # itemgetter returns tuples.
        pick = itemgetter(*active)
        live = pick(labels)
        singles = ne - len(active)
        taken = set(chosen)
        best_j, best_classes = None, classes
        for j, row in enumerate(table):
            if j in taken:
                continue
            count = singles + len(set(zip(live, pick(row))))
            if count > best_classes:
                best_j, best_classes = j, count
        if best_j is None:
            return None
        ids: dict[tuple[int, int], int] = {}
        labels = [ids.setdefault(pair, len(ids)) for pair in zip(labels, table[best_j])]
        sizes = Counter(labels)
        active = [e for e in range(ne) if sizes[labels[e]] > 1]
        chosen.append(best_j)
        classes = best_classes
    return chosen


def _plan(cands, indices, tag: str, family: str, mode: FaultMode) -> MeasurementPlan:
    ms = tuple(cands[j] for j in indices)
    return MeasurementPlan(ms, (tag,) * len(ms), family, mode)


def solve_exact(
    net: Network,
    candidates: Sequence[Measurement] | None = None,
    mode: FaultMode = FaultMode.REMOVED,
    budget_seconds: float = 300.0,
    first_probe_orbits: Sequence[Measurement] | None = None,
    family: str = "network",
) -> ExactSolution | Infeasible | TimedOut:
    """Minimum distinguishing probe set, with proof of optimality.

    Returns Infeasible when even the whole candidate pool leaves some
    fault pair merged, and TimedOut (carrying the greedy incumbent and
    the size proven insufficient so far) when the budget expires.  The
    cover masks and the greedy incumbent share one class-id table.
    """
    cands = list(candidates) if candidates is not None else net.measurements()
    if not cands:
        raise ValueError("candidate pool must be nonempty")
    deadline = time.monotonic() + budget_seconds
    table = reading_classes(net, cands, mode)
    inst = _CoverInstance(table, len(net.edges))
    if inst.pair_count == 0:
        return ExactSolution(MeasurementPlan((), (), family, mode))
    union = 0
    for m in inst.masks:
        union |= m
    if union != inst.full:
        return Infeasible(tuple(merged_pairs(net.edges, table)))

    greedy = _greedy_order(table, len(net.edges))
    greedy_plan = _plan(cands, greedy, "greedy", family, mode)
    upper = len(greedy_plan)

    max_single = max(m.bit_count() for m in inst.masks)
    root_lower = max(1, ceil(inst.pair_count / max_single))

    root_indices = None
    if first_probe_orbits is not None:
        index_of = {m: i for i, m in enumerate(cands)}
        root_indices = [index_of[m] for m in first_probe_orbits if m in index_of]

    try:
        for target in range(root_lower, upper):
            if root_indices is not None:
                found, banned = None, 0
                for j in sorted(root_indices):
                    found = inst.search(target, [j], inst.masks[j], banned, deadline)
                    if found is not None:
                        break
                    banned |= 1 << j
            else:
                found = inst.search(target, [], 0, 0, deadline)
            if found is not None:
                return ExactSolution(_plan(cands, found, "exact", family, mode))
    except _Deadline:
        return TimedOut(incumbent=greedy_plan, lower_bound=target)
    # No smaller set exists: the greedy plan is optimal.
    return ExactSolution(_plan(cands, greedy, "exact", family, mode))


def solve_greedy(
    net: Network,
    candidates: Sequence[Measurement] | None = None,
    mode: FaultMode = FaultMode.REMOVED,
    family: str = "network",
) -> MeasurementPlan | Infeasible:
    """Greedy distinguishing set: repeatedly add the probe that splits the most.

    Each step picks the candidate whose readings raise the number of
    fault equivalence classes the most (ties to the earliest candidate).
    The result is distinguishing whenever the full pool is, but not
    necessarily minimum; the exact solver uses it as its incumbent.
    """
    cands = list(candidates) if candidates is not None else net.measurements()
    if not cands:
        raise ValueError("candidate pool must be nonempty")
    table = reading_classes(net, cands, mode)
    chosen = _greedy_order(table, len(net.edges))
    if chosen is None:
        return Infeasible(tuple(merged_pairs(net.edges, table)))
    return _plan(cands, chosen, "greedy", family, mode)


@dataclass(frozen=True)
class MeasurementGraphReport:
    """Component structure of the probe pairs viewed as a graph on the vertices."""

    n: int
    components: tuple[tuple[int, ...], ...]
    isolated: tuple[int, ...]
    size_two_components: tuple[tuple[int, int], ...]
    isolated_by_partition: tuple[int, ...] | None
    violations: tuple[str, ...]


def analyze_measurement_graph(
    n: int, measurements: Sequence[Measurement], shape: KPartiteShape | None = None
) -> MeasurementGraphReport:
    """Check a probe set against the structural conditions every solution obeys.

    Any distinguishing set must leave at most one vertex isolated per
    partition (one in total for complete graphs), and no component of
    exactly two vertices inside a single partition (none at all for
    complete graphs).  Violations are reported by name; an empty tuple
    means the necessary conditions hold.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in measurements:
        ra, rb = find(m.r), find(m.s)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    components = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    isolated = tuple(c[0] for c in components if len(c) == 1)
    size_two = tuple((c[0], c[1]) for c in components if len(c) == 2)

    violations: list[str] = []
    isolated_by_partition = None
    if shape is None:
        if len(isolated) > 1:
            violations.append(
                f"{len(isolated)} isolated vertices (a complete graph allows at most one)"
            )
        for c in size_two:
            violations.append(f"component of size two {c} (none are allowed)")
    else:
        if shape.n != n:
            raise ValueError("shape does not match vertex count")
        counts = [0] * shape.k
        for v in isolated:
            counts[shape.partition_of(v)] += 1
        isolated_by_partition = tuple(counts)
        for i, cnt in enumerate(counts):
            if cnt > 1:
                violations.append(
                    f"partition {i} has {cnt} isolated vertices (at most one is allowed)"
                )
        for c in size_two:
            if shape.partition_of(c[0]) == shape.partition_of(c[1]):
                violations.append(
                    f"component of size two {c} inside partition {shape.partition_of(c[0])}"
                )
        need = ceil((n - shape.k) / 2)
        if len(measurements) < need:
            violations.append(
                f"only {len(measurements)} measurements, fewer than the handshake "
                f"minimum ceil((n-k)/2) = {need}"
            )
    return MeasurementGraphReport(
        n, components, isolated, size_two, isolated_by_partition, tuple(violations)
    )
