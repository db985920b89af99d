"""Exact and greedy solvers for the minimum distinguishing probe set.

The problem is a test cover: the universe is all unordered pairs of
candidate fault edges, and a probe "covers" the pairs it tells apart
(different exact readings).  A probe set distinguishes every fault iff
its covered pairs are the whole universe.  When "nothing is broken" must
be told apart too (`no_fault`), the healthy network is one more column
of the class table: its pairs with each edge are covered by the probes
that the fault alters.  Both solvers then solve that problem directly.

solve_exact runs iterative-deepening branch and bound over bitmask pair
sets: targets grow from a lower bound until a plan of the target size
exists, so the first plan found is provably minimum.  Branching picks an
uncovered pair with the fewest covering probes (read off masks bucketed
by coverer count) and tries each of them; subtrees are cut when some
uncovered pair has no usable coverer, or when even the best single-probe
coverage cannot finish within the target.

Symmetry comes from twin vertices: u ~ v iff c(u, w) = c(v, w) for every
w other than u and v.  This is an equivalence, the transposition (u v)
is an automorphism exactly when u ~ v, and each class's vertices may be
permuted freely (K_n has one class, a complete k-partite graph one per
partition).  Every automorphism maps faults to faults and fixes the
healthy network, so all of this holds with the healthy column too.  It
is used in two ways.

Orbit bans.  Once a child fails, its probe's whole orbit is banned from
the subtrees of its later siblings, under the group that permutes each
class's fresh vertices (those no probe on the path touches yet): the
failed subtree already tried every cover that contains the probe, and
mapping a cover by a group element that fixes the path maps covers
through the child to covers through its image.  That needs every ban in
force to be a union of orbits of the current node's group.  It holds
because the group only shrinks along a path (touched vertices only
grow), so an orbit banned at an ancestor is a union of orbits here, and
bans are made by orbit at every node, the root with caller-given first
probes included.  Banned siblings are skipped.  A candidate pool
that is not closed under the group gets single-probe bans only.

Handshake seed.  Two twins u, v (with some w, other than both, joined
to each, which connectivity gives when n >= 3) leave the faults (u, w)
and (v, w) reading the same on every probe that touches neither, and on
the probe (u, v): (u v) maps one fault to the other and fixes the probe.
So every distinguishing set touches all but at most one vertex per
class, and needs at least ceil((n - c) / 2) probes for c classes.  The
deepening starts at the larger of this and the counting bound; each
target is searched on its own, so skipping targets that cannot succeed
leaves the plan unchanged.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from math import ceil
from operator import itemgetter
from typing import Sequence

from .network import Edge, FaultMode, Measurement, Network, _components
from .signatures import merged_pairs, reading_classes
from .strategies import MeasurementPlan


@dataclass(frozen=True)
class ExactSolution:
    plan: MeasurementPlan


@dataclass(frozen=True)
class Infeasible:
    """Even the full candidate pool cannot separate these column pairs.

    The healthy network, a column only when it must be told apart too,
    is named None; it comes last in its pair.
    """

    witness_pairs: tuple[tuple[Edge, Edge | None], ...]


@dataclass(frozen=True)
class TimedOut:
    """Search budget exhausted: the greedy plan and the size proven necessary.

    `lower_bound` is the smallest target not yet refuted: the search
    proved that no plan of fewer probes exists.
    """

    incumbent: MeasurementPlan
    lower_bound: int


class _Deadline(Exception):
    pass


def _twin_classes(net: Network) -> list[list[int]]:
    """The twin classes of the vertices, each ascending, in order of first vertex.

    u ~ v iff c(u, w) = c(v, w) for every w other than u and v (c = 0
    where there is no edge), so twins may be joined to each other or not.
    Twins have the same multiset of incident conductances, so each vertex
    is compared only with the classes of that multiset; as ~ is an
    equivalence, one member stands for its class.
    """
    adj: list[dict[int, object]] = [{} for _ in range(net.n)]
    for e in net.edges:
        adj[e.u][e.v] = adj[e.v][e.u] = e.conductance
    classes: list[list[int]] = []
    by_conductances: dict[tuple, list[list[int]]] = {}
    for v in range(net.n):
        same = by_conductances.setdefault(tuple(sorted(adj[v].values())), [])
        for cls in same:
            u = cls[0]
            if {w: c for w, c in adj[u].items() if w != v} == {
                w: c for w, c in adj[v].items() if w != u
            }:
                cls.append(v)
                break
        else:
            same.append([v])
            classes.append(same[-1])
    return classes


class _TwinOrbits:
    """Probe orbits under the group that permutes each twin class's fresh vertices.

    A vertex is fresh when the `touched` vertex mask leaves it out.  Probe
    (a, b) moves a within the fresh vertices of a's class if a is fresh
    and fixes it otherwise, and likewise b; so with A and B those vertex
    sets, its orbit is the probes with one end in A and the other in B.
    Only built for a pool closed under the group (see `of`).
    """

    def __init__(self, class_bits: list[int], cands: Sequence[Measurement]):
        self.class_bits = class_bits  # class_bits[v]: vertex mask of v's class
        self.ends = [(m.r, m.s) for m in cands]
        self.touch = [1 << r | 1 << s for r, s in self.ends]
        self.at = [0] * len(class_bits)  # at[v]: candidates with an end at v
        self.inner: dict[int, int] = {}  # class vertex mask -> candidates inside it
        for j, (r, s) in enumerate(self.ends):
            self.at[r] |= 1 << j
            self.at[s] |= 1 << j
            if class_bits[r] == class_bits[s]:
                self.inner[class_bits[r]] = self.inner.get(class_bits[r], 0) | 1 << j

    @classmethod
    def of(cls, classes: list[list[int]], cands: Sequence[Measurement], n: int):
        """The orbits, or None when no class has two vertices or the pool is
        not closed under the group.

        The group is transitive on the pairs of each type (two given
        classes, or two vertices of one class), so the pool is closed
        exactly when it holds all pairs of each type it meets.
        """
        if all(len(c) == 1 for c in classes):
            return None
        class_bits = [0] * n
        for c in classes:
            bits = sum(1 << v for v in c)
            for v in c:
                class_bits[v] = bits
        counts = Counter(tuple(sorted((class_bits[m.r], class_bits[m.s]))) for m in set(cands))
        for (x, y), count in counts.items():
            size = x.bit_count()
            if count != (size * (size - 1) // 2 if x == y else size * y.bit_count()):
                return None
        return cls(class_bits, cands)

    def _reach(self, vertices: int) -> int:
        """Candidates with an end in the vertex mask."""
        out = 0
        while vertices:
            low = vertices & -vertices
            out |= self.at[low.bit_length() - 1]
            vertices ^= low
        return out

    def orbit(self, j: int, touched: int) -> int:
        a, b = self.ends[j]
        ends_a = 1 << a if touched >> a & 1 else self.class_bits[a] & ~touched
        ends_b = 1 << b if touched >> b & 1 else self.class_bits[b] & ~touched
        if ends_a == ends_b:  # a and b fresh in one class
            return self.inner[self.class_bits[a]] & ~self._reach(self.class_bits[a] & touched)
        return self._reach(ends_a) & self._reach(ends_b)


class _CoverInstance:
    """Bitmask view of the test-cover problem, built from a class-id table.

    The table's columns are the fault edges, then the healthy network
    when it must be told apart too; below, "edge" means a column.  Pair
    (i, j) of edges, i < j, is one bit; the pairs of edge i fill one
    segment of ne-i-1 bits, bit j-i-1 of it, and segments follow edge
    order from bit 0.  A candidate's mask holds the pairs its row
    separates (different class ids): segment i is the set of edges outside
    row[i]'s class shifted right by i+1, and a row's segments are joined
    in one binary-string conversion, so no loop runs per pair.

    `buckets` partitions the pairs by how many candidates cover them, in
    ascending count order; the counts are summed bit-sliced (a carry-save
    adder over the masks, one bit plane per binary digit of the count).
    `twins`, when given, supplies the orbits that refuted children ban and
    `touch[j]`, the vertex mask of candidate j's two ends (0 without it).
    The build raises _Deadline once a row starts after `deadline`.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        column_count: int,
        twins: _TwinOrbits | None = None,
        deadline: float = float("inf"),
    ):
        self.twins = twins
        self.touch = twins.touch if twins else [0] * len(table)
        ne = column_count
        self.pair_count = ne * (ne - 1) // 2
        self.full = (1 << self.pair_count) - 1
        every = (1 << ne) - 1
        self.masks: list[int] = []
        for row in table:
            if time.monotonic() > deadline:
                raise _Deadline
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

    def orbit(self, j: int, touched: int) -> int:
        """Candidate j's orbit as a candidate mask, given the touched vertices."""
        return self.twins.orbit(j, touched) if self.twins else 1 << j

    def search(
        self,
        target: int,
        chosen: list[int],
        covered: int,
        banned: int,
        deadline: float,
        touched: int = 0,
        first: Sequence[int] | None = None,
    ) -> list[int] | None:
        """Depth-first cover of every pair with at most `target` candidates.

        Candidates in the `banned` bitmask are left out: each is in the
        orbit of a refuted earlier sibling of a node on the path, whose
        subtree already tried every cover that includes it (or its image)
        at this target.  `touched` holds the vertices that the chosen
        probes touch.  `first`, at the root, replaces the pivot's coverers
        with caller-given first probes, tried in index order.
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
        if first is not None:
            children = sorted(first)
        else:
            # Pivot on static coverer counts; probes already chosen cannot
            # cover the pivot, and `gains` drops the banned ones.
            pivot = self.pivot(missing)
            coverers = self.coverers_of.get(pivot)
            if coverers is None:
                coverers = [j for j, m in enumerate(masks) if m >> pivot & 1]
                self.coverers_of[pivot] = coverers
            children = sorted((j for j in coverers if j in gains), key=lambda j: (-gains[j], j))
        for j in children:
            if banned >> j & 1:
                continue
            result = self.search(
                target,
                chosen + [j],
                covered | masks[j],
                banned,
                deadline,
                touched | self.touch[j],
            )
            if result is not None:
                return result
            banned |= self.orbit(j, touched)
        return None


def _greedy_order(table: Sequence[Sequence[int]], column_count: int) -> list[int] | None:
    """Candidate indices in greedy order; None if the pool stops splitting first.

    Each step picks the row that raises the number of fault classes the
    most (ties to the earliest).  Classes are integer ids refined by each
    chosen row (partition refinement), so a chosen row never splits one
    again; only edges in classes of two or more can still split, so only
    those are counted.
    """
    ne = column_count
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
        best_j, best_classes = None, classes
        for j, row in enumerate(table):
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


def _plan(cands, indices, tag: str, mode: FaultMode) -> MeasurementPlan:
    ms = tuple(cands[j] for j in indices)
    return MeasurementPlan(ms, (tag,) * len(ms), mode)


def _greedy_start(net: Network, candidates, mode: FaultMode, no_fault: bool):
    """Both solvers' set-up: the pool, its class-id table, the column count, the greedy order.

    The order is Infeasible, naming every merged column pair, when the
    greedy stalls, which it does exactly when some pair is never split.
    """
    cands = list(candidates) if candidates is not None else net.measurements()
    table = reading_classes(net, cands, mode, no_fault)
    columns = net.edges + (None,) * no_fault
    greedy = _greedy_order(table, len(columns))
    if greedy is None:
        greedy = Infeasible(tuple(merged_pairs(columns, table)))
    return cands, table, len(columns), greedy


def solve_exact(
    net: Network,
    candidates: Sequence[Measurement] | None = None,
    mode: FaultMode = FaultMode.REMOVED,
    budget_seconds: float = 300.0,
    first_probe_orbits: Sequence[Measurement] | None = None,
    no_fault: bool = False,
) -> ExactSolution | Infeasible | TimedOut:
    """Minimum distinguishing probe set, with proof of optimality.

    With `no_fault`, the healthy network is one more column, so the plan
    also tells "nothing is broken" from every fault.  Returns Infeasible
    when even the whole candidate pool leaves some column pair merged,
    and TimedOut (carrying the greedy incumbent and the size proven
    insufficient so far) when the budget expires.  The cover masks and
    the greedy incumbent share one class-id table; the budget covers the
    set-up too, and a budget spent before or while the masks are built
    returns the greedy incumbent with the seed lower bound.
    `first_probe_orbits`, first probes to try at the root, is kept only
    for perfbench/workloads.py: the twin-orbit root makes it pure overhead.
    """
    deadline = time.monotonic() + budget_seconds
    cands, table, ne, greedy = _greedy_start(net, candidates, mode, no_fault)
    if isinstance(greedy, Infeasible):
        return greedy
    greedy_plan = _plan(cands, greedy, "greedy", mode)

    pair_count = ne * (ne - 1) // 2
    max_single = max(
        (pair_count - sum(k * (k - 1) // 2 for k in Counter(row).values()) for row in table),
        default=0,
    )
    classes = _twin_classes(net)
    handshake = ceil((net.n - len(classes)) / 2)
    # max_single is 0 only when there is no pair to split (else greedy stalled).
    root_lower = max(1, ceil(pair_count / max(max_single, 1)), handshake)
    if root_lower < len(greedy):  # else no smaller set exists
        if time.monotonic() > deadline:
            return TimedOut(incumbent=greedy_plan, lower_bound=root_lower)
        root_indices = None
        if first_probe_orbits is not None:
            index_of = {m: i for i, m in enumerate(cands)}
            root_indices = [index_of[m] for m in first_probe_orbits if m in index_of]
        target = root_lower
        try:
            inst = _CoverInstance(table, ne, _TwinOrbits.of(classes, cands, net.n), deadline)
            for target in range(root_lower, len(greedy)):
                found = inst.search(target, [], 0, 0, deadline, 0, root_indices)
                if found is not None:
                    return ExactSolution(_plan(cands, found, "exact", mode))
        except _Deadline:
            return TimedOut(incumbent=greedy_plan, lower_bound=target)
    # No smaller plan exists (the root bound meets greedy, or each smaller target
    # was refuted), so the greedy plan is optimal.
    return ExactSolution(_plan(cands, greedy, "exact", mode))


def solve_greedy(
    net: Network,
    candidates: Sequence[Measurement] | None = None,
    mode: FaultMode = FaultMode.REMOVED,
    no_fault: bool = False,
) -> MeasurementPlan | Infeasible:
    """Greedy distinguishing set: repeatedly add the probe that splits the most.

    Each step picks the candidate whose readings raise the number of
    fault equivalence classes the most (ties to the earliest candidate);
    with `no_fault` the healthy network counts as one more class member.
    The result is distinguishing whenever the full pool is, but not
    necessarily minimum; the exact solver uses it as its incumbent.
    """
    cands, _, _, greedy = _greedy_start(net, candidates, mode, no_fault)
    return greedy if isinstance(greedy, Infeasible) else _plan(cands, greedy, "greedy", mode)


@dataclass(frozen=True)
class MeasurementGraphReport:
    """Component structure of the probe pairs viewed as a graph on the vertices."""

    components: tuple[tuple[int, ...], ...]
    isolated: tuple[int, ...]
    size_two_components: tuple[tuple[int, int], ...]
    violations: tuple[str, ...]


def analyze_measurement_graph(
    net: Network, measurements: Sequence[Measurement]
) -> MeasurementGraphReport:
    """Check a probe set against two structural conditions every solution obeys.

    By the handshake argument in the module docstring, a distinguishing
    set on n >= 3 vertices leaves at most one vertex of each twin class
    untouched, and has no two-vertex component whose vertices are twins:
    there the probe joining them is the only one touching either, and
    the transposition fixes it.  In a complete graph the one class is
    every vertex; in a complete k-partite graph with parts of two or
    more, the classes are the partitions.  Violations are reported by
    name; an empty tuple means the necessary conditions hold.
    """
    components = tuple(map(tuple, _components(net.n, [m.pair for m in measurements])))
    isolated = tuple(c[0] for c in components if len(c) == 1)
    size_two = tuple((c[0], c[1]) for c in components if len(c) == 2)

    violations: list[str] = []
    if net.n >= 3:
        lone = set(isolated)
        class_of: dict[int, tuple[int, ...]] = {}
        for cls in map(tuple, _twin_classes(net)):
            untouched = len(lone.intersection(cls))
            if untouched > 1:
                violations.append(
                    f"twin class {cls} has {untouched} isolated vertices (at most one is allowed)"
                )
            class_of.update(dict.fromkeys(cls, cls))
        for c in size_two:
            if class_of[c[0]] == class_of[c[1]]:
                violations.append(f"component of size two {c} inside twin class {class_of[c[0]]}")
    return MeasurementGraphReport(components, isolated, size_two, tuple(violations))
