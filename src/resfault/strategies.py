"""Measurement-plan generators for complete and complete k-partite graphs.

Plans are built from a small vocabulary of moves: butterfly wings (two
probes sharing a center vertex), zig-zag schemes (two interleaved
butterflies across two partitions), hairpins (center in one partition,
wings in the other), partition butterflies (all three vertices in one
partition), stars (one vertex probed against a whole partition), cross
matchings, and single leftover links.  Each move is written once, as a
method of the plan builder; every probe in a plan carries the name of
the move that produced it.

`complete_strategy` serves complete graphs and `kpartite_strategy` every
complete k-partite graph; the latter hands k = 2 and k = 3 to
`bipartite_strategy` and `tripartite_strategy`.

Vertex choices follow one rule everywhere: when any eligible vertex will
do, take the lowest index.  Plans are therefore fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bounds import _aside_costs
from .families import KPartiteShape
from .network import FaultMode, Measurement


@dataclass(frozen=True)
class MeasurementPlan:
    """Ordered probe list with per-probe provenance tags."""

    measurements: tuple[Measurement, ...]
    provenance: tuple[str, ...]
    mode: FaultMode = FaultMode.REMOVED

    def __post_init__(self):
        if len(self.measurements) != len(self.provenance):
            raise ValueError("provenance must tag every measurement")
        if len(set(self.measurements)) != len(self.measurements):
            raise ValueError("duplicate measurement in plan")

    def __len__(self) -> int:
        return len(self.measurements)


class _Builder:
    """Accumulates probes and their tags; each shared strategy move is one method.

    A pool is a list of vertices still to be covered.  Moves take the
    vertices they use from the front of their pools, in place, and leave
    the rest to the caller's closing rules.
    """

    def __init__(self):
        self.measurements: list[Measurement] = []
        self.tags: list[str] = []
        self.used: set[int] = set()

    def add(self, a: int, b: int, tag: str):
        self.measurements.append(Measurement(a, b))
        self.tags.append(tag)
        self.used.update((a, b))

    def wing(self, a: int, center: int, b: int, tag: str):
        """The two probes (a, center) and (center, b) sharing a center."""
        self.add(a, center, tag)
        self.add(center, b, tag)

    def butterflies(self, pool: list[int], tag: str) -> list[int]:
        """A wing on each consecutive triple of the pool; returns the centers."""
        centers = []
        while len(pool) >= 3:
            a, center, b = pool[:3]
            del pool[:3]
            self.wing(a, center, b, tag)
            centers.append(center)
        return centers

    def zigzags(self, pb: list[int], pc: list[int]) -> list[int]:
        """Zig-zag schemes on three vertices of each pool at a time.

        Each scheme is a wing centered in pb followed by one centered in
        pc; returns the pc centers.
        """
        centers = []
        while len(pb) >= 3 and len(pc) >= 3:
            b1, b2, b3 = pb[:3]
            c1, c2, c3 = pc[:3]
            del pb[:3], pc[:3]
            self.wing(c1, b1, c2, "zigzag")
            self.wing(b2, c3, b3, "zigzag")
            centers.append(c3)
        return centers

    def hairpins(self, pb: list[int], pc: list[int], spare: int | None) -> list[int]:
        """Close a one- or two-vertex remainder of pb against pc.

        One vertex: it centers a wing on the first two vertices of pc,
        borrowing `spare` when pc holds only one.  Two vertices: they are
        the wings around the first vertex of pc, which is returned as the
        only center.  Only pc is consumed; pb is used up whole.
        """
        if len(pb) == 1:
            wings = (pc + [spare])[:2]
            del pc[:2]
            self.wing(wings[0], pb[0], wings[1], "hairpin")
        elif len(pb) == 2:
            center = pc.pop(0)
            self.wing(pb[0], center, pb[1], "hairpin")
            return [center]
        return []

    def leftover_link(self, v: int, partition):
        """Probe v against the lowest already-used vertex of its partition."""
        w = min(x for x in partition if x in self.used and x != v)
        self.add(v, w, "leftover-link")

    def close(self, pool: list[int], partition, tag: str):
        """Cover a partition's one or two leftover vertices after its butterflies.

        One vertex is linked to the partition's lowest used vertex; two are
        wound onto its first vertex, the designated node.
        """
        if len(pool) == 1:
            self.leftover_link(pool[0], partition)
        elif len(pool) == 2:
            self.wing(pool[0], pool[1], partition[0], tag)

    def plan(self) -> MeasurementPlan:
        return MeasurementPlan(tuple(self.measurements), tuple(self.tags))


def complete_strategy(n: int) -> MeasurementPlan:
    """Butterfly wings on vertex triples, leftovers probed against the first center.

    Produces ceil(2n/3) probes: triples (0,1,2), (3,4,5), ... each get the
    two probes (x, x+1), (x+1, x+2); one or two ungrouped vertices are
    each probed against vertex 1 (the first center).
    """
    if n < 6:
        raise ValueError(f"complete-graph strategy needs n >= 6, got {n}")
    b = _Builder()
    pool = list(range(n))
    b.butterflies(pool, "butterfly")
    for v in pool:
        b.add(1, v, "hub-link")
    return b.plan()


def bipartite_strategy(b_size: int, g_size: int) -> MeasurementPlan:
    """Probe plan for a complete bipartite graph, sizes b_size <= g_size.

    A size-2 smaller side: the star from its first vertex to every vertex
    of the larger side, plus a leftover link from its second vertex when
    the larger side has only two vertices.  Otherwise, different sizes:
    one designated node per partition, a cross matching of the smaller
    side, butterflies over the larger side's surplus, and the
    one/two-leftover closing rules.  Equal sizes: disjoint zig-zag
    schemes plus hairpin closings.  The plan size matches the exact
    optimum for this family.
    """
    if not (2 <= b_size <= g_size):
        raise ValueError("need 2 <= b_size <= g_size")
    shape = KPartiteShape((b_size, g_size))
    builder = _Builder()
    beta = list(shape.vertices(0))
    gamma = list(shape.vertices(1))
    des_b, des_g = beta[0], gamma[0]
    beta_pool, gamma_pool = beta[1:], gamma[1:]

    if b_size == 2:
        for x in gamma:
            builder.add(des_b, x, "star")
        if g_size == 2:
            builder.add(beta[1], des_g, "leftover-link")
        return builder.plan()

    if b_size < g_size:
        for u in beta_pool:
            builder.add(u, gamma_pool.pop(0), "cross-matching")
        builder.butterflies(gamma_pool, "butterfly")
        builder.close(gamma_pool, gamma, "leftover-butterfly")
        return builder.plan()

    # Equal sizes: zig-zag schemes, then hairpin closings.
    builder.zigzags(beta_pool, gamma_pool)
    centers = builder.hairpins(beta_pool, gamma_pool, des_g)
    if gamma_pool:
        builder.add(gamma_pool[0], centers[0], "leftover-link")
    return builder.plan()


def tripartite_strategy(a: int, b: int, c: int) -> MeasurementPlan:
    """Probe plan for a complete tripartite graph, sizes a <= b <= c.

    Four regimes by size coincidences.  All sizes equal: tripartite
    butterflies.  All distinct: designated vertices plus a cross matching
    (with one tripartite butterfly absorbing the odd vertex when n is
    even); when the largest partition outweighs the other two, both
    smaller pools are matched into it as for a = b < c, and its surplus
    s is covered by partition butterflies, a + b - 2 + ceil(2s/3) probes
    in all, the tripartite upper bound.  That is above the table value
    for s = 2 and s >= 4, and the exact solver proves no plan of the
    table size exists for K(2,3,6) and K(2,4,7).  Two equal sizes:
    matchings plus partition butterflies, pooling the two leftover
    partitions through hairpins.
    """
    if not (2 <= a <= b <= c):
        raise ValueError("need 2 <= a <= b <= c")
    shape = KPartiteShape((a, b, c))
    builder = _Builder()
    parts = [list(shape.vertices(i)) for i in range(3)]
    pools = [p[1:] for p in parts]

    if a == b == c:
        _triple_block(builder, shape, (0, 1, 2))
        return builder.plan()

    if a < b < c < a + b:
        if shape.n % 2 == 0:
            builder.wing(pools[0][0], pools[2][0], pools[1][0], "tripartite-butterfly")
            pools = [p[1:] for p in pools]
        while any(pools):
            order = sorted(range(3), key=lambda i: (-len(pools[i]), i))
            first, second = order[0], order[1]
            builder.add(pools[first].pop(0), pools[second].pop(0), "matching")
        return builder.plan()

    if b < c:
        # a == b, or c >= a + b: then pool 2 outlasts pools 0 and 1.
        for u in pools[0]:
            builder.add(u, pools[2].pop(0), "matching")
        while pools[1] and pools[2]:
            builder.add(pools[1].pop(0), pools[2].pop(0), "matching")
        side = 1 if pools[1] else 2
        builder.butterflies(pools[side], "partition-butterfly")
        builder.close(pools[side], parts[side], "partition-butterfly")
        return builder.plan()

    # a < b == c: matching into the middle partition, pooled leftovers.
    for u in pools[0]:
        builder.add(u, pools[1].pop(0), "matching")
    left1, left2 = pools[1], pools[2]
    builder.butterflies(left1, "partition-butterfly")
    builder.butterflies(left2, "partition-butterfly")
    if {len(left1), len(left2)} == {1, 2}:
        # Mixed remainder: a hairpin covers all three leftover vertices.
        builder.hairpins(*sorted((left1, left2), key=len), None)
    elif len(left1) == len(left2) == 2:
        builder.hairpins(left1, left2, None)
        builder.leftover_link(left2[0], parts[2])
    else:
        for side in (1, 2):
            builder.close(pools[side], parts[side], "partition-butterfly")
    return builder.plan()


def _triple_block(builder: _Builder, shape: KPartiteShape, indices: tuple[int, int, int]):
    """Per-triple building block of the k-partite composition.

    One designated vertex per partition, tripartite butterflies while the
    smallest partition lasts, zig-zag schemes between the two larger
    ones, hairpin closings for the middle partition's remainder, and
    partition butterflies plus closing rules for the largest.
    """
    order = sorted(indices, key=lambda i: (shape.parts[i], i))
    pa, pb, part_c = (list(shape.vertices(i)) for i in order)
    pa, pb, pc = pa[1:], pb[1:], part_c[1:]
    for u, center, w in zip(pa, pc, pb):
        builder.wing(u, center, w, "tripartite-butterfly")
    del pb[: len(pa)], pc[: len(pa)]
    builder.zigzags(pb, pc)
    builder.hairpins(pb, pc, part_c[0])
    builder.butterflies(pc, "partition-butterfly")
    builder.close(pc, part_c, "partition-butterfly")


def _composition(shape: KPartiteShape) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Partition-index triples of the k-partite composition, and the indices set aside.

    One partition is set aside when k = 1 mod 3 and a pair when k = 2 mod 3;
    the rest are grouped into consecutive triples.  The choice minimizes
    the plan-choice cost of `bounds._aside_costs`; ties are resolved toward
    its stated-bound cost, then the lowest indices, so the generated plan
    never exceeds the stated bound.
    """
    k = shape.k
    aside = ()
    if k % 3:
        aside = min(combinations(range(k), k % 3), key=lambda t: _aside_costs(shape.parts, t))
    rest = [i for i in range(k) if i not in aside]
    return [tuple(rest[t : t + 3]) for t in range(0, len(rest), 3)], aside


def kpartite_strategy(shape: KPartiteShape) -> MeasurementPlan:
    """Probe plan for a complete k-partite graph with all partition sizes >= 2.

    The one plan entry point for every k.  k = 2 and k = 3 delegate to the
    bipartite and tripartite plans, which are never larger than the
    general composition.  For k >= 4 the partitions are grouped into
    consecutive sorted triples, each handled by the tripartite building
    block; when k is not a multiple of 3 a leftover partition (k = 1 mod 3)
    or partition pair (k = 2 mod 3) is chosen by the stated minimization
    and covered by partition butterflies or the bipartite leftover step.
    """
    if any(p < 2 for p in shape.parts):
        raise ValueError("k-partite strategy needs every partition size >= 2")
    if shape.k == 2:
        return bipartite_strategy(*shape.parts)
    if shape.k == 3:
        return tripartite_strategy(*shape.parts)
    builder = _Builder()
    triples, aside = _composition(shape)
    for triple in triples:
        _triple_block(builder, shape, triple)
    if len(aside) == 1:
        _isolated_partition_step(builder, shape, *aside)
    elif aside:
        _bipartite_pair_step(builder, shape, *aside)
    return builder.plan()


def _isolated_partition_step(builder: _Builder, shape: KPartiteShape, p_idx: int):
    """Cover the set-aside partition with butterflies plus links to a center."""
    pool = list(shape.vertices(p_idx))
    centers = builder.butterflies(pool, "partition-butterfly")
    if pool:
        # Partition too small for a butterfly: anchor to a used outside vertex.
        w = centers[0] if centers else min(
            x for x in builder.used if shape.partition_of(x) != p_idx
        )
        for v in pool:
            builder.add(v, w, "partition-link")


def _bipartite_pair_step(builder: _Builder, shape: KPartiteShape, i_idx: int, j_idx: int):
    """Cover the set-aside partition pair: zig-zags, hairpins, butterflies."""
    pi = list(shape.vertices(i_idx))[1:]  # the first vertex is the designated node
    pj = list(shape.vertices(j_idx))
    # pj outlasts pi, so a one-vertex remainder of pi always finds two wings.
    centers = builder.zigzags(pi, pj)
    centers += builder.hairpins(pi, pj, None)
    centers += builder.butterflies(pj, "partition-butterfly")
    if pj:
        w = centers[0] if centers else min(
            x for x in builder.used if shape.partition_of(x) == j_idx
        )
        if len(pj) == 1:
            builder.add(pj[0], w, "leftover-link")
        else:
            builder.wing(pj[0], w, pj[1], "partition-butterfly")
