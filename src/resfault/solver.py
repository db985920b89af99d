"""Exact and greedy solvers for the minimum distinguishing probe set.

The problem is a test cover: the universe is all unordered pairs of
candidate fault edges, and a probe "covers" the pairs it tells apart
(different exact readings).  A probe set distinguishes every fault iff
its covered pairs are the whole universe.  When "nothing is broken" must
be told apart too (`no_fault`), the healthy network is one more column
of the key table: its pairs with each edge are covered by the probes
that the fault alters.  Both solvers then solve that problem directly.

solve_exact runs iterative-deepening branch and bound over bitmask pair
sets: targets grow from a lower bound until a plan of the target size
exists, so the first plan found is provably minimum.  Branching picks an
uncovered pair with the fewest covering probes (read off masks bucketed
by coverer count) and tries each of them; subtrees are cut when some
uncovered pair has no usable coverer, when even the best single-probe
coverage cannot finish within the target, or when the shape of the probe
graph needs more probes than are left (the component cut below).

Symmetry comes from twin vertices: u ~ v iff c(u, w) = c(v, w) for every
w other than u and v.  This is an equivalence, the transposition (u v)
is an automorphism exactly when u ~ v, and each class's vertices may be
permuted freely (K_n has one class, a complete k-partite graph one per
partition).  Every automorphism maps faults to faults and fixes the
healthy network, so all of this holds with the healthy column too.  The
classes are found once per solve and held, with each candidate's ends
and the pool's orbits, in one `_TwinGroup`.  The search uses it in the
two ways below; the greedy's orbit skip is described at `_greedy_order`.

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

Component seed and cut.  Two twins u, v (with some w, other than both,
joined to each, which connectivity gives when n >= 3) leave the faults
(u, w) and (v, w) reading the same on every probe that touches neither,
and on the probe (u, v): (u v) maps one fault to the other and fixes the
probe.  So on n >= 3 vertices the probe graph of a distinguishing set
leaves at most one vertex per class untouched, and has no lone twin
pair: a probe between twins that no other probe touches at either end.
At a node with r probes left, let S be the fresh vertices beyond one per
class, S_max the largest single class's share of S, and B the lone twin
pairs among the chosen probes (counted only when n >= 3); one routine,
`_TwinGroup.shortfall`, reads both facts here and in
analyze_measurement_graph.  Each of these is a demand on the new probes:
S fresh vertices to touch, and B pairs to reach with a probe end.
Contract each component of the chosen probes to one node; the new probes
join these nodes into the final components.  A final component meeting
d demands joins at least d nodes, so it holds at least d - 1 new probes,
and at least d/2, one end per demand: at least 2d/3, except when one
probe meets two demands.  There are three such exceptions: a fresh pair
across two classes (a fresh pair in one class would be a new lone twin
pair), a lone pair plus one fresh vertex, and two lone pairs joined.
With F >= S fresh vertices touched, F_c of them in class c, the
exceptions number at most B plus the cross-class fresh pairs, which are
at most F / 2 and at most F - F_c for each c (each has an end outside c).
Summing, r >= (2(F + B) - B - F/2) / 3 and r >= (F + F_c + B) / 3, so a
node with r < max(ceil((3S + 2B) / 6), ceil((S + S_max + B) / 3)) holds
no plan and is cut, before the counting cut.  The first term is the
handshake term (with B = 0 it is ceil(S / 2): a probe has two ends);
the second, the largest-class term, binds when one class holds most of
S.  The bound holds for any
candidate pool and with the healthy column.  (On two vertices S is at
most 1 and B is not counted, so the bound is at most 1, and the counting
cut already ends every node with no probe left.)  With nothing chosen
(B = 0) the same bound seeds the deepening, with the counting bound:
ceil(2(n - 1) / 3) on K_n, the optimum when 3 divides n.  Each target is
searched on its own, and a cut removes only subtrees without a plan of
the target size, so skipping targets that cannot succeed and cutting
nodes leave the plan unchanged.

Split bounds.  The greedy's first step scores each row by its number of
distinct keys, and the network's shape caps that number before any key
is read.  A cell keys 0 exactly when its edge carries no probe current
(X = 0), as the healthy column always does.  A block (a maximal
2-connected subgraph, or a bridge) is on the path when r and s lie in
different components of G - E(block).  A block off the path meets the
component that holds r and s at one vertex; with all that hangs from it
away from that component it holds no probe end, so it is at that
vertex's potential, carries no current, and every cell in it keys 0.
In removed mode every bridge on the path separates r from s, so all of
them key -1.  Non-bridges e and f are in one cut-pair class when
{e, f} is a 2-edge cut (Pritchard and Thurimella, "Fast computation of
small cuts via cycle space sampling", 2011): they lie on exactly the
same cycles.  A class C lies in one block, and G - C has |C| components
joined in a ring by the edges of C, so removing any edge of C leaves
the others as bridges of a chain of those components.  When r and s lie
in one component, the rest of the chain carries no current, and every
fault in C reads that component's own resistance: one key.  Otherwise
the current flows along the arc of the ring between their components
that does not hold the removed edge: at most two keys, one per arc.  So
a row has at most

    [some block is off the path, or the healthy column is present]
    + shorted: the edge count of each block on the path
    + removed: [some bridge is on the path] + per cut-pair class of
      non-bridges in a block on the path, 2 when r and s lie in
      different components of G - C, else 1

distinct keys (an edge in no 2-edge cut is a class of one and counts
1).  A class that parts r and s lies in a block on the path, as
G - E(block) has no more edges than G - C.  So the first step scans
rows by descending bound and stops once no bound can beat the best row
read, the lazy evaluation of Minoux's accelerated greedy (1978) applied
to one step, and picks the row it always picked (see `_greedy_order`).
A 2-connected network bounds every row by the column count in shorted
mode, and so does one with no 2-edge cut in removed mode (K_n for
n >= 4): there the scan runs in index order.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import compress
from operator import add, itemgetter, ne
from typing import Sequence

from .network import (
    Edge,
    FaultMode,
    Measurement,
    MeasurementPlan,
    Network,
    _check_measurement,
    _components,
    _Record,
)
from .signatures import _key_entries, merged_pairs, reading_classes


class ExactSolution(_Record):
    """A distinguishing plan of the fewest probes."""

    __slots__ = _fields = ("plan",)

    def __init__(self, plan: MeasurementPlan):
        object.__setattr__(self, "plan", plan)


class Infeasible(_Record):
    """Even the full candidate pool cannot separate these column pairs.

    The healthy network, a column only when it must be told apart too,
    is named None; it comes last in its pair.
    """

    __slots__ = _fields = ("witness_pairs",)

    def __init__(self, witness_pairs: tuple[tuple[Edge, Edge | None], ...]):
        object.__setattr__(self, "witness_pairs", witness_pairs)


class TimedOut(_Record):
    """Search budget exhausted: the greedy plan and the size proven necessary.

    `lower_bound` is the smallest target not yet refuted: the search
    proved that no plan of fewer probes exists.
    """

    __slots__ = _fields = ("incumbent", "lower_bound")

    def __init__(self, incumbent: MeasurementPlan, lower_bound: int):
        object.__setattr__(self, "incumbent", incumbent)
        object.__setattr__(self, "lower_bound", lower_bound)


class _Deadline(Exception):
    pass


def _twin_classes(net: Network) -> list[list[int]]:
    """The twin classes of the vertices, each ascending, in order of first vertex.

    u ~ v iff c(u, w) = c(v, w) for every w other than u and v (c = 0
    where there is no edge), so twins may be joined to each other or not.
    Twins have the same multiset of incident conductances, so each vertex
    is compared only with the classes of that multiset (sorted as
    (numerator, denominator) pairs, which sort faster than Fractions); as
    ~ is an equivalence, one member stands for its class.
    """
    adj: list[dict[int, object]] = [{} for _ in range(net.n)]
    for e in net.edges:
        adj[e.u][e.v] = adj[e.v][e.u] = e.conductance
    classes: list[list[int]] = []
    by_conductances: dict[tuple, list[list[int]]] = {}
    for v in range(net.n):
        key = tuple(sorted((c.numerator, c.denominator) for c in adj[v].values()))
        same = by_conductances.setdefault(key, [])
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


class _TwinGroup:
    """The twin group of a network, as one candidate pool sees it.

    Holds the vertex mask of each twin class of two or more (`masks`),
    the vertex mask of each candidate's two ends (`touch`, kept for every
    pool), and whether the pool is closed under the group (`closed`).

    A vertex is fresh when the `touched` vertex mask leaves it out.  Under
    the subgroup that permutes each class's fresh vertices, probe (a, b)
    moves a within the fresh vertices of a's class if a is fresh and fixes
    it otherwise, and likewise b; so with A and B those vertex sets, its
    orbit is the probes with one end in A and the other in B.  The group
    is transitive on the pairs of each type (two given classes, or two
    vertices of one class), so the pool is closed exactly when it holds
    all pairs of each type it meets.  A pool that is not closed gets
    single-probe orbits.
    """

    def __init__(self, classes: Sequence[Sequence[int]], cands: Sequence[Measurement], n: int):
        self.class_bits = [0] * n  # class_bits[v]: vertex mask of v's class
        self.masks: list[int] = []
        for c in classes:
            mask = sum(1 << v for v in c)
            for v in c:
                self.class_bits[v] = mask
            if len(c) > 1:
                self.masks.append(mask)
        self.ends = [(m.r, m.s) for m in cands]
        self.touch = [1 << r | 1 << s for r, s in self.ends]
        self.closed = True
        self.at: list[int] | None = None  # at[v]: candidates with an end at v
        if not self.masks:  # every orbit is a single probe
            return
        bits = self.class_bits
        types = Counter(tuple(sorted((bits[r], bits[s]))) for r, s in set(self.ends))
        for (x, y), count in types.items():
            size = x.bit_count()
            if count != (size * (size - 1) // 2 if x == y else size * y.bit_count()):
                self.closed = False
                return
        self.at = [0] * n
        for j, (r, s) in enumerate(self.ends):
            self.at[r] |= 1 << j
            self.at[s] |= 1 << j

    def _reach(self, vertices: int) -> int:
        """Candidates with an end in the vertex mask."""
        out = 0
        while vertices:
            low = vertices & -vertices
            out |= self.at[low.bit_length() - 1]
            vertices ^= low
        return out

    def orbit(self, j: int, touched: int) -> int:
        """Candidate j's orbit as a candidate mask, given the touched vertices."""
        if self.at is None:
            return 1 << j
        a, b = self.ends[j]
        ends_a = 1 << a if touched >> a & 1 else self.class_bits[a] & ~touched
        ends_b = 1 << b if touched >> b & 1 else self.class_bits[b] & ~touched
        if ends_a == ends_b:  # a and b fresh in one class: both ends among them
            return self._reach(ends_a) & ~self._reach((1 << len(self.class_bits)) - 1 ^ ends_a)
        return self._reach(ends_a) & self._reach(ends_b)

    def representatives(self, touched: int) -> Sequence[int]:
        """The lowest candidate index of each orbit, ascending.

        As in `orbit`, each end of a probe is fixed when touched and moves
        within its class's fresh vertices otherwise, so the orbit is the
        probes whose two end states, the vertex v itself (as ~v) or its
        class mask, match as a pair: one pass keeps the first index per pair.
        Every candidate when the orbits are single probes: the pool is not
        closed, or no class has two members.
        """
        if self.at is None:
            return range(len(self.ends))
        state = [~v if touched >> v & 1 else mask for v, mask in enumerate(self.class_bits)]
        first: dict[tuple[int, int], int] = {}
        for j, (r, s) in enumerate(self.ends):
            a, b = state[r], state[s]
            first.setdefault((a, b) if a < b else (b, a), j)
        return list(first.values())

    def shortfall(self, ends: Sequence[tuple[int, int]]) -> tuple[list[int], list[tuple[int, int]]]:
        """How far probes with these ends are from the two twin-class facts.

        Returns how many vertices of each class in `masks` are untouched,
        and the lone twin pairs: the probes (u, v) with u ~ v that no other
        probe touches at u or v, each a two-vertex component of the probe
        graph.
        """
        once = twice = 0
        for a, b in ends:
            both = 1 << a | 1 << b
            twice |= once & both
            once |= both
        untouched = [(mask & ~once).bit_count() for mask in self.masks]
        bits = self.class_bits
        lone = [(a, b) for a, b in ends if bits[a] >> b & 1 and not (twice >> a | twice >> b) & 1]
        return untouched, lone

    def needed(self, chosen: Sequence[int]) -> int:
        """The fewest probes a distinguishing set must add to these candidates.

        This is the component bound of the module docstring.
        """
        untouched, lone = self.shortfall([self.ends[j] for j in chosen])
        shares = [k - 1 for k in untouched if k > 1]
        s = sum(shares)
        b = len(lone) if len(self.class_bits) >= 3 else 0
        return max(-(-(3 * s + 2 * b) // 6), -(-(s + max(shares, default=0) + b) // 3))


class _CoverInstance:
    """Bitmask view of the test-cover problem, built from a key table.

    The table's columns are the fault edges, then the healthy network
    when it must be told apart too; below, "edge" means a column.  Pair
    (i, j) of edges, i < j, is one bit; the pairs of edge i fill one
    segment of ne-i-1 bits, bit j-i-1 of it, and segments follow edge
    order from bit 0.  A candidate's mask holds the pairs its row
    separates (different keys): segment i is the set of edges outside
    row[i]'s class, from edge ne-1 down to edge i+1.  Each class of two or
    more edges is written once as an ne-digit binary string (edge ne-1
    first), a single edge's class as all ones (only its own digit differs,
    and no segment reads it), and segment i is that string's first ne-i-1
    digits; a row's segments are joined in one binary-string conversion,
    so no loop runs per pair.

    `buckets` partitions the pairs by how many candidates cover them, in
    ascending count order; the counts are summed bit-sliced (a carry-save
    adder over the masks, one bit plane per binary digit of the count).
    `group`, the pool's twin group, supplies the orbits that refuted
    children ban, the component cut and `touch[j]`, the vertex mask of
    candidate j's two ends.  The build raises _Deadline once a row starts
    after `deadline` (a `time.monotonic` reading), the search once a node does.
    """

    def __init__(
        self, table: Sequence[Sequence[int]], column_count: int, group: _TwinGroup, deadline: float
    ):
        self.group = group
        self.deadline = deadline
        ne = column_count
        self.pair_count = ne * (ne - 1) // 2
        self.full = (1 << self.pair_count) - 1
        every = (1 << ne) - 1
        width, ones = f"0{ne}b", "1" * ne
        self.masks: list[int] = []
        for row in table:
            if time.monotonic() > deadline:
                raise _Deadline
            members: dict[int, int] = {}
            for e, cid in enumerate(row):
                members[cid] = members.get(cid, 0) | 1 << e
            text = {c: format(every ^ m, width) if m & m - 1 else ones for c, m in members.items()}
            segments = [text[row[i]][: ne - 1 - i] for i in range(ne - 2, -1, -1)]
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

    def pivot(self, missing: int) -> int:
        """The missing pair with the fewest coverers, ties to the lowest bit."""
        hit = next(hit for hit in (missing & b for b in self.buckets) if hit)
        return (hit & -hit).bit_length() - 1

    def search(
        self,
        target: int,
        chosen: list[int],
        covered: int,
        banned: int,
        touched: int,
        first: Sequence[int] | None = None,
    ) -> list[int] | None:
        """Depth-first cover of every pair with at most `target` candidates.

        Candidates in the `banned` bitmask are left out: each is in the
        orbit of a refuted earlier sibling of a node on the path, whose
        subtree already tried every cover that includes it (or its image)
        at this target.  `touched` holds the vertices that the chosen
        probes touch.  A node whose probe graph needs more probes than are
        left is cut first (the component bound, see the module docstring).
        `first`, at the root, lists caller-given probes to try, in the order
        given, before the pivot's coverers; a coverer in the orbit of a
        refuted first probe is banned like any other.  A node entered
        after `self.deadline` raises _Deadline.  There is no depth test: with
        no probe left to choose and a pair missing, the counting cut fails.
        """
        if covered == self.full:
            return chosen
        if time.monotonic() > self.deadline:
            raise _Deadline
        group = self.group
        left = target - len(chosen)
        if group.needed(chosen) > left:
            return None
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
        if -(-missing.bit_count() // max(gains.values())) > left:
            return None
        # Pivot on static coverer counts; `gains` holds the unbanned probes that add a pair.
        pivot = self.pivot(missing)
        children = [j for j in gains if masks[j] >> pivot & 1]
        children.sort(key=lambda j: (-gains[j], j))
        if first is not None:
            children = [*first, *children]
        for j in children:
            if banned >> j & 1:
                continue
            result = self.search(
                target, chosen + [j], covered | masks[j], banned, touched | group.touch[j]
            )
            if result is not None:
                return result
            banned |= group.orbit(j, touched)
        return None


def _split_bounds(
    net: Network, cands: Sequence[Measurement], mode: FaultMode, no_fault: bool
) -> list[int]:
    """Per candidate, the split bound of the module docstring: its row has at most this many keys.

    One iterative DFS from vertex 0 gives the tree edges, the low-links
    and one bit per back edge.  An edge's label is the XOR of the bits of
    the fundamental cycles through it (a tree edge's is the XOR, over its
    lower end's subtree, of the bits of the back edges at each vertex
    there), so the bridges are the edges labelled 0 and each nonzero label
    is one cut-pair class.  A tree edge (p, v) starts a block when
    low(v) >= disc(p) and otherwise joins the block of p's parent edge; a
    back edge joins the block of its lower end's parent edge.  Each term
    of the bound is a cut, an edge set with the keys it adds when r and s
    lie in different components of G - cut, found once per cut for every
    vertex; a candidate's bound then compares its ends' components.
    """
    n, edges = net.n, net.edges
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        adj[e.u].append((e.v, j))
        adj[e.v].append((e.u, j))
    order, parent, up = [0], [0] * n, [-1] * n  # up[v]: the tree edge from v to its parent
    disc, low, acc = [-1] * n, [0] * n, [0] * n
    disc[0] = 0
    label, backs = [0] * len(edges), []
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        for w, j in it:
            if disc[w] < 0:
                disc[w] = low[w] = len(order)
                order.append(w)
                parent[w], up[w] = v, j
                stack.append((w, iter(adj[w])))
                break
            if disc[w] < disc[v] and j != up[v]:  # a back edge to an ancestor
                label[j] = bit = 1 << len(backs)
                acc[v] ^= bit
                acc[w] ^= bit
                low[v] = min(low[v], disc[w])
                backs.append((j, v))
        else:
            stack.pop()
    for v in reversed(order[1:]):
        p = parent[v]
        label[up[v]] = acc[v]
        acc[p] ^= acc[v]
        low[p] = min(low[p], low[v])
    block = [0] * len(edges)
    count = 0
    for v in order[1:]:
        if low[v] >= disc[parent[v]]:
            block[up[v]], count = count, count + 1
        else:
            block[up[v]] = block[up[parent[v]]]
    for j, v in backs:
        block[j] = block[up[v]]

    # Cuts, each an edge set with the weight it adds when it separates r and s: the
    # blocks first, then in removed mode the bridges together and each class of two or more.
    removed = mode is FaultMode.REMOVED
    cuts: list[set[int]] = [set() for _ in range(count)]
    classes: dict[int, set[int]] = {}
    for j, (b, key) in enumerate(zip(block, label)):
        cuts[b].add(j)
        classes.setdefault(key, set()).add(j)
    if removed:
        weights = [len({label[j] for j in cut} - {0}) for cut in cuts]
        cuts.append(classes.pop(0, set()))
        big = [cut for cut in classes.values() if len(cut) > 1]
        cuts += big
        weights += [1] * (1 + len(big))
    else:
        weights = [len(cut) for cut in cuts]
    # A cut that parts every two vertices (the one block of K_n) adds its weight to
    # every bound, and one that parts none (no bridges) adds nothing: only the rest
    # are read per candidate.
    fixed, sides, kept, blocks = 0, [], [], 0  # blocks: how many of the kept cuts are blocks
    for b, (cut, weight) in enumerate(zip(cuts, weights)):
        parts = _components(n, [e.pair for j, e in enumerate(edges) if j not in cut])
        if len(parts) == n:
            fixed += weight
        elif len(parts) > 1:
            side = [0] * n
            for i, part in enumerate(parts):
                for v in part:
                    side[v] = i
            sides.append(side)
            kept.append(weight)
            blocks += b < count
    if not sides:
        return [fixed + no_fault] * len(cands)
    at = list(zip(*sides))  # per vertex: its component in each kept cut
    bounds = []
    for m in cands:
        apart = list(map(ne, at[m.r], at[m.s]))
        bounds.append(fixed + sum(compress(kept, apart)) + (not all(apart[:blocks]) or no_fault))
    return bounds


def _greedy_order(
    row, column_count: int, group: _TwinGroup, bounds: Sequence[int]
) -> list[int] | None:
    """Candidate indices in greedy order; None if the pool stops splitting first.

    Each step picks the row that raises the number of fault classes the
    most (ties to the earliest).  Classes are integer labels refined by
    each chosen row (partition refinement), so a chosen row never splits
    one again; only columns in classes of two or more can still split, so
    only those are counted.  `row(j, kept)` gives candidate j's exact keys
    on the columns listed in `kept` (every column when None), by position,
    equal exactly where the readings are.  At the first step every label is
    equal, so a row scores its number of distinct keys, which `bounds[j]`
    caps from above.  That step scans rows by descending bound, ties by
    index, and stops at the first row whose (bound, earlier index) cannot
    beat the best (score, earlier index) so far: no later row can.  Later
    steps scan in index order and stop at a row that splits every column.
    They read each row once, on the columns the first pick left live,
    number its keys from 0 by first appearance and cache it, then read it
    by position.  New labels come from a running counter, so a column left
    single never shares a label with a live class.

    Only the lowest row of each orbit under the twin group that fixes every
    touched vertex is scored.  Such a group element maps the network onto
    itself and fixes every chosen probe, so it maps the current classes
    onto themselves, and the rows of one orbit raise the count alike; the
    orbit's lowest row is the one "earliest wins ties" would pick.
    """
    ne = column_count
    kept = None  # the columns read from the second step on
    labels = [0] * ne  # per column, then per kept column
    active = range(ne)  # positions of the columns in classes of two or more
    cache: dict[int, list[int]] = {}  # rows on `kept`, numbered
    chosen: list[int] = []
    touched = 0
    classes = fresh = min(ne, 1)
    while classes < ne:
        # Some class has two members, so `active` has two or more entries and
        # itemgetter returns tuples.  Cached rows hold numbers below ne, and
        # first-step labels are all 0, so label * ne + value is one int per
        # (label, value) pair.
        pick = itemgetter(*active)
        live = [label * ne for label in pick(labels)]
        singles = ne - len(active)
        best, best_row = (classes, 1), ()  # (score, -index); 1 ranks below every index
        if kept is None:
            for j in sorted(group.representatives(touched), key=lambda j: (-bounds[j], j)):
                if (bounds[j], -j) <= best:
                    break
                values = row(j, None)
                if (score := len(set(values)), -j) > best:
                    best, best_row = (score, -j), values
        else:
            for j in group.representatives(touched):
                if (values := cache.get(j)) is None:
                    ids: dict[int, int] = {}
                    values = cache[j] = [ids.setdefault(key, len(ids)) for key in row(j, kept)]
                score = singles + len(set(map(add, live, pick(values))))
                if score > best[0]:
                    best, best_row = (score, -j), values
                    if score == ne:
                        break
        classes, best_j = best[0], -best[1]
        if best_j < 0:
            return None
        ids = {}
        for i, key in zip(active, map(add, live, pick(best_row))):
            labels[i] = ids.setdefault(key, fresh + len(ids))
        fresh += len(ids)
        sizes = Counter(labels)
        active = [i for i in active if sizes[labels[i]] > 1]
        if kept is None:
            kept, labels, active = active, [labels[c] for c in active], range(len(active))
        chosen.append(best_j)
        touched |= group.touch[best_j]
    return chosen


def _plan(cands, indices, tag: str, mode: FaultMode) -> MeasurementPlan:
    ms = tuple(cands[j] for j in indices)
    return MeasurementPlan(ms, (tag,) * len(ms), mode)


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
    the greedy incumbent share one key table (`reading_classes`); each
    row's distinct-key count is the bound that orders the greedy's first
    step, so that step scores only its pick.  The budget runs from the
    call, but it is first checked once the incumbent exists: the
    network's inversion, the key table and the greedy order always run
    to the end, so the budget bounds the mask build and the search, not
    that set-up.  A budget spent by then, or while the masks are built,
    returns the greedy incumbent with the seed lower bound.
    `first_probe_orbits`, probes the root tries first (then the pivot's
    coverers that their refuted orbits leave unbanned), is kept only for
    perfbench/workloads.py: the twin-orbit root makes it pure overhead.
    It must be a non-empty list of candidates.
    """
    deadline = time.monotonic() + budget_seconds
    cands = list(candidates) if candidates is not None else net.measurements()
    table = reading_classes(net, cands, mode, no_fault)
    first = set(first_probe_orbits or ())
    if (first_probe_orbits is not None and not first) or first - set(cands):
        raise ValueError("first_probe_orbits must be a non-empty list of candidates")
    ne = len(net.edges) + no_fault
    group = _TwinGroup(_twin_classes(net), cands, net.n)
    table_row = lambda j, kept: table[j] if kept is None else itemgetter(*kept)(table[j])
    greedy = _greedy_order(table_row, ne, group, [len(set(row)) for row in table])
    if greedy is None:
        return Infeasible(tuple(merged_pairs(net.edges + (None,) * no_fault, table)))
    greedy_plan = _plan(cands, greedy, "greedy", mode)

    pair_count = ne * (ne - 1) // 2
    max_single = max(
        (pair_count - sum(k * (k - 1) // 2 for k in Counter(row).values()) for row in table),
        default=0,
    )
    # max_single is 0 only when there is no pair to split (else greedy stalled).
    root_lower = max(1, -(-pair_count // max(max_single, 1)), group.needed(()))
    if root_lower < len(greedy):  # else no smaller set exists
        if time.monotonic() > deadline:
            return TimedOut(incumbent=greedy_plan, lower_bound=root_lower)
        root_indices = [i for i, m in enumerate(cands) if m in first] if first else None
        target = root_lower
        try:
            inst = _CoverInstance(table, ne, group, deadline)
            for target in range(root_lower, len(greedy)):
                found = inst.search(target, [], 0, 0, 0, root_indices)
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
    necessarily minimum; the exact solver uses it as its incumbent.  A
    caller-given pool is range-checked first (the default pool, every
    vertex pair, is in range).  Rows come straight from the reading
    kernel's cell keys, through one view of every column and, from the
    second step on, one of the columns the first pick left live.  The
    first step reads them in descending order of the split bound (module
    docstring), computed from the network's shape alone, and stops once
    no bound can beat the best row read; later steps compute each row
    once.  The key table is built only when the pool leaves a pair
    merged, to name every merged pair in Infeasible.
    """
    if candidates is None:
        cands = net.measurements()
    else:
        cands = list(candidates)
        for m in cands:  # before the first step, whose scan may stop early
            _check_measurement(net, m)
    kernel = net._reading_kernel
    entries = _key_entries(net, mode, no_fault)
    full, narrow = kernel.view(entries), None

    def row(j, kept):
        nonlocal narrow
        m = cands[j]
        if kept is None:
            return kernel.cell_keys(m.r, m.s, full)
        if narrow is None:  # `kept` is one list, fixed after the first step
            narrow = kernel.view([entries[c] for c in kept])
        return kernel.cell_keys(m.r, m.s, narrow)

    group = _TwinGroup(_twin_classes(net), cands, net.n)
    greedy = _greedy_order(row, len(entries), group, _split_bounds(net, cands, mode, no_fault))
    if greedy is None:  # name every merged pair
        table = reading_classes(net, cands, mode, no_fault)
        return Infeasible(tuple(merged_pairs(net.edges + (None,) * no_fault, table)))
    return _plan(cands, greedy, "greedy", mode)


class MeasurementGraphReport(_Record):
    """Component structure of the probe pairs viewed as a graph on the vertices."""

    __slots__ = _fields = ("components", "isolated", "size_two_components", "violations")

    def __init__(self, components: tuple[tuple[int, ...], ...], isolated: tuple[int, ...],
                 size_two_components: tuple[tuple[int, int], ...], violations: tuple[str, ...]):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "isolated", isolated)
        object.__setattr__(self, "size_two_components", size_two_components)
        object.__setattr__(self, "violations", violations)


def analyze_measurement_graph(
    net: Network, measurements: Sequence[Measurement]
) -> MeasurementGraphReport:
    """Check a probe set against two structural conditions every solution obeys.

    By the argument in the module docstring, a distinguishing set on
    n >= 3 vertices leaves at most one vertex of each twin class
    untouched, and has no two-vertex component whose vertices are twins
    (a lone twin pair): there the probe joining them is the only one
    touching either, and the transposition fixes it.  The search's
    component cut reads the same two facts through the same routine.  In
    a complete graph the one class is every vertex; in a complete
    k-partite graph with parts of two or more, the classes are the
    partitions.  Violations are reported by name; an empty tuple means
    the necessary conditions hold.
    """
    for m in measurements:
        _check_measurement(net, m)
    components = tuple(map(tuple, _components(net.n, [m.pair for m in measurements])))
    isolated = tuple(c[0] for c in components if len(c) == 1)
    size_two = tuple((c[0], c[1]) for c in components if len(c) == 2)

    violations: list[str] = []
    if net.n >= 3:
        classes = [tuple(c) for c in _twin_classes(net) if len(c) > 1]
        pairs = list(dict.fromkeys(m.pair for m in measurements))
        untouched, lone = _TwinGroup(classes, (), net.n).shortfall(pairs)
        for cls, k in zip(classes, untouched):
            if k > 1:
                violations.append(
                    f"twin class {cls} has {k} isolated vertices (at most one is allowed)"
                )
        class_of = {v: cls for cls in classes for v in cls}
        for c in sorted(lone):
            violations.append(f"component of size two {c} inside twin class {class_of[c[0]]}")
    return MeasurementGraphReport(components, isolated, size_two, tuple(violations))
