"""Reference computations that only the tests use.

Each one restates something the library computes another way: a plain
matrix product to check inverses, fraction-free Gauss-Jordan elimination
over the full augmented width, the leading principal minors that it
produces as its pivots, the compact and summation forms of the k-partite
block-inverse coefficient, the block inverse itself, the classifiers
that map a (probe, fault edge) pair to its closed-form table column, the
paper's counting rules for plan sizes and its k-partite upper bound, the
probe-by-edge table of Fraction readings that the integer keys must
group alike, a row's values numbered by first appearance, a class-id
row keyed by each correction term in lowest terms, and the greedy's split
bounds with one component walk per cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd
from operator import ne
from typing import NamedTuple, Sequence

from resfault.bounds import _leftover_count, bipartite_bound, tripartite_bound
from resfault.closed_forms import CompleteCase, KPartiteCase, KPartiteColumn
from resfault.families import KPartiteShape
from resfault.network import (
    INFINITE,
    Edge,
    FaultMode,
    Measurement,
    Network,
    Resistance,
    _components,
    perturbed_effective_resistance,
)
from resfault.strategies import _composition


def multiply(a, b):
    """Plain exact matrix product."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            row.append(sum((Fraction(a[i][k]) * b[k][j] for k in range(inner)), Fraction(0)))
        out.append(row)
    return out


def full_width_invert(mat):
    """(adj, det) of a square integer matrix by Bareiss Gauss-Jordan elimination
    that updates every column of [mat | I] at every step."""
    n = len(mat)
    b = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        pivot = b[k][k]
        for i in range(n):
            if i != k:
                f = b[i][k]
                b[i] = [(pivot * x - f * y) // prev for x, y in zip(b[i], b[k])]
        prev = pivot
    return [row[n:] for row in b], b[n - 1][n - 1] if n else 1


def leading_principal_minors(mat):
    """Pivot sequence of fraction-free elimination on an integer matrix.

    Entry k is the k-th leading principal minor; all positive iff the
    matrix is positive definite.
    """
    a = [list(row) for row in mat]
    n = len(a)
    minors = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        minors.append(pivot)
        if pivot == 0:
            break
        for i in range(k + 1, n):
            f = a[i][k]
            for j in range(k, n):
                a[i][j] = (pivot * a[i][j] - f * a[k][j]) // prev
        prev = pivot
    return minors


def c_coefficient(shape: KPartiteShape, q: int, b: int) -> Fraction:
    """Block-inverse coefficient C_{p_q} with the ground in partition b.

    Evaluates ((n-1)^2 + (|p_b|-1) - |p_q|(n-1)) / ((n-|p_q|)(n-|p_b|)n),
    the compact form; the summation form agrees with it whenever q != b
    (checked in the tests).
    """
    n = shape.n
    pq, pb = shape.parts[q], shape.parts[b]
    return Fraction((n - 1) ** 2 + (pb - 1) - pq * (n - 1), (n - pq) * (n - pb) * n)


def c_coefficient_sum_form(shape, q, b):
    """Summation form of `c_coefficient`, for the identity test."""
    n = shape.n
    pq, pb = shape.parts[q], shape.parts[b]
    num = (pb - 1) * n + sum(
        shape.parts[i] * (n - 1) for i in range(shape.k) if i not in (b, q)
    )
    return Fraction(num, (n - pq) * (n - pb) * n)


def kpartite_inverse_entry(shape: KPartiteShape, ground: int, i: int, j: int) -> Fraction:
    """Entry (i, j) of the inverse reduced Laplacian of a unit k-partite graph.

    The block form is stated for a ground in the first partition; other
    grounds follow by permuting partition roles, which is what the
    partition lookups below implement.
    """
    n = shape.n
    if i == ground or j == ground:
        raise ValueError("requested entry indexes the deleted ground row/column")
    g = shape.partition_of(ground)
    pi_, pj_ = shape.partition_of(i), shape.partition_of(j)
    ng = n - shape.parts[g]
    if pi_ == g and pj_ == g:
        return Fraction(2 if i == j else 1, ng)
    if pi_ == g or pj_ == g:
        return Fraction(1, ng)
    if pi_ == pj_:
        c = c_coefficient(shape, pi_, g)
        if i == j:
            return c + Fraction(1, n - shape.parts[pi_])
        return c
    return Fraction(n - 1, n * ng)


def classify_complete(m: Measurement, fault: Edge) -> CompleteCase:
    """Column of the K_n table for a (probe, fault edge) pair."""
    shared = {fault.u, fault.v} & {m.r, m.s}
    if len(shared) == 2:
        return CompleteCase.MATCHES_PROBE
    if not shared:
        return CompleteCase.DISJOINT
    return CompleteCase.TOUCHES_R if m.r in shared else CompleteCase.TOUCHES_S


class Classified(NamedTuple):
    """A k-partite table case plus the relabelings that led to it.

    The swap flags record when the edge endpoints or the probe ends were
    exchanged to match the table header conventions; the values are
    invariant under them.
    """

    case: KPartiteCase
    swapped_edge: bool = False
    swapped_probe: bool = False


def classify_kpartite(shape: KPartiteShape, m: Measurement, fault: Edge) -> Classified:
    """Map a (probe, fault edge) pair to its unique table column.

    The probe pair is taken unordered; when the table header requires the
    roles of r and s (or of the edge endpoints) exchanged, the returned
    flags say so.
    """
    pa_, pb_ = shape.partition_of(fault.u), shape.partition_of(fault.v)
    if pa_ == pb_:
        raise ValueError(f"edge {fault.pair} lies inside partition {pa_}: impossible edge")
    pr_, ps_ = shape.partition_of(m.r), shape.partition_of(m.s)
    u, v = fault.u, fault.v

    if pr_ == ps_:
        # Probe endpoints share a partition: columns X..XII.
        if u in (m.r, m.s) or v in (m.r, m.s):
            a, b = (u, v) if u in (m.r, m.s) else (v, u)
            case = KPartiteCase(KPartiteColumn.X, pr_, shape.partition_of(b))
            return Classified(case, swapped_edge=(a != u), swapped_probe=(a == m.s))
        if pa_ == pr_ or pb_ == pr_:
            a, b = (u, v) if pa_ == pr_ else (v, u)
            case = KPartiteCase(KPartiteColumn.XI, pr_, shape.partition_of(b))
            return Classified(case, swapped_edge=(a != u))
        return Classified(KPartiteCase(KPartiteColumn.XII, pa_, pb_))

    # Cross-partition probe: columns I..IX.
    touches_r_part = pa_ == pr_ or pb_ == pr_
    touches_s_part = pa_ == ps_ or pb_ == ps_
    if touches_r_part and touches_s_part:
        a, b = (u, v) if pa_ == pr_ else (v, u)
        at_r, at_s = a == m.r, b == m.s
        column = {
            (True, True): KPartiteColumn.I,
            (True, False): KPartiteColumn.II,
            (False, True): KPartiteColumn.III,
            (False, False): KPartiteColumn.IV,
        }[(at_r, at_s)]
        return Classified(KPartiteCase(column, pr_, ps_), swapped_edge=(a != u))
    if touches_r_part:
        a, b = (u, v) if pa_ == pr_ else (v, u)
        column = KPartiteColumn.V if a == m.r else KPartiteColumn.VI
        case = KPartiteCase(column, pr_, shape.partition_of(b))
        return Classified(case, swapped_edge=(a != u))
    if touches_s_part:
        # The p_s endpoint is grounded (`b`); the far endpoint plays `a`.
        b, a = (u, v) if pa_ == ps_ else (v, u)
        column = KPartiteColumn.VII if b == m.s else KPartiteColumn.VIII
        case = KPartiteCase(column, shape.partition_of(a), ps_)
        return Classified(case, swapped_edge=(a != u))
    return Classified(KPartiteCase(KPartiteColumn.IX, pa_, pb_))


def table4_triple_count(a: int, b: int, c: int) -> int:
    """Probe count of the tripartite building block for sizes a <= b <= c.

    2(a+b+c)/3 minus 2, 5/3 or 4/3 according to the size differences
    modulo 3; always an integer.
    """
    if not (a <= b <= c):
        raise ValueError("sizes must be nondecreasing")
    d1, d2 = (b - a) % 3, (c - b) % 3
    offset = {0: 6, 1: 5, 2: 4}[(d2 - d1) % 3]
    total = 2 * (a + b + c) - offset
    assert total % 3 == 0
    return total // 3


def kpartite_upper_by_formula(parts: Sequence[int]) -> int:
    """The paper's composed-triple upper bound, written out case by case.

    With val(L) the sum of 2|p| - 2 over every third size of the sorted
    list L: val(L) for k = 0 mod 3; min_i ceil(2|p_i|/3) + val(L \\ {i})
    for k = 1 mod 3; min_{i<j} ceil(2(|p_i|+|p_j|-1)/3) + val(L \\ {i,j})
    for k = 2 mod 3.  K(2, g) takes the proven count max(g, 3).
    """
    parts = sorted(parts)
    k = len(parts)

    def val_without(*drop):
        rest = [p for i, p in enumerate(parts) if i not in drop]
        return sum(2 * rest[i] - 2 for i in range(2, len(rest), 3))

    if k == 2 and parts[0] == 2:
        return max(parts[1], 3)
    if k % 3 == 0:
        return val_without()
    if k % 3 == 1:
        return min(-(-2 * parts[i] // 3) + val_without(i) for i in range(k))
    return min(
        -(-2 * (parts[i] + parts[j] - 1) // 3) + val_without(i, j)
        for i in range(k)
        for j in range(i + 1, k)
    )


def plan_size_by_rule(family: str, shape_or_n) -> int:
    """Predicted plan size from the counting rules, without generating the plan.

    family "complete": ceil(2n/3).  k = 2: the exact bipartite count,
    max(g, 3) with a size-2 partition.  k = 3: the tripartite upper bound,
    which is the table value except for a dominated largest partition,
    where it counts the matching-plus-butterfly plan.  k >= 4: the
    composed count (triple table entries plus the leftover-step terms at
    the selected partitions), which is at most the stated k-partite upper
    bound and often below it: 7 against 8 for K(2,2,3,5).
    """
    if family == "complete":
        return -(-2 * shape_or_n // 3)
    if family != "k_partite":
        raise ValueError(f"unknown family {family!r}")
    shape: KPartiteShape = shape_or_n
    if shape.k == 2:
        return bipartite_bound(*shape.parts).upper
    if shape.k == 3:
        return tripartite_bound(*shape.parts).upper
    triples, aside = _composition(shape)
    total = sum(table4_triple_count(*(shape.parts[i] for i in t)) for t in triples)
    return total + (-(-2 * _leftover_count(shape.parts, aside) // 3) if aside else 0)


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


def numbered(row: Sequence) -> list[int]:
    """The row's values numbered from 0 by first appearance.

    Two rows number alike exactly when they group their columns alike.
    """
    ids: dict = {}
    return [ids.setdefault(value, len(ids)) for value in row]


def gcd_keyed_classes(net: Network, m: Measurement, mode: FaultMode, no_fault: bool) -> list[int]:
    """The probe's class-id row, each fault keyed by its reduced correction term.

    From the kernel's integers P and D alone: the correction is k X^2 / den
    with (k, den) = (1, Z) shorted and (-p, q D - p Z) removed; a fault
    is keyed by (k X^2, den) in lowest terms, (0, 1) when X = 0 (the healthy
    network's key) and INFINITE when den = 0 and X != 0.  Ids are numbered
    from 0 in column order.
    """
    kernel = net._reading_kernel
    p, det = kernel.p, kernel.det
    d = [x - y for x, y in zip(p[m.r], p[m.s])]
    keys = []
    for e in net.edges:
        a, b, w = e.u, e.v, e.conductance
        z = p[a][a] + p[b][b] - 2 * p[a][b]
        if mode is FaultMode.SHORTED:
            k, den = 1, z
        else:
            k, den = -w.numerator, w.denominator * det - w.numerator * z
        x = d[a] - d[b]
        if not x:
            key = (0, 1)
        elif not den:
            key = INFINITE
        else:
            x *= k * x
            g = gcd(x, den)
            key = (x // g, den // g)
        keys.append(key)
    if no_fault:
        keys.append((0, 1))
    return numbered(keys)


def split_bounds_by_components(
    net: Network, cands: Sequence[Measurement], mode: FaultMode, no_fault: bool
) -> list[int]:
    """Per candidate, `solver._split_bounds` as one component walk per cut finds it.

    The library reads each cut's components off its DFS tree and sums the
    cuts in a table over vertex pairs; this walks G - cut per cut with
    `network._components` and compares each candidate's ends cut by cut.

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
