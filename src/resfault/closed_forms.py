"""Closed-form resistance changes for complete and complete k-partite graphs.

For these families the inverse reduced Laplacian has an explicit block
structure, so the change in effective resistance caused by a single
faulted edge collapses to a small table of rational expressions indexed
by how the fault edge sits relative to the probe pair.  This module
implements those tables exactly, plus the classifier that maps a
(measurement, fault edge) pair to its table column.

Complete graphs have four cases; complete k-partite graphs have nine
columns when the probe endpoints lie in different partitions (I..IX) and
three more when they share a partition (X..XII).  Ground is always placed
at the fault endpoint written `b`, and the classifier records when edge
or probe endpoints had to be relabeled to match the table conventions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .families import KPartiteShape
from .network import Edge, FaultMode, Measurement


class CompleteCase(enum.Enum):
    """Position of the fault edge (a, b) relative to the probe pair (r, s) in K_n."""

    MATCHES_PROBE = "a=r, b=s"
    TOUCHES_R = "a=r, b!=s"
    TOUCHES_S = "a!=r, b=s"
    DISJOINT = "a,b not in {r,s}"


def classify_complete(m: Measurement, fault: Edge) -> CompleteCase:
    shared = {fault.u, fault.v} & {m.r, m.s}
    if len(shared) == 2:
        return CompleteCase.MATCHES_PROBE
    if not shared:
        return CompleteCase.DISJOINT
    return CompleteCase.TOUCHES_R if m.r in shared else CompleteCase.TOUCHES_S


def complete_delta(n: int, case: CompleteCase, mode: FaultMode) -> Fraction:
    """Table entry for unit-conductance K_n: R' = R - delta.

    Shorted row: {1/(2n), 1/(2n), 0, 2/n}; removed row:
    {-1/(n(n-2)), -1/(n(n-2)), 0, -4/(n(n-2))}.  Requires n >= 3 so the
    removed-mode denominator n-2 cannot vanish.
    """
    if n < 3:
        raise ValueError(f"complete-graph table needs n >= 3, got {n}")
    if case is CompleteCase.DISJOINT:
        return Fraction(0)
    if mode is FaultMode.SHORTED:
        if case is CompleteCase.MATCHES_PROBE:
            return Fraction(2, n)
        return Fraction(1, 2 * n)
    if case is CompleteCase.MATCHES_PROBE:
        return Fraction(-4, n * (n - 2))
    return Fraction(-1, n * (n - 2))


@lru_cache(maxsize=4096)
def c_coefficient(shape: KPartiteShape, q: int, b: int) -> Fraction:
    """Block-inverse coefficient C_{p_q} with the ground in partition b.

    Evaluates ((n-1)^2 + (|p_b|-1) - |p_q|(n-1)) / ((n-|p_q|)(n-|p_b|)n),
    the compact form; the summation form agrees with it whenever q != b
    (checked in the tests).
    """
    k = shape.k
    if not (0 <= q < k and 0 <= b < k):
        raise ValueError("partition index out of range")
    n = shape.n
    pq, pb = shape.parts[q], shape.parts[b]
    return Fraction((n - 1) ** 2 + (pb - 1) - pq * (n - 1), (n - pq) * (n - pb) * n)


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


class KPartiteColumn(enum.Enum):
    """Table columns: I..IX for cross-partition probes, X..XII for same-partition."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"
    VIII = "VIII"
    IX = "IX"
    X = "X"
    XI = "XI"
    XII = "XII"


ZERO_COLUMNS = frozenset({KPartiteColumn.IX, KPartiteColumn.XI, KPartiteColumn.XII})


@dataclass(frozen=True)
class KPartiteCase:
    """Classified table column plus the partition roles its formula consumes.

    a_partition is the partition of the edge endpoint playing `a`;
    b_partition is the partition of the grounded endpoint `b`.  The swap
    flags record the relabelings applied to the inputs to match the table
    header conventions (the values are invariant under them).
    """

    column: KPartiteColumn
    a_partition: int
    b_partition: int
    swapped_edge: bool = False
    swapped_probe: bool = False


def classify_kpartite(shape: KPartiteShape, m: Measurement, fault: Edge) -> KPartiteCase:
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
            return KPartiteCase(
                KPartiteColumn.X,
                a_partition=pr_,
                b_partition=shape.partition_of(b),
                swapped_edge=(a != u),
                swapped_probe=(a == m.s),
            )
        if pa_ == pr_ or pb_ == pr_:
            a, b = (u, v) if pa_ == pr_ else (v, u)
            return KPartiteCase(
                KPartiteColumn.XI,
                a_partition=pr_,
                b_partition=shape.partition_of(b),
                swapped_edge=(a != u),
            )
        return KPartiteCase(KPartiteColumn.XII, a_partition=pa_, b_partition=pb_)

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
        return KPartiteCase(column, pr_, ps_, swapped_edge=(a != u))
    if touches_r_part:
        a, b = (u, v) if pa_ == pr_ else (v, u)
        column = KPartiteColumn.V if a == m.r else KPartiteColumn.VI
        return KPartiteCase(column, pr_, shape.partition_of(b), swapped_edge=(a != u))
    if touches_s_part:
        # The p_s endpoint is grounded (`b`); the far endpoint plays `a`.
        b, a = (u, v) if pa_ == ps_ else (v, u)
        column = KPartiteColumn.VII if b == m.s else KPartiteColumn.VIII
        return KPartiteCase(column, shape.partition_of(a), ps_, swapped_edge=(a != fault.u))
    return KPartiteCase(KPartiteColumn.IX, pa_, pb_)


@lru_cache(maxsize=8192)
def kpartite_delta(shape: KPartiteShape, case: KPartiteCase, mode: FaultMode) -> Fraction:
    """Evaluate the table cell for the classified case: R' = R - delta.

    Shorted cells are x^2 / E and removed cells are -x^2 / (1 - E), where
    E is the grounded inverse diagonal entry at `a` and x the column's
    difference of inverse entries.  1 - E vanishes only for bridge edges,
    which complete k-partite graphs with k >= 2 and n >= 3 never have.
    """
    column = case.column
    if column in ZERO_COLUMNS:
        return Fraction(0)
    n = shape.n
    q, g = case.a_partition, case.b_partition
    pq, pg = shape.parts[q], shape.parts[g]
    c = c_coefficient(shape, q, g)
    e = c + Fraction(1, n - pq)
    if column is KPartiteColumn.I:
        x = e
    elif column is KPartiteColumn.II:
        x = e - Fraction(1, n - pg)
    elif column is KPartiteColumn.III:
        x = c
    elif column is KPartiteColumn.IV:
        x = c - Fraction(1, n - pg)
    elif column is KPartiteColumn.V:
        x = e - Fraction(n - 1, (n - pg) * n)
    elif column is KPartiteColumn.VI:
        x = c - Fraction(n - 1, (n - pg) * n)
    elif column is KPartiteColumn.VII:
        x = Fraction(n - 1, n * (n - pg))
    elif column is KPartiteColumn.VIII:
        x = Fraction(-1, n * (n - pg))
    elif column is KPartiteColumn.X:
        x = Fraction(1, n - pq)
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(column)
    if mode is FaultMode.SHORTED:
        return x * x / e
    if e == 1:
        raise ValueError("degenerate removal: the fault edge is a bridge in this family")
    return -(x * x) / (1 - e)
