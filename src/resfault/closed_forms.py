"""Closed-form resistance changes for complete and complete k-partite graphs.

For these families the inverse reduced Laplacian has an explicit block
structure, so the change in effective resistance caused by a single
faulted edge collapses to a small table of rational expressions indexed
by how the fault edge sits relative to the probe pair.  This module
implements those tables exactly; `resfault delta` prints them.

Complete graphs have four cases; complete k-partite graphs have nine
columns when the probe endpoints lie in different partitions (I..IX) and
three more when they share a partition (X..XII).  Ground is always placed
at the fault endpoint written `b`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .families import KPartiteShape
from .network import FaultMode


class CompleteCase(enum.Enum):
    """Position of the fault edge (a, b) relative to the probe pair (r, s) in K_n."""

    MATCHES_PROBE = "a=r, b=s"
    TOUCHES_R = "a=r, b!=s"
    TOUCHES_S = "a!=r, b=s"
    DISJOINT = "a,b not in {r,s}"


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
    """Table column plus the partition roles its formula consumes.

    a_partition is the partition of the edge endpoint playing `a`;
    b_partition is the partition of the grounded endpoint `b`.
    """

    column: KPartiteColumn
    a_partition: int
    b_partition: int


# Cached because a caller that reads the table once per (probe, fault) pair asks
# for the same few cells again and again: acceptance criterion 1's 680,316
# lookups take about 1 s with the cache and 7-9 s without (2 cores, Python 3.11).
@lru_cache(maxsize=8192)
def kpartite_delta(shape: KPartiteShape, case: KPartiteCase, mode: FaultMode) -> Fraction:
    """Evaluate the table cell for the classified case: R' = R - delta.

    Shorted cells are x^2 / E and removed cells are -x^2 / (1 - E), where
    E is the grounded inverse diagonal entry at `a` and x the column's
    difference of inverse entries.  1 - E vanishes only for bridge edges;
    among complete k-partite graphs only the stars K(1, m) have them (every
    edge is one), and removing one raises ValueError.
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
