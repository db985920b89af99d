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
    q, g = case.a_partition, case.b_partition
    if not (0 <= q < shape.k and 0 <= g < shape.k):
        raise ValueError("partition index out of range")
    n = shape.n
    pq, pg = shape.parts[q], shape.parts[g]
    # Over the common denominator d every inverse entry is an integer:
    # c = C_{p_q} * d (the block-inverse coefficient) and e = E * d.
    d = (n - pq) * (n - pg) * n
    c = (n - 1) ** 2 + (pg - 1) - pq * (n - 1)
    e = c + (n - pg) * n
    if column is KPartiteColumn.I:
        x = e
    elif column is KPartiteColumn.II:
        x = e - (n - pq) * n
    elif column is KPartiteColumn.III:
        x = c
    elif column is KPartiteColumn.IV:
        x = c - (n - pq) * n
    elif column is KPartiteColumn.V:
        x = e - (n - 1) * (n - pq)
    elif column is KPartiteColumn.VI:
        x = c - (n - 1) * (n - pq)
    elif column is KPartiteColumn.VII:
        x = (n - 1) * (n - pq)
    elif column is KPartiteColumn.VIII:
        x = pq - n
    else:  # column X
        x = (n - pg) * n
    if mode is FaultMode.SHORTED:
        return Fraction(x * x, d * e)
    if e == d:
        raise ValueError("degenerate removal: the fault edge is a bridge in this family")
    return Fraction(-x * x, d * (d - e))
