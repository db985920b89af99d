"""Reference computations that only the tests use.

Each one restates something the library computes another way: a plain
matrix product to check inverses, the leading principal minors that
fraction-free elimination produces as its pivots, the summation form
of the k-partite block-inverse coefficient, and the probe-by-edge table
of Fraction readings that the integer class ids must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from resfault.linalg import _to_integer_matrix
from resfault.network import (
    Edge,
    FaultMode,
    Measurement,
    Network,
    Resistance,
    perturbed_effective_resistance,
)


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


def leading_principal_minors(mat):
    """Pivot sequence of fraction-free elimination on the integer-scaled matrix.

    Entry k is the k-th leading principal minor of (mat * scale); all
    positive iff the matrix is positive definite.
    """
    a, _ = _to_integer_matrix(mat)
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


def c_coefficient_sum_form(shape, q, b):
    """Summation form of `closed_forms.c_coefficient`, for the identity test."""
    n = shape.n
    pq, pb = shape.parts[q], shape.parts[b]
    num = (pb - 1) * n + sum(
        shape.parts[i] * (n - 1) for i in range(shape.k) if i not in (b, q)
    )
    return Fraction(num, (n - pq) * (n - pb) * n)


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
