"""Reference computations that only the tests use.

Each one restates something the library computes another way: a plain
matrix product to check inverses, the leading principal minors that
fraction-free elimination produces as its pivots, and the summation form
of the k-partite block-inverse coefficient.
"""

from fractions import Fraction

from resfault.linalg import _to_integer_matrix


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
