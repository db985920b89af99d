"""Exact fraction-free linear algebra for small dense integer matrices.

Everything here works on plain lists of ints and never touches floating
point; callers with rational entries scale them to integers first.  The
central routine is a Bareiss-style Gauss-Jordan elimination: all
intermediate values are integers, every division is exact, and the
pivots produced along the way are the leading principal minors of the
input.  That last fact doubles as a positive definiteness certificate
for reduced Laplacians.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    """Elimination hit a zero pivot: the matrix is not invertible."""


def fraction_free_invert(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """Invert a square integer matrix by Bareiss Gauss-Jordan elimination.

    Returns (adj, det) such that mat**-1 == adj / det entrywise.  Both
    parts are integers; no rounding ever occurs.

    Raises SingularMatrixError on a zero pivot (no pivoting is attempted:
    the intended inputs are reduced Laplacians, which are positive
    definite and therefore have nonzero leading principal minors).
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    # Augment with the identity; the right half becomes the adjugate.  At
    # step k every column left of k holds the pivot on the diagonal and 0
    # elsewhere, and so does every column right of n + k, so only columns
    # k..n+k change; the diagonal entries outside them are set to the pivot.
    b = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        pivot = b[k][k]
        if pivot == 0:
            raise SingularMatrixError(f"zero pivot at step {k}")
        span = slice(k, n + k + 1)
        pivot_row = b[k][span]
        for i in range(n):
            if i == k:
                continue
            row_i = b[i]
            f = row_i[k]
            row_i[span] = [(pivot * x - f * y) // prev for x, y in zip(row_i[span], pivot_row)]
            row_i[i if i < k else n + i] = pivot
        prev = pivot
    det = b[n - 1][n - 1] if n else 1
    adj = [row[n:] for row in b]
    return adj, det
