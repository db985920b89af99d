"""Exact fraction-free linear algebra for small dense integer matrices.

Everything here works on plain lists of ints and never touches floating
point; callers with rational entries scale them to integers first.  The
central routine inverts a row-scaled symmetric matrix M = R A (R = diag
of the row scales r_k, A symmetric) by fraction-free bordering: it grows
the leading k x k block one row and column at a time and keeps

    S_k = adj(M_k) R_k = D_k A_k^-1,    D_k = det M_k,

which is symmetric, so only its upper triangle is ever computed.  With d
row k of M left of the diagonal and c its diagonal entry, the Schur
complement of the bordered block gives

    w = S_k d / r_k    (= adj(M_k) times column k of M above the diagonal)
    D_k+1 = c D_k - d . w
    S_k+1 = [[(D_k+1 S_k + r_k w w^T) / D_k, -r_k w], [-r_k w^T, r_k D_k]]

Every division is exact: w is the adjugate of an integer matrix times an
integer column, and the block divided by D_k is S_k+1's own top-left
block, an integer matrix (Sylvester's identity, as in Bareiss's
integer-preserving elimination).  The D_k are the leading principal
minors of M, the pivots fraction-free elimination would meet; for
reduced Laplacians they are all positive, which doubles as a positive
definiteness certificate.  About n^3 / 6 big-integer updates in all,
against n^3 for Gauss-Jordan elimination of [M | I].
"""

from __future__ import annotations

from operator import itemgetter


class SingularMatrixError(ValueError):
    """A leading principal minor is zero: the bordering cannot go on."""


def fraction_free_invert(mat: list[list[int]], scales: list[int]) -> tuple[list[list[int]], int]:
    """(adj(mat) diag(scales), det mat) for mat = diag(scales) A, A symmetric.

    mat**-1 diag(scales) == adj / det entrywise, and adj is symmetric.
    Both parts are integers; no rounding ever occurs.

    Raises ValueError unless mat is square, scales has one nonzero entry
    per row and mat[i][j] * scales[j] == mat[j][i] * scales[i] for every
    pair; SingularMatrixError on a zero leading principal minor (there is
    no pivoting: the intended inputs are row-scaled reduced Laplacians,
    which are positive definite up to their scales).
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    if len(scales) != n:
        raise ValueError(f"{len(scales)} scales for {n} rows")
    if not all(scales):
        raise ValueError("scales must be nonzero")
    for i, (row, r) in enumerate(zip(mat, scales)):
        if any(x * scales[j] != mat[j][i] * r for j, x in enumerate(row[:i])):
            raise ValueError("matrix is not symmetric up to its row scales")
    s: list[list[int]] = []  # S_k; row i holds S_k[i][j] at j >= i, stale values left of i
    det = 1
    for k, (row, r) in enumerate(zip(mat, scales)):
        d = [(j, x) for j, x in enumerate(row[:k]) if x]
        w = [0] * k
        for j, x in d:
            column = [*map(itemgetter(j), s[:j]), *s[j][j:]]
            w = [a + x * b for a, b in zip(w, column)]
        if r != 1:
            w = [a // r for a in w]
        pivot = row[k] * det - sum(x * w[j] for j, x in d)
        if pivot == 0:
            raise SingularMatrixError(f"zero pivot at step {k}")
        for i, s_i in enumerate(s):
            rw = r * w[i]
            s_i[i:] = [(pivot * a + rw * b) // det for a, b in zip(s_i[i:], w[i:])]
            s_i.append(-rw)
        s.append([0] * k + [r * det])
        det = pivot
    columns = list(zip(*s))
    for i, s_i in enumerate(s):
        s_i[:i] = columns[i][:i]
    return s, det
