"""Inverse reduced Laplacians at any ground, built in the tests.

The library grounds each network once.  These helpers ground it at a
chosen vertex with `build_reduced_laplacian` and `fraction_free_invert`,
so tests can check the library's resistances against every grounding.
"""

from fractions import Fraction

from resfault.linalg import fraction_free_invert
from resfault.network import build_reduced_laplacian


def grounded_inverse(net, ground):
    """Inverse reduced Laplacian at `ground`, padded with a zero row and
    column there so that it indexes vertices directly."""
    adj, det, scale = fraction_free_invert(build_reduced_laplacian(net, ground))
    rows = [[Fraction(x * scale, det) for x in row] for row in adj]
    for row in rows:
        row.insert(ground, Fraction(0))
    rows.insert(ground, [Fraction(0)] * net.n)
    return rows


def grounded_resistance(net, m, ground):
    """Effective resistance of the probe pair `m` read off the grounding at `ground`."""
    inv = grounded_inverse(net, ground)
    return inv[m.r][m.r] + inv[m.s][m.s] - 2 * inv[m.r][m.s]
