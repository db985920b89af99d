"""Reduced Laplacians and their inverses at any ground, built in the tests.

The library grounds each network once, at vertex 0, and scales each row
of the reduced Laplacian to integers by its own denominators in
`network._ground`.  These helpers build the rational reduced Laplacian
at a chosen vertex, scale it as a whole to integers by the lcm of all
its entries' denominators and invert it by the Gauss-Jordan elimination
of `reference.full_width_invert`, not the library's bordering, so tests
can check the library's row-scaled grounding, and its resistances,
against every grounding computed another way.
"""

from fractions import Fraction
from math import lcm

from reference import full_width_invert


def build_reduced_laplacian(net, ground):
    """Laplacian of the network with the ground row and column deleted."""
    if not (0 <= ground < net.n):
        raise ValueError(f"ground vertex {ground} out of range")
    m = net.n - 1
    idx = lambda v: v if v < ground else v - 1
    lap = [[Fraction(0)] * m for _ in range(m)]
    for e in net.edges:
        w = e.conductance
        if e.u != ground and e.v != ground:
            iu, iv = idx(e.u), idx(e.v)
            lap[iu][iv] -= w
            lap[iv][iu] -= w
        for x in (e.u, e.v):
            if x != ground:
                lap[idx(x)][idx(x)] += w
    return lap


def grounded_inverse(net, ground):
    """Inverse reduced Laplacian at `ground`, padded with a zero row and
    column there so that it indexes vertices directly."""
    lap = build_reduced_laplacian(net, ground)
    scale = lcm(*(x.denominator for row in lap for x in row))
    adj, det = full_width_invert([[int(x * scale) for x in row] for row in lap])
    rows = [[Fraction(x * scale, det) for x in row] for row in adj]
    for row in rows:
        row.insert(ground, Fraction(0))
    rows.insert(ground, [Fraction(0)] * net.n)
    return rows


def grounded_resistance(net, m, ground):
    """Effective resistance of the probe pair `m` read off the grounding at `ground`."""
    inv = grounded_inverse(net, ground)
    return inv[m.r][m.r] + inv[m.s][m.s] - 2 * inv[m.r][m.s]
