"""Reduced Laplacians and their inverses at any ground, built in the tests.

The library grounds each network once, at vertex 0, peels its hanging
trees and scales each row of the core's reduced Laplacian to integers by
its own denominators in `network._ground`.  These helpers build the
rational reduced Laplacian of the whole graph at chosen grounds, scale it
as a whole to integers by the lcm of all its entries' denominators and
invert it by the Gauss-Jordan elimination of `reference.full_width_invert`,
not the library's bordering, so tests can check the library's grounding,
and its resistances, against every grounding computed another way.
"""

from fractions import Fraction
from math import lcm

from reference import full_width_invert


def reduced_laplacian(n, edges, grounds):
    """Laplacian of the graph on 0..n-1 with these (u, v, conductance) edges, parallel
    edges adding up, with the grounds' rows and columns deleted."""
    index = {v: i for i, v in enumerate(v for v in range(n) if v not in grounds)}
    lap = [[Fraction(0)] * len(index) for _ in index]
    for u, v, w in edges:
        for x, y in ((u, v), (v, u)):
            if x in index:
                lap[index[x]][index[x]] += w
                if y in index:
                    lap[index[x]][index[y]] -= w
    return lap


def edge_list(net, ground):
    """The network's (u, v, conductance) edges, once the ground is checked."""
    if not (0 <= ground < net.n):
        raise ValueError(f"ground vertex {ground} out of range")
    return [(e.u, e.v, e.conductance) for e in net.edges]


def build_reduced_laplacian(net, ground):
    """Laplacian of the network with the ground row and column deleted."""
    return reduced_laplacian(net.n, edge_list(net, ground), {ground})


def inverse_at(n, edges, grounds):
    """Inverse of `reduced_laplacian(n, edges, grounds)`, padded with zero rows and
    columns at the grounds so that it indexes vertices directly."""
    lap = reduced_laplacian(n, edges, grounds)
    scale = lcm(*(x.denominator for row in lap for x in row))
    adj, det = full_width_invert([[int(x * scale) for x in row] for row in lap])
    rows = [[Fraction(x * scale, det) for x in row] for row in adj]
    for row in rows:
        for g in sorted(grounds):
            row.insert(g, Fraction(0))
    for g in sorted(grounds):
        rows.insert(g, [Fraction(0)] * n)
    return rows


def grounded_inverse(net, ground):
    """Inverse reduced Laplacian at `ground`, padded with a zero row and
    column there so that it indexes vertices directly."""
    return inverse_at(net.n, edge_list(net, ground), {ground})


def grounded_resistance(net, m, ground):
    """Effective resistance of the probe pair `m` read off the grounding at `ground`."""
    inv = grounded_inverse(net, ground)
    return inv[m.r][m.r] + inv[m.s][m.s] - 2 * inv[m.r][m.s]
