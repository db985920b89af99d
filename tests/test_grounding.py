"""The peeled grounding against Gauss-Jordan on the whole reduced Laplacian.

`network._ground` peels every hanging tree before it inverts and then
fills the peeled rows back in, and both the kernel and the oracle ground
through it, so their agreement cannot catch a fault in the peel.  Here
its P and D are checked bit for bit, with gcd 1, against `grounding`'s
Gauss-Jordan inverse of the whole reduced Laplacian, grounded at the
lowest vertex of each connected part: on random trees and paths (one with
the ground a leaf), pendant chains on a K4, the bridged network, one and
two vertices, and every altered graph the oracle grounds, in both modes.
Those hold a lone vertex where a removed pendant bridge cut a leaf off,
and a leaf held by two parallel edges where shorting merged its two
neighbours.  The peel is seen to happen: a tree inverts an empty core.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import resfault.network
from resfault.families import complete_network
from resfault.network import FaultMode, Measurement, Network, _ground, direct_effective_resistance_oracle

from grounding import inverse_at
from test_kernel import bridged_network, pendant_network


def parts(n, edges):
    """Each vertex's connected part, parts numbered by their lowest vertex."""
    label = list(range(n))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x

    for u, v, _ in edges:
        a, b = sorted((find(u), find(v)))
        label[b] = a
    roots = sorted({find(x) for x in range(n)})
    return [roots.index(find(x)) for x in range(n)], roots


def assert_grounds_like_gauss_jordan(n, edges):
    part, grounds = parts(n, edges)
    inv = inverse_at(n, edges, set(grounds))
    det = lcm(*(x.denominator for row in inv for x in row))
    p, d, got_part = _ground(n, list(edges))
    assert (p, d, got_part) == ([[x * det for x in row] for row in inv], det, part)
    assert gcd(d, *(x for row in p for x in row)) == 1


def weight(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def random_tree(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    label = rng.sample(range(n), n)
    return n, [(label[rng.randrange(v)], label[v], weight(rng)) for v in range(1, n)]


def random_path(seed, ground_is_a_leaf=False):
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    order = rng.sample(range(n), n)
    if ground_is_a_leaf:
        order.remove(0)
        order.insert(0, 0)
    return n, [(u, v, weight(rng)) for u, v in zip(order, order[1:])]


def pendant_chains_on_k4(seed):
    """K4 on 0..3 with chains of 1 to 3 edges hung at its vertices, and a branch."""
    rng = random.Random(seed)
    edges = [(u, v, weight(rng)) for u in range(4) for v in range(u + 1, 4)]
    n = 4
    for at in (0, 1, 1, 3):
        for _ in range(rng.randint(1, 3)):
            edges.append((at, n, weight(rng)))
            at, n = n, n + 1
    edges.append((n - 2, n, weight(rng)))  # the last chain forks at its next to last vertex
    return n + 1, edges


def cases():
    yield 1, []
    yield 2, [(0, 1, Fraction(3, 7))]
    yield 2, [(1, 0, Fraction(3, 7)), (0, 1, Fraction(2))]  # parallel edges
    for seed in range(30):
        yield random_tree(seed)
        yield random_path(seed, ground_is_a_leaf=seed % 2 == 0)
    for seed in range(6):
        yield pendant_chains_on_k4(seed)
    for net in (bridged_network(), complete_network(5), pendant_network(4, 9)):
        yield net.n, [(e.u, e.v, e.conductance) for e in net.edges]


@pytest.mark.parametrize("n,edges", list(cases()))
def test_the_peeled_grounding_is_the_whole_inverse_in_lowest_terms(n, edges):
    assert_grounds_like_gauss_jordan(n, edges)


def test_a_path_with_the_ground_at_an_end_and_a_tree_invert_nothing(monkeypatch):
    sizes = []
    real = resfault.network.fraction_free_invert
    monkeypatch.setattr(resfault.network, "fraction_free_invert",
                        lambda mat, scales: sizes.append(len(mat)) or real(mat, scales))
    for n, edges in (random_path(0, ground_is_a_leaf=True), random_tree(1), random_tree(2)):
        _ground(n, edges)
    n, edges = pendant_chains_on_k4(0)
    _ground(n, edges)
    assert sizes == [0, 0, 0, 3]  # the K4 less its ground


def shorted_edges(net, fault):
    """The altered graph's edges as the oracle forms them for a shorted fault."""
    a, b = fault.pair
    to = lambda x: a if x == b else x
    return [(to(e.u), to(e.v), e.conductance) for e in net.edges if e != fault]


def test_shorting_leaves_a_leaf_on_two_parallel_edges():
    # Vertex 3 is joined to 1 and 2 only; shorting (1, 2) leaves it two edges, both to 1.
    net = Network.from_edge_list(4, [(0, 1, 2), (0, 2, Fraction(1, 3)), (1, 2, 5), (1, 3, Fraction(4, 3)),
                                     (2, 3, Fraction(7, 2))])
    edges = shorted_edges(net, net.edge_between(1, 2))
    assert sorted((u, v) for u, v, _ in edges if 3 in (u, v)) == [(1, 3), (1, 3)]
    assert_grounds_like_gauss_jordan(net.n, edges)


def oracle_networks():
    rng = random.Random(3)
    yield bridged_network()
    yield pendant_network(6, 9)
    yield Network.from_edge_list(10, [(rng.randrange(v), v, weight(rng)) for v in range(1, 10)])
    n, edges = pendant_chains_on_k4(1)
    yield Network.from_edge_list(n, edges)
    yield Network.from_edge_list(5, [(0, 1, 2), (0, 2, 3), (1, 2, 5), (1, 3, 7), (2, 3, 1), (3, 4, 4)])


@pytest.mark.parametrize("mode", list(FaultMode))
def test_every_altered_graph_the_oracle_grounds(mode):
    seen = {"lone vertex": 0, "parallel leaf": 0}
    for net in oracle_networks():
        for fault in net.edges:
            direct_effective_resistance_oracle(net, Measurement(0, 1), fault, mode)
            if mode is FaultMode.SHORTED:
                edges = shorted_edges(net, fault)
            else:
                edges = [(e.u, e.v, e.conductance) for e in net.edges if e != fault]
            part, _ = parts(net.n, edges)
            neighbours = [[u + v - x for u, v, _ in edges if x in (u, v)] for x in range(net.n)]
            seen["lone vertex"] += part.count(part[fault.v]) == 1
            seen["parallel leaf"] += any(len(ns) == 2 and ns[0] == ns[1] for ns in neighbours)
            assert_grounds_like_gauss_jordan(net.n, edges)
            assert net._oracle_views[mode, fault.pair] == _ground(net.n, edges)
    assert seen["lone vertex" if mode is FaultMode.REMOVED else "parallel leaf"], seen
