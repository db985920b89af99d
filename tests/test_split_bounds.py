"""The split bound that orders the greedy's first step, against brute force.

The bound rests on two merges, checked first with the rebuilt-graph
oracle and with blocks, bridges and 2-edge cuts found by deleting
vertices, edges and edge pairs, with no reading kernel and no bound
code: every edge of a block off the probe's path reads the healthy
value, and in removed mode the faults of one cut-pair class C read alike
when r and s lie in one component of G - C, and take at most two
readings otherwise.  Then the bound itself, on trees, ladders, cycles
with pendant paths, two blocks joined by a bridge, a grid and pendant
networks: it is never below a row's number of distinct keys, it is the
column count where the network is one block (and, in removed mode, has
no 2-edge cut), some row of every pendant network meets the largest
bound, and with it the greedy's first step reads one or two full rows.
Last, the bounds equal those of the reference that walks G - cut once per
cut, on random sparse networks whose vertices are labelled at random, on
cycles (one class that parts every pair) and on whole and partial pools.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement

import pytest

from resfault.families import KPartiteShape, complete_network
from resfault.network import (
    INFINITE,
    FaultMode,
    Network,
    _ReadingKernel,
    direct_effective_resistance_oracle,
)
from resfault.signatures import reading_classes
from resfault.solver import _split_bounds, solve_greedy

from grounding import grounded_resistance
from reference import split_bounds_by_components
from test_kernel import bridged_network, pendant_network

REMOVED = FaultMode.REMOVED


def weighted(n, pairs, seed):
    """The network on these vertex pairs, conductances p/q (1 <= p, q <= 9) drawn
    from the seed; unit conductances when the seed is None."""
    rng = random.Random(seed)
    weight = lambda: 1 if seed is None else Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return Network.from_edge_list(n, [(u, v, weight()) for u, v in pairs])


def ladder(rungs, seed=None):
    """Rails 0..k-1 and k..2k-1 joined by k rungs (i, k + i)."""
    k = rungs
    pairs = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return weighted(2 * k, pairs + [(i, k + i) for i in range(k)], seed)


def tree(n, seed):
    rng = random.Random(seed)
    return weighted(n, [(rng.randrange(v), v) for v in range(1, n)], seed)


def chorded_cycle(seed=None):
    """The 6-cycle with the chord (0, 3): two 4-cycles sharing that chord."""
    return weighted(6, [(v, (v + 1) % 6) for v in range(6)] + [(0, 3)], seed)


def cycle_with_pendant_paths(seed=None):
    """The 6-cycle with a path of two edges hung at vertex 0 and one of three at 3."""
    pairs = [(v, (v + 1) % 6) for v in range(6)] + [(0, 6), (6, 7), (3, 8), (8, 9), (9, 10)]
    return weighted(11, pairs, seed)


def two_blocks_and_a_bridge(seed=None):
    """K4 on 0..3 and the 5-cycle 4..8 with the chord (4, 6), joined by the bridge (3, 4)."""
    pairs = list(combinations(range(4), 2)) + [(4 + v, 4 + (v + 1) % 5) for v in range(5)]
    return weighted(9, pairs + [(4, 6), (3, 4)], seed)


def grid(k, seed=None):
    pairs = [(v, v + 1) for v in range(k * k) if (v + 1) % k]
    return weighted(k * k, pairs + [(v, v + k) for v in range(k * k - k)], seed)


def sparse_networks():
    """Networks with bridges, several blocks and 2-edge cuts, as no family has."""
    return [
        tree(8, 0), tree(9, 1), ladder(4), ladder(4, 1), chorded_cycle(2),
        cycle_with_pendant_paths(), cycle_with_pendant_paths(3), two_blocks_and_a_bridge(),
        two_blocks_and_a_bridge(4), grid(5, 5),
    ]


def components(n, pairs):
    """A component label per vertex of the graph on 0..n-1 with these edges."""
    label = list(range(n))

    def find(x):
        while label[x] != x:
            label[x] = label[label[x]]
            x = label[x]
        return x

    for u, v in pairs:
        label[find(u)] = find(v)
    return [find(x) for x in range(n)]


def sides(net, removed):
    """A component label per vertex of the network less the `removed` edges."""
    return components(net.n, [e.pair for e in net.edges if e not in removed])


def cut_pair_classes(net):
    """The bridges, and the non-bridges grouped by "forms a 2-edge cut with"."""
    split = lambda removed: len(set(sides(net, removed))) > 1
    bridges = {e for e in net.edges if split({e})}
    group = {e: {e} for e in net.edges if e not in bridges}
    for e, f in combinations(group, 2):
        if group[e] is not group[f] and split({e, f}):
            merged = group[e] | group[f]
            for g in merged:
                group[g] = merged
    return bridges, list({id(c): c for c in group.values()}.values())


def one_block(net):
    """Whether the network is one edge, or stays connected without any one vertex."""
    return net.n == 2 or all(
        len({c for v, c in enumerate(components(net.n, [e.pair for e in net.edges if x not in e.pair]))
             if v != x}) == 1
        for x in range(net.n)
    )


@pytest.mark.parametrize("mode", list(FaultMode))
def test_every_edge_of_a_block_off_the_path_reads_the_healthy_value(mode):
    # bridged_network: two K4s, on 0..3 and on 5..8, and the bridges (3, 4),
    # (4, 5) and (8, 9).  A removed bridge on the path separates the probe.
    net = bridged_network()
    bridges, _ = cut_pair_classes(net)
    blocks = [[e for e in net.edges if e.v <= 3], [e for e in net.edges if e.u >= 5 and e.v <= 8]]
    blocks += [[e] for e in sorted(bridges)]
    assert sorted(e for block in blocks for e in block) == list(net.edges)
    assert len(bridges) == 3
    seen = Counter()
    for m in net.measurements():
        healthy = grounded_resistance(net, m, 0)
        for block in blocks:
            side = sides(net, set(block))
            readings = {direct_effective_resistance_oracle(net, m, e, mode) for e in block}
            if side[m.r] == side[m.s]:
                assert readings == {healthy}, (m, block)
                seen["off", len(block) > 1] += 1
            elif len(block) == 1 and mode is REMOVED:
                assert readings == {INFINITE}, (m, block)
    assert seen["off", True] and seen["off", False], seen


@pytest.mark.parametrize(
    "net", [ladder(6, 6), chorded_cycle(7), pendant_network(1, 9)],
    ids=["ladder", "chorded-cycle", "pendant"],
)
def test_a_removed_cut_pair_class_reads_once_in_one_piece_and_at_most_twice_across(net):
    _, classes = cut_pair_classes(net)
    classes = [c for c in classes if len(c) > 1]
    assert classes
    seen = Counter()
    for cls in classes:
        side = sides(net, cls)
        assert len(set(side)) == len(cls)  # G - C has |C| components
        for m in net.measurements():
            readings = {direct_effective_resistance_oracle(net, m, e, REMOVED) for e in cls}
            if side[m.r] == side[m.s]:
                assert len(readings) == 1, (m, cls)
            else:
                assert len(readings) <= 2, (m, cls)
            seen[side[m.r] == side[m.s], len(readings)] += 1
    assert seen[True, 1] and seen[False, 2], seen


PENDANTS = [(0, 9), (1, 9), (2, 9), (3, 9), (7, 8), (3, 10)]


@pytest.mark.parametrize("no_fault", [False, True], ids=["faults", "no_fault"])
@pytest.mark.parametrize("mode", list(FaultMode))
def test_the_bound_caps_every_row_and_some_pendant_row_meets_the_largest(mode, no_fault):
    pendants = [pendant_network(seed, n) for seed, n in PENDANTS]
    for net in sparse_networks() + pendants:
        cands = net.measurements()
        bounds = _split_bounds(net, cands, mode, no_fault)
        counts = [len(set(row)) for row in reading_classes(net, cands, mode, no_fault)]
        assert all(b >= c for b, c in zip(bounds, counts)), net
        if net in pendants:
            assert max(bounds) == max(counts), net


def random_sparse(seed):
    """A random spanning tree with 0 to 2n chords and shuffled labels: bridges, blocks,
    2-edge cuts with and without a back edge of the DFS tree, and one-block networks."""
    rng = random.Random(seed)
    n = rng.randint(1, 16)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.choice([0, 1, 2, n // 3, n, 2 * n]) if n > 1 else 0):
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    label = rng.sample(range(n), n)
    return weighted(n, [(label[u], label[v]) for u, v in pairs], None)


@pytest.mark.parametrize("no_fault", [False, True], ids=["faults", "no_fault"])
@pytest.mark.parametrize("mode", list(FaultMode))
def test_the_bound_matches_the_component_walk_per_cut(mode, no_fault):
    cycles = [weighted(n, [(v, (v + 1) % n) for v in range(n)], None) for n in range(3, 8)]
    nets = [random_sparse(seed) for seed in range(300)] + cycles + sparse_networks()
    rng = random.Random(1)
    for net in nets + [complete_network(6), bridged_network(), pendant_network(2, 12)]:
        everything = net.measurements()
        for cands in (everything, [m for m in everything if rng.random() < 0.3]):
            want = split_bounds_by_components(net, cands, mode, no_fault)
            assert _split_bounds(net, cands, mode, no_fault) == want, net


@cache
def kpartite_shape_facts(parts):
    """The shape's network, whether it is one block, and whether no two of its
    edges are a 2-edge cut and none a bridge."""
    net = KPartiteShape(parts).network()
    bridges, classes = cut_pair_classes(net)
    return net, one_block(net), not bridges and len(classes) == len(net.edges)


@pytest.mark.parametrize("no_fault", [False, True], ids=["faults", "no_fault"])
@pytest.mark.parametrize("mode", list(FaultMode))
def test_the_bound_is_the_column_count_on_one_block_without_2_edge_cuts(mode, no_fault):
    # Shorted, one block puts every edge on every probe's path; removed, each
    # edge must also be its own class.  The triangle is one class of three in
    # removed mode, and each probe reads its own edge's fault apart from the
    # other two, which read alike: two keys, and the bound says so.
    for n in range(2, 13):
        net = complete_network(n)
        bounds = _split_bounds(net, net.measurements(), mode, no_fault)
        want = 2 if n == 3 and mode is REMOVED else len(net.edges)
        assert bounds == [want + no_fault] * len(bounds), n
    # The k-partite shapes of the greedy cases: 2 to 4 parts of 1 to 4.  Of the
    # 65, K(1, n) is a star and K(1, 1) a bridge; K(2, n) and K(1, 1, n) have
    # a vertex of degree two, two of whose edges are a 2-edge cut.
    equal = 0
    for k in (2, 3, 4):
        for parts in combinations_with_replacement(range(1, 5), k):
            net, block, no_cut = kpartite_shape_facts(parts)
            if block and (mode is not REMOVED or no_cut):
                bounds = _split_bounds(net, net.measurements(), mode, no_fault)
                assert bounds == [len(net.edges) + no_fault] * len(bounds), parts
                equal += 1
    assert equal == (54 if mode is REMOVED else 62)


def first_step_reads(net, mode, monkeypatch):
    """How many rows the greedy's first step reads on every column."""
    views, cell_keys = [], _ReadingKernel.cell_keys

    def logged(kernel, r, s, view):
        views.append(view)
        return cell_keys(kernel, r, s, view)

    monkeypatch.setattr(_ReadingKernel, "cell_keys", logged)
    solve_greedy(net, mode=mode)
    monkeypatch.undo()
    # Later steps read a view of the kept columns, a new view even when every column is kept.
    return sum(view is views[0] for view in views)


@pytest.mark.parametrize("mode", list(FaultMode))
def test_the_first_step_reads_at_most_two_full_rows_on_pendant_networks(mode, monkeypatch):
    for seed in range(4):
        net = pendant_network(seed, 22)
        assert 1 <= first_step_reads(net, mode, monkeypatch) <= 2, seed
