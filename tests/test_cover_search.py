"""The bucketed, banning cover search against the plain search it replaced.

`plain_search.plain_solve` keeps the search without buckets or bans; the
library's `solve_exact` must return the very same probe sequence.  The
cover masks and the bucket pivot are checked by brute force.
"""

import math
import random
from itertools import combinations

import pytest

from resfault.families import (
    KPartiteShape,
    complete_network,
    complete_orbit_representatives,
    measurement_orbit_representatives,
)
from resfault.network import FaultMode
from resfault.signatures import reading_classes
from resfault.solver import ExactSolution, Infeasible, _CoverInstance, solve_exact

from plain_search import PlainCover, plain_solve
from test_kernel import pendant_network

FAMILIES = [(6,), (7,), (8,), (9,), (2, 3), (2, 4), (2, 3, 6), (3, 4, 5)]


def label(shape):
    return "K" + ",".join(map(str, shape))


def family(shape):
    if len(shape) == 1:
        return complete_network(shape[0]), complete_orbit_representatives(shape[0])
    kshape = KPartiteShape(shape)
    return kshape.network(), measurement_orbit_representatives(kshape)


@pytest.mark.parametrize("orbits", [True, False], ids=["orbits", "plain"])
@pytest.mark.parametrize("shape", FAMILIES, ids=label)
def test_family_plans_match_the_plain_search(shape, orbits):
    net, reps = family(shape)
    reps = reps if orbits else None
    result = solve_exact(net, first_probe_orbits=reps)
    assert isinstance(result, ExactSolution)
    assert result.plan.measurements == plain_solve(net, first_probe_orbits=reps)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", list(FaultMode))
def test_restricted_pools_match_the_plain_search(seed, mode):
    # Pools of 3 to 10 probes on a p/q network: some cannot separate every
    # fault pair, the rest need one to three probes.
    rng = random.Random(seed)
    net = pendant_network(seed, 9)
    outcomes = set()
    for size in (3, 4, 5, 6, 8, 10):
        pool = rng.sample(net.measurements(), size)
        want = plain_solve(net, pool, mode)
        result = solve_exact(net, pool, mode)
        if want is None:
            assert isinstance(result, Infeasible)
        else:
            assert isinstance(result, ExactSolution)
            assert result.plan.measurements == want
        outcomes.add(want is None)
    assert False in outcomes


@pytest.mark.parametrize("mode", list(FaultMode))
@pytest.mark.parametrize("shape", [(7,), (8,), (2, 3, 6), (3, 4, 5)], ids=label)
def test_restricted_family_pools_match_the_plain_search(shape, mode):
    # Unit conductances leave many ties, so these pools make the search work.
    net, _ = family(shape)
    rng = random.Random(len(net.edges))
    everything = net.measurements()
    for share in (0.5, 0.7):
        pool = rng.sample(everything, int(len(everything) * share))
        result = solve_exact(net, pool, mode)
        assert isinstance(result, ExactSolution)
        assert result.plan.measurements == plain_solve(net, pool, mode)


@pytest.mark.parametrize("shape", [(7,), (8,), (2, 3, 6)], ids=label)
def test_random_first_probes_match_the_plain_search(shape):
    # Any set of first probes runs the root loop, with its bans, the same way.
    net, _ = family(shape)
    rng = random.Random(len(net.edges) + 1)
    everything = net.measurements()
    for _ in range(4):
        pool = rng.sample(everything, int(len(everything) * 0.6))
        roots = rng.sample(pool, len(pool) // 2)
        result = solve_exact(net, pool, first_probe_orbits=roots)
        assert isinstance(result, ExactSolution)
        assert result.plan.measurements == plain_solve(net, pool, first_probe_orbits=roots)


def random_table(rng, rows, edges, classes=4):
    """Rows of 1 to `classes` class ids each, drawn at random per edge."""
    table = []
    for _ in range(rows):
        k = rng.randint(1, classes)
        table.append([rng.randrange(k) for _ in range(edges)])
    return table


def test_search_matches_the_plain_search_on_random_tables():
    # Rows with two or three classes make small test-cover instances with
    # many near-ties, where most targets are refuted only after a real search.
    rng = random.Random(3)
    for _ in range(400):
        edges = rng.randint(6, 16)
        table = random_table(rng, rng.randint(6, 24), edges, classes=3)
        inst, plain = _CoverInstance(table, edges), PlainCover(table, edges)
        for target in range(1, len(table) + 1):
            found = inst.search(target, [], 0, 0, math.inf)
            assert found == plain.search(target), (table, target)
            if found is not None:
                break


def test_mask_bits_are_the_pairs_with_different_class_ids():
    rng = random.Random(5)
    tables = [random_table(rng, rng.randint(1, 12), rng.randint(0, 25)) for _ in range(40)]
    net = pendant_network(2, 9)
    tables.append(reading_classes(net, net.measurements(), FaultMode.REMOVED))
    for table in tables:
        ne = len(table[0])
        inst = _CoverInstance(table, ne)
        pairs = list(combinations(range(ne), 2))
        assert inst.pair_count == len(pairs) and inst.full == (1 << len(pairs)) - 1
        for row, mask in zip(table, inst.masks):
            assert mask >> len(pairs) == 0
            for bit, (i, j) in enumerate(pairs):
                assert (mask >> bit & 1) == (row[i] != row[j]), (row, i, j)


@pytest.mark.parametrize("edge_count", [0, 1])
def test_networks_without_pairs(edge_count):
    inst = _CoverInstance([[0] * edge_count, [0] * edge_count], edge_count)
    assert inst.pair_count == 0 and inst.full == 0
    assert inst.masks == [0, 0] and inst.buckets == []


def test_bucket_pivot_is_the_fewest_coverers_then_the_lowest_bit():
    rng = random.Random(11)
    for _ in range(30):
        table = random_table(rng, rng.randint(1, 40), rng.randint(2, 20))
        inst = _CoverInstance(table, len(table[0]))
        counts = [sum(m >> bit & 1 for m in inst.masks) for bit in range(inst.pair_count)]
        union = 0
        for bucket in inst.buckets:
            assert union & bucket == 0
            union |= bucket
        assert union == inst.full
        for _ in range(20):
            missing = rng.getrandbits(inst.pair_count) or inst.full
            bits = [bit for bit in range(inst.pair_count) if missing >> bit & 1]
            assert inst.pivot(missing) == min(bits, key=lambda bit: (counts[bit], bit))
