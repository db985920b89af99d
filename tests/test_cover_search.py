"""The bucketed, banning cover search against the plain search it replaced.

`plain_search.plain_solve` keeps the search without buckets or bans; the
library's `solve_exact` must return the very same probe sequence, and
both greedies, which score one row per orbit (`solve_exact`'s from its
key table, `solve_greedy`'s from the kernel's cell keys, with no table),
the same order as `plain_search.plain_greedy`.  The cover masks,
the bucket pivot, the twin classes, the probe orbits and the component
cut (its bound, checked against enumeration, and the boundary of each of
its two terms) are checked by brute force.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from resfault import solver
from resfault.bounds import complete_bound
from resfault.families import (
    KPartiteShape,
    complete_network,
    complete_orbit_representatives,
    measurement_orbit_representatives,
)
from resfault.network import FaultMode, Measurement, Network, _ReadingKernel
from resfault.signatures import is_distinguishing, merged_pairs, reading_classes
from resfault.solver import (
    ExactSolution,
    Infeasible,
    _CoverInstance,
    _greedy_order,
    _twin_classes,
    _TwinGroup,
    solve_exact,
    solve_greedy,
)

from plain_search import PlainCover, plain_greedy, plain_solve
from reference import numbered
from test_kernel import pendant_network
from test_split_bounds import sparse_networks

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


def bare_instance(table, column_count):
    """The cover instance of a bare table: one probe per row, no twin class."""
    pool = [Measurement(0, j + 1) for j in range(len(table))]
    return _CoverInstance(table, column_count, _TwinGroup((), pool, len(pool) + 1), math.inf)


def test_search_matches_the_plain_search_on_random_tables():
    # Rows with two or three classes make small test-cover instances with
    # many near-ties, where most targets are refuted only after a real search.
    rng = random.Random(3)
    for _ in range(400):
        edges = rng.randint(6, 16)
        table = random_table(rng, rng.randint(6, 24), edges, classes=3)
        inst, plain = bare_instance(table, edges), PlainCover(table, edges)
        for target in range(1, len(table) + 1):
            found = inst.search(target, [], 0, 0, 0)
            assert found == plain.search(target), (table, target)
            if found is not None:
                break


def test_mask_bits_are_the_pairs_with_different_class_ids():
    # A row's mask is built from one bit string per class of two or more
    # edges and one shared string for every single edge; the tables below
    # give rows of only single edges, rows of one class, and the mix that a
    # weighted network shaped like the benchmark's (n = 22, p/q conductances,
    # three pendant bridges) reads.
    rng = random.Random(5)
    tables = [random_table(rng, rng.randint(1, 12), rng.randint(0, 25)) for _ in range(40)]
    tables += [[list(range(ne)), [0] * ne, list(range(ne, 0, -1)), [3] * ne] for ne in (2, 10, 17)]
    net = pendant_network(2, 9)
    tables.append(reading_classes(net, net.measurements(), FaultMode.REMOVED))
    weighted = pendant_network(4, 22)
    table = reading_classes(weighted, weighted.measurements(), FaultMode.REMOVED)
    sizes = [Counter(row).values() for row in table]
    assert any(max(k) > 1 and min(k) == 1 for k in sizes)
    tables.append(table)
    for table in tables:
        ne = len(table[0])
        inst = bare_instance(table, ne)
        pairs = list(combinations(range(ne), 2))
        assert inst.pair_count == len(pairs) and inst.full == (1 << len(pairs)) - 1
        for row, mask in zip(table, inst.masks):
            assert mask >> len(pairs) == 0
            for bit, (i, j) in enumerate(pairs):
                assert (mask >> bit & 1) == (row[i] != row[j]), (row, i, j)


@pytest.mark.parametrize("edge_count", [0, 1])
def test_networks_without_pairs(edge_count):
    inst = bare_instance([[0] * edge_count, [0] * edge_count], edge_count)
    assert inst.pair_count == 0 and inst.full == 0
    assert inst.masks == [0, 0] and inst.buckets == []


def test_bucket_pivot_is_the_fewest_coverers_then_the_lowest_bit():
    rng = random.Random(11)
    for _ in range(30):
        table = random_table(rng, rng.randint(1, 40), rng.randint(2, 20))
        inst = bare_instance(table, len(table[0]))
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


def twin_network(seed, base=7, planted=3):
    """A p/q network on `base` vertices plus `planted` copies of earlier vertices.

    Each copy gets the neighbours and conductances of a random earlier
    vertex, so the two are twins when the copy is made; about half the
    copies are also joined to their original (true twins), the rest are
    not (false twins).  A later copy may break an earlier pair.
    """
    rng = random.Random(seed)
    edges = {e.pair: e.conductance for e in pendant_network(seed, base).edges}
    for x in range(base, base + planted):
        v = rng.randrange(x)
        for (a, b), c in list(edges.items()):
            if v in (a, b):
                edges[(a + b - v, x)] = c
        if rng.random() < 0.5:
            edges[(v, x)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    n = base + planted
    return Network.from_edge_list(n, [(u, v, c) for (u, v), c in edges.items()])


def swap_preserves_conductances(net, u, v):
    weight = {e.pair: e.conductance for e in net.edges}
    swap = {u: v, v: u}
    image = {tuple(sorted(swap.get(x, x) for x in pair)): c for pair, c in weight.items()}
    return image == weight


def class_index(classes, n):
    out = [None] * n
    for i, cls in enumerate(classes):
        for v in cls:
            out[v] = i
    return out


def symmetric_networks():
    nets = [twin_network(seed) for seed in range(12)]
    nets += [family(shape)[0] for shape in [(5,), (1, 1, 3), (2, 3), (2, 2, 3)]]
    return nets


def test_twin_classes_are_the_conductance_preserving_swaps():
    nets = symmetric_networks() + [pendant_network(seed, 9) for seed in range(4)]
    nontrivial = 0
    for net in nets:
        classes = _twin_classes(net)
        assert sorted(v for cls in classes for v in cls) == list(range(net.n))
        assert all(cls == sorted(cls) for cls in classes)
        index = class_index(classes, net.n)
        for u, v in combinations(range(net.n), 2):
            assert (index[u] == index[v]) == swap_preserves_conductances(net, u, v), (u, v)
        nontrivial += any(len(cls) > 1 for cls in classes)
    assert nontrivial >= 12


def test_family_twin_classes_are_the_partitions():
    assert _twin_classes(complete_network(6)) == [list(range(6))]
    assert _twin_classes(KPartiteShape((2, 3, 4)).network()) == [[0, 1], [2, 3, 4], [5, 6, 7, 8]]
    # Two singleton partitions are joined to everything else alike.
    assert _twin_classes(KPartiteShape((1, 1, 3)).network()) == [[0, 1], [2, 3, 4]]


def closure_orbit(cands, classes, j, touched):
    """Probe j's orbit, closed under swaps of two fresh vertices of one class."""
    index = {m.pair: i for i, m in enumerate(cands)}
    swaps = [
        {x: y, y: x}
        for cls in classes
        for x, y in combinations(cls, 2)
        if not (touched >> x & 1 or touched >> y & 1)
    ]
    seen, todo = {j}, [j]
    while todo:
        pair = cands[todo.pop()].pair
        for swap in swaps:
            image = index[tuple(sorted(swap.get(x, x) for x in pair))]
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return sum(1 << k for k in seen)


def test_orbits_match_the_swap_closure():
    rng = random.Random(7)
    for net in symmetric_networks():
        classes = _twin_classes(net)
        cands = net.measurements()
        twins = _TwinGroup(classes, cands, net.n)
        assert twins.closed
        for _ in range(6):
            touched = 0
            for _ in range(rng.randint(0, 3)):
                touched |= twins.touch[rng.randrange(len(cands))]
            for j in range(len(cands)):
                assert twins.orbit(j, touched) == closure_orbit(cands, classes, j, touched)


def test_representatives_are_the_lowest_probe_of_each_orbit():
    # One pass keyed by the probes' end states picks what peeling the swap
    # closure's orbits, lowest index first, picks: on K5 a touched vertex
    # lies between fresh ones, so its probes hold it at either end.
    rng = random.Random(9)
    for net in symmetric_networks():
        classes = _twin_classes(net)
        cands = net.measurements()
        twins = _TwinGroup(classes, cands, net.n)
        for _ in range(6):
            touched = 0
            for _ in range(rng.randint(0, 3)):
                touched |= twins.touch[rng.randrange(len(cands))]
            want, rest = [], (1 << len(cands)) - 1
            while rest:
                j = (rest & -rest).bit_length() - 1
                want.append(j)
                rest &= ~closure_orbit(cands, classes, j, touched)
            assert list(twins.representatives(touched)) == want, touched


def invariant_pool(rng, net, classes):
    """All probes of a random share of the types (two classes, or one class twice)."""
    index = class_index(classes, net.n)
    by_type = {}
    for m in net.measurements():
        by_type.setdefault(tuple(sorted((index[m.r], index[m.s]))), []).append(m)
    kept = [t for t in by_type if rng.random() < 0.6] or list(by_type)
    return [m for t in kept for m in by_type[t]]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mode", list(FaultMode))
def test_twin_network_plans_match_the_plain_search(seed, mode):
    rng = random.Random(seed)
    net = twin_network(seed)
    classes = _twin_classes(net)
    outcomes = Counter()
    for pool in [net.measurements()] + [invariant_pool(rng, net, classes) for _ in range(3)]:
        assert _TwinGroup(classes, pool, net.n).closed
        want = plain_solve(net, pool, mode)
        result = solve_exact(net, pool, mode)
        if want is None:
            assert isinstance(result, Infeasible)
        else:
            assert isinstance(result, ExactSolution)
            assert result.plan.measurements == want
            roots = rng.sample(pool, len(pool) // 3)
            result = solve_exact(net, pool, mode, first_probe_orbits=roots)
            assert result.plan.measurements == plain_solve(net, pool, mode, roots)
        outcomes[want is None] += 1
    assert outcomes[False] >= 1


@pytest.mark.parametrize("mode", list(FaultMode))
@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 3, 6), (3, 4, 5)], ids=label)
def test_invariant_family_pools_match_the_plain_search(shape, mode):
    # Pools that keep whole probe types keep the partitions' symmetry, so the
    # orbit bans act below the root of these searches.
    net, _ = family(shape)
    classes = _twin_classes(net)
    rng = random.Random(len(net.edges))
    for _ in range(3):
        pool = invariant_pool(rng, net, classes)
        want = plain_solve(net, pool, mode)
        result = solve_exact(net, pool, mode)
        if want is None:
            assert isinstance(result, Infeasible)
        else:
            assert result.plan.measurements == want


def test_twin_network_pools_include_infeasible_ones():
    # The invariant pools above reach infeasible instances, not only easy ones.
    infeasible = 0
    for seed in range(8):
        rng = random.Random(seed)
        net = twin_network(seed)
        classes = _twin_classes(net)
        for _ in range(3):
            pool = invariant_pool(rng, net, classes)
            infeasible += isinstance(solve_exact(net, pool), Infeasible)
    assert infeasible >= 1


def assert_single_probe_orbits(group, pool, n):
    """Every orbit is one probe, whichever vertices are touched."""
    rng = random.Random(len(pool))
    for touched in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(10)]:
        assert all(group.orbit(j, touched) == 1 << j for j in range(len(pool)))
        assert list(group.representatives(touched)) == list(range(len(pool)))
    # The component cut still reads which vertices each probe touches.
    assert group.touch == [1 << m.r | 1 << m.s for m in pool]


def test_pools_not_closed_under_the_group_ban_single_probes():
    net = complete_network(6)
    classes = _twin_classes(net)
    pool = net.measurements()[1:]
    group = _TwinGroup(classes, pool, net.n)
    assert not group.closed
    assert_single_probe_orbits(group, pool, net.n)
    result = solve_exact(net, pool)
    assert result.plan.measurements == plain_solve(net, pool)


@pytest.mark.parametrize("shape", [(6,), (2, 3, 4)], ids=label)
def test_the_group_without_classes_bans_single_probes_and_cuts_nothing(shape):
    # With no twin class the group is closed, its orbits are single probes and
    # its component bound is 0 at every node: the search runs as without bans
    # or the component cut, as on a network with no symmetry.
    net, _ = family(shape)
    pool = net.measurements()
    group = _TwinGroup((), pool, net.n)
    assert group.closed and not group.masks
    assert_single_probe_orbits(group, pool, net.n)
    rng = random.Random(len(pool))
    nodes = [()] + [rng.sample(range(len(pool)), k) for k in (1, 2, 3, 5, len(pool))]
    assert all(group.needed(chosen) == 0 for chosen in nodes)


def test_orbit_bans_prune_below_the_root():
    # With the first probe fixed, every child that fails bans its orbit under
    # the group of fresh vertices; the no-class group's single bans search
    # many more nodes.  No node is entered through a banned probe.
    net = complete_network(9)
    cands = net.measurements()
    table = reading_classes(net, cands, FaultMode.REMOVED)
    nodes = []
    for twins in (_TwinGroup(_twin_classes(net), cands, net.n), _TwinGroup((), cands, net.n)):
        inst = _CoverInstance(table, len(net.edges), twins, math.inf)
        search, calls = inst.search, []

        def counted(target, chosen, covered, banned, *rest):
            assert not banned >> chosen[-1] & 1
            calls.append(1)
            return search(target, chosen, covered, banned, *rest)

        inst.search = counted
        touched = 1 << 0 | 1 << 1
        assert inst.search(5, [0], inst.masks[0], 0, touched) is None
        nodes.append(len(calls))
    assert nodes[0] * 5 < nodes[1], nodes


def complete_split_network(clique, others):
    """A unit-conductance clique, each vertex also joined to `others` more vertices.

    The clique is one joined twin class, and for two or more `others`
    they form another class, not joined.
    """
    n = clique + others
    pairs = [(u, v) for u in range(clique) for v in range(u + 1, n)]
    return Network.from_edge_list(n, [(u, v, 1) for u, v in pairs])


def cycle_network(n):
    """The unit-conductance cycle 0-1-...-(n-1)-0."""
    return Network.from_edge_list(n, [(v, (v + 1) % n, 1) for v in range(n)])


def greedy_cases():
    """(network, pool) pairs: families and twin networks whole, then restricted pools.

    The pools cover every kind of group: closed with twins (whole families,
    invariant pools), not closed (random halves), and without twins.  The
    sparse networks follow, whole and with a random third of their probes:
    their bridges, blocks and 2-edge cuts give the first step's split
    bounds below the column count.  Last come three networks without
    twins: a weighted pendant network whose
    greedy takes two or more steps in every mode, one whose first row in
    shorted mode splits every fault, and a cycle probed at distance two,
    whose first pick leaves no fault column single.
    """
    rng = random.Random(13)
    nets = [complete_network(n) for n in range(2, 25)]
    nets += [
        KPartiteShape(parts).network()
        for k in (2, 3, 4)
        for parts in combinations_with_replacement(range(1, 5), k)
    ]
    nets += [twin_network(seed) for seed in range(8)] + [pendant_network(0, 9)]
    cases = [(net, None) for net in nets]
    for net in nets[5:9] + nets[-9:]:
        classes = _twin_classes(net)
        everything = net.measurements()
        cases.append((net, invariant_pool(rng, net, classes)))
        cases.append((net, rng.sample(everything, len(everything) // 2)))
    for net in sparse_networks():
        everything = net.measurements()
        cases += [(net, None), (net, rng.sample(everything, len(everything) // 3))]
    cases += [(pendant_network(2, 7), None), (pendant_network(0, 10), None)]
    cases.append((cycle_network(6), [Measurement(v, (v + 2) % 6) for v in range(6)]))
    return cases


def greedy_indices(plan, cands):
    """The candidate indices of a greedy plan; None for Infeasible."""
    return None if isinstance(plan, Infeasible) else [cands.index(m) for m in plan.measurements]


def table_greedy(net, pool, mode, no_fault):
    """The pool, its key table, its twin group and the greedy order fed from
    that table, as `solve_exact` runs it."""
    cands = list(pool) if pool is not None else net.measurements()
    table = reading_classes(net, cands, mode, no_fault)
    group = _TwinGroup(_twin_classes(net), cands, net.n)
    row = lambda j, kept: table[j] if kept is None else [table[j][c] for c in kept]
    counts = [len(set(keys)) for keys in table]
    return cands, table, group, _greedy_order(row, len(net.edges) + no_fault, group, counts)


@pytest.mark.parametrize("no_fault", [False, True], ids=["faults", "no_fault"])
@pytest.mark.parametrize("mode", list(FaultMode))
def test_greedy_by_orbit_matches_the_every_row_greedy(mode, no_fault):
    # Both greedies score one row per orbit of the group that fixes the touched
    # vertices: solve_greedy from the kernel's cell keys, with no key table,
    # and solve_exact's from its table.  The plain greedy scores every row of
    # the table.  All three must pick the same rows.
    kinds, sizes = Counter(), []
    for net, pool in greedy_cases():
        cands, table, group, from_table = table_greedy(net, pool, mode, no_fault)
        want = plain_greedy(table, len(net.edges) + no_fault)
        plan = solve_greedy(net, pool, mode, no_fault)
        assert greedy_indices(plan, cands) == want, (net.n, pool)
        assert from_table == want, (net.n, pool)
        if want is None:
            assert plan == solve_exact(net, pool, mode, no_fault=no_fault)
        kinds[group.closed, bool(group.masks)] += 1
        sizes.append(None if want is None else len(want))
    assert kinds[True, True] and kinds[False, True] and kinds[True, False], kinds
    steps, one_step, cycle = sizes[-3:]
    assert steps >= 2 and cycle >= 2
    sparse = sizes[-3 - 2 * len(sparse_networks()):-3]  # stalled pools, and greedies of two or more steps
    assert None in sparse and max(size or 0 for size in sparse) >= 2
    assert one_step == 1 or mode is FaultMode.REMOVED or no_fault


class KernelReads:
    """Counts the solver's key tables and logs the reading kernel's cell-key reads."""

    def __init__(self, monkeypatch):
        self.tables = 0
        self.keys: list[tuple[tuple[int, int], int]] = []  # ((r, s), columns read)
        reading_classes, cell_keys = solver.reading_classes, _ReadingKernel.cell_keys

        def counted_tables(*args):
            self.tables += 1
            return reading_classes(*args)

        def logged_cell_keys(kernel, r, s, view):
            self.keys.append(((r, s), len(view.entries)))
            return cell_keys(kernel, r, s, view)

        monkeypatch.setattr(solver, "reading_classes", counted_tables)
        monkeypatch.setattr(_ReadingKernel, "cell_keys", logged_cell_keys)


@pytest.mark.parametrize("mode", list(FaultMode))
@pytest.mark.parametrize("shape", [(14,), (4, 5, 6)], ids=label)
def test_greedy_builds_no_table_and_reads_each_row_once_after_the_first_step(
    shape, mode, monkeypatch
):
    net, _ = family(shape)
    cands, _, _, want = table_greedy(net, None, mode, False)
    ne = len(net.edges)
    reads = KernelReads(monkeypatch)
    plan = solve_greedy(Network(net.n, net.edges), mode=mode)  # a fresh kernel
    assert greedy_indices(plan, cands) == want and len(want) > 2
    assert reads.tables == 0
    first = 0  # the first step reads every column; later steps read fewer
    while reads.keys[first][1] == ne:
        first += 1
    later = reads.keys[first:]
    pairs = [pair for pair, _ in later]
    assert later and all(width < ne for _, width in later)
    assert len(pairs) == len(set(pairs))


@pytest.mark.parametrize("mode", list(FaultMode))
def test_kernel_rows_after_the_first_step_are_numbered_from_zero(mode, monkeypatch):
    # The greedy packs a label and a value into label * ne + value, so it
    # numbers each row it reads on the kept columns from 0.  Keys moved to
    # 0, ne, 2 ne, ... by first appearance keep each row's groups, but packed
    # raw they would collide: (label l, key ne) with (label l + 1, key 0).
    # The plan must not change, even when the first pick leaves every column
    # live, as it does on this cycle.
    net, pool = greedy_cases()[-1]
    ne = len(net.edges)
    want = solve_greedy(net, pool, mode)
    cell_keys, widths = _ReadingKernel.cell_keys, []

    def spread(kernel, r, s, view):
        widths.append(len(view.entries))
        return [number * ne for number in numbered(cell_keys(kernel, r, s, view))]

    monkeypatch.setattr(_ReadingKernel, "cell_keys", spread)
    assert solve_greedy(net, pool, mode) == want and len(want) == 4
    assert widths.count(ne) > len(pool)  # some row was read again on the kept columns


@pytest.mark.parametrize("no_fault", [False, True], ids=["faults", "no_fault"])
@pytest.mark.parametrize("mode", list(FaultMode))
def test_a_stalled_greedy_builds_the_table_to_name_the_merged_pairs(mode, no_fault, monkeypatch):
    net = complete_network(6)
    pool = [Measurement(0, 1), Measurement(2, 3)]
    columns = net.edges + (None,) * no_fault
    want = merged_pairs(columns, reading_classes(net, pool, mode, no_fault))
    reads = KernelReads(monkeypatch)
    result = solve_greedy(net, pool, mode, no_fault)
    assert result == Infeasible(tuple(want)) and want
    assert reads.tables == 1


def test_the_greedy_range_checks_every_candidate_before_it_stops_early(monkeypatch):
    # On the path 0-1-2 the probe (0, 2) alone tells the two shorted faults
    # apart, so the first step's scan stops there, before the second probe.
    net = Network.from_edge_list(3, [(0, 1, 1), (1, 2, 2)])
    reads = KernelReads(monkeypatch)
    plan = solve_greedy(net, [Measurement(0, 2), Measurement(0, 1)], mode=FaultMode.SHORTED)
    assert plan.measurements == (Measurement(0, 2),)
    assert reads.keys == [((0, 2), 2)]
    with pytest.raises(ValueError, match=r"measurement \(0, 99\) out of range"):
        solve_greedy(net, [Measurement(0, 2), Measurement(0, 99)], mode=FaultMode.SHORTED)


def test_the_greedy_reads_no_column_left_single(monkeypatch):
    # Row 0 splits the six columns into two classes of three, so every column
    # stays live.  Row 1 leaves columns 2 and 4 single, and row 2 leaves 1 and
    # 3.  Labels reused from one step to the next, not drawn from a running
    # counter, would give column 3 the label that column 2 was left with, so
    # column 3 would stay live and be read at the last step.
    table = [[0, 1, 0, 1, 1, 0], [0, 0, 1, 0, 1, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
    picks: list[tuple[int, ...]] = []  # the live columns each step reads
    itemgetter = solver.itemgetter

    def logged(*columns):
        picks.append(columns)
        return itemgetter(*columns)

    def row(j, kept):
        return table[j] if kept is None else [table[j][c] for c in kept]

    monkeypatch.setattr(solver, "itemgetter", logged)
    group = _TwinGroup((), [Measurement(0, j + 1) for j in range(len(table))], len(table) + 1)
    counts = [len(set(keys)) for keys in table]
    assert _greedy_order(row, 6, group, counts) == plain_greedy(table, 6) == [0, 1, 2, 3]
    assert picks == [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), (0, 1, 3, 5), (0, 5)]


class ChildEntered(Exception):
    pass


def enters_a_child(inst, target, chosen=()):
    """Whether the search at the node of `chosen` goes on to a child, or is cut first."""
    search = inst.search

    def child(*args):
        raise ChildEntered

    covered = touched = 0
    for j in chosen:
        covered |= inst.masks[j]
        touched |= inst.group.touch[j]
    inst.search = child  # the recursion reads the instance attribute
    try:
        search(target, list(chosen), covered, 0, touched)
    except ChildEntered:
        return True
    finally:
        del inst.search
    return False


def instances(net):
    """The candidate pool, its cover instance with the no-class group and with the twin group."""
    cands = net.measurements()
    table = reading_classes(net, cands, FaultMode.REMOVED)
    return cands, *(
        _CoverInstance(table, len(net.edges), _TwinGroup(classes, cands, net.n, net), math.inf)
        for classes in ((), _twin_classes(net))
    )


def slack(group):
    """S at the root: the vertices a distinguishing set must touch, all but one per class."""
    untouched, _ = group.shortfall([])
    return sum(k - 1 for k in untouched)


def test_handshake_cut_fires_only_above_twice_the_probes_left():
    # With no probe chosen, K(2,2,2,2) leaves S = 4 and K(2,2,2,2,2) S = 5,
    # one vertex per partition, so the other term, ceil((S + 1) / 3), is 2 on
    # both.  At target 2 the first root (3S = 12 = 6 * 2) must be searched
    # and the second (3S = 15 > 12) cut, though the counting cut lets both
    # through.
    for parts, cut in (((2,) * 4, False), ((2,) * 5, True)):
        _, plain, inst = instances(KPartiteShape(parts).network())
        assert slack(inst.group) == len(parts)
        assert enters_a_child(plain, 2)
        assert enters_a_child(inst, 2) is not cut


# (shape, chosen probes, S, S_max, B, the term that binds, probes the node needs)
CUT_BOUNDARIES = [
    ((2, 2, 2, 2, 2), [], 5, 1, 0, "handshake", 3),  # ceil(15 / 6) > ceil(6 / 3)
    ((2, 2, 2, 2, 2), [(0, 1)], 4, 1, 1, "handshake", 3),  # ceil(14 / 6); B = 0 gives 2
    ((9,), [], 8, 8, 0, "largest class", 6),  # ceil(16 / 3) > ceil(24 / 6)
    ((9,), [(0, 1)], 6, 6, 1, "largest class", 5),  # ceil(13 / 3); B = 0 gives 4
]


@pytest.mark.parametrize(
    "shape,pairs,s,s_max,b,term,need", CUT_BOUNDARIES, ids=lambda x: str(x).replace(" ", "")
)
def test_component_cut_keeps_a_node_at_its_bound_and_cuts_it_below(
    shape, pairs, s, s_max, b, term, need
):
    # A node needing `need` more probes is searched with `need` probes left
    # and cut with one fewer; the plain search enters a child at both.
    cands, plain, inst = instances(family(shape)[0])
    chosen = [cands.index(Measurement(*pair)) for pair in pairs]
    untouched, lone = inst.group.shortfall([cands[j].pair for j in chosen])
    shares = [k - 1 for k in untouched if k > 1]
    assert (sum(shares), max(shares), len(lone)) == (s, s_max, b)
    handshake, largest = -(-(3 * s + 2 * b) // 6), -(-(s + s_max + b) // 3)
    assert max(handshake, largest) == need
    assert (handshake if term == "handshake" else largest) > min(handshake, largest)
    assert inst.group.needed(chosen) == need
    target = len(chosen) + need
    assert enters_a_child(plain, target - 1, chosen)
    assert enters_a_child(inst, target, chosen)
    assert not enters_a_child(inst, target - 1, chosen)


@pytest.mark.parametrize(
    "pairs,lone",
    [
        ([], []),
        ([(0, 1)], [(0, 1)]),  # the class of two, joined by its own probe
        ([(0, 1), (1, 2)], []),  # a second probe touches vertex 1
        ([(0, 1), (0, 4)], []),  # ... or vertex 0
        ([(2, 3)], [(2, 3)]),  # two of the class of three
        ([(0, 1), (2, 4)], [(0, 1), (2, 4)]),
        ([(0, 2)], []),  # not twins
        ([(2, 3), (3, 4)], []),  # a path inside one class
    ],
)
def test_lone_twin_pairs_on_k23(pairs, lone):
    # K(2,3): twin classes {0, 1} and {2, 3, 4}.
    net = KPartiteShape((2, 3)).network()
    cands = net.measurements()
    group = _TwinGroup(_twin_classes(net), cands, net.n)
    untouched, found = group.shortfall(pairs)
    assert found == lone
    touched = {v for pair in pairs for v in pair}
    assert untouched == [len({0, 1} - touched), len({2, 3, 4} - touched)]
    chosen = [cands.index(Measurement(*pair)) for pair in pairs]
    shares = [k - 1 for k in untouched if k > 1]
    s, b = sum(shares), len(lone)
    assert group.needed(chosen) == max(
        -(-(3 * s + 2 * b) // 6), -(-(s + max(shares, default=0) + b) // 3)
    )


def test_two_vertices_never_count_a_lone_pair():
    # On K2 the probe (0, 1) is a lone twin pair, but with no third vertex the
    # swap merges no faults: the one probe tells the fault from the healthy
    # network, so nothing more is needed.
    net = complete_network(2)
    group = _TwinGroup(_twin_classes(net), net.measurements(), net.n)
    assert group.shortfall([(0, 1)]) == ([0], [(0, 1)])
    assert group.needed([0]) == 0
    assert group.needed([]) == 1
    result = solve_exact(net, no_fault=True)
    assert isinstance(result, ExactSolution) and len(result.plan) == 1


def test_joined_classes_are_marked_for_the_path_rule():
    # Only a class of four or more whose members are joined to each other.
    marked = lambda net: _TwinGroup(_twin_classes(net), (), net.n, net).joined
    assert marked(complete_network(3)) == [] and marked(complete_network(4)) == [0]
    assert marked(complete_split_network(4, 2)) == [0]
    assert marked(complete_split_network(3, 2)) == []
    for parts in [(1, 1, 3), (3, 3, 3), (4, 4, 4, 4)]:
        assert marked(KPartiteShape(parts).network()) == []


def test_seed_on_complete_graphs_is_the_paper_count():
    # The path rule's case split seeds K_n at
    # max(ceil(2(n - 1)/3), min(ceil(2n/3), ceil(3(n - 1)/4))), and from
    # n = 6 on that is the paper's ceil(2n/3), which `bounds` derives
    # without the twin group.  K5's optimum, 3, lies below ceil(10/3).
    for n in range(3, 41):
        net = complete_network(n)
        seed = _TwinGroup(_twin_classes(net), (), n, net).needed(())
        paths = min(-(-2 * n // 3), -(-3 * (n - 1) // 4))
        assert seed == max(-(-2 * (n - 1) // 3), paths), n
        if n >= 6:
            assert seed == complete_bound(n).lower, n
    assert len(solve_exact(complete_network(5)).plan) == 3


@pytest.mark.parametrize("no_fault", [False, True], ids=["faults", "no_fault"])
@pytest.mark.parametrize("mode", list(FaultMode))
def test_complete_plans_match_the_plain_search_from_the_paper_count(mode, no_fault):
    # The plain search starts at the paper's count (the counting bound below
    # K6), proven without the path rule, so any target the solver's seed or
    # cut wrongly skips shows as another plan.  Besides the whole pool, the
    # probes across two halves and those at vertex 0 or 1 are pools that the
    # group does not preserve.
    for n in range(4, 13):
        net = complete_network(n)
        every = net.measurements()
        pools = [None, [m for m in every if (m.r < n // 2) != (m.s < n // 2)]]
        if n < 12:  # K12's is the test below
            pools.append([m for m in every if m.r < 2])
        lower = complete_bound(n).lower if n >= 6 else 1
        for pool in pools:
            want = plain_solve(net, pool, mode, no_fault=no_fault, lower=lower)
            result = solve_exact(net, pool, mode, no_fault=no_fault)
            if want is None:
                assert isinstance(result, Infeasible), (n, pool)
            else:
                assert result.plan.measurements == want, (n, pool)


def test_k12_probes_at_two_vertices_need_one_more_than_the_count():
    # The search must refute the paper's count, 8, cutting nodes by the path
    # rule; the plain search refutes it without any cut.
    net = complete_network(12)
    pool = [m for m in net.measurements() if m.r < 2]
    want = plain_solve(net, pool, lower=complete_bound(12).lower)
    assert len(want) == 9
    assert solve_exact(net, pool).plan.measurements == want


def remainder_optimum(table, chosen):
    """Fewest rows that, added to `chosen`, give every column its own readings."""
    ne = len(table[0])
    rest = [j for j in range(len(table)) if j not in chosen]
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            rows = [table[j] for j in (*chosen, *extra)]
            if len(set(zip(*rows))) == ne:
                return size
    return None


@pytest.mark.parametrize("no_fault", [False, True], ids=["faults", "no_fault"])
def test_component_bound_never_exceeds_the_enumerated_remainder(no_fault):
    # At nodes of up to two chosen probes on small twin networks, no
    # distinguishing superset adds fewer probes than the bound says.  K4 to
    # K7 and the split networks have a joined class of four or more, where
    # the path rule raises the bound at some nodes; at the root of the split
    # network with three more vertices it is 3, met exactly.
    rng = random.Random(17)
    nets = [complete_network(n) for n in (3, 4, 5, 6, 7)]
    nets += [KPartiteShape(p).network() for p in [(2, 3), (2, 2, 2), (1, 1, 3), (3, 3)]]
    nets += [twin_network(seed, base=4, planted=2) for seed in range(3)]
    nets += [complete_split_network(4, 2), complete_split_network(4, 3)]
    tight = with_lone = raised = 0
    for net in nets:
        cands = net.measurements()
        table = reading_classes(net, cands, FaultMode.REMOVED, no_fault)
        classes = _twin_classes(net)
        group = _TwinGroup(classes, cands, net.n, net)
        unjoined = _TwinGroup(classes, cands, net.n)
        nodes = [()] + [tuple(rng.sample(range(len(cands)), k)) for k in (1, 1, 2, 2, 2)]
        for chosen in nodes:
            optimum = remainder_optimum(table, chosen)
            assert group.needed(chosen) <= optimum, (net.edges, chosen)
            tight += group.needed(chosen) == optimum
            with_lone += bool(group.shortfall([cands[j].pair for j in chosen])[1])
            raised += group.needed(chosen) > unjoined.needed(chosen)
    assert tight >= 30 and with_lone >= 3 and raised >= 4, (tight, with_lone, raised)


@pytest.mark.parametrize("mode", list(FaultMode))
@pytest.mark.parametrize("seed", range(6))
def test_twin_network_pools_not_closed_match_the_plain_search(seed, mode):
    # Random shares of a twin network's probes break the group, so the search
    # bans single probes, but the component cut still acts at every node.
    rng = random.Random(seed)
    net = twin_network(seed)
    classes = _twin_classes(net)
    everything = net.measurements()
    solved = 0
    for share in (0.4, 0.6, 0.8):
        pool = rng.sample(everything, int(len(everything) * share))
        assert not _TwinGroup(classes, pool, net.n).closed
        want = plain_solve(net, pool, mode)
        result = solve_exact(net, pool, mode)
        if want is None:
            assert isinstance(result, Infeasible)
        else:
            assert isinstance(result, ExactSolution)
            assert result.plan.measurements == want
            solved += 1
    assert solved >= 1


@pytest.mark.parametrize("mode", list(FaultMode))
@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 3, 4)], ids=label)
def test_handshake_bound_that_is_met_exactly_keeps_the_plan(shape, mode):
    # These optima touch all but one vertex of each partition with disjoint
    # probes: the root's slack is exactly twice the optimum, and the cut must
    # leave it (and every node on the plan's path) to the search.
    net, _ = family(shape)
    cands = net.measurements()
    group = _TwinGroup(_twin_classes(net), cands, net.n)
    target = slack(group) // 2
    assert slack(group) == 2 * target == 2 * group.needed([])
    inst = _CoverInstance(reading_classes(net, cands, mode), len(net.edges), group, math.inf)
    found = inst.search(target, [], 0, 0, 0)
    assert found is not None and len(found) == target
    assert is_distinguishing(net, [cands[j] for j in found], mode)
