"""The one-ground reading kernel against Fraction readings and the oracle.

Networks here are seeded random weighted graphs with conductances p/q
(1 <= p, q <= 9) and pendant leaves, so removal faults include bridges
with the probe on the same side (the reading keeps its base value) and on
opposite sides (INFINITE).  Rows of keys are also checked to group their
columns as the reduced-key reference does: for every family shape the
benchmark runs, for small weighted networks whose faults of different
ratios often read alike, for every probe of networks shaped like the
benchmark's, for a separating bridge in a row of small keys, and on
~200-bit conductances.  The square classes behind the integer keys are
checked directly too.  Every ratio of
a class shares one bucket key: the sign of alpha beta and, per character
prime q, q for an odd power of q, else the character of what is left once
that power is divided out.  The checks cover odd and even powers of a
character prime, ratios of opposite sign, a brute-force reference that
tests every pair of ratios for a square quotient, and a bound on the
`isqrt` calls, with and without many multiples of a character prime,
that keeps the class search from comparing every pair of ratios.  Rows
read through a view of a random subset of the columns group them as the
reference does on those columns.
"""

import random
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, isqrt, lcm

import pytest

import resfault.network
from resfault.families import KPartiteShape, complete_network, kpartite_network
from resfault.network import (
    INFINITE,
    FaultMode,
    Measurement,
    Network,
    _square_classes,
    direct_effective_resistance_oracle,
    effective_resistance,
    perturbed_effective_resistance,
)
from resfault.signatures import _key_entries, reading_classes
from resfault.solver import Infeasible, solve_exact, solve_greedy

from grounding import build_reduced_laplacian, grounded_inverse
from reference import build_signature, full_width_invert, gcd_keyed_classes, numbered


def pendant_network(seed, n):
    """Random tree on n-3 core vertices plus chords, then 3 pendant leaves."""
    rng = random.Random(seed)
    core = n - 3
    weight = lambda: Fraction(rng.randint(1, 9), rng.randint(1, 9))
    edges = {(rng.randrange(v), v): weight() for v in range(1, core)}
    while len(edges) < min(2 * core, core * (core - 1) // 2):
        u, v = sorted(rng.sample(range(core), 2))
        edges.setdefault((u, v), weight())
    for leaf in range(core, n):
        edges[(rng.randrange(core), leaf)] = weight()
    return Network.from_edge_list(n, [(u, v, w) for (u, v), w in edges.items()])


def bridged_network():
    """Two weighted K4s joined through a middle vertex by two bridges, plus a pendant leaf."""
    edges = [(u, v, Fraction(u + v + 1, v - u + 1)) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 5, v + 5, Fraction(u + 2, v + 1)) for u in range(4) for v in range(u + 1, 4)]
    edges += [(3, 4, 3), (4, 5, Fraction(1, 2)), (8, 9, Fraction(7, 3))]
    return Network.from_edge_list(10, edges)


def two_leaf_network(seed):
    """A weighted triangle 0-1-2 with leaves 3 at 0 and 4 at 2: the probe (3, 4)
    sends current through every edge, so no fault of its row has X = 0."""
    rng = random.Random(seed)
    weight = lambda: Fraction(rng.randint(1, 9), rng.randint(1, 9))
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (2, 4)]
    return Network.from_edge_list(5, [(u, v, weight()) for u, v in edges])


@pytest.mark.parametrize("seed", [*range(4), "bridged"])
@pytest.mark.parametrize("mode", list(FaultMode))
def test_keys_and_readings_match_the_oracle(seed, mode):
    # A pendant network's bridges cut off single leaves; removing the bridge
    # (3, 4) or (4, 5) of bridged_network cuts off a far part (the one
    # without vertex 0) of six or five vertices.
    if seed == "bridged":
        net, bridges = bridged_network(), {(3, 4), (4, 5), (8, 9)}
    else:
        net = pendant_network(seed, 9)
        bridges = {e.pair for e in net.edges if e.v >= net.n - 3}  # the pendant edges
    bridge_cases = {"same side": 0, "separated": 0}
    for m in net.measurements():
        [ids] = reading_classes(net, [m], mode, no_fault=True)
        healthy = ids[len(net.edges)]
        readings = [perturbed_effective_resistance(net, m, e, mode) for e in net.edges]
        base = effective_resistance(net, m)
        for j, e in enumerate(net.edges):
            oracle = direct_effective_resistance_oracle(net, m, e, mode)
            assert readings[j] == oracle, (m, e.pair)
            assert (ids[j] == healthy) == (readings[j] == base), (m, e.pair)
            for i in range(j):
                assert (ids[i] == ids[j]) == (readings[i] == readings[j]), (m, e.pair)
            if mode is FaultMode.REMOVED and e.pair in bridges:
                bridge_cases["separated" if readings[j] == INFINITE else "same side"] += 1
                assert readings[j] in (INFINITE, base)
    if mode is FaultMode.REMOVED:
        assert all(bridge_cases.values()), bridge_cases


def test_reading_classes_group_each_row_like_the_readings():
    net = pendant_network(7, 8)
    ms = net.measurements()
    sig = build_signature(net, ms, FaultMode.REMOVED)
    for no_fault in (False, True):
        table = reading_classes(net, ms, FaultMode.REMOVED, no_fault)
        assert len(table) == len(ms)
        for keys, row, m in zip(table, sig.entries, ms):
            row = list(row) + ([effective_resistance(net, m)] if no_fault else [])
            assert numbered(keys) == numbered(row)


def test_one_inversion_per_network(monkeypatch):
    calls = []
    real = resfault.network.fraction_free_invert

    def counting(mat, scales):
        calls.append(len(mat))
        return real(mat, scales)

    monkeypatch.setattr(resfault.network, "fraction_free_invert", counting)
    net = pendant_network(3, 10)
    for mode in FaultMode:
        build_signature(net, net.measurements(), mode)
    assert calls == [6]  # the 7-vertex core less its ground: the three leaves are peeled


@pytest.mark.parametrize("net", [
    complete_network(6),
    Network.from_edge_list(6, [(v, (v + 1) % 6, Fraction(v + 2, 7 - v)) for v in range(6)]
                           + [(0, 3, Fraction(5, 4)), (1, 4, Fraction(2, 9))]),
], ids=["K6", "weighted-2-connected"])
def test_a_network_without_a_leaf_inverts_its_whole_row_scaled_laplacian(monkeypatch, net):
    # No vertex has a single edge, so nothing is peeled: the inversion gets M = R L
    # of the whole reduced Laplacian, r_v the lcm of the denominators at v.
    handed = []
    real = resfault.network.fraction_free_invert
    monkeypatch.setattr(resfault.network, "fraction_free_invert",
                        lambda mat, scales: handed.append((mat, scales)) or real(mat, scales))
    net._reading_kernel
    scales = [lcm(*(e.conductance.denominator for e in net.edges if v in e.pair)) for v in range(1, net.n)]
    lap = build_reduced_laplacian(net, 0)
    assert handed == [([[int(x * r) for x in row] for row, r in zip(lap, scales)], scales)]


@pytest.mark.parametrize("mode", list(FaultMode))
def test_oracle_rebuilds_each_altered_graph_once(monkeypatch, mode):
    # The core of pendant_network(seed, 9) is K6 less three edges, which has
    # no bridge, so every altered graph has one part that needs an inversion;
    # a removed pendant edge (a bridge) also cuts its leaf e.v off alone.
    calls = []
    real = resfault.network.fraction_free_invert

    def counting(mat, scales):
        calls.append(len(mat))
        return real(mat, scales)

    monkeypatch.setattr(resfault.network, "fraction_free_invert", counting)
    net = pendant_network(5, 9)
    core = net.n - 3
    probes = net.measurements()
    for _ in range(2):
        for e in net.edges:
            readings = [direct_effective_resistance_oracle(net, m, e, mode) for m in probes]
            cut_off = mode is FaultMode.REMOVED and e.v >= core
            assert [r == INFINITE for r in readings] == [cut_off and e.v in m.pair for m in probes]
    assert len(calls) == len(net.edges)


def _merged_by_fractions(net, pool, mode):
    sig = build_signature(net, pool, mode)
    cols = sig.columns()
    return tuple(
        (net.edges[i], net.edges[j])
        for i in range(len(cols))
        for j in range(i + 1, len(cols))
        if cols[i] == cols[j]
    )


@pytest.mark.parametrize(
    "net,pool",
    [
        (complete_network(6), [Measurement(0, 1), Measurement(0, 2)]),
        (complete_network(6), [Measurement(0, 1), Measurement(0, 2), Measurement(1, 2)]),
        (pendant_network(5, 8), [Measurement(0, 1), Measurement(2, 3)]),
    ],
)
def test_restricted_pool_witness_pairs(net, pool):
    for mode in FaultMode:
        want = _merged_by_fractions(net, pool, mode)
        assert want
        greedy = solve_greedy(net, candidates=pool, mode=mode)
        exact = solve_exact(net, candidates=pool, mode=mode)
        assert isinstance(greedy, Infeasible) and isinstance(exact, Infeasible)
        assert greedy.witness_pairs == exact.witness_pairs == want


def test_the_oracle_builds_no_ratio_table(monkeypatch):
    # The oracle grounds each altered graph itself, so an oracle sweep builds
    # no Network and no reading kernel, and no mode's per-edge ratio table.
    nets = (pendant_network(2, 9), kpartite_network(KPartiteShape((2, 3, 4))))
    calls, built = [], []
    kernel = resfault.network._ReadingKernel
    real, real_init, real_network = kernel.ratios, kernel.__init__, Network.__init__

    def recording(kernel, mode):
        calls.append(mode)
        return real(kernel, mode)

    def building(kernel, net):
        built.append("kernel")
        real_init(kernel, net)

    def constructing(net, *args):
        built.append("network")
        real_network(net, *args)

    monkeypatch.setattr(kernel, "ratios", recording)
    monkeypatch.setattr(kernel, "__init__", building)
    monkeypatch.setattr(Network, "__init__", constructing)
    for net in nets:
        for mode in FaultMode:
            for e in net.edges:
                for m in net.measurements():
                    direct_effective_resistance_oracle(net, m, e, mode)
    assert calls == [] and built == []
    reading_classes(net, [Measurement(0, 1)], FaultMode.SHORTED)
    assert calls == [FaultMode.SHORTED] and built == ["kernel"]


def assert_rows_match_the_reference(net, probes):
    for mode in FaultMode:
        for m in probes:
            for no_fault in (False, True):
                [keys] = reading_classes(net, [m], mode, no_fault)
                want = gcd_keyed_classes(net, m, mode, no_fault)
                assert numbered(keys) == numbered(want), (mode, m, no_fault)


@pytest.mark.parametrize("modulus", [3, 7, 8191])
def test_tiny_modulus_ids_match_the_reference(monkeypatch, modulus):
    # With one tiny character prime, ratios of different square classes
    # share a bucket and many products are multiples of the prime, so their
    # key entries come from odd and even powers of it and the exact isqrt
    # checks decide every merge.  On a triangle core (n = 6) two faults of
    # different ratios often read alike, so their ratios share a square
    # class.  In a two-leaf row with no X = 0 cell, a bridge or a lone cell
    # must still key apart from X = 0, where the healthy column joins.
    monkeypatch.setattr(resfault.network, "_PRIMES", (modulus,))
    nets = [pendant_network(seed, 6) for seed in range(20)]
    nets += [pendant_network(seed, 9) for seed in range(4)]
    nets += [two_leaf_network(seed) for seed in range(40)]
    nets += [kpartite_network(KPartiteShape((2, 3, 4, 5))), bridged_network()]
    nets += [complete_network(5), kpartite_network(KPartiteShape((2, 3)))]
    for net in nets:
        assert_rows_match_the_reference(net, net.measurements())


# Every family shape the benchmark and CI run, as (n,) or partition sizes.
BENCHMARK_FAMILIES = [(n,) for n in (6, 7, 8, 9, 10, 12, 14, 16, 20, 24, 32, 48, 64, 96)]
BENCHMARK_FAMILIES += [(2, 3), (2, 4), (5, 6), (2, 3, 6), (3, 4, 5), (4, 5, 6), (4, 6, 8)]
BENCHMARK_FAMILIES += [(2, 3, 4, 5), (3, 4, 5, 6), (4, 5, 5, 5)]


@pytest.mark.parametrize("shape", BENCHMARK_FAMILIES, ids=lambda shape: ",".join(map(str, shape)))
def test_family_rows_take_exact_keys_and_match_the_reference(shape):
    net = complete_network(shape[0]) if len(shape) == 1 else kpartite_network(KPartiteShape(shape))
    probes = net.measurements()
    assert_rows_match_the_reference(net, probes[:: max(1, len(probes) // 40)])


def test_small_weighted_exact_key_rows_match_the_reference():
    nets = [pendant_network(seed, 6) for seed in range(10)]
    nets += [two_leaf_network(seed) for seed in range(10)] + [bridged_network()]
    for net in nets:
        assert_rows_match_the_reference(net, net.measurements())


def test_a_separating_bridge_keys_apart_from_every_cell():
    # A unit triangle 0-1-2 with a leaf 3 at vertex 2: removing the bridge
    # (2, 3) separates the probe (0, 3), whose other cells key 1, 2 and 1,
    # so a bridge keyed 1, or |X| - 1 = 2, would read like a triangle fault.
    net = Network.from_edge_list(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)])
    m = Measurement(0, 3)
    assert net._reading_kernel.keys(FaultMode.REMOVED) == (
        (0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 1, 0), (2, 3, 0, -1))
    for no_fault in (False, True):
        [keys] = reading_classes(net, [m], FaultMode.REMOVED, no_fault)
        want = gcd_keyed_classes(net, m, FaultMode.REMOVED, no_fault)
        assert numbered(keys) == numbered(want), no_fault


Q = resfault.network._PRIMES[0]


@pytest.mark.parametrize("sign", [1, -1])
def test_a_square_of_a_character_prime_joins_its_class_in_either_order(sign):
    # Q^2 and 1 hold even powers of Q, so their key entries are the
    # character of what is left, sign * 1; Q^3 and Q hold odd powers, so
    # both take the entry Q.  Either way the two ratios share one bucket,
    # whichever of them founds the class.
    for big, small in [((sign * Q * Q, 1), (sign, 1)), ((sign * Q**3, 1), (sign * Q, 1))]:
        assert _square_classes([big, small]) == [(0, 1, 1), (0, 1, Q)]
        assert _square_classes([small, big]) == [(0, 1, 1), (0, Q, 1)]


@pytest.mark.parametrize("pairs", [[(Q, 1), (1, 1)], [(-1, 1), (1, 1)], [(-Q * Q, 1), (1, 1)],
                                   [(1, 1), (-Q * Q, 1)], [(1, Q * Q), (-1, 1)],
                                   [(Q, 1), (Q * Q, 1)]])
def test_ratios_whose_quotient_is_no_square_stay_apart(monkeypatch, pairs):
    assert _square_classes(pairs) == [(0, 1, 1), (1, 1, 1)]
    # -1 is a square modulo 5, so there only the sign keeps ratios of
    # opposite signs in different buckets.
    monkeypatch.setattr(resfault.network, "_PRIMES", (5,))
    assert _square_classes(pairs) == [(0, 1, 1), (1, 1, 1)]


def is_rational_square(x: Fraction) -> bool:
    num, den = x.numerator, x.denominator
    return num > 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


@pytest.mark.parametrize("primes", [None, (3,), (5, 7)], ids=["all", "3", "5,7"])
@pytest.mark.parametrize("count", [4, 16, 60, 300])
def test_square_classes_match_a_brute_force_reference(monkeypatch, count, primes):
    # Each side of a ratio is a sign, powers of 2, 3, 5, 7 and 11 (the first
    # character primes among them) and a random square, so many ratios share
    # a class.  With one or two character primes, many also share a bucket
    # key with a ratio of another class, and the exact test must part them.
    if primes:
        monkeypatch.setattr(resfault.network, "_PRIMES", primes)
    rng = random.Random(count)

    def side():
        x = rng.choice((1, -1)) * rng.randint(1, 40) ** 2
        for q in (2, 3, 5, 7, 11):
            x *= q ** rng.randrange(4)
        return x

    pairs = list(dict.fromkeys((side(), side()) for _ in range(count)))
    classes = _square_classes(pairs)
    ratios = [Fraction(alpha, beta) for alpha, beta in pairs]
    founders: dict[int, Fraction] = {}
    for ratio, (k, u, v) in zip(ratios, classes):
        rho = founders.setdefault(k, ratio)
        assert k < len(founders) and gcd(u, v) == 1 and ratio == rho * Fraction(u, v) ** 2
    for i, j in combinations(range(len(pairs)), 2):
        same = classes[i][0] == classes[j][0]
        assert same == is_rational_square(ratios[i] / ratios[j]), (pairs[i], pairs[j])


def test_view_rows_on_a_column_subset_match_the_reference():
    # One view per column subset serves every probe, in a random order, so
    # columns built for earlier rows are read again by later ones.
    rng = random.Random(12)
    nets = [pendant_network(seed, 9) for seed in range(4)]
    nets += [two_leaf_network(seed) for seed in range(4)] + [bridged_network()]
    for net in nets:
        kernel = net._reading_kernel
        probes = net.measurements()
        for mode in FaultMode:
            for no_fault in (False, True):
                entries = _key_entries(net, mode, no_fault)
                columns = sorted(rng.sample(range(len(entries)), rng.randint(1, len(entries))))
                view = kernel.view([entries[c] for c in columns])
                for m in rng.sample(probes, len(probes)):
                    want = gcd_keyed_classes(net, m, mode, no_fault)
                    got = kernel.cell_keys(m.r, m.s, view)
                    assert numbered(got) == numbered([want[c] for c in columns]), (m, mode)


def test_square_classes_take_few_isqrt_calls(monkeypatch):
    # Comparing every pair of ratios would take about n^2 / 2 isqrt calls;
    # the buckets leave about one comparison per ratio.  With every other
    # numerator a multiple of Q, the products of many ratios are too, and
    # their key entries for Q must still keep each bucket to one class.
    rng = random.Random(40)
    pairs = [(u, v) for u in range(40) for v in range(u + 1, 40)]
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in pairs]
    calls = []
    real = resfault.network.isqrt
    monkeypatch.setattr(resfault.network, "isqrt", lambda x: calls.append(x) or real(x))
    for scale in (1, Q):
        net = Network.from_edge_list(40, [(u, v, w * scale if j % 2 else w)
                                          for j, ((u, v), w) in enumerate(zip(pairs, weights))])
        kernel = net._reading_kernel
        for mode in FaultMode:
            distinct = len({row[2:] for row in kernel.ratios(mode)})
            calls.clear()
            kernel.keys(mode)
            assert len(calls) <= 2 * distinct, (scale, mode, len(calls), distinct)


def mirrored_big_network(seed):
    """A ~200-bit weighted graph on 0..4, its mirror image on 5..9, rungs v--v+5
    and a mirrored pair of pendant leaves: faults mirrored across read alike
    on every probe (v, v + 5)."""
    rng = random.Random(seed)
    dens = [rng.getrandbits(200) | 1 for _ in range(2)]
    weight = lambda: Fraction(rng.getrandbits(200) | 1, rng.choice(dens))
    half = {(v, rng.randrange(v)): weight() for v in range(1, 5)}
    while len(half) < 7:
        v, u = sorted(rng.sample(range(5), 2), reverse=True)
        half.setdefault((v, u), weight())
    edges = [(u, v, w) for (v, u), w in half.items()]
    edges += [(u + 5, v + 5, w) for u, v, w in edges]
    edges += [(v, v + 5, weight()) for v in range(5)]
    leaf = weight()
    edges += [(0, 10, leaf), (5, 11, leaf)]
    return Network.from_edge_list(12, edges)


def test_big_conductances_ids_equal_iff_readings_equal():
    net = mirrored_big_network(11)
    probes = net.measurements()
    equal_pairs = 0
    for mode in FaultMode:
        table = reading_classes(net, probes, mode, no_fault=True)
        sig = build_signature(net, probes, mode)
        for ids, row, m in zip(table, sig.entries, probes):
            row = row + (effective_resistance(net, m),)
            for j in range(len(row)):
                for i in range(j):
                    assert (ids[i] == ids[j]) == (row[i] == row[j]), (mode, m, i, j)
                    equal_pairs += row[i] == row[j]
    assert equal_pairs > 100
    assert_rows_match_the_reference(net, probes[::8])


def test_forty_vertex_rows_match_the_reference():
    net = pendant_network(40, 40)
    assert_rows_match_the_reference(net, net.measurements()[::7])


@pytest.mark.parametrize("seed", range(2))
def test_benchmark_shaped_rows_match_the_reference(seed):
    # n = 22 with three pendant leaves, like the benchmark's weighted pool:
    # every probe, not a sample, is read.
    net = pendant_network(seed, 22)
    assert_rows_match_the_reference(net, net.measurements())


def test_grounding_divides_out_the_common_factor():
    nets = [pendant_network(seed, 9) for seed in range(4)] + [bridged_network()]
    nets += [complete_network(6), kpartite_network(KPartiteShape((2, 3, 4)))]
    nets += [mirrored_big_network(11)]
    reduced = 0
    for net in nets:
        kernel = net._reading_kernel
        assert gcd(kernel.det, *chain.from_iterable(kernel.p)) == 1
        inverse = [[Fraction(x, kernel.det) for x in row] for row in kernel.p]
        assert inverse == grounded_inverse(net, 0)
        lap = build_reduced_laplacian(net, 0)
        c = lcm(*(x.denominator for row in lap for x in row))
        _, det = full_width_invert([[int(x * c) for x in row] for row in lap])
        assert det % kernel.det == 0
        reduced += det != kernel.det
    assert reduced >= 3
