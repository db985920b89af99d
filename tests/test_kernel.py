"""The one-ground reading kernel against Fraction readings and the oracle.

Networks here are seeded random weighted graphs with conductances p/q
(1 <= p, q <= 9) and pendant leaves, so removal faults include bridges
with the probe on the same side (the reading keeps its base value) and on
opposite sides (INFINITE).
"""

import random
from fractions import Fraction

import pytest

import resfault.network
from resfault.families import complete_network
from resfault.network import (
    INFINITE,
    FaultMode,
    Measurement,
    Network,
    direct_effective_resistance_oracle,
    effective_resistance,
    perturbed_effective_resistance,
)
from resfault.signatures import reading_classes
from resfault.solver import Infeasible, solve_exact, solve_greedy

from reference import build_signature


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


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", list(FaultMode))
def test_keys_and_readings_match_the_oracle(seed, mode):
    net = pendant_network(seed, 9)
    bridge_cases = {"same side": 0, "separated": 0}
    core = net.n - 3
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
            if mode is FaultMode.REMOVED and e.v >= core:  # a pendant edge: a bridge
                bridge_cases["separated" if readings[j] == INFINITE else "same side"] += 1
                assert readings[j] in (INFINITE, base)
    if mode is FaultMode.REMOVED:
        assert all(bridge_cases.values()), bridge_cases


def test_reading_classes_number_each_row_in_edge_order():
    net = pendant_network(7, 8)
    ms = net.measurements()
    sig = build_signature(net, ms, FaultMode.REMOVED)
    for no_fault in (False, True):
        table = reading_classes(net, ms, FaultMode.REMOVED, no_fault)
        assert len(table) == len(ms)
        for ids, row, m in zip(table, sig.entries, ms):
            row = list(row) + ([effective_resistance(net, m)] if no_fault else [])
            first_seen = {}
            assert ids == [first_seen.setdefault(value, len(first_seen)) for value in row]


def test_one_inversion_per_network(monkeypatch):
    calls = []
    real = resfault.network.fraction_free_invert

    def counting(mat):
        calls.append(len(mat))
        return real(mat)

    monkeypatch.setattr(resfault.network, "fraction_free_invert", counting)
    net = pendant_network(3, 10)
    for mode in FaultMode:
        build_signature(net, net.measurements(), mode)
    assert calls == [9]


@pytest.mark.parametrize("mode", list(FaultMode))
def test_oracle_rebuilds_each_altered_graph_once(monkeypatch, mode):
    # The core of pendant_network(seed, 9) is K6 less three edges, which has
    # no bridge, so every altered graph has one part that needs an inversion;
    # a removed pendant edge (a bridge) also cuts its leaf e.v off alone.
    calls = []
    real = resfault.network.fraction_free_invert

    def counting(mat):
        calls.append(len(mat))
        return real(mat)

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
