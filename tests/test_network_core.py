import gc
import random
import weakref
from fractions import Fraction

import pytest

from resfault.families import KPartiteShape, complete_network
from resfault.network import (
    INFINITE,
    Edge,
    FaultMode,
    Measurement,
    Network,
    build_reduced_laplacian,
    direct_effective_resistance_oracle,
    effective_resistance,
    perturbed_effective_resistance,
)

from grounding import grounded_inverse, grounded_resistance


def dense_resistance_oracle(net, r, s):
    """Independent check: solve the full Laplacian system by plain
    fraction Gaussian elimination with the last vertex pinned to 0V."""
    n = net.n
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in net.edges:
        lap[e.u][e.v] -= e.conductance
        lap[e.v][e.u] -= e.conductance
        lap[e.u][e.u] += e.conductance
        lap[e.v][e.v] += e.conductance
    # unit current in at r, out at s; ground the last row/column
    rows = [row[: n - 1] + [Fraction(0)] for row in lap[: n - 1]]
    if r < n - 1:
        rows[r][-1] += 1
    if s < n - 1:
        rows[s][-1] -= 1
    m = n - 1
    for col in range(m):
        piv = next(i for i in range(col, m) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        for i in range(m):
            if i != col and rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    volts = [rows[i][-1] / rows[i][i] for i in range(m)] + [Fraction(0)]
    return volts[r] - volts[s]


def path_network():
    return Network.from_edge_list(3, [(0, 1, 1), (1, 2, 1)])


class TestConstruction:
    def test_edge_and_measurement_normalize_unordered(self):
        assert Edge(5, 2, 1).pair == (2, 5)
        assert Measurement(3, 1).pair == (1, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Edge(2, 2, 1)
        with pytest.raises(ValueError):
            Measurement(4, 4)

    def test_nonpositive_conductance_rejected(self):
        with pytest.raises(ValueError):
            Edge(0, 1, 0)
        with pytest.raises(ValueError):
            Edge(0, 1, Fraction(-1, 2))

    def test_parallel_edges_merge_by_conductance_sum(self):
        net = Network.from_edge_list(2, [(0, 1, 1), (1, 0, Fraction(1, 2))])
        assert len(net.edges) == 1
        assert net.edges[0].conductance == Fraction(3, 2)

    def test_disconnected_network_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            Network.from_edge_list(4, [(0, 1, 1), (2, 3, 1)])

    def test_duplicate_edges_rejected_in_direct_constructor(self):
        with pytest.raises(ValueError, match="duplicate"):
            Network(2, (Edge(0, 1, 1), Edge(1, 0, 2)))

    def test_family_networks_are_freed_with_their_caller(self):
        # The builders keep no copy, so a network and everything it memoizes
        # (here the reading kernel and one rebuilt oracle graph) go with it.
        refs = []
        for net in (complete_network(12), KPartiteShape((2, 3, 4)).network()):
            probe, fault = Measurement(0, 5), net.edges[0]
            perturbed_effective_resistance(net, probe, fault, FaultMode.REMOVED)
            direct_effective_resistance_oracle(net, probe, fault, FaultMode.REMOVED)
            refs.append(weakref.ref(net))
        del net
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_infinite_sentinel_equality(self):
        from resfault.network import InfiniteResistance

        assert INFINITE == InfiniteResistance()
        assert INFINITE != Fraction(1)
        assert Fraction(1) != INFINITE
        assert hash(INFINITE) == hash(InfiniteResistance())


class TestReducedLaplacian:
    def test_k4_ground_3(self):
        lap = build_reduced_laplacian(complete_network(4), 3)
        assert lap == [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]

    def test_unit_path_ground_end(self):
        assert build_reduced_laplacian(path_network(), 2) == [[1, -1], [-1, 2]]

    def test_unit_triangle_as_three_partitions(self):
        # complete 3-partite (1,1,1) with the ground in the first partition:
        # diagonal n - |p_i| = 2, off-diagonal all-ones blocks
        net = KPartiteShape((1, 1, 1)).network()
        assert build_reduced_laplacian(net, 0) == [[2, -1], [-1, 2]]

    def test_invalid_ground_rejected(self):
        with pytest.raises(ValueError):
            build_reduced_laplacian(path_network(), 5)


class TestInverseEntries:
    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_complete_graph_entries(self, n):
        net = complete_network(n)
        inv = grounded_inverse(net, 0)
        assert inv[1][1] == Fraction(2, n)
        assert inv[1][2] == Fraction(1, n)
        assert effective_resistance(net, Measurement(0, 1)) == inv[1][1]
        assert effective_resistance(net, Measurement(1, 2)) == grounded_resistance(
            net, Measurement(1, 2), 0
        )

    def test_random_weighted_graph_inverse_identity(self):
        rng = random.Random(5)
        edges = [(i, i + 1, Fraction(rng.randint(1, 5), rng.randint(1, 3))) for i in range(5)]
        edges += [(0, 3, Fraction(2, 7)), (1, 4, 2), (2, 5, 1)]
        net = Network.from_edge_list(6, edges)
        lap = build_reduced_laplacian(net, 2)
        inv = grounded_inverse(net, 2)
        sampled = [0, 3, 4]  # columns of the inverse, in reduced indexing
        for col in sampled:
            column = [
                inv[i if i < 2 else i + 1][col if col < 2 else col + 1] for i in range(5)
            ]
            for i in range(5):
                acc = sum(lap[i][j] * column[j] for j in range(5))
                assert acc == (1 if i == col else 0)
        for m in net.measurements():
            assert effective_resistance(net, m) == grounded_resistance(net, m, 2)

    def test_ground_row_and_column_are_deleted(self):
        net = path_network()
        lap = build_reduced_laplacian(net, 1)
        assert len(lap) == 2 and all(len(row) == 2 for row in lap)
        inv = grounded_inverse(net, 1)
        assert inv[1] == [0, 0, 0] and [row[1] for row in inv] == [0, 0, 0]
        # with vertex 1 grounded, the resistance to it is a diagonal entry
        for v in (0, 2):
            assert effective_resistance(net, Measurement(v, 1)) == inv[v][v] == 1


class TestEffectiveResistance:
    def test_k8_any_pair_is_quarter(self):
        net = complete_network(8)
        assert effective_resistance(net, Measurement(0, 1)) == Fraction(1, 4)
        assert effective_resistance(net, Measurement(3, 6)) == Fraction(1, 4)

    def test_single_resistor(self):
        net = Network.from_edge_list(2, [(0, 1, Fraction(5, 3))])
        assert effective_resistance(net, Measurement(0, 1)) == Fraction(3, 5)

    def test_bipartite_cross_pair_against_dense_solve(self):
        net = KPartiteShape((2, 3)).network()
        value = effective_resistance(net, Measurement(0, 2))
        assert value == dense_resistance_oracle(net, 0, 2)
        assert value == Fraction(2, 3)

    def test_ground_independence_exact(self):
        net = Network.from_edge_list(
            5,
            [(0, 1, Fraction(1, 2)), (1, 2, 2), (2, 3, 1), (3, 4, Fraction(3, 7)),
             (0, 4, 1), (1, 3, 1)],
        )
        for m in net.measurements():
            values = {grounded_resistance(net, m, g) for g in range(5)}
            assert values == {effective_resistance(net, m)}


class TestPerturbedResistance:
    def test_k4_remove_measured_edge(self):
        # two parallel two-resistor paths remain
        net = complete_network(4)
        fault = net.edge_between(0, 1)
        assert perturbed_effective_resistance(net, Measurement(0, 1), fault, FaultMode.REMOVED) == 1

    def test_kn_disjoint_fault_leaves_reading_unchanged(self):
        net = complete_network(7)
        base = effective_resistance(net, Measurement(0, 1))
        fault = net.edge_between(3, 4)
        for mode in FaultMode:
            assert perturbed_effective_resistance(net, Measurement(0, 1), fault, mode) == base

    def test_short_of_measured_pair_reads_zero(self):
        net = complete_network(8)
        fault = net.edge_between(2, 5)
        assert perturbed_effective_resistance(net, Measurement(2, 5), fault, FaultMode.SHORTED) == 0

    def test_bridge_removal_disconnecting_pair_reads_infinite(self):
        net = path_network()
        fault = net.edge_between(0, 1)
        assert (
            perturbed_effective_resistance(net, Measurement(0, 2), fault, FaultMode.REMOVED)
            == INFINITE
        )

    def test_bridge_removal_same_side_recomputes(self):
        net = path_network()
        fault = net.edge_between(0, 1)
        assert perturbed_effective_resistance(net, Measurement(1, 2), fault, FaultMode.REMOVED) == 1

    def test_fault_must_be_a_network_edge(self):
        net = path_network()
        with pytest.raises(ValueError):
            perturbed_effective_resistance(
                net, Measurement(0, 1), Edge(0, 2, 1), FaultMode.REMOVED
            )

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_update_agrees_with_oracle_on_k6(self, mode):
        net = complete_network(6)
        for m in net.measurements():
            for e in net.edges:
                assert perturbed_effective_resistance(
                    net, m, e, mode
                ) == direct_effective_resistance_oracle(net, m, e, mode)

    def test_update_agrees_with_oracle_on_k33_incident_faults(self):
        net = KPartiteShape((3, 3)).network()
        m = Measurement(0, 3)
        for e in net.edges:
            if {e.u, e.v} & {0, 3}:
                assert perturbed_effective_resistance(
                    net, m, e, FaultMode.REMOVED
                ) == direct_effective_resistance_oracle(net, m, e, FaultMode.REMOVED)

    def test_update_agrees_with_oracle_on_weighted_graph(self):
        net = Network.from_edge_list(
            5,
            [(0, 1, Fraction(1, 2)), (1, 2, 2), (2, 3, 1), (3, 4, Fraction(3, 7)),
             (0, 4, 1), (1, 3, 1)],
        )
        for m in net.measurements():
            for e in net.edges:
                for mode in FaultMode:
                    assert perturbed_effective_resistance(
                        net, m, e, mode
                    ) == direct_effective_resistance_oracle(net, m, e, mode)

    def test_fault_monotonicity(self):
        net = KPartiteShape((2, 2, 3)).network()
        for m in net.measurements():
            base = effective_resistance(net, m)
            for e in net.edges:
                removed = perturbed_effective_resistance(net, m, e, FaultMode.REMOVED)
                shorted = perturbed_effective_resistance(net, m, e, FaultMode.SHORTED)
                assert removed == INFINITE or removed >= base
                assert shorted != INFINITE and shorted <= base
