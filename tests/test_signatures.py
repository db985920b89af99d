from itertools import combinations

import pytest

from resfault.closed_forms import kpartite_delta
from resfault.families import KPartiteShape, complete_network
from resfault.network import (
    FaultMode,
    Measurement,
    direct_effective_resistance_oracle,
    effective_resistance,
    perturbed_effective_resistance,
)
from resfault.signatures import (
    equivalence_classes,
    is_distinguishing,
    merged_pairs,
    reading_classes,
    undistinguished_pairs,
)
from resfault.solver import ExactSolution, Infeasible, solve_exact, solve_greedy
from resfault.strategies import complete_strategy

from reference import build_signature, classify_kpartite


class TestBuildSignature:
    def test_k6_strategy_gives_distinct_columns(self):
        net = complete_network(6)
        plan = complete_strategy(6)
        sig = build_signature(net, plan.measurements, FaultMode.REMOVED)
        cols = sig.columns()
        assert len(cols) == 15
        assert len(set(cols)) == 15

    def test_empty_measurement_list_rejected(self):
        with pytest.raises(ValueError):
            build_signature(complete_network(6), [], FaultMode.REMOVED)

    def test_disjoint_faults_keep_the_baseline_reading(self):
        net = complete_network(7)
        m = Measurement(0, 1)
        sig = build_signature(net, [m], FaultMode.REMOVED)
        base = effective_resistance(net, m)
        for j, e in enumerate(sig.edges):
            if {e.u, e.v} & {0, 1}:
                assert sig.entry(0, j) != base
            else:
                assert sig.entry(0, j) == base


class TestEquivalenceClasses:
    @pytest.mark.parametrize("n", [6, 9])
    def test_single_probe_on_complete_graph(self, n):
        # The probed edge is alone; all other incident edges share one
        # reading (the two incident table entries are equal); the rest
        # keep the baseline.  Hence 3 classes of sizes 1, 2(n-2), rest.
        net = complete_network(n)
        classes = equivalence_classes(net, Measurement(0, 1), FaultMode.REMOVED)
        sizes = sorted(len(c) for c in classes)
        assert sizes == sorted([1, 2 * (n - 2), (n - 2) * (n - 3) // 2])

    def test_k4_matches_direct_oracle_grouping(self):
        net = complete_network(4)
        m = Measurement(0, 2)
        groups = {}
        for e in net.edges:
            groups.setdefault(
                direct_effective_resistance_oracle(net, m, e, FaultMode.REMOVED), []
            ).append(e)
        expected = sorted(tuple(g) for g in groups.values())
        got = sorted(equivalence_classes(net, m, FaultMode.REMOVED))
        assert got == expected

    def test_same_partition_probe_matches_table_grouping(self):
        # Independent grouping via the closed-form table values.
        shape = KPartiteShape((2, 3, 4))
        net = shape.network()
        m = Measurement(2, 3)  # inside the size-3 partition
        for mode in FaultMode:
            by_delta = {}
            for e in net.edges:
                delta = kpartite_delta(shape, classify_kpartite(shape, m, e).case, mode)
                by_delta.setdefault(delta, []).append(e)
            expected = sorted(tuple(g) for g in by_delta.values())
            got = sorted(equivalence_classes(net, m, mode))
            assert got == expected
            # off-partition probes split by the far partition size, plus one zero class
            assert len(got) == 3


class TestDistinguishing:
    def test_meet_of_class_partitions_is_discrete_iff_distinguishing(self):
        net = complete_network(6)
        for probes in [
            [Measurement(0, 1), Measurement(1, 2)],
            list(complete_strategy(6).measurements),
        ]:
            per_probe = [equivalence_classes(net, m, FaultMode.REMOVED) for m in probes]
            labels = {e: tuple() for e in net.edges}
            for classes in per_probe:
                for idx, group in enumerate(classes):
                    for e in group:
                        labels[e] = labels[e] + (idx,)
            discrete = len(set(labels.values())) == len(net.edges)
            assert discrete == is_distinguishing(net, probes, FaultMode.REMOVED)

    def test_single_probe_never_distinguishes_k6(self):
        net = complete_network(6)
        for m in net.measurements():
            assert not is_distinguishing(net, [m], FaultMode.REMOVED)

    def test_no_three_probes_distinguish_k6(self):
        # Matches the exact lower bound: 4 probes are necessary.
        net = complete_network(6)
        sig = build_signature(net, net.measurements(), FaultMode.REMOVED)
        cols = sig.columns()
        for subset in combinations(range(15), 3):
            proj = [tuple(col[i] for i in subset) for col in cols]
            assert len(set(proj)) < len(proj)

    def test_adding_probes_preserves_distinguishability(self):
        net = complete_network(6)
        base = list(complete_strategy(6).measurements)
        assert is_distinguishing(net, base, FaultMode.REMOVED)
        extended = base + [Measurement(0, 5), Measurement(2, 3)]
        assert is_distinguishing(net, extended, FaultMode.REMOVED)


class TestEmptyProbeList:
    """No probes read every fault alike: only a network with one edge is solved."""

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_one_edge_is_told_apart(self, mode):
        net = complete_network(2)
        assert reading_classes(net, [], mode) == []
        assert is_distinguishing(net, [], mode)
        assert undistinguished_pairs(net, [], mode) == []

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_every_edge_pair_of_k3_stays_merged(self, mode):
        net = complete_network(3)
        assert not is_distinguishing(net, [], mode)
        assert undistinguished_pairs(net, [], mode) == list(combinations(net.edges, 2))


class TestUndistinguishedPairs:
    def test_empty_for_a_distinguishing_set(self):
        net = complete_network(6)
        assert undistinguished_pairs(net, complete_strategy(6).measurements, FaultMode.REMOVED) == []

    def test_two_untouched_vertices_in_one_partition_are_twins(self):
        # Both probes avoid vertices 2 and 3 of the first partition, so
        # edges (2, y) and (3, y) can never be separated.
        shape = KPartiteShape((4, 4))
        net = shape.network()
        probes = [Measurement(0, 4), Measurement(1, 5)]
        pairs = undistinguished_pairs(net, probes, FaultMode.REMOVED)
        for y in range(4, 8):
            e1, e2 = net.edge_between(2, y), net.edge_between(3, y)
            assert (e1, e2) in pairs or (e2, e1) in pairs

    def test_single_butterfly_on_k6_leaves_far_edges_merged(self):
        net = complete_network(6)
        probes = [Measurement(0, 1), Measurement(1, 2)]
        pairs = undistinguished_pairs(net, probes, FaultMode.REMOVED)
        far = [net.edge_between(u, v) for u, v in [(3, 4), (3, 5), (4, 5)]]
        for e1, e2 in combinations(far, 2):
            assert (e1, e2) in pairs


class TestNoFaultExtension:
    """The healthy network as one more column of the class table."""

    @staticmethod
    def healthy_merges(net, probes):
        table = reading_classes(net, probes, FaultMode.REMOVED, True)
        return merged_pairs(net.edges + (None,), table)

    def test_k6_plan_already_separates_the_baseline(self):
        net = complete_network(6)
        plan = list(complete_strategy(6).measurements)
        assert self.healthy_merges(net, plan) == []
        result = solve_exact(net, no_fault=True)
        assert isinstance(result, ExactSolution)
        assert len(result.plan) == len(plan) == 4

    def test_extension_adds_at_most_one(self):
        shape = KPartiteShape((4, 4))
        net = shape.network()
        probes = [Measurement(0, 1), Measurement(1, 2), Measurement(4, 5), Measurement(5, 6)]
        assert is_distinguishing(net, probes, FaultMode.REMOVED)
        edge = net.edge_between(3, 7)
        assert self.healthy_merges(net, probes) == [(edge, None)]
        optimum = solve_exact(net)
        with_healthy = solve_exact(net, no_fault=True)
        assert isinstance(optimum, ExactSolution) and isinstance(with_healthy, ExactSolution)
        # Extending these probes would take 5; solving with the column takes none extra.
        assert len(with_healthy.plan) == len(optimum.plan) == 4
        assert self.healthy_merges(net, with_healthy.plan.measurements) == []
        # some probe of the plan really does see the suspect fault
        assert any(
            perturbed_effective_resistance(net, m, edge, FaultMode.REMOVED)
            != effective_resistance(net, m)
            for m in with_healthy.plan.measurements
        )

    def test_restricted_pool_raises_naming_the_edge(self):
        shape = KPartiteShape((4, 4))
        net = shape.network()
        pool = [Measurement(a, b) for a, b in [(0, 1), (0, 2), (1, 2), (4, 5), (4, 6), (5, 6)]]
        assert isinstance(solve_exact(net, candidates=pool), ExactSolution)
        witness = ((net.edge_between(3, 7), None),)
        for result in (
            solve_exact(net, candidates=pool, no_fault=True),
            solve_greedy(net, candidates=pool, no_fault=True),
        ):
            assert isinstance(result, Infeasible)
            assert result.witness_pairs == witness
