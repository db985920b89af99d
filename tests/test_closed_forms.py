from fractions import Fraction

import pytest

from resfault.closed_forms import (
    CompleteCase,
    KPartiteCase,
    KPartiteColumn,
    complete_delta,
    kpartite_delta,
)
from resfault.families import KPartiteShape, complete_network
from resfault.network import (
    FaultMode,
    Measurement,
    effective_resistance,
    perturbed_effective_resistance,
)

from grounding import build_reduced_laplacian, grounded_inverse
from reference import (
    c_coefficient,
    c_coefficient_sum_form,
    classify_complete,
    classify_kpartite,
    kpartite_inverse_entry,
    multiply,
)


class TestCompleteTable:
    def test_classify(self):
        net = complete_network(6)
        m = Measurement(0, 1)
        assert classify_complete(m, net.edge_between(0, 1)) is CompleteCase.MATCHES_PROBE
        assert classify_complete(m, net.edge_between(0, 4)) is CompleteCase.TOUCHES_R
        assert classify_complete(m, net.edge_between(1, 4)) is CompleteCase.TOUCHES_S
        assert classify_complete(m, net.edge_between(2, 4)) is CompleteCase.DISJOINT

    def test_table_values(self):
        assert complete_delta(8, CompleteCase.MATCHES_PROBE, FaultMode.SHORTED) == Fraction(1, 4)
        assert complete_delta(8, CompleteCase.DISJOINT, FaultMode.SHORTED) == 0
        assert complete_delta(8, CompleteCase.DISJOINT, FaultMode.REMOVED) == 0
        assert complete_delta(6, CompleteCase.MATCHES_PROBE, FaultMode.REMOVED) == Fraction(-1, 6)
        assert complete_delta(8, CompleteCase.TOUCHES_R, FaultMode.SHORTED) == Fraction(1, 16)
        assert complete_delta(8, CompleteCase.TOUCHES_S, FaultMode.REMOVED) == Fraction(-1, 48)

    def test_incident_columns_share_one_value(self):
        # Both incident cases carry the same entry, so a single probe merges them.
        for n in (6, 9, 13):
            for mode in FaultMode:
                assert complete_delta(n, CompleteCase.TOUCHES_R, mode) == complete_delta(
                    n, CompleteCase.TOUCHES_S, mode
                )

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            complete_delta(2, CompleteCase.MATCHES_PROBE, FaultMode.REMOVED)

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_table_matches_update_formula(self, n, mode):
        net = complete_network(n)
        m = Measurement(0, 1)
        base = effective_resistance(net, m)
        for e in net.edges:
            delta = complete_delta(n, classify_complete(m, e), mode)
            assert perturbed_effective_resistance(net, m, e, mode) == base - delta


class TestCCoefficient:
    def test_spec_anchor_values(self):
        assert c_coefficient(KPartiteShape((2, 2, 2)), 0, 0) == Fraction(1, 6)
        # compact form: ((n-1)^2 + |p_b| - 1 - |p_q|(n-1)) / ((n-|p_q|)(n-|p_b|)n)
        # for (3,3), q=0, b=1: (25 + 2 - 15) / (3*3*6) = 12/54
        assert c_coefficient(KPartiteShape((3, 3)), 0, 1) == Fraction(2, 9)

    def test_two_forms_agree_for_distinct_partitions(self):
        for parts in [(2, 3), (2, 2, 2), (2, 3, 4), (1, 2, 5), (2, 2, 3, 4), (1, 1, 1, 1)]:
            shape = KPartiteShape(parts)
            for q in range(shape.k):
                for b in range(shape.k):
                    if q != b:
                        assert c_coefficient(shape, q, b) == c_coefficient_sum_form(
                            shape, q, b
                        ), (parts, q, b)


class TestBlockInverse:
    @pytest.mark.parametrize("parts", [(2, 3, 4), (1, 1, 1, 1), (2, 2), (1, 4)])
    def test_matches_elimination_everywhere(self, parts):
        shape = KPartiteShape(parts)
        net = shape.network()
        for ground in range(shape.n):
            inv = grounded_inverse(net, ground)
            for i in range(shape.n):
                for j in range(shape.n):
                    if ground in (i, j):
                        continue
                    assert kpartite_inverse_entry(shape, ground, i, j) == inv[i][j]

    def test_complete_graph_as_singleton_partitions(self):
        shape = KPartiteShape((1,) * 7)
        assert kpartite_inverse_entry(shape, 0, 3, 3) == Fraction(2, 7)
        assert kpartite_inverse_entry(shape, 0, 3, 5) == Fraction(1, 7)

    def test_product_with_laplacian_is_identity(self):
        shape = KPartiteShape((2, 2, 3))
        net = shape.network()
        ground = 2
        size = shape.n - 1
        unreduced = [v for v in range(shape.n) if v != ground]
        inv = [
            [kpartite_inverse_entry(shape, ground, unreduced[i], unreduced[j]) for j in range(size)]
            for i in range(size)
        ]
        lap = build_reduced_laplacian(net, ground)
        assert multiply(lap, inv) == [
            [Fraction(i == j) for j in range(size)] for i in range(size)
        ]

    def test_ground_entry_rejected(self):
        with pytest.raises(ValueError):
            kpartite_inverse_entry(KPartiteShape((2, 2)), 1, 1, 2)


class TestClassifier:
    def setup_method(self):
        self.shape = KPartiteShape((2, 3, 4))
        self.net = self.shape.network()

    def column_of(self, m, fault_pair):
        return classify_kpartite(self.shape, m, self.net.edge_between(*fault_pair)).case

    def test_cross_partition_columns(self):
        m = Measurement(0, 2)  # partitions 0 and 1
        assert self.column_of(m, (0, 2)).column is KPartiteColumn.I
        assert self.column_of(m, (0, 3)).column is KPartiteColumn.II
        assert self.column_of(m, (1, 2)).column is KPartiteColumn.III
        assert self.column_of(m, (1, 3)).column is KPartiteColumn.IV
        assert self.column_of(m, (0, 5)).column is KPartiteColumn.V
        assert self.column_of(m, (1, 5)).column is KPartiteColumn.VI
        assert self.column_of(m, (2, 5)).column is KPartiteColumn.VII
        assert self.column_of(m, (3, 5)).column is KPartiteColumn.VIII
        # both fault endpoints outside both probe partitions needs k >= 4
        shape4 = KPartiteShape((2, 2, 2, 2))
        net4 = shape4.network()
        got = classify_kpartite(shape4, Measurement(0, 2), net4.edge_between(4, 6))
        assert got.case.column is KPartiteColumn.IX

    def test_same_partition_columns(self):
        m = Measurement(2, 3)  # both in partition 1
        assert self.column_of(m, (2, 5)).column is KPartiteColumn.X
        got = classify_kpartite(self.shape, m, self.net.edge_between(3, 5))
        assert got.case.column is KPartiteColumn.X and got.swapped_probe
        assert self.column_of(m, (4, 5)).column is KPartiteColumn.XI
        assert self.column_of(m, (0, 5)).column is KPartiteColumn.XII

    def test_edge_relabel_flag(self):
        m = Measurement(2, 0)  # normalized to (0, 2): r in partition 0
        got = classify_kpartite(self.shape, m, self.net.edge_between(1, 2))
        assert got.case.column is KPartiteColumn.III  # endpoint 2 = s is the grounded side
        assert not got.swapped_edge
        got = classify_kpartite(self.shape, Measurement(0, 2), self.net.edge_between(0, 3))
        assert got.case.column is KPartiteColumn.II and not got.swapped_edge

    def test_intra_partition_edge_rejected(self):
        from resfault.network import Edge

        with pytest.raises(ValueError, match="impossible edge"):
            classify_kpartite(self.shape, Measurement(0, 2), Edge(2, 3, 1))


class TestKPartiteDelta:
    def test_zero_columns(self):
        shape = KPartiteShape((2, 3, 4))
        for column in (KPartiteColumn.IX, KPartiteColumn.XI, KPartiteColumn.XII):
            case = KPartiteCase(column, 0, 1)
            for mode in FaultMode:
                assert kpartite_delta(shape, case, mode) == 0

    def test_index_range_checked(self):
        # Index -1 would otherwise read the last partition and return a number.
        shape = KPartiteShape((2, 3))
        for q, g in [(2, 0), (0, 2), (-1, 0), (0, -1)]:
            for mode in FaultMode:
                with pytest.raises(ValueError, match="partition index out of range"):
                    kpartite_delta(shape, KPartiteCase(KPartiteColumn.I, q, g), mode)

    def test_spec_anchor_value(self):
        shape = KPartiteShape((2, 2, 2))
        case = KPartiteCase(KPartiteColumn.I, 0, 1)
        assert kpartite_delta(shape, case, FaultMode.SHORTED) == Fraction(5, 12)

    def test_degenerate_bridge_rejected(self):
        shape = KPartiteShape((1, 1))  # a single edge: removal disconnects
        case = KPartiteCase(KPartiteColumn.I, 0, 1)
        with pytest.raises(ValueError, match="bridge"):
            kpartite_delta(shape, case, FaultMode.REMOVED)

    @pytest.mark.parametrize(
        "parts",
        [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4), (2, 2, 3, 3)]
        + [(1, 2, 3), (1, 1, 3), (1, 2, 2, 3)],  # a size-1 partition
    )
    def test_tables_match_update_formula_exhaustively(self, parts):
        shape = KPartiteShape(parts)
        net = shape.network()
        for m in net.measurements():
            base = effective_resistance(net, m)
            for e in net.edges:
                case = classify_kpartite(shape, m, e).case
                for mode in FaultMode:
                    delta = kpartite_delta(shape, case, mode)
                    assert perturbed_effective_resistance(net, m, e, mode) == base - delta

    def test_equal_partition_sizes_make_columns_ii_and_iii_coincide(self):
        shape = KPartiteShape((3, 3, 4))
        for mode in FaultMode:
            same = [
                kpartite_delta(shape, KPartiteCase(col, 0, 1), mode)
                for col in (KPartiteColumn.II, KPartiteColumn.III)
            ]
            assert same[0] == same[1]
            differ = [
                kpartite_delta(shape, KPartiteCase(col, 0, 2), mode)
                for col in (KPartiteColumn.II, KPartiteColumn.III)
            ]
            assert differ[0] != differ[1]
