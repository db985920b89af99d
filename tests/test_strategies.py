import hashlib
import json
from itertools import combinations, combinations_with_replacement

import pytest

from resfault.bounds import bipartite_bound, kpartite_bound, tripartite_bound
from resfault.families import KPartiteShape, complete_network
from resfault.fileio import plan_to_dict
from resfault.network import FaultMode
from resfault.signatures import is_distinguishing
from resfault.solver import analyze_measurement_graph
from resfault.strategies import (
    MeasurementPlan,
    bipartite_strategy,
    complete_strategy,
    kpartite_strategy,
    tripartite_strategy,
)

from reference import plan_size_by_rule


def structural_ok(plan, net):
    report = analyze_measurement_graph(net, plan.measurements)
    return report.violations == ()


class TestCompleteStrategy:
    @pytest.mark.parametrize("n,size", [(6, 4), (7, 5), (8, 6), (9, 6), (12, 8), (30, 20)])
    def test_sizes(self, n, size):
        assert len(complete_strategy(n)) == size == plan_size_by_rule("complete", n)

    def test_below_theorem_scope_rejected(self):
        with pytest.raises(ValueError):
            complete_strategy(5)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_distinguishing_and_structural(self, n):
        plan = complete_strategy(n)
        assert structural_ok(plan, complete_network(n))
        assert is_distinguishing(complete_network(n), plan.measurements, FaultMode.REMOVED)

    def test_provenance_tags(self):
        plan = complete_strategy(7)
        assert plan.provenance == ("butterfly",) * 4 + ("hub-link",)


class TestBipartiteStrategy:
    @pytest.mark.parametrize("b,g,size", [(2, 3, 3), (3, 3, 3), (5, 5, 6), (3, 7, 5), (4, 4, 4)])
    def test_sizes_match_the_stated_counts(self, b, g, size):
        plan = bipartite_strategy(b, g)
        assert len(plan) == size == bipartite_bound(b, g).exact

    @pytest.mark.parametrize("g,b", [(g, b) for g in range(3, 9) for b in range(3, g + 1)])
    def test_distinguishing_for_parts_of_three_or_more(self, b, g):
        plan = bipartite_strategy(b, g)
        net = KPartiteShape((b, g)).network()
        assert len(plan) == bipartite_bound(b, g).exact
        assert structural_ok(plan, net)
        assert is_distinguishing(net, plan.measurements, FaultMode.REMOVED)

    def test_two_vertex_partition_plans_cannot_work(self):
        # With a size-2 partition two table columns carry the same value,
        # so no plan of the nominal size floor(2g/3 + b/3) = 2 can work on
        # K(2,3), structurally sound or not -- the failure is a value
        # coincidence.  The generated plan is one probe larger and works.
        net = KPartiteShape((2, 3)).network()
        for pair in combinations(net.measurements(), 2):
            assert not is_distinguishing(net, pair, FaultMode.REMOVED), pair
        plan = bipartite_strategy(2, 3)
        assert len(plan) == bipartite_bound(2, 3).exact == 3
        assert structural_ok(plan, net)
        assert is_distinguishing(net, plan.measurements, FaultMode.REMOVED)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            bipartite_strategy(1, 4)
        with pytest.raises(ValueError):
            bipartite_strategy(5, 4)


class TestTripartiteStrategy:
    @pytest.mark.parametrize(
        "sizes,want",
        [((4, 4, 4), 6), ((2, 3, 4), 3), ((2, 4, 4), 5), ((2, 2, 2), 2), ((2, 3, 3), 3)],
    )
    def test_spec_anchor_sizes(self, sizes, want):
        assert len(tripartite_strategy(*sizes)) == want

    @pytest.mark.parametrize("sizes", list(combinations_with_replacement(range(2, 7), 3)))
    def test_distinguishing_across_the_range(self, sizes):
        plan = tripartite_strategy(*sizes)
        shape = KPartiteShape(sizes)
        assert structural_ok(plan, shape.network())
        assert is_distinguishing(shape.network(), plan.measurements, FaultMode.REMOVED)

    def test_sizes_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="2 <= a <= b <= c"):
            tripartite_strategy(3, 2, 4)

    def test_sizes_match_the_table_when_attainable(self):
        # Where the table value is unattainable (a dominated largest
        # partition with surplus 2 mod 3) the upper bound counts this plan.
        for sizes in combinations_with_replacement(range(2, 7), 3):
            plan = tripartite_strategy(*sizes)
            assert len(plan) == tripartite_bound(*sizes).upper, sizes


class TestKPartiteStrategy:
    def test_delegates_to_bipartite_for_two_partitions(self):
        plan = kpartite_strategy(KPartiteShape((3, 3)))
        assert len(plan) == 3
        assert plan.measurements == bipartite_strategy(3, 3).measurements

    def test_pure_triple(self):
        plan = kpartite_strategy(KPartiteShape((2, 2, 2)))
        assert len(plan) == 2

    def test_delegates_to_tripartite_for_three_partitions(self):
        plan = kpartite_strategy(KPartiteShape((2, 3, 4)))
        expected = tripartite_strategy(2, 3, 4)
        assert plan.measurements == expected.measurements
        assert plan.provenance == expected.provenance

    @pytest.mark.parametrize("parts", [(2, 2, 2, 3), (2, 2, 2, 2), (2, 3, 3, 4, 4)])
    def test_distinguishing_and_within_bounds(self, parts):
        shape = KPartiteShape(parts)
        plan = kpartite_strategy(shape)
        report = kpartite_bound(shape)
        assert report.lower <= len(plan) <= report.upper
        assert len(plan) == plan_size_by_rule("k_partite", shape)
        assert is_distinguishing(shape.network(), plan.measurements, FaultMode.REMOVED)

    def test_spec_anchor_count_for_2223(self):
        assert len(kpartite_strategy(KPartiteShape((2, 2, 2, 3)))) == 4

    def test_partition_sizes_below_two_rejected(self):
        with pytest.raises(ValueError):
            kpartite_strategy(KPartiteShape((1, 2, 3)))

    def test_shape_must_be_nondecreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            KPartiteShape((3, 2))

    def test_partition_of_rejects_a_vertex_past_the_last_part(self):
        shape = KPartiteShape((2, 3))
        assert [shape.partition_of(v) for v in range(5)] == [0, 0, 1, 1, 1]
        with pytest.raises(ValueError, match="vertex 5 out of range"):
            shape.partition_of(5)

    # int() once turned each of these into a shape, (2.9, 3) into (2, 3).
    @pytest.mark.parametrize("parts", [(2.9, 3), (2.0, 3), ("2", "3"), (True, 3)],
                             ids=["float", "whole-float", "str", "bool"])
    def test_partition_sizes_must_be_integers(self, parts):
        with pytest.raises(ValueError, match="partition sizes must be integers"):
            KPartiteShape(parts)


class TestShortedModeEmpirically:
    # Plans are constructed for removed-mode faults; shorted-mode validity
    # is not claimed in general, but holds on every swept instance.
    def test_complete_plans_also_work_shorted(self):
        for n in (6, 7, 10):
            net = complete_network(n)
            plan = complete_strategy(n)
            assert is_distinguishing(net, plan.measurements, FaultMode.SHORTED)

    def test_family_plans_also_work_shorted(self):
        for parts in [(3, 4), (2, 3, 4), (3, 3, 3)]:
            shape = KPartiteShape(parts)
            plan = kpartite_strategy(shape)
            assert is_distinguishing(shape.network(), plan.measurements, FaultMode.SHORTED)


class TestPlanInvariants:
    def test_no_duplicates_and_full_provenance(self):
        for plan in [
            complete_strategy(10),
            bipartite_strategy(4, 7),
            tripartite_strategy(3, 4, 6),
            kpartite_strategy(KPartiteShape((2, 2, 3, 3))),
        ]:
            assert len(set(plan.measurements)) == len(plan)
            assert len(plan.provenance) == len(plan)
            assert all(plan.provenance)

    def test_plan_validation(self):
        from resfault.network import Measurement

        with pytest.raises(ValueError):
            MeasurementPlan((Measurement(0, 1),), ())
        with pytest.raises(ValueError):
            MeasurementPlan((Measurement(0, 1), Measurement(1, 0)), ("a", "b"))


class TestPlanSizeByRule:
    def test_complete(self):
        assert plan_size_by_rule("complete", 10) == 7

    def test_bipartite_and_tripartite_follow_their_tables(self):
        assert plan_size_by_rule("k_partite", KPartiteShape((5, 5))) == 6
        assert plan_size_by_rule("k_partite", KPartiteShape((2, 3, 4))) == 3

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_generated_plans_for_larger_k(self, k):
        for parts in combinations_with_replacement(range(2, 5), k):
            shape = KPartiteShape(parts)
            assert len(kpartite_strategy(shape)) == plan_size_by_rule("k_partite", shape)

    @pytest.mark.parametrize("k", [4, 5])
    def test_stays_inside_the_general_bounds(self, k):
        # The composed count can beat the stated upper bound: the
        # per-triple table entries are finer than the val() envelope.
        for parts in combinations_with_replacement(range(2, 6), k):
            shape = KPartiteShape(parts)
            report = kpartite_bound(shape)
            assert report.lower <= plan_size_by_rule("k_partite", shape) <= report.upper

    def test_can_fall_below_the_stated_upper_bound(self):
        shape = KPartiteShape((2, 2, 3, 5))
        assert len(kpartite_strategy(shape)) == plan_size_by_rule("k_partite", shape) == 7
        assert kpartite_bound(shape).upper == 8

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            plan_size_by_rule("wheel", 5)


class TestPlanIdentity:
    """Every generated plan below, pinned by one digest.

    The digest is the sha256 of the JSON list of `plan_to_dict` documents
    (mode, measurements and provenance tags).  The plans are those from
    before the strategy moves were merged into single builder methods;
    the digest changes only with a stated change to a generated plan.
    """

    DIGEST = "c42fbe401056042254b65c98bd17e856415eaf9fc4a5d62942b5051d7e48efb2"

    def test_generated_plans_are_unchanged(self):
        plans = [complete_strategy(n) for n in range(6, 41)]
        plans += [bipartite_strategy(*p) for p in combinations_with_replacement(range(2, 11), 2)]
        plans += [tripartite_strategy(*p) for p in combinations_with_replacement(range(2, 11), 3)]
        for k, top in ((2, 10), (4, 5), (5, 5), (6, 5), (7, 5)):
            for parts in combinations_with_replacement(range(2, top + 1), k):
                plans.append(kpartite_strategy(KPartiteShape(parts)))
        assert len(plans) == 585
        docs = [plan_to_dict(p) for p in plans]
        assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == self.DIGEST

    # The same digest over a wider sweep, taken before the tripartite block
    # and the equal-size tripartite plan shared one closing step.
    SWEEP_DIGEST = "cc5d0f527aa9f2c02df0b723440d7045fc36c16a6863a9de92c7b6725240d8b4"

    def test_plan_sweep_is_unchanged(self):
        plans = [complete_strategy(n) for n in range(6, 80)]
        for k in range(2, 8):
            for parts in combinations_with_replacement(range(2, 10), k):
                plans.append(kpartite_strategy(KPartiteShape(parts)))
        assert len(plans) == 6500
        docs = [plan_to_dict(p) for p in plans]
        assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == self.SWEEP_DIGEST
