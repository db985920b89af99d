import random
from collections import Counter
from itertools import combinations
from math import ceil
from operator import add
from types import SimpleNamespace

import pytest

import resfault.solver

from resfault.families import KPartiteShape, complete_network, measurement_orbit_representatives
from resfault.network import (
    FaultMode,
    Measurement,
    Network,
    direct_effective_resistance_oracle,
    effective_resistance,
    perturbed_effective_resistance,
)
from resfault.signatures import is_distinguishing, merged_pairs, reading_classes
from resfault.solver import (
    ExactSolution,
    Infeasible,
    TimedOut,
    _twin_classes,
    analyze_measurement_graph,
    solve_exact,
    solve_greedy,
)

from reference import build_signature


def enumeration_optimum(net, mode, no_fault=False):
    """Ground truth by subset enumeration over all candidate probes.

    With `no_fault`, the healthy network's readings are one more column.
    """
    candidates = net.measurements()
    sig = build_signature(net, candidates, mode)
    cols = sig.columns()
    if no_fault:
        cols.append(tuple(effective_resistance(net, m) for m in candidates))
    for size in range(1, len(candidates) + 1):
        for subset in combinations(range(len(candidates)), size):
            proj = [tuple(col[i] for i in subset) for col in cols]
            if len(set(proj)) == len(proj):
                return size
    raise AssertionError("full pool does not distinguish")


class TestExactSolver:
    @pytest.mark.parametrize("n,want", [(6, 4), (7, 5)])
    def test_complete_graphs(self, n, want):
        net = complete_network(n)
        result = solve_exact(net)
        assert isinstance(result, ExactSolution)
        assert len(result.plan) == want
        assert is_distinguishing(net, result.plan.measurements, FaultMode.REMOVED)

    def test_matches_enumeration_on_k6(self):
        net = complete_network(6)
        result = solve_exact(net)
        assert isinstance(result, ExactSolution)
        assert len(result.plan) == enumeration_optimum(net, FaultMode.REMOVED)

    def test_matches_enumeration_on_small_bipartite(self):
        net = KPartiteShape((2, 3)).network()
        result = solve_exact(net)
        assert isinstance(result, ExactSolution)
        assert len(result.plan) == enumeration_optimum(net, FaultMode.REMOVED) == 3

    def test_matches_enumeration_on_weighted_graph(self):
        net = Network.from_edge_list(
            4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 3), (0, 2, 1)]
        )
        for mode in FaultMode:
            result = solve_exact(net, mode=mode)
            assert isinstance(result, ExactSolution)
            assert len(result.plan) == enumeration_optimum(net, mode)

    def test_matches_enumeration_on_random_networks(self):
        import random
        from fractions import Fraction

        rng = random.Random(99)
        for _ in range(8):
            n = rng.randint(4, 5)
            edges = [
                (rng.randrange(v), v, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
                for v in range(1, n)
            ]
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.6:
                        edges.append((u, v, Fraction(rng.randint(1, 4))))
            net = Network.from_edge_list(n, edges)
            mode = rng.choice(list(FaultMode))
            result = solve_exact(net, mode=mode)
            assert isinstance(result, ExactSolution)
            assert len(result.plan) == enumeration_optimum(net, mode), (net.edges, mode)

    def test_without_symmetry_same_optimum(self):
        net = KPartiteShape((3, 3)).network()
        shape = KPartiteShape((3, 3))
        with_sym = solve_exact(net, first_probe_orbits=measurement_orbit_representatives(shape))
        without = solve_exact(net)
        assert isinstance(with_sym, ExactSolution) and isinstance(without, ExactSolution)
        assert len(with_sym.plan) == len(without.plan) == 3

    @pytest.mark.parametrize("shape", [(2, 3, 6), (2, 4, 7)], ids=["K2,3,6", "K2,4,7"])
    @pytest.mark.parametrize("first", [[], [Measurement(0, 99)]], ids=["empty", "outside"])
    def test_first_probes_must_be_candidates(self, shape, first):
        # The root tries these probes before its other children, so an empty
        # list or one outside the pool names first probes it cannot try.
        net = KPartiteShape(shape).network()
        with pytest.raises(ValueError, match="non-empty list of candidates"):
            solve_exact(net, first_probe_orbits=first)
        pool = net.measurements()[:-1]
        with pytest.raises(ValueError, match="non-empty list of candidates"):
            solve_exact(net, pool, first_probe_orbits=[*first, net.measurements()[-1]])

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_first_probes_that_miss_every_plan_still_give_the_optimum(self, mode):
        # No 5-probe plan of K(2,3,6) holds the probe (0, 1), so the root must
        # go on to its other children after it, not return greedy's 6 as exact.
        net = KPartiteShape((2, 3, 6)).network()
        result = solve_exact(net, mode=mode, first_probe_orbits=[Measurement(0, 1)])
        assert isinstance(result, ExactSolution)
        assert len(result.plan) == len(solve_exact(net, mode=mode).plan) == 5
        assert Measurement(0, 1) not in result.plan.measurements
        assert is_distinguishing(net, result.plan.measurements, mode)

    def test_restricted_pool_infeasible(self):
        net = complete_network(6)
        # probes confined to vertices 0..2 cannot separate far-apart faults
        pool = [Measurement(0, 1), Measurement(0, 2), Measurement(1, 2)]
        result = solve_exact(net, candidates=pool)
        assert isinstance(result, Infeasible)
        assert result.witness_pairs

    def test_single_edge_network_needs_no_probes(self):
        net = Network.from_edge_list(2, [(0, 1, 1)])
        result = solve_exact(net)
        assert isinstance(result, ExactSolution)
        assert len(result.plan) == 0

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_k2_needs_a_probe_only_for_the_healthy_column(self, mode):
        # One fault column leaves no pair to split; the healthy column adds
        # one, which only the probe across the edge splits.
        net = complete_network(2)
        for no_fault, probes in ((False, ()), (True, (Measurement(0, 1),))):
            exact = solve_exact(net, mode=mode, no_fault=no_fault)
            assert isinstance(exact, ExactSolution)
            assert exact.plan.measurements == probes
            assert solve_greedy(net, mode=mode, no_fault=no_fault).measurements == probes

    @pytest.mark.parametrize("no_fault", [False, True])
    def test_empty_pool_is_a_normal_input(self, no_fault):
        # On one vertex there is nothing to tell apart, even with the healthy
        # column; on K3 an empty pool merges every column pair.
        point = Network.from_edge_list(1, [])
        exact = solve_exact(point, candidates=[], no_fault=no_fault)
        assert isinstance(exact, ExactSolution) and len(exact.plan) == 0
        assert len(solve_greedy(point, candidates=[], no_fault=no_fault)) == 0
        net = complete_network(3)
        columns = net.edges + (None,) * no_fault
        expected = tuple(combinations(columns, 2))
        assert len(expected) == (6 if no_fault else 3)
        for result in (
            solve_exact(net, candidates=[], no_fault=no_fault),
            solve_greedy(net, candidates=[], no_fault=no_fault),
        ):
            assert isinstance(result, Infeasible)
            assert result.witness_pairs == expected

    def test_budget_exhaustion_reports_incumbent_and_bound(self):
        net = complete_network(8)
        result = solve_exact(net, budget_seconds=0.0)
        assert isinstance(result, TimedOut)
        assert result.incumbent is not None
        assert is_distinguishing(net, result.incumbent.measurements, FaultMode.REMOVED)
        assert 1 <= result.lower_bound <= len(result.incumbent)

    def test_solve_leaves_no_reference_cycles(self):
        import gc

        net = KPartiteShape((2, 3, 6)).network()
        gc.collect()
        gc.disable()
        try:
            result = solve_exact(net)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert isinstance(result, ExactSolution) and len(result.plan) == 5

    def test_shorted_mode_solves_independently(self):
        net = KPartiteShape((2, 2)).network()
        result = solve_exact(net, mode=FaultMode.SHORTED)
        assert isinstance(result, ExactSolution)
        assert len(result.plan) == enumeration_optimum(net, FaultMode.SHORTED)


    def test_spent_budget_skips_the_mask_build(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("cover masks built after the budget was spent")

        monkeypatch.setattr(resfault.solver, "_CoverInstance", unbuilt)
        net = complete_network(8)
        result = solve_exact(net, budget_seconds=0.0)
        assert isinstance(result, TimedOut)
        assert len(result.incumbent) == len(solve_greedy(net))
        # K8 is one twin class, so S = S_max = 7 and B = 0: the component seed
        # ceil((7 + 7) / 3) = 5 beats ceil(3 * 7 / 6) = 4 and the counting bound 2.
        assert result.lower_bound == 5

    def test_greedy_met_by_the_seed_needs_no_budget(self):
        # K(2,2,2): the component seed, ceil(3 * 3 / 6) = 2, is greedy's size,
        # so greedy is optimal before any search, even with no time at all.
        net = KPartiteShape((2, 2, 2)).network()
        result = solve_exact(net, budget_seconds=0.0)
        assert isinstance(result, ExactSolution)
        assert len(result.plan) == enumeration_optimum(net, FaultMode.REMOVED) == 2


def tree_plus_chords(seed):
    """Seeded unit-conductance network: a random tree on 4..7 vertices plus up to 4 chords."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    pairs.update(rng.sample(chords, min(len(chords), rng.randint(0, 4))))
    return Network.from_edge_list(n, [(u, v, 1) for u, v in sorted(pairs)])


class TestHealthyColumn:
    """`no_fault`: the healthy network is one more column to tell apart."""

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_exact_matches_enumeration_with_the_healthy_column(self, mode):
        grew = 0
        for seed in range(150):
            net = tree_plus_chords(seed)
            result = solve_exact(net, mode=mode, no_fault=True)
            assert isinstance(result, ExactSolution)
            optimum = enumeration_optimum(net, mode, no_fault=True)
            assert len(result.plan) == optimum, (seed, net.edges)
            without = enumeration_optimum(net, mode)
            assert without <= optimum <= without + 1
            grew += optimum > without
        assert grew  # some networks need the extra probe, so the column matters

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_greedy_separates_every_column(self, mode):
        for seed in range(150):
            net = tree_plus_chords(seed)
            plan = solve_greedy(net, mode=mode, no_fault=True)
            probes = plan.measurements
            columns = build_signature(net, probes, mode).columns()
            columns.append(tuple(effective_resistance(net, m) for m in probes))
            assert len(set(columns)) == len(columns), (seed, net.edges)

    def test_one_probe_fewer_than_extending_the_optimum(self):
        # The faults-only optimum found first, (0, 1) and (0, 2), leaves fault
        # (1, 3) reading like the healthy network, so extending it takes 3
        # probes; another pair of probes separates all five columns.
        net = Network.from_edge_list(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1)])
        faults_only = solve_exact(net)
        assert isinstance(faults_only, ExactSolution)
        assert faults_only.plan.measurements == (Measurement(0, 1), Measurement(0, 2))
        merged = reading_classes(net, faults_only.plan.measurements, FaultMode.REMOVED, True)
        assert merged_pairs(net.edges + (None,), merged) == [(net.edge_between(1, 3), None)]
        result = solve_exact(net, no_fault=True)
        assert isinstance(result, ExactSolution)
        assert len(result.plan) == enumeration_optimum(net, FaultMode.REMOVED, True) == 2

    def test_witness_names_the_healthy_network_last(self):
        # Two edges and the healthy network share one group: (2, 7), (3, 7)
        # and None.  Pairs come in column order, so None never gets compared.
        net = KPartiteShape((4, 4)).network()
        pool = [Measurement(a, b) for a, b in [(0, 1), (4, 5), (4, 6), (5, 6)]]
        columns = build_signature(net, pool, FaultMode.REMOVED).columns()
        columns.append(tuple(effective_resistance(net, m) for m in pool))
        names = list(net.edges) + [None]
        expected = tuple(
            (names[i], names[j])
            for i, j in combinations(range(len(columns)), 2)
            if columns[i] == columns[j]
        )
        assert (net.edge_between(2, 7), None) in expected
        assert (net.edge_between(3, 7), None) in expected
        for result in (
            solve_exact(net, candidates=pool, no_fault=True),
            solve_greedy(net, candidates=pool, no_fault=True),
        ):
            assert isinstance(result, Infeasible)
            assert result.witness_pairs == expected

    def test_without_the_flag_no_healthy_column(self):
        net = KPartiteShape((4, 4)).network()
        pool = [Measurement(a, b) for a, b in [(0, 1), (4, 5), (4, 6), (5, 6)]]
        result = solve_exact(net, candidates=pool)
        assert isinstance(result, Infeasible)
        assert all(None not in pair for pair in result.witness_pairs)


class TestMaskBuildDeadline:
    def test_deadline_checked_once_per_row(self, monkeypatch):
        # Fake clock: the deadline is set at 0, the check after greedy and
        # the first row of the mask build still read 0, the second reads 10.
        readings = iter([0.0, 0.0, 0.0])
        calls = []

        def clock():
            calls.append(None)
            return next(readings, 10.0)

        def unreachable(*args):
            raise AssertionError("search ran after the budget was spent")

        net = complete_network(8)
        greedy = solve_greedy(net)
        monkeypatch.setattr(resfault.solver, "time", SimpleNamespace(monotonic=clock))
        monkeypatch.setattr(resfault.solver._CoverInstance, "search", unreachable)
        result = solve_exact(net, budget_seconds=1.0)
        assert isinstance(result, TimedOut)
        assert result.incumbent == greedy
        assert result.lower_bound == 5  # the component seed ceil((7 + 7) / 3)
        assert len(calls) == 4  # set the deadline, after greedy, rows 0 and 1 of 28


def handshake_seed(net):
    return ceil((net.n - len(_twin_classes(net))) / 2)


def small_symmetric_networks():
    from test_cover_search import twin_network

    shapes = [(2, 2), (2, 3), (3, 3), (1, 1, 3), (2, 2, 2)]
    nets = [complete_network(n) for n in (4, 5, 6)]
    nets += [KPartiteShape(shape).network() for shape in shapes]
    nets += [twin_network(seed, base=5, planted=2) for seed in range(6)]
    return nets


class TestHandshakeSeed:
    """Every distinguishing set touches all but one vertex of each twin class.

    For twins u, v and a neighbour w of both, the swap (u v) maps fault
    (u, w) to (v, w) and fixes every probe that touches neither, so such
    probes read the two faults the same.  Hence ceil((n - c) / 2) probes
    for c twin classes.
    """

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_probes_away_from_twins_read_their_faults_the_same(self, mode):
        for net in small_symmetric_networks():
            for cls in _twin_classes(net):
                for u, v in combinations(cls, 2):
                    for w in range(net.n):
                        if w in (u, v) or not any(w in e.pair and u in e.pair for e in net.edges):
                            continue
                        faults = (net.edge_between(u, w), net.edge_between(v, w))
                        for m in net.measurements():
                            if u in m.pair or v in m.pair:
                                continue
                            first, second = (
                                perturbed_effective_resistance(net, m, e, mode) for e in faults
                            )
                            assert first == second, (net.edges, u, v, w, m)

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_seed_never_exceeds_the_enumeration_optimum(self, mode):
        tight = 0
        for net in small_symmetric_networks():
            optimum = enumeration_optimum(net, mode)
            assert handshake_seed(net) <= optimum, net.edges
            tight += handshake_seed(net) == optimum
            result = solve_exact(net, mode=mode)
            assert isinstance(result, ExactSolution) and len(result.plan) == optimum
        assert tight >= 1


class TestSizeTwoPartitionCertificate:
    """K(2,g) needs exactly max(g, 3) probes, shown without the solver.

    With partition {0, 1}, faults (0, x) and (1, x) read the same under
    every probe other than (0, x) and (1, x).  Each vertex x of the larger
    partition therefore needs one of its own two probes, and these pairs
    are disjoint, so g probes are necessary; K(2,2) needs 3 by
    enumeration.  The star plan shows the count suffices.
    """

    @pytest.mark.parametrize("g", range(2, 11))
    def test_twin_faults_read_the_same_off_their_own_probes(self, g):
        net = KPartiteShape((2, g)).network()
        for x in range(2, g + 2):
            twins = (net.edge_between(0, x), net.edge_between(1, x))
            own = (Measurement(0, x), Measurement(1, x))
            for mode in FaultMode:
                for m in net.measurements():
                    if m in own:
                        continue
                    first, second = (
                        perturbed_effective_resistance(net, m, e, mode) for e in twins
                    )
                    assert first == second, (x, m, mode)
                    if g <= 5:
                        first, second = (
                            direct_effective_resistance_oracle(net, m, e, mode) for e in twins
                        )
                        assert first == second, (x, m, mode, "oracle")

    @pytest.mark.parametrize("g", range(2, 5))
    def test_enumeration_optimum(self, g):
        net = KPartiteShape((2, g)).network()
        for mode in FaultMode:
            assert enumeration_optimum(net, mode) == max(g, 3), mode

    @pytest.mark.parametrize("g", range(2, 11))
    def test_star_plan_attains_the_count(self, g):
        from resfault.strategies import bipartite_strategy

        net = KPartiteShape((2, g)).network()
        plan = bipartite_strategy(2, g)
        assert len(plan) == max(g, 3)
        for mode in FaultMode:
            assert is_distinguishing(net, plan.measurements, mode), mode


def oracle_rows(net, probes, mode):
    """Per probe, each fault's class id, numbered from 0 in edge order, from oracle readings."""
    rows = []
    for m in probes:
        ids = {}
        rows.append([ids.setdefault(direct_effective_resistance_oracle(net, m, e, mode), len(ids))
                     for e in net.edges])
    return rows


def refine(codes, row):
    """Column codes split by one more row, renumbered from 0 in column order."""
    ids = {}
    return [ids.setdefault(pair, len(ids)) for pair in zip(codes, row)]


class TestDominatedTripartiteCertificate:
    """K(2,3,6) needs exactly 5 probes, shown by the oracle rather than the solver.

    The class-id rows come from `direct_effective_resistance_oracle`, which
    shares no update formula with the reading kernel.  All 341,055 sets of
    four of its 55 probes are enumerated, the 36 fault columns refined one
    probe at a time: each set leaves two faults reading alike.  The exact
    solver's 5-probe plan separates every column under the same readings.
    """

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_no_four_probes_distinguish(self, mode):
        net = KPartiteShape((2, 3, 6)).network()
        rows = oracle_rows(net, net.measurements(), mode)
        cols = len(net.edges)
        assert (len(rows), cols) == (55, 36)
        for i, first in enumerate(rows):
            for j in range(i + 1, len(rows)):
                two = refine(first, rows[j])
                for k in range(j + 1, len(rows)):
                    # Codes and ids are below cols, so code * cols + id keys each column.
                    three = [cols * code for code in refine(two, rows[k])]
                    assert all(len(set(map(add, three, row))) < cols for row in rows[k + 1:]), \
                        (i, j, k)

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_the_solver_plan_distinguishes_under_the_oracle(self, mode):
        net = KPartiteShape((2, 3, 6)).network()
        result = solve_exact(net, mode=mode)
        assert isinstance(result, ExactSolution) and len(result.plan) == 5
        rows = oracle_rows(net, result.plan.measurements, mode)
        assert len(set(zip(*rows))) == len(net.edges)


class TestGreedy:
    def test_result_is_distinguishing(self):
        for net in [complete_network(7), KPartiteShape((3, 4)).network()]:
            plan = solve_greedy(net)
            assert is_distinguishing(net, plan.measurements, FaultMode.REMOVED)

    def test_never_beats_the_exact_optimum(self):
        net = complete_network(6)
        greedy = solve_greedy(net)
        assert len(greedy) >= 4

    def test_infeasible_pool_detected(self):
        net = complete_network(6)
        pool = [Measurement(0, 1), Measurement(0, 2)]
        assert isinstance(solve_greedy(net, candidates=pool), Infeasible)

    def test_deterministic(self):
        net = KPartiteShape((2, 2, 3)).network()
        assert solve_greedy(net).measurements == solve_greedy(net).measurements


class TestMeasurementGraph:
    def test_empty_plan_is_all_isolated(self):
        report = analyze_measurement_graph(complete_network(5), [])
        assert len(report.isolated) == 5
        assert len(report.components) == 5

    def test_complete_strategy_structure(self):
        from resfault.strategies import complete_strategy

        plan = complete_strategy(6)
        report = analyze_measurement_graph(complete_network(6), plan.measurements)
        assert report.violations == ()
        assert report.isolated == ()
        assert all(len(c) == 3 for c in report.components)

    def test_double_isolated_in_one_partition_flagged(self):
        net = KPartiteShape((4, 4)).network()
        probes = [Measurement(0, 4), Measurement(1, 5)]
        report = analyze_measurement_graph(net, probes)
        assert report.violations == (
            "twin class (0, 1, 2, 3) has 2 isolated vertices (at most one is allowed)",
            "twin class (4, 5, 6, 7) has 2 isolated vertices (at most one is allowed)",
        )

    def test_intra_partition_pair_flagged(self):
        net = KPartiteShape((3, 3)).network()
        probes = [Measurement(0, 1), Measurement(3, 4), Measurement(2, 5)]
        report = analyze_measurement_graph(net, probes)
        assert any("inside twin class" in v for v in report.violations)

    def test_size_two_component_flagged_for_complete(self):
        probes = [Measurement(0, 1), Measurement(2, 3), Measurement(3, 4)]
        report = analyze_measurement_graph(complete_network(6), probes)
        assert any("size two" in v for v in report.violations)
        assert report.size_two_components == ((0, 1),)

    @pytest.mark.parametrize("n,probe", [(5, Measurement(0, 7)), (2, Measurement(-1, 0))])
    def test_probes_out_of_range_are_refused(self, n, probe):
        with pytest.raises(ValueError, match="out of range"):
            analyze_measurement_graph(complete_network(n), [Measurement(0, 1), probe])

    def test_two_vertices_need_no_probe(self):
        # K2 has one fault, so the empty plan distinguishes and nothing is flagged.
        report = analyze_measurement_graph(complete_network(2), [])
        assert report.isolated == (0, 1)
        assert report.violations == ()


def two_weight_network(seed):
    """Seeded network on 3..7 vertices: a random tree plus random chords, conductances 1 or 2."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    pairs.update(rng.sample(chords, rng.randint(0, len(chords))))
    return Network.from_edge_list(n, [(u, v, rng.choice((1, 2))) for u, v in sorted(pairs)])


class TestTwinClassRules:
    """The violations are necessary conditions: a flagged probe set never distinguishes."""

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_flagged_sets_never_distinguish(self, mode):
        rng = random.Random(5)
        flagged = Counter()
        with_twins = 0
        for seed in range(400):
            net = two_weight_network(seed)
            with_twins += len(_twin_classes(net)) < net.n
            pool = net.measurements()
            for _ in range(20):
                probes = rng.sample(pool, rng.randint(1, min(len(pool), net.n)))
                violations = analyze_measurement_graph(net, probes).violations
                for rule in ("isolated", "size two"):
                    flagged[rule] += any(rule in v for v in violations)
                if violations:
                    assert not is_distinguishing(net, probes, mode), (seed, net.edges, probes)
            result = solve_exact(net, mode=mode)
            assert isinstance(result, ExactSolution)
            report = analyze_measurement_graph(net, result.plan.measurements)
            assert report.violations == (), (seed, net.edges)
        assert with_twins >= 100  # 166 of the 400 networks have twins
        assert flagged["isolated"] >= 100 and flagged["size two"] >= 100

    @pytest.mark.parametrize(
        "parts", [(6,), (7,), (2, 2), (2, 4), (3, 3), (2, 2, 3), (2, 3, 4), (3, 3, 3)]
    )
    def test_families_are_judged_by_their_partitions(self, parts):
        # Twin classes of K_n and of a k-partite graph with parts >= 2 are its
        # partitions, so the rules are the paper's: at most one isolated vertex
        # per partition, and no two-vertex component inside one.
        if len(parts) == 1:
            net, part_of = complete_network(parts[0]), [0] * parts[0]
        else:
            net = KPartiteShape(parts).network()
            part_of = [i for i, size in enumerate(parts) for _ in range(size)]
        rng = random.Random(len(part_of))
        pool = net.measurements()
        for _ in range(200):
            probes = rng.sample(pool, rng.randint(0, net.n))
            report = analyze_measurement_graph(net, probes)
            isolated = Counter(part_of[v] for v in report.isolated)
            expected = any(k > 1 for k in isolated.values()) or any(
                part_of[u] == part_of[v] for u, v in report.size_two_components
            )
            assert bool(report.violations) == expected, probes
