from itertools import combinations_with_replacement

import pytest

from resfault.bounds import (
    BoundReport,
    best_bound,
    bipartite_bound,
    complete_bound,
    kpartite_bound,
    tripartite_bound,
    val,
)
from resfault.families import KPartiteShape

from reference import kpartite_upper_by_formula, table4_triple_count


class TestVal:
    def test_every_third_entry_counts(self):
        assert val([2, 3, 4]) == 6
        assert val([2, 3, 4, 5, 6, 7]) == 6 + 12
        assert val([]) == 0
        assert val([2, 3]) == 0

    def test_requires_sorted_input(self):
        with pytest.raises(ValueError):
            val([3, 2, 4])


class TestCompleteBound:
    @pytest.mark.parametrize("n,want", [(6, 4), (9, 6), (10, 7), (30, 20)])
    def test_values(self, n, want):
        report = complete_bound(n)
        assert report.exact == want

    def test_scope(self):
        with pytest.raises(ValueError):
            complete_bound(5)


class TestBipartiteBound:
    @pytest.mark.parametrize(
        "b,g,want",
        [(5, 5, 6), (3, 3, 3), (2, 3, 3), (2, 4, 4), (3, 4, 3), (4, 4, 4), (3, 6, 4), (4, 10, 7)],
    )
    def test_values(self, b, g, want):
        assert bipartite_bound(b, g).exact == want

    @pytest.mark.parametrize("b", range(2, 12))
    def test_adjacent_sizes_reduce_to_half_n(self, b):
        # K(2,3) is the exception: a size-2 partition needs max(g, 3) = 3.
        n = 2 * b + 1
        assert bipartite_bound(b, b + 1).exact == (3 if b == 2 else n // 2)

    def test_scope(self):
        with pytest.raises(ValueError):
            bipartite_bound(1, 5)


class TestTripartiteBound:
    def test_all_equal(self):
        report = tripartite_bound(4, 4, 4)
        assert report.exact == 6

    def test_all_distinct(self):
        report = tripartite_bound(2, 3, 4)
        assert report.exact == 3

    def test_two_small_equal_gives_min_max_pair(self):
        report = tripartite_bound(3, 3, 5)
        e1 = -(-(2 * 11 - 2 * 3 - 4) // 3)  # ceil((2n - 2a - 4)/3)
        e2 = -(-(2 * 11 - 5 - 5) // 3)  # ceil((2n - c - 5)/3)
        assert report.lower == min(e1, e2)
        assert report.upper == max(e1, e2)

    def test_dominated_largest_partition(self):
        # Surplus s = c - a - b + 1: the table value stays exact for s = 1
        # and s = 3 and becomes the lower bound alone for s = 2 and s >= 4.
        assert tripartite_bound(2, 3, 5).exact == 4
        assert tripartite_bound(2, 3, 7).exact == 5
        for sizes, pair in [((2, 3, 6), (4, 5)), ((2, 4, 7), (5, 6)), ((2, 3, 8), (5, 6))]:
            report = tripartite_bound(*sizes)
            assert (report.lower, report.upper) == pair
            assert report.lower_formula != report.upper_formula

    def test_two_large_equal(self):
        assert tripartite_bound(2, 4, 4).exact == 5

    def test_scope(self):
        with pytest.raises(ValueError):
            tripartite_bound(1, 2, 3)


class TestKPartiteBound:
    def test_lower_is_handshake(self):
        assert kpartite_bound(KPartiteShape((2, 2, 2, 2))).lower == 2
        assert kpartite_bound(KPartiteShape((2, 2, 2, 3))).lower == 3

    def test_upper_k0(self):
        report = kpartite_bound(KPartiteShape((2, 3, 4)))
        assert report.upper == 6  # val: 2*4 - 2

    def test_upper_k1(self):
        assert kpartite_bound(KPartiteShape((2, 2, 2, 3))).upper == 4

    def test_upper_k2(self):
        # k = 2: single pair term ceil(2(b + g - 1)/3)
        assert kpartite_bound(KPartiteShape((3, 3))).upper == 4

    def test_upper_k2_size_two_partition(self):
        # The pair term ceil(2(g + 1)/3) is below the proven max(g, 3) at
        # K(2,2) and from K(2,5) on; the proven count replaces it.
        for g in range(2, 11):
            shape = KPartiteShape((2, g))
            assert kpartite_bound(shape).upper == max(g, 3)
            assert best_bound(shape).exact == max(g, 3)

    def test_upper_matches_the_written_out_formulas(self):
        # Every shape with k = 2..7: parts 2..8 for k <= 5, 2..5 beyond.
        shapes = [
            parts
            for k in range(2, 8)
            for parts in combinations_with_replacement(range(2, 9 if k <= 5 else 6), k)
        ]
        assert len(shapes) == 988
        for parts in shapes:
            assert kpartite_bound(KPartiteShape(parts)).upper == kpartite_upper_by_formula(parts)

    def test_lower_never_beats_the_tripartite_lower(self):
        for parts in [(2, 3, 4), (2, 2, 2), (3, 4, 4), (2, 5, 5)]:
            assert (
                kpartite_bound(KPartiteShape(parts)).lower
                <= tripartite_bound(*parts).lower
            )

    def test_scope(self):
        with pytest.raises(ValueError):
            kpartite_bound(KPartiteShape((1, 3)))


class TestTable4TripleCount:
    @pytest.mark.parametrize(
        "sizes,want",
        [
            ((2, 2, 2), 2),
            ((2, 3, 4), 4),
            ((2, 2, 3), 3),
            ((2, 2, 4), 4),
            ((2, 3, 3), 4),
            ((2, 5, 5), 6),
            ((3, 4, 6), 7),
            ((2, 4, 4), 5),
        ],
    )
    def test_values(self, sizes, want):
        assert table4_triple_count(*sizes) == want

    def test_never_exceeds_twice_largest_minus_two(self):
        for sizes in combinations_with_replacement(range(2, 8), 3):
            assert table4_triple_count(*sizes) <= 2 * sizes[2] - 2


class TestBestBound:
    def test_merges_family_and_general_formulas(self):
        report = best_bound(KPartiteShape((5, 5)))
        assert report.exact == 6  # the bipartite formula beats the general one
        report = best_bound(KPartiteShape((2, 3, 4)))
        assert report.exact == 3  # tripartite table beats val = 6

    def test_k4_reports_sandwich(self):
        report = best_bound(KPartiteShape((2, 2, 2, 3)))
        assert (report.lower, report.upper) == (3, 4)
        assert report.exact is None

    def test_complete_passthrough(self):
        assert best_bound(6).exact == 4

    def test_report_validates_ordering(self):
        with pytest.raises(ValueError):
            BoundReport("x", 5, 4, "a", "b")
