"""Measurement-count bounds for the supported graph families.

Each function evaluates the published bound formulas for one family and
returns a BoundReport carrying the numbers plus the formula each one came
from.  `best_bound` merges every applicable formula into the tightest
pair for a complete graph's n or a k-partite shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil

from .families import KPartiteShape


@dataclass(frozen=True)
class BoundReport:
    family: str
    lower: int
    upper: int
    lower_formula: str
    upper_formula: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    @property
    def exact(self) -> int | None:
        return self.lower if self.lower == self.upper else None


def val(sizes) -> int:
    """Sum of (2*size - 2) over every third entry of a nondecreasing list.

    With the list grouped into consecutive sorted triples this totals the
    per-triple worst-case cost 2*max - 2.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("sizes must be nondecreasing")
    return sum(2 * p - 2 for i, p in enumerate(sizes, start=1) if i % 3 == 0)


def _leftover_count(sizes, aside: tuple[int, ...]) -> int:
    """Vertices the leftover step covers: a whole partition, or a pair less one designated node."""
    return sum(sizes[i] for i in aside) - len(aside) + 1


def _aside_costs(sizes, aside: tuple[int, ...]) -> tuple[int, int]:
    """What setting `aside` apart costs, with the other partitions grouped into triples.

    With m the leftover count, returns ceil(2(m-1)/3) + val(rest), which
    chooses the plan's set-aside partitions (`strategies._composition`),
    and ceil(2m/3) + val(rest), the stated upper bound (`kpartite_bound`).
    """
    m = _leftover_count(sizes, aside)
    rest = val(sizes[x] for x in range(len(sizes)) if x not in aside)
    return ceil(2 * (m - 1) / 3) + rest, ceil(2 * m / 3) + rest


def complete_bound(n: int) -> BoundReport:
    """Exact count for complete graphs: ceil(2n/3), stated for n >= 6."""
    if n < 6:
        raise ValueError(f"complete-graph bound is stated for n >= 6, got {n}")
    value = ceil(2 * n / 3)
    return BoundReport(f"complete({n})", value, value, "ceil(2n/3)", "ceil(2n/3)")


def bipartite_bound(b: int, g: int) -> BoundReport:
    """Exact count for complete bipartite graphs, sizes 2 <= b <= g.

    For b >= 3 the published formulas.  For b = 2 the count is max(g, 3):
    with partition {0, 1}, faults (0, x) and (1, x) read the same under
    every probe other than (0, x) and (1, x), so each vertex x of the
    larger partition needs a probe of its own, and K(2,2) needs 3 by
    enumeration.  The star from vertex 0 attains it.
    """
    if not (2 <= b <= g):
        raise ValueError("need 2 <= b <= g")
    n = b + g
    if b == 2:
        value, formula = max(g, 3), "max(g, 3)  [b = 2]"
    elif b < g:
        base = (2 * g + b) // 3
        if (g - b) % 3 == 0:
            value, formula = base - 1, "floor(2g/3 + b/3) - 1  [g-b = 0 mod 3]"
        else:
            value, formula = base, "floor(2g/3 + b/3)  [g-b = 1,2 mod 3]"
    else:
        if b % 3 == 2:
            value, formula = (2 * n) // 3, "floor(2n/3)  [b = g = 2 mod 3]"
        else:
            value, formula = (2 * n) // 3 - 1, "floor(2n/3) - 1  [b = g = 0,1 mod 3]"
    return BoundReport(f"k_partite({b}, {g})", value, value, formula, formula)


def tripartite_bound(a: int, b: int, c: int) -> BoundReport:
    """Tripartite table bounds, sizes 2 <= a <= b <= c.

    Three of the four size-coincidence rows give matching lower and upper
    values; the a = b < c row gives the min and max of two expressions.
    In the a < b < c row, once the largest partition outweighs the other
    two (surplus s = c - a - b + 1 >= 1) the upper bound is the
    a + b - 2 + ceil(2s/3) probes of the matching-plus-butterfly plan.
    It meets the table value ceil((n-3)/2) only for s = 1 and s = 3;
    elsewhere the table value is kept as the lower bound alone.  The gap
    is real: the exact solver proves K(2,3,6) needs 5 probes and K(2,4,7)
    needs 6.
    """
    if not (2 <= a <= b <= c):
        raise ValueError("need 2 <= a <= b <= c")
    n = a + b + c
    fam = f"k_partite({a}, {b}, {c})"
    if a < b < c:
        value = ceil((n - 3) / 2)
        f = "ceil((n-3)/2)"
        surplus = c - a - b + 1
        upper = a + b - 2 + ceil(2 * surplus / 3)
        if surplus >= 1 and upper > value:
            uf = "a+b-2 + ceil(2s/3)  [s = c-a-b+1 = 2 or >= 4]"
            return BoundReport(fam, value, upper, f, uf)
        return BoundReport(fam, value, value, f, f)
    if a == b < c:
        e1 = ceil((2 * n - 2 * a - 4) / 3)
        e2 = ceil((2 * n - c - 5) / 3)
        return BoundReport(
            fam,
            min(e1, e2),
            max(e1, e2),
            "min{ceil(2n/3 - 2a/3 - 4/3), ceil(2n/3 - c/3 - 5/3)}",
            "max{ceil(2n/3 - 2a/3 - 4/3), ceil(2n/3 - c/3 - 5/3)}",
        )
    if a < b == c:
        value = ceil((2 * n - a - 5) / 3)
        f = "ceil(2n/3 - a/3 - 5/3)"
        return BoundReport(fam, value, value, f, f)
    value = ceil((2 * n - 6) / 3)
    f = "ceil(2n/3 - 2)"
    return BoundReport(fam, value, value, f, f)


def kpartite_bound(shape: KPartiteShape) -> BoundReport:
    """General k-partite bounds: handshake lower, composed-triple upper.

    Upper bound by k mod 3: val(L) for 0; min over one set-aside
    partition of ceil(2p/3) + val(rest) for 1; min over set-aside pairs
    of ceil(2(p_i + p_j - 1)/3) + val(rest) for 2.  A bipartite shape
    with a size-2 partition takes the proven count max(g, 3) instead,
    since the pair term falls below it at K(2,2) and from K(2,5) on.
    """
    if any(p < 2 for p in shape.parts):
        raise ValueError("k-partite bound is stated for partition sizes >= 2")
    sizes = list(shape.parts)
    k, n = shape.k, shape.n
    lower = ceil((n - k) / 2)
    if k == 2 and sizes[0] == 2:
        upper = bipartite_bound(*sizes).upper
        uf = "max(g, 3)  [k = 2, b = 2]"
    elif k % 3 == 0:
        upper = val(sizes)
        uf = "val(L)  [k = 0 mod 3]"
    else:
        upper = min(_aside_costs(sizes, aside)[1] for aside in combinations(range(k), k % 3))
        if k % 3 == 1:
            uf = "min_i ceil(2|p_i|/3) + val(L \\ {i})  [k = 1 mod 3]"
        else:
            uf = "min_{i<j} ceil(2(|p_i|+|p_j|-1)/3) + val(L \\ {i,j})  [k = 2 mod 3]"
    return BoundReport(f"k_partite{shape.parts}", lower, upper, "ceil((n-k)/2)", uf)


def best_bound(family: int | KPartiteShape) -> BoundReport:
    """Tightest applicable bounds for a complete graph (its n) or a k-partite shape.

    Complete graphs and bipartite/tripartite shapes get their exact
    family formulas; every k-partite shape also gets the general bound,
    and the report keeps the tighter number on each side.
    """
    if isinstance(family, int):
        return complete_bound(family)
    reports = [kpartite_bound(family)]
    if family.k == 2:
        reports.append(bipartite_bound(*family.parts))
    elif family.k == 3:
        reports.append(tripartite_bound(*family.parts))
    lower = max(reports, key=lambda r: r.lower)
    upper = min(reports, key=lambda r: r.upper)
    return BoundReport(
        reports[0].family, lower.lower, upper.upper, lower.lower_formula, upper.upper_formula
    )
