"""Resistive network model and exact effective-resistance computation.

A network is a connected weighted simple graph; weights are conductances
(reciprocal resistances) kept as exact rationals throughout.  Each network
is grounded once, at vertex 0: one fraction-free inversion of the reduced
Laplacian, its rows scaled to integers, by symmetric bordering (see
`linalg`) gives integers P and D with P / D the inverse, from which
every base resistance and every single-fault reading follows by the
rank-one (Sherman-Morrison) update in integer arithmetic.  Within one
probe, the readings differ only by the update's correction term, so the
kernel keys each fault's reading (one row of cell keys per probe, see
`signatures.reading_classes`) without forming a Fraction: each
correction keys as one exact integer, from a per-edge table that groups
the ratios whose quotients are rational squares.  A direct oracle that
grounds and inverts each altered graph's own Laplacian is kept alongside
as an independent cross-check.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, isqrt, lcm
from operator import attrgetter, ge, gt, le, lt
from typing import Iterable, Sequence, Union

from .linalg import fraction_free_invert

# The 24 odd primes below 100: quadratic characters modulo them bucket the ratios.
# Any odd prime keys a square class (see `_square_classes`), and a small one makes
# Euler's criterion a few small multiplications, where a 30-bit one takes ~30 squarings.
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
           89, 97)


class InfiniteResistance:
    """Open-circuit reading: the fault separated the probed pair.

    All instances compare equal to each other and unequal to every finite
    value, so signature entries containing them group correctly.
    """

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, InfiniteResistance)

    def __hash__(self):
        return hash("InfiniteResistance")

    def __repr__(self):
        return "INFINITE"


INFINITE = InfiniteResistance()

Resistance = Union[Fraction, InfiniteResistance]


class FaultMode(enum.Enum):
    """How the adversary alters the chosen edge.

    REMOVED: conductance drops to 0 (the resistor is gone, resistance -> inf).
    SHORTED: conductance grows without bound (resistance -> 0, the edge is
    effectively contracted).
    """

    REMOVED = "removed"
    SHORTED = "shorted"


def _ordered(compare):
    """A rich comparison of two records of one class, as `compare` orders their keys."""

    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(self._key(self), other._key(other))
        return NotImplemented

    return method


class _Record:
    """Base of the package's immutable value types.

    A subclass names its fields in `_fields`, and its `__init__` stores
    each once with `object.__setattr__`; assignment and deletion then
    raise AttributeError.  Equality and hash compare the fields through
    one `attrgetter` key, so records of different classes are never
    equal, and `order=True` in the class statement adds <, <=, > and >=
    as tuples of the fields compare.  The repr names each field, and a
    record pickles and copies by calling its class on its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = map(_ordered, (lt, le, gt, ge))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: records are frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: records are frozen")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Edge(_Record, order=True):
    """Undirected resistor; normalized so u < v, its conductance a positive Fraction."""

    __slots__ = _fields = ("u", "v", "conductance")

    def __init__(self, u: int, v: int, conductance):
        if u == v:
            raise ValueError(f"self loop at vertex {u}")
        if u > v:
            u, v = v, u
        if conductance.__class__ is not Fraction:
            conductance = Fraction(conductance)
        if conductance <= 0:
            raise ValueError(f"conductance must be positive, got {conductance}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "conductance", conductance)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


class Measurement(_Record, order=True):
    """Unordered probe pair; normalized so r < s."""

    __slots__ = _fields = ("r", "s")

    def __init__(self, r: int, s: int):
        if r == s:
            raise ValueError(f"measurement endpoints must differ, got {r}")
        if r > s:
            r, s = s, r
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.r, self.s)


class MeasurementPlan(_Record):
    """Ordered probe list with per-probe provenance tags."""

    __slots__ = _fields = ("measurements", "provenance", "mode")

    def __init__(self, measurements: tuple[Measurement, ...], provenance: tuple[str, ...],
                 mode: FaultMode = FaultMode.REMOVED):
        if len(measurements) != len(provenance):
            raise ValueError("provenance must tag every measurement")
        if len(set(measurements)) != len(measurements):
            raise ValueError("duplicate measurement in plan")
        object.__setattr__(self, "measurements", measurements)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "mode", mode)

    def __len__(self) -> int:
        return len(self.measurements)


class Network(_Record):
    """Connected simple graph with positive rational conductances.

    Vertices are 0..n-1.  Construction validates simplicity, ranges and
    connectivity; use `from_edge_list` to merge parallel edges first.  The
    reading kernel, the edge index and the oracle's groundings of altered
    graphs are built on first use and kept on the instance (in its
    `__dict__`: a network, unlike the other records, has no `__slots__`).
    """

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: tuple[Edge, ...]):
        if n < 1:
            raise ValueError("network needs at least one vertex")
        seen = set()
        for e in edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"edge {e.pair} out of range for n={n}")
            if e.pair in seen:
                raise ValueError(f"duplicate edge {e.pair}; merge parallel edges first")
            seen.add(e.pair)
        edges = tuple(sorted(edges, key=attrgetter("u", "v")))  # pairs are distinct
        if len(_components(n, [e.pair for e in edges])) > 1:
            raise ValueError("network must be connected")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int, object]]) -> "Network":
        """Build a network, merging parallel edges by summing conductances."""
        merged: dict[tuple[int, int], Fraction] = {}
        for u, v, w in edges:
            key = (u, v) if u < v else (v, u)
            w = Fraction(w)
            old = merged.get(key)
            merged[key] = w if old is None else old + w
        return cls(n, tuple(Edge(u, v, w) for (u, v), w in merged.items()))

    @cached_property
    def _reading_kernel(self) -> "_ReadingKernel":
        """One grounding of the network (one inversion); see `_ReadingKernel`."""
        return _ReadingKernel(self)

    @cached_property
    def _edge_positions(self) -> dict[tuple[int, int], int]:
        """Edge pair -> position in `edges`."""
        return {e.pair: j for j, e in enumerate(self.edges)}

    @cached_property
    def _oracle_views(self) -> dict:
        """(fault mode, fault pair) -> the altered graph's `_ground` result."""
        return {}

    def edge_between(self, u: int, v: int) -> Edge:
        j = self._edge_positions.get((min(u, v), max(u, v)))
        if j is None:
            raise KeyError(f"no edge between {u} and {v}")
        return self.edges[j]

    def measurements(self) -> list[Measurement]:
        """All unordered vertex pairs: the default probe universe."""
        return [Measurement(r, s) for r in range(self.n) for s in range(r + 1, self.n)]


def _components(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 with these edges.

    Each component is ascending, and they come in order of lowest vertex.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [start]
        while stack:
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        components.append(sorted(comp))
    return components


def _ground(n: int, edges: list[tuple[int, int, Fraction]]) -> tuple[list, int, list[int]]:
    """Ground the graph on 0..n-1 with these (u, v, conductance) edges.

    The lowest vertex of each connected part is a ground; parallel edges
    add up.  With L the Laplacian less the grounds' rows and columns and R
    the diagonal of r_v, the lcm of the conductance denominators at v,
    M = R L is an integer matrix whose leading minors are L's (positive)
    times row scales, so the fraction-free bordering of M, which keeps
    L's symmetry by carrying R along, meets no zero pivot.  It returns
    adj(M) R and det M, and L^-1 = adj(M) R / det M = P / D, both then
    divided by the gcd of D and every entry of P.  P is symmetric and
    entrywise nonnegative (L is an M-matrix).
    Returns (P, D, part of each vertex), P padded with zero rows and
    columns at the grounds so it indexes vertices.
    """
    parts = _components(n, [(u, v) for u, v, _ in edges])
    grounds = [comp[0] for comp in parts]  # ascending: parts come by lowest vertex
    part = [0] * n
    for i, comp in enumerate(parts):
        for v in comp:
            part[v] = i
    kept = [v for v in range(n) if v not in grounds]
    index = [-1] * n  # reduced index per vertex; -1 at a ground
    for i, v in enumerate(kept):
        index[v] = i
    scales = [1] * n  # r_v per vertex
    for u, v, w in edges:
        scales[u], scales[v] = lcm(scales[u], w.denominator), lcm(scales[v], w.denominator)
    lap = [[0] * len(kept) for _ in kept]
    for u, v, w in edges:
        i, j = index[u], index[v]
        for x, y, end in ((i, j, u), (j, i, v)):  # row x is end's, scaled by its r
            if x >= 0:
                scaled = w.numerator * (scales[end] // w.denominator)
                lap[x][x] += scaled
                if y >= 0:
                    lap[x][y] -= scaled
    adj, det = fraction_free_invert(lap, [scales[v] for v in kept])
    common = gcd(det, *chain.from_iterable(adj))
    if common > 1:
        det //= common
        adj = [[x // common for x in row] for row in adj]
    for row in adj:
        for g in grounds:
            row.insert(g, 0)
    for g in grounds:
        adj.insert(g, [0] * n)
    return adj, det, part


def _square_classes(pairs: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Per pair of nonzero integers (alpha, beta), (k, u, v): alpha / beta = rho_k (u / v)^2.

    Two ratios fall in one class exactly when their quotient is the square
    of a rational.  rho_k is class k's first ratio, alpha_0 / beta_0, and u
    and v are the square roots of the reduced quotient (alpha beta_0) /
    (beta alpha_0).  Each pair is bucketed by a key that every ratio of its
    class shares: the sign of alpha beta and, for each of the first
    `len(pairs).bit_length()` of `_PRIMES`, q when q divides alpha beta to
    an odd power, else the quadratic character (Euler's criterion) of alpha
    beta with its power of q divided out.  The products of two ratios of
    one class differ by a factor t^2, t rational; with t = q^e t0 and t0
    free of q, that adds 2e to q's power and multiplies what is left by
    t0^2, whose character is 1, so for any odd prime q both ratios take one
    entry.  So a ratio is compared only with the classes of its own bucket,
    all of its sign, and one exact `isqrt` test proves each merge.  The
    character is taken of the residue, below q: one big-integer remainder
    and a few small multiplications.
    """
    primes = _PRIMES[:len(pairs).bit_length()]
    founders: list[tuple[int, int]] = []
    buckets: dict[tuple, list[int]] = {}  # key -> classes founded with it
    out = []
    for alpha, beta in pairs:
        product = alpha * beta
        key = [product > 0]
        for q in primes:
            rest, odd = product, False
            while not (residue := rest % q):
                rest, odd = rest // q, not odd
            key.append(q if odd else pow(residue, q >> 1, q))
        bucket = buckets.setdefault(tuple(key), [])
        for k in bucket:
            alpha0, beta0 = founders[k]
            num, den = abs(alpha * beta0), abs(beta * alpha0)
            g = gcd(num, den)
            num, den = num // g, den // g
            u = isqrt(num)
            if u * u == num:
                v = isqrt(den)
                if v * v == den:
                    out.append((k, u, v))
                    break
        else:
            bucket.append(len(founders))
            out.append((len(founders), 1, 1))
            founders.append((alpha, beta))
    return out


class _ReadingKernel:
    """One grounding of a network, shared by every probe and every fault.

    `_ground` grounds the connected network at vertex 0, giving the
    integers P (entrywise nonnegative) and D, already divided by their
    common gcd, with P / D the inverse reduced Laplacian.  For a probe
    x = e_r - e_s the base resistance is R = base / D, with base = x^T P x.
    A fault on edge (a, b) of conductance p/q drives that conductance to
    infinity (shorted) or to 0 (removed): a rank-one change to the
    Laplacian along v = e_a - e_b.  With the integers X = v^T P x and
    Z = v^T P v, the Sherman-Morrison formula gives, in both modes,

        R' = (base beta - alpha X^2) / (D beta)

    where alpha / beta, with beta >= 0, is the per-edge ratio k / den in
    lowest terms, fixed by the mode:

        shorted:  k = 1,   den = Z
        removed:  k = -p,  den = q D - p Z

    beta is 0 only for a removed bridge (its effective resistance equals
    its own resistance).  Removing a bridge leaves R when X = 0 (no probe
    current crosses it: both probe ends lie on one side) and separates
    the pair otherwise.  Each mode's per-edge tables (`ratios`, `keys`)
    are built on first use, so a network that only gives base values
    never builds one.

    Rows of cell keys (`cell_keys`) compare the corrections alpha X^2 /
    beta by one exact integer key per cell.  `_square_classes` sorts the
    nonzero ratios into K classes, each ratio the class founder's times
    (u / v)^2; with L the lcm of a class's v, two corrections of class k
    agree exactly when their |X| u L / v do, and corrections of different
    classes agree only at X = 0.  So with m = (u L / v) K per edge, a cell
    keys as |X| m + k, or 0 when X = 0 (the healthy reading).  A removed
    bridge has (m, k) = (0, -1): it keys 0 when X = 0 and -1, which no
    other cell takes, when it separates the pair.  `cell_keys` reads any
    selection of `keys` entries through its `view`; the healthy network's
    entry is (0, 0, 0, 0), whose X is always 0.
    """

    __slots__ = ("p", "det", "edges", "_ratios", "_keys")

    def __init__(self, net: Network):
        edges = [(e.u, e.v, e.conductance) for e in net.edges]
        self.p, self.det, _ = _ground(net.n, edges)
        self.edges = net.edges
        self._ratios: dict[FaultMode, tuple] = {}
        self._keys: dict[FaultMode, tuple] = {}

    def ratios(self, mode: FaultMode) -> tuple:
        """Per edge, in edge order: (a, b, alpha, beta) for the mode.

        alpha / beta is k / den in lowest terms with beta >= 0.  Built once
        per mode, on first use.
        """
        table = self._ratios.get(mode)
        if table is None:
            p, det = self.p, self.det
            rows = []
            for e in self.edges:
                a, b, w = e.u, e.v, e.conductance
                z = p[a][a] + p[b][b] - 2 * p[a][b]
                if mode is FaultMode.SHORTED:
                    k, den = 1, z
                else:
                    k, den = -w.numerator, w.denominator * det - w.numerator * z
                g = gcd(k, den) if den >= 0 else -gcd(k, den)
                rows.append((a, b, k // g, den // g))
            table = self._ratios[mode] = tuple(rows)
        return table

    def keys(self, mode: FaultMode) -> tuple:
        """Per edge, in edge order: (a, b, m, k), a cell keying as |X| m + k.

        See the class docstring; a removed bridge has (0, -1).  Built once
        per mode, on first use.
        """
        table = self._keys.get(mode)
        if table is None:
            rows = self.ratios(mode)
            pairs = list(dict.fromkeys((alpha, beta) for *_, alpha, beta in rows if beta))
            classes = _square_classes(pairs)
            count = 1 + max((k for k, _, _ in classes), default=0)
            lcms = [1] * count
            for k, _, v in classes:
                lcms[k] = lcm(lcms[k], v)
            scaled = {pair: (u * lcms[k] // v * count, k)
                      for pair, (k, u, v) in zip(pairs, classes)}
            table = self._keys[mode] = tuple((a, b, *scaled[alpha, beta]) if beta else (a, b, 0, -1)
                                             for a, b, alpha, beta in rows)
        return table

    def base(self, r: int, s: int) -> int:
        """x^T P x for the probe (r, s): R = base / D."""
        p = self.p
        return p[r][r] + p[s][s] - 2 * p[r][s]

    def view(self, entries: Sequence[tuple]) -> "_KeyView":
        """A view of these `keys` entries for `cell_keys`, its columns not yet built."""
        return _KeyView(self.p, entries)

    def cell_keys(self, r: int, s: int, view: "_KeyView") -> list[int]:
        """The probe's cell keys |X| m + k on the columns of the view's entries.

        Two cells key alike exactly when their readings are equal: the
        base value and D are common to the row.
        """
        columns = view.columns
        at_r = columns[r] or view.column(r)
        at_s = columns[s] or view.column(s)
        return [(x := xr - xs) and abs(x) * m + k
                for xr, xs, m, k in zip(at_r, at_s, view.scales, view.offsets)]

    def reading(self, r: int, s: int, j: int, mode: FaultMode) -> Resistance:
        """Faulted resistance of the probe (r, s) when edge j is faulted."""
        a, b, alpha, beta = self.ratios(mode)[j]
        pr, ps = self.p[r], self.p[s]
        x = pr[a] - pr[b] - ps[a] + ps[b]  # X = (e_a - e_b)^T P (e_r - e_s)
        base = self.base(r, s)
        if not beta:
            return INFINITE if x else Fraction(base, self.det)
        return Fraction(base * beta - alpha * x * x, self.det * beta)


class _KeyView:
    """One selection of a kernel's `keys` entries, as `cell_keys` reads it.

    `columns[v]` lists P_v[a] - P_v[b] over the entries (a, b, m, k), or
    is None until `column(v)` builds it for the first row at v.  P is
    symmetric, so a probe (r, s) has X = columns[r][i] - columns[s][i] on
    entry i: a row costs one subtraction per cell.
    """

    __slots__ = ("p", "entries", "scales", "offsets", "columns")

    def __init__(self, p: list[list[int]], entries: Sequence[tuple]):
        self.p = p
        self.entries = entries
        self.scales = [m for _, _, m, _ in entries]
        self.offsets = [k for _, _, _, k in entries]
        self.columns: list[list[int] | None] = [None] * len(p)

    def column(self, v: int) -> list[int]:
        pv = self.p[v]
        column = self.columns[v] = [pv[a] - pv[b] for a, b, _, _ in self.entries]
        return column


def _check_measurement(net: Network, m: Measurement):
    if m.s >= net.n or m.r < 0:
        raise ValueError(f"measurement {m.pair} out of range for n={net.n}")


def _fault_index(net: Network, fault: Edge) -> int:
    j = net._edge_positions.get(fault.pair)
    if j is None or net.edges[j] != fault:
        raise ValueError(f"fault edge {fault.pair} is not in the network")
    return j


def effective_resistance(net: Network, m: Measurement) -> Fraction:
    """Effective resistance between the probe pair (exact)."""
    _check_measurement(net, m)
    kernel = net._reading_kernel
    return Fraction(kernel.base(m.r, m.s), kernel.det)


def perturbed_effective_resistance(
    net: Network, m: Measurement, fault: Edge, mode: FaultMode
) -> Resistance:
    """Effective resistance after the fault alters one edge.

    Evaluates the rank-one (Sherman-Morrison) update on the network's one
    grounding; see `_ReadingKernel` for the formula.  A removed bridge
    reads INFINITE when it separates the probe pair and the unaltered
    value otherwise, straight from the formula's integers.
    """
    j = _fault_index(net, fault)
    _check_measurement(net, m)
    return net._reading_kernel.reading(m.r, m.s, j, mode)


def direct_effective_resistance_oracle(
    net: Network, m: Measurement, fault: Edge, mode: FaultMode
) -> Resistance:
    """Recompute the faulted resistance from the altered graph's own grounding.

    Removal deletes the fault edge (a, b); shorting also relabels b as a,
    so the edges at b move to a (parallel edges add up in the Laplacian)
    and b is left a lone vertex.  `_ground` inverts the altered graph's
    Laplacian, grounded in each connected part, and the relabeled probe
    reads (P_rr + P_ss - 2 P_rs) / D: INFINITE when its ends lie in
    different parts, 0 when shorting joined them.  This path shares no
    update formula with `perturbed_effective_resistance` and is the
    verification oracle for it.  The grounding is built once per (mode,
    fault) and kept on the network.
    """
    _fault_index(net, fault)
    _check_measurement(net, m)
    a, b = fault.pair
    b_to = a if mode is FaultMode.SHORTED else b  # vertex b's label in the altered graph
    relabel = lambda x: b_to if x == b else x
    key = (mode, fault.pair)
    views = net._oracle_views
    if key not in views:
        edges = [(relabel(e.u), relabel(e.v), e.conductance) for e in net.edges if e != fault]
        views[key] = _ground(net.n, edges)
    p, det, part = views[key]
    r, s = relabel(m.r), relabel(m.s)
    if part[r] != part[s]:
        return INFINITE
    return Fraction(p[r][r] + p[s][s] - 2 * p[r][s], det)
