"""Randomized invariant checks over the acceptance families.

Everything here asserts exact equalities or exact order relations;
hypothesis only chooses which instance to try them on.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from resfault.closed_forms import KPartiteCase, KPartiteColumn, kpartite_delta
from resfault.families import KPartiteShape, complete_network, kpartite_network
from resfault.network import (
    INFINITE,
    FaultMode,
    Measurement,
    Network,
    _PRIMES,
    effective_resistance,
    perturbed_effective_resistance,
)
from resfault.signatures import is_distinguishing, reading_classes
from resfault.strategies import complete_strategy, kpartite_strategy

from grounding import grounded_resistance
from reference import classify_kpartite, gcd_keyed_classes, numbered


FRACTIONS = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(5), max_denominator=6)
# Conductances whose ratios often differ by a rational square, so faults of
# different ratios can read alike; q, q^2 and 1/q for each of the first three
# character primes, and products of them, put odd and even powers of several
# character primes into one ratio.
P0, P1, P2 = _PRIMES[:3]
SQUARES = st.sampled_from(list(dict.fromkeys(
    [Fraction(x) for x in ("1", "2", "4", "1/4", "9/4")]
    + [Fraction(q) ** e for q in (P0, P1, P2) for e in (1, 2, -1)]
    + [Fraction(P0 * P1 * P1, P2), Fraction(P1 * P2, P0 * P0), Fraction(P0 ** 3 * P2 * P2, P1)])))


@st.composite
def connected_networks(draw, conductance=FRACTIONS):
    n = draw(st.integers(min_value=2, max_value=6))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((parent, v, draw(conductance)))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v, draw(conductance)))
    return Network.from_edge_list(n, edges)


@st.composite
def shapes(draw, max_part=5):
    k = draw(st.integers(min_value=2, max_value=4))
    parts = sorted(draw(st.integers(min_value=1, max_value=max_part)) for _ in range(k))
    if sum(parts) < 3:
        parts[-1] += 1
    return KPartiteShape(tuple(parts))


@st.composite
def network_measurement_edge(draw):
    net = draw(connected_networks())
    ms = net.measurements()
    m = ms[draw(st.integers(min_value=0, max_value=len(ms) - 1))]
    e = net.edges[draw(st.integers(min_value=0, max_value=len(net.edges) - 1))]
    return net, m, e


@settings(max_examples=40, deadline=None)
@given(network_measurement_edge())
def test_ground_independence(case):
    net, m, _ = case
    values = {grounded_resistance(net, m, g) for g in range(net.n)}
    assert values == {effective_resistance(net, m)}


@settings(max_examples=100, deadline=None)
@given(connected_networks(SQUARES))
def test_class_ids_match_the_reduced_key_reference(net):
    for mode in FaultMode:
        for no_fault in (False, True):
            table = reading_classes(net, net.measurements(), mode, no_fault)
            want = [gcd_keyed_classes(net, m, mode, no_fault) for m in net.measurements()]
            assert list(map(numbered, table)) == list(map(numbered, want))


@settings(max_examples=40, deadline=None)
@given(network_measurement_edge(), st.sampled_from(list(FaultMode)))
def test_probe_pair_is_unordered(case, mode):
    net, m, e = case
    forward, backward = Measurement(m.r, m.s), Measurement(m.s, m.r)
    assert effective_resistance(net, forward) == effective_resistance(net, backward)
    assert perturbed_effective_resistance(
        net, forward, e, mode
    ) == perturbed_effective_resistance(net, backward, e, mode)


@settings(max_examples=40, deadline=None)
@given(network_measurement_edge())
def test_fault_monotonicity(case):
    net, m, e = case
    base = effective_resistance(net, m)
    removed = perturbed_effective_resistance(net, m, e, FaultMode.REMOVED)
    shorted = perturbed_effective_resistance(net, m, e, FaultMode.SHORTED)
    assert removed == INFINITE or removed >= base
    assert shorted != INFINITE and shorted <= base


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=6, max_value=9),
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=4),
)
def test_adding_probes_never_destroys_distinguishability(n, picks):
    net = complete_network(n)
    base = list(complete_strategy(n).measurements)
    assert is_distinguishing(net, base, FaultMode.REMOVED)
    pool = [m for m in net.measurements() if m not in base]
    extra = [pool[p % len(pool)] for p in picks]
    extended = base + [m for m in extra if m not in base]
    assert is_distinguishing(net, extended, FaultMode.REMOVED)


@settings(max_examples=50, deadline=None)
@given(shapes(), st.sampled_from(list(FaultMode)))
def test_columns_ii_and_iii_coincide_exactly_when_sizes_match(shape, mode):
    if shape.k == 2 and min(shape.parts) == 1:
        return  # star: every edge is a bridge, removal cells are undefined
    for q in range(shape.k):
        for g in range(shape.k):
            if q == g:
                continue
            ii = kpartite_delta(shape, KPartiteCase(KPartiteColumn.II, q, g), mode)
            iii = kpartite_delta(shape, KPartiteCase(KPartiteColumn.III, q, g), mode)
            if shape.parts[q] == shape.parts[g]:
                assert ii == iii
            else:
                assert ii != iii


@settings(max_examples=20, deadline=None)
@given(shapes(), st.sampled_from(list(FaultMode)))
def test_family_updates_agree_with_direct_reconstruction(shape, mode):
    from resfault.network import direct_effective_resistance_oracle

    net = kpartite_network(shape)
    m = net.measurements()[0]
    for e in net.edges[:6]:
        assert perturbed_effective_resistance(
            net, m, e, mode
        ) == direct_effective_resistance_oracle(net, m, e, mode)


@settings(max_examples=100, deadline=None)
@given(shapes(max_part=10), st.integers(min_value=0))  # n <= 40
def test_kpartite_table_matches_the_kernel_up_to_n_40(shape, pick):
    net = kpartite_network(shape)
    e = net.edges[pick % len(net.edges)]
    star = shape.k == 2 and shape.parts[0] == 1  # every edge a bridge: no removal cells
    modes = [FaultMode.SHORTED] if star else list(FaultMode)
    for m in net.measurements():
        base = effective_resistance(net, m)
        case = classify_kpartite(shape, m, e).case
        for mode in modes:
            delta = kpartite_delta(shape, case, mode)
            assert perturbed_effective_resistance(net, m, e, mode) == base - delta
