import random
from fractions import Fraction

import pytest

import resfault.network
from resfault.linalg import SingularMatrixError, fraction_free_invert
from resfault.network import (
    FaultMode,
    Measurement,
    Network,
    direct_effective_resistance_oracle,
    effective_resistance,
)

from grounding import build_reduced_laplacian, grounded_inverse, grounded_resistance
from reference import full_width_invert, leading_principal_minors, multiply
from test_kernel import bridged_network, mirrored_big_network, pendant_network


def random_spd(rng, n):
    # M^T M + I is symmetric positive definite with integer entries
    m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return [
        [sum(m[k][i] * m[k][j] for k in range(n)) + (i == j) for j in range(n)]
        for i in range(n)
    ]


def as_fractions(adj, det):
    n = len(adj)
    return [[Fraction(adj[i][j], det) for j in range(n)] for i in range(n)]


def test_inverse_times_matrix_is_identity():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 7)
        a = random_spd(rng, n)
        inv = as_fractions(*fraction_free_invert(a, [1] * n))
        prod = multiply(a, inv)
        assert prod == [[Fraction(i == j) for j in range(n)] for i in range(n)]


def scaled_reference(mat, scales):
    """Gauss-Jordan's (adj, det) of mat, column j of adj times scales[j]."""
    adj, det = full_width_invert(mat)
    return [[x * r for x, r in zip(row, scales)] for row in adj], det


def groundings_inverted(monkeypatch, build):
    """Every (mat, scales) the library hands the inversion while `build` runs."""
    seen = []
    real = resfault.network.fraction_free_invert
    monkeypatch.setattr(
        resfault.network, "fraction_free_invert", lambda mat, scales: seen.append((mat, scales)) or real(mat, scales)
    )
    build()
    return seen


def test_bordering_matches_the_full_width_reference(monkeypatch):
    rng = random.Random(23)
    cases = [(random_spd(rng, n), [1] * n) for n in range(21)]
    # the row-scaled M = R L of weighted networks: pendant leaves, bridges, ~200-bit conductances
    nets = [pendant_network(seed, n) for seed in range(3) for n in (6, 9, 21)]
    nets += [bridged_network(), mirrored_big_network(3)]
    scaled = groundings_inverted(monkeypatch, lambda: [net._reading_kernel for net in nets])
    assert len(scaled) == len(nets) and all(any(r != 1 for r in scales) for _, scales in scaled)
    # a removed bridge splits the altered graph in two, so its M is block diagonal
    net = bridged_network()
    bridge = net.edge_between(3, 4)
    fault = lambda: direct_effective_resistance_oracle(net, Measurement(0, 9), bridge, FaultMode.REMOVED)
    split = groundings_inverted(monkeypatch, fault)
    assert len(split) == 1 and any(r != 1 for r in split[0][1])
    assert set(net._oracle_views[(FaultMode.REMOVED, bridge.pair)][2]) == {0, 1}
    for mat, scales in cases + scaled + split + [([], []), ([[5]], [1]), ([[6]], [3])]:
        assert fraction_free_invert(mat, scales) == scaled_reference(mat, scales)


def test_a_zero_leading_minor_stops_the_bordering_at_its_step():
    rng = random.Random(5)
    steps = set()
    while len(steps) < 5:
        n = rng.randint(1, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                a[i][j] = a[j][i] = rng.randint(-1, 1)
        scales = [rng.choice((1, 2, 3, -2)) for _ in range(n)]
        mat = [[x * r for x in row] for row, r in zip(a, scales)]
        minors = leading_principal_minors(mat)
        if minors[-1] == 0:
            with pytest.raises(SingularMatrixError, match=f"zero pivot at step {len(minors) - 1}$"):
                fraction_free_invert(mat, scales)
            steps.add(len(minors) - 1)
        else:
            assert fraction_free_invert(mat, scales) == scaled_reference(mat, scales)


def test_rational_entries_are_scaled_exactly(monkeypatch):
    # Grounded at 0, this network's reduced Laplacian is
    # [[3/2, -1/3], [-1/3, 5/7]]; the kernel scales each row by the lcm of
    # the denominators at its vertex: 6 at vertex 1, 21 at vertex 2.
    net = Network.from_edge_list(
        3, [(0, 1, Fraction(7, 6)), (1, 2, Fraction(1, 3)), (0, 2, Fraction(8, 21))]
    )
    inverted, scaled_by = [], []
    monkeypatch.setattr(
        resfault.network,
        "fraction_free_invert",
        lambda mat, scales: inverted.append(mat) or scaled_by.append(scales) or fraction_free_invert(mat, scales),
    )
    kernel = net._reading_kernel
    assert inverted == [[[9, -2], [-7, 15]]]
    assert scaled_by == [[6, 21]]
    assert inverted == [multiply([[6, 0], [0, 21]], build_reduced_laplacian(net, 0))]
    inv = [[Fraction(x, kernel.det) for x in row[1:]] for row in kernel.p[1:]]
    assert multiply(build_reduced_laplacian(net, 0), inv) == [[1, 0], [0, 1]]


def test_inverse_columns_give_resistances_at_every_ground():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 7)
        edges = [(rng.randrange(v), v, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                 for v in range(1, n)]
        edges += [(u, v, rng.randint(1, 4)) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < 0.4]
        net = Network.from_edge_list(n, edges)
        ground = rng.randrange(n)
        inv = grounded_inverse(net, ground)
        # the diagonal entry of each vertex is its resistance to the ground
        for v in range(n):
            if v != ground:
                assert inv[v][v] == effective_resistance(net, Measurement(v, ground))
        for m in net.measurements():
            assert grounded_resistance(net, m, ground) == effective_resistance(net, m)


def test_pivots_are_leading_minors_and_positive_for_spd():
    rng = random.Random(3)
    a = random_spd(rng, 5)
    minors = leading_principal_minors(a)
    assert len(minors) == 5
    assert all(m > 0 for m in minors)
    # first minor is the top-left entry, last is the determinant
    assert minors[0] == a[0][0]
    _, det = fraction_free_invert(a, [1] * 5)
    assert minors[-1] == det


def test_non_square_matrix_raises():
    with pytest.raises(ValueError, match="matrix must be square"):
        fraction_free_invert([[1, 2]], [1])


def test_scales_must_match_the_rows():
    with pytest.raises(ValueError, match="1 scales for 2 rows"):
        fraction_free_invert([[2, -1], [-1, 2]], [1])
    with pytest.raises(ValueError, match="3 scales for 2 rows"):
        fraction_free_invert([[2, -1], [-1, 2]], [1, 1, 1])
    with pytest.raises(ValueError, match="scales must be nonzero"):
        fraction_free_invert([[2, 0], [0, 0]], [1, 0])


def test_a_matrix_not_symmetric_up_to_its_scales_raises():
    # [[2, -1], [-3, 6]] is diag(1, 3) [[2, -1], [-1, 2]]: symmetric up to (1, 3) only
    assert fraction_free_invert([[2, -1], [-3, 6]], [1, 3]) == scaled_reference([[2, -1], [-3, 6]], [1, 3])
    for scales in ([1, 1], [3, 1], [1, -3]):
        with pytest.raises(ValueError, match="not symmetric up to its row scales"):
            fraction_free_invert([[2, -1], [-3, 6]], scales)
    # checked before the first step: this matrix's zero first minor is never reached
    n = 60
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    mat[0][0], mat[n - 1][0] = 0, 1
    with pytest.raises(ValueError, match="not symmetric") as raised:
        fraction_free_invert(mat, [1] * n)
    assert not isinstance(raised.value, SingularMatrixError)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError, match="step 1$"):
        fraction_free_invert([[1, 1], [1, 1]], [1, 1])
    with pytest.raises(SingularMatrixError, match="step 0$"):
        fraction_free_invert([[0, 1], [1, 0]], [1, 1])
