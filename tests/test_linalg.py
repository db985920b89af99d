import random
from fractions import Fraction
from math import lcm

import pytest

import resfault.network
from resfault.linalg import SingularMatrixError, fraction_free_invert
from resfault.network import Measurement, Network, effective_resistance

from grounding import build_reduced_laplacian, grounded_inverse, grounded_resistance
from reference import full_width_invert, leading_principal_minors, multiply
from test_kernel import pendant_network


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
        inv = as_fractions(*fraction_free_invert(a))
        prod = multiply(a, inv)
        assert prod == [[Fraction(i == j) for j in range(n)] for i in range(n)]


def scaled_laplacian(net):
    """The reduced Laplacian at ground 0, scaled to integers by its denominators' lcm."""
    lap = build_reduced_laplacian(net, 0)
    scale = lcm(*(x.denominator for row in lap for x in row))
    return [[int(x * scale) for x in row] for row in lap]


def test_half_width_elimination_matches_the_full_width_reference():
    # Only columns k..n+k change at step k; the rest of the augmented matrix
    # is the pivot on the diagonal, which the reference computes out in full.
    rng = random.Random(23)
    mats = [random_spd(rng, n) for n in range(21)]
    mats += [scaled_laplacian(pendant_network(seed, n)) for seed in range(3) for n in (6, 9, 21)]
    for mat in mats:
        assert fraction_free_invert(mat) == full_width_invert(mat)


def test_rational_entries_are_scaled_exactly(monkeypatch):
    # Grounded at 0, this network's reduced Laplacian is
    # [[3/2, -1/3], [-1/3, 5/7]]; the kernel scales each row by the lcm of
    # the denominators at its vertex: 6 at vertex 1, 21 at vertex 2.
    net = Network.from_edge_list(
        3, [(0, 1, Fraction(7, 6)), (1, 2, Fraction(1, 3)), (0, 2, Fraction(8, 21))]
    )
    inverted = []
    monkeypatch.setattr(
        resfault.network, "fraction_free_invert", lambda mat: inverted.append(mat) or fraction_free_invert(mat)
    )
    kernel = net._reading_kernel
    assert inverted == [[[9, -2], [-7, 15]]]
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
    _, det = fraction_free_invert(a)
    assert minors[-1] == det


def test_non_square_matrix_raises():
    with pytest.raises(ValueError, match="matrix must be square"):
        fraction_free_invert([[1, 2]])


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        fraction_free_invert([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        fraction_free_invert([[0, 1], [1, 0]])
