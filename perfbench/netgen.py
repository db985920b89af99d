"""Seeded random weighted networks for the benchmark.

`weighted_network(seed, n)` is a pure function of its arguments: a random
spanning tree on a core of n - PENDANTS vertices, random chords until the
graph has about EDGES_PER_VERTEX * n edges, then PENDANTS leaves hung off
random core vertices (each leaf edge is a bridge).  Conductances are p/q
with 1 <= p, q <= 9, so almost every faulted reading is distinct.
"""

from __future__ import annotations

import random
from fractions import Fraction

EDGES_PER_VERTEX = 2.2
PENDANTS = 3

Edges = list[tuple[int, int, Fraction]]


def weighted_network(seed: int, n: int) -> tuple[Edges, int]:
    """Return (edges, bridge count) of a connected simple network on n vertices."""
    core = n - PENDANTS
    if core < 3:
        raise ValueError(f"need n >= {PENDANTS + 3}, got {n}")
    # A string seed is hashed with SHA-512, so the stream is the same in every process.
    rng = random.Random(f"perfbench:{seed}:{n}")
    weights: dict[tuple[int, int], Fraction] = {}

    def add(u: int, v: int):
        weights[(min(u, v), max(u, v))] = Fraction(rng.randint(1, 9), rng.randint(1, 9))

    order = list(range(core))
    rng.shuffle(order)
    for i in range(1, core):
        add(order[i], order[rng.randrange(i)])
    chords = min(round(EDGES_PER_VERTEX * n) - PENDANTS, core * (core - 1) // 2)
    while len(weights) < chords:
        u, v = rng.sample(range(core), 2)
        if (min(u, v), max(u, v)) not in weights:
            add(u, v)
    for leaf in range(core, n):
        add(leaf, rng.randrange(core))
    edges = [(u, v, w) for (u, v), w in sorted(weights.items())]
    return edges, count_bridges(n, edges)


def count_bridges(n: int, edges) -> int:
    """Number of edges whose removal disconnects the graph (iterative Tarjan)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v, _) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    disc = [-1] * n
    low = [0] * n
    clock = 0
    bridges = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, via, it = stack[-1]
            for w, idx in it:
                if idx == via:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, idx, iter(adj[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges += 1
    return bridges


def network_document(n: int, edges) -> dict:
    """The explicit-network JSON document the CLI reads."""
    return {"family": "explicit", "n": n, "edges": [[u, v, str(w)] for u, v, w in edges]}
