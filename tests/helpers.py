"""Shared construction helpers for the test suite."""

import random

from csfkit import Graph, Tree, VertexWeighting


def prufer_tree(seq) -> Tree:
    """Labeled tree on len(seq) + 2 vertices from a Pruefer sequence."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return Tree(n, edges)


def random_tree(rng: random.Random, n: int) -> Tree:
    if n == 1:
        return Tree(1)
    if n == 2:
        return Tree(2, [(0, 1)])
    return prufer_tree([rng.randrange(n) for _ in range(n - 2)])


def random_weighted_multigraph(rng: random.Random, max_n=7, max_extra=4, max_weight=4):
    """A small connected-or-not multigraph with loops and parallel edges."""
    n = rng.randint(1, max_n)
    edges = []
    m = rng.randint(0, min(10, n * 2))
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v))
    for _ in range(rng.randint(0, max_extra)):
        if edges:
            edges.append(rng.choice(edges))
    w = VertexWeighting([rng.randint(0, max_weight) for _ in range(n)])
    return Graph(n, edges), w


def boundary_and_interior(g: Graph, w_set):
    """(e, d): edges inside w_set, and edges with exactly one end in it."""
    w_set = set(w_set)
    e = d = 0
    for u, v in g.edges:
        inside = (u in w_set) + (v in w_set)
        if inside == 2:
            e += 1
        elif inside == 1:
            d += 1
    return e, d


def relabel(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm
