"""Shared construction helpers for the test suite."""

import random
from collections import Counter

from csfkit import Graph, Tree, VertexWeighting
from csfkit.graphs import as_forest, rooted_order


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


def tree_distance_pairs(t: Graph):
    """All-pairs distances of a forest as {(u, v): d} with u < v."""
    as_forest(t)
    adj = t.adjacency_sets()
    out = {}
    for src in range(t.n):
        order, parent = rooted_order(adj, src)
        depth = [0] * t.n
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
            if v > src:
                out[(src, v)] = depth[v]
    return out


def contract_by_own_union_find(g: Graph, w: VertexWeighting, s):
    """contract_edges with a union-find pass of its own: classes merge under
    the smaller root and are relabeled by the rank of that root."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in s:
        ra, rb = find(g.edges[i][0]), find(g.edges[i][1])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(v) for v in range(g.n)})
    label = {r: i for i, r in enumerate(roots)}
    weights = [0] * len(roots)
    for v in range(g.n):
        weights[label[find(v)]] += w[v]
    edges = [(label[find(u)], label[find(v)]) for i, (u, v) in enumerate(g.edges) if i not in s]
    return Graph(len(roots), edges), VertexWeighting(weights)


def twig_sequence_by_leaf_walk(f: Graph):
    """twig_sequence by walking from every leaf to the first vertex of degree >= 3."""
    as_forest(f)
    adj = f.adjacency_sets()
    degs = f.degrees()
    lengths = []
    for comp in f.components():
        if len(comp) == 1:
            continue
        if all(degs[v] <= 2 for v in comp):
            lengths.append(len(comp) - 1)
            continue
        for v in comp:
            if degs[v] != 1:
                continue
            prev, cur, steps = None, v, 0
            while degs[cur] < 3:
                nxt = next(u for u in adj[cur] if u != prev)
                prev, cur = cur, nxt
                steps += 1
            lengths.append(steps)
    counts = Counter(lengths)
    top = max(counts, default=0)
    return tuple(counts.get(i, 0) for i in range(1, top + 1))


def relabel(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm
