"""Shared construction helpers for the test suite."""

import random
from collections import Counter

from csfkit import Graph, Tree, VertexWeighting
from csfkit.canon import tree_centers
from csfkit.formats import _g6_encode_n
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


def rooted_code(adj, root) -> str:
    """AHU parenthesization of the tree rooted at root, children sorted.

    Built in reversed preorder, so every child's code exists before its
    parent's.
    """
    order, parent = rooted_order(adj, root)
    code = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(code.pop(u) for u in adj[v] if u != parent[v])) + ")"
    return code[root]


def ahu_certificate(t: Tree) -> str:
    """Centre-rooted AHU code of a tree, the least over its centres; equal
    iff the trees are isomorphic: the oracle for canon.canonical_certificate
    and, independent of the walk's convention, for enumeration."""
    adj = t.adjacency_sets()
    return min(rooted_code(adj, c) for c in tree_centers(t))


def rooted_level_sequences(n):
    """Every canonical level sequence of a rooted tree on n vertices, from
    the path (1, 2, ..., n) to the star, by the Beyer–Hedetniemi successor
    at the last vertex deeper than 2."""
    seq = list(range(1, n + 1))
    while True:
        yield seq
        p = -1
        for i in range(n - 1, -1, -1):
            if seq[i] > 2:
                p = i
                break
        if p < 0:
            return
        q = -1
        for i in range(p - 1, -1, -1):
            if seq[i] == seq[p] - 1:
                q = i
                break
        period = p - q
        nxt = seq[:p]
        while len(nxt) < n:
            nxt.append(nxt[-period])
        seq = nxt


def centre_rooting_kept_by_tuples(levels, split):
    """canon.centre_rooting_kept as first written, one tuple comparison
    with no early exit: its oracle."""
    left = [d - 1 for d in levels[1:split]]
    rest = levels[:1] + levels[split:]
    # by height first: the root is a centre iff rest is at least as tall
    return (max(left), len(left), left) <= (max(rest), len(rest), rest)


def is_free_canonical(levels):
    """True iff this rooted tree (n >= 2) is the centre rooting kept for its free tree."""
    # the first child's subtree ends at the next 2, or at the sentinel
    return centre_rooting_kept_by_tuples(levels, (levels + [2]).index(2, 2))


def free_levels_by_filter(n):
    """The free trees' level sequences by walking every rooted tree and
    keeping the centre rootings: the oracle for enumeration._free_levels."""
    if n == 1:
        return [[1]]
    return [seq for seq in rooted_level_sequences(n) if is_free_canonical(seq)]


def otter_free_counts(N):
    """Free tree counts for n = 1..N with no table: rooted counts by the
    A000081 recurrence, then Otter's dissimilarity theorem."""
    r = [0, 1]
    for m in range(1, N):
        s = [sum(d * r[d] for d in range(1, k + 1) if k % d == 0) for k in range(m + 1)]
        r.append(sum(s[k] * r[m - k + 1] for k in range(1, m + 1)) // m)
    pairs = [sum(r[i] * r[n - i] for i in range(1, n)) for n in range(N + 1)]
    return [r[n] - (pairs[n] - (r[n // 2] if n % 2 == 0 else 0)) // 2 for n in range(1, N + 1)]


def format_graph6_pairwise(g: Graph) -> str:
    """graph6 by testing every vertex pair against the edge set: the
    oracle for formats.format_graph6."""
    adj = {(u, v) if u < v else (v, u) for u, v in g.edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return _g6_encode_n(g.n) + "".join(chars)


def reference_serialize(poly) -> str:
    """PPolynomial.serialize as first written, sorting by (-degree, parts)
    and formatting every line in full: the oracle for the memoized one."""
    lines = []
    for parts, c in sorted(poly.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]), reverse=True):
        lines.append(f"{c.numerator}/{c.denominator} : {','.join(map(str, parts))}".rstrip())
    return "\n".join(lines)
