"""Canonical forms: AHU certificates for trees, and a small-graph
canonicalizer for multigraphs with optional vertex colors.

Tree certificates are plain AHU strings, exact and linear-ish: root at
the center (both centers for bicentered trees, keeping the lexicographic
minimum) and encode each rooted subtree as a parenthesization with
sorted children, bottom-up along graphs.rooted_order.  Two trees get
equal certificates iff they are isomorphic.

The small-graph canonicalizer is an individualization-refinement search
(color refinement, then branch on the first non-singleton class), i.e.
permutation canonicalization with pruning.  It handles loops,
multi-edges, and vertex colors (used for weights), and is capped at
n <= 12: pathologically symmetric inputs approach factorial time, but
every use in this package is far below that.
"""

from collections import Counter

from .errors import CapacityError
from .graphs import Graph, Tree, rooted_order

SMALL_GRAPH_CAP = 12


def tree_centers(t: Graph):
    """The one or two middle vertices of a tree: the middle of a longest
    path, found by walking to a farthest vertex and back."""
    adj = t.adjacency_sets()
    far = 0
    for _ in range(2):
        order, parent = rooted_order(adj, far)
        depth = [0] * len(adj)
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        start, far = far, max(order, key=depth.__getitem__)
    path = [far]
    while path[-1] != start:
        path.append(parent[path[-1]])
    k = len(path) - 1
    return sorted(path[k // 2:(k + 1) // 2 + 1])


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


def canonical_certificate(t: Tree) -> str:
    """Center-rooted AHU code of a tree; equal iff the trees are isomorphic."""
    adj = t.adjacency_sets()
    return min(rooted_code(adj, c) for c in tree_centers(t))


def _refine(n, adjmult, loops, col):
    # Monotone color refinement; stable when the class count stops growing.
    while True:
        sigs = []
        for v in range(n):
            nbr = tuple(sorted((col[u], m) for u, m in adjmult[v].items()))
            sigs.append((col[v], loops[v], nbr))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(ranks[s] for s in sigs)
        if len(set(new)) == len(set(col)):
            return new
        col = new


def small_graph_certificate(g: Graph, colors=None):
    """Canonical form of a multigraph (n <= 12) with optional vertex colors.

    Returns a hashable tuple (n, colors by canonical position, edge list
    by canonical position, with multiplicity).  Equal certificates iff
    the graphs are isomorphic by a color-preserving map.
    """
    n = g.n
    if n > SMALL_GRAPH_CAP:
        raise CapacityError(f"small-graph canonicalization capped at n = {SMALL_GRAPH_CAP}")
    if colors is None:
        raw_colors = (0,) * n
    else:
        raw_colors = tuple(colors)
        if len(raw_colors) != n:
            raise ValueError("one color per vertex required")
    if n == 0:
        return (0, (), ())

    loops = [0] * n
    adjmult = [Counter() for _ in range(n)]
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            adjmult[u][v] += 1
            adjmult[v][u] += 1

    base_rank = {c: i for i, c in enumerate(sorted(set(raw_colors)))}
    init = tuple(base_rank[c] for c in raw_colors)
    norm_edges = g._normalized_edges()

    def build(col):
        order = sorted(range(n), key=lambda v: col[v])
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        placed = sorted((pos[u], pos[v]) if pos[u] <= pos[v] else (pos[v], pos[u])
                        for u, v in norm_edges)
        return (n, tuple(raw_colors[v] for v in order), tuple(placed))

    # Depth-first over the individualization tree; the certificate is the
    # least over its leaves, so the visiting order does not matter.
    best, stack = None, [init]
    while stack:
        col = _refine(n, adjmult, loops, stack.pop())
        counts = Counter(col)
        target = min((c for c, k in counts.items() if k > 1), default=None)
        if target is None:
            cert = build(col)
            if best is None or cert < best:
                best = cert
            continue
        fresh = n  # strictly above every rank _refine can assign
        for v in range(n):
            if col[v] == target:
                branched = list(col)
                branched[v] = fresh
                stack.append(tuple(branched))
    return best


def are_isomorphic(g1: Graph, g2: Graph, colors1=None, colors2=None) -> bool:
    """Color-preserving isomorphism test for small graphs."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    return small_graph_certificate(g1, colors1) == small_graph_certificate(g2, colors2)
