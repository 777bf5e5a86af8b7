"""Canonical forms: AHU certificates for trees, and a small-graph
canonicalizer for multigraphs with optional vertex colors.

Tree certificates are plain AHU strings, exact and linear-ish: root at
the center (both centers for bicentered trees, keeping the lexicographic
minimum) and encode each rooted subtree as a parenthesization with
sorted children.  Two trees get equal certificates iff they are
isomorphic.

The small-graph canonicalizer is an individualization-refinement search
(color refinement, then branch on the first non-singleton class), i.e.
permutation canonicalization with pruning.  It handles loops,
multi-edges, and vertex colors (used for weights), and is capped at
n <= 12: pathologically symmetric inputs approach factorial time, but
every use in this package is far below that.
"""

from collections import Counter

from .errors import CapacityError
from .graphs import Graph, Tree

SMALL_GRAPH_CAP = 12


def tree_centers(t: Graph):
    """The one or two middle vertices of a tree (leaf stripping)."""
    n = t.n
    if n == 1:
        return [0]
    adj = [set(a) for a in t.adjacency_sets()]
    alive = set(range(n))
    layer = [v for v in alive if len(adj[v]) <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
        for v in layer:
            for u in adj[v]:
                adj[u].discard(v)
                if u in alive and len(adj[u]) == 1:
                    nxt.append(u)
            adj[v].clear()
        layer = sorted(set(nxt))
    return sorted(alive)


def rooted_code(adj, root) -> str:
    """AHU parenthesization of the tree rooted at root, children sorted."""

    def code(v, parent):
        subs = sorted(code(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(subs) + ")"

    return code(root, -1)


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

    best = [None]

    def search(col):
        col = _refine(n, adjmult, loops, col)
        counts = Counter(col)
        target = min((c for c, k in counts.items() if k > 1), default=None)
        if target is None:
            cert = build(col)
            if best[0] is None or cert < best[0]:
                best[0] = cert
            return
        fresh = n  # strictly above every rank _refine can assign
        for v in range(n):
            if col[v] == target:
                branched = list(col)
                branched[v] = fresh
                search(tuple(branched))

    search(init)
    return best[0]


def are_isomorphic(g1: Graph, g2: Graph, colors1=None, colors2=None) -> bool:
    """Color-preserving isomorphism test for small graphs."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    return small_graph_certificate(g1, colors1) == small_graph_certificate(g2, colors2)
