"""Canonical forms: level sequences for trees, and a small-graph
canonicalizer for multigraphs with optional vertex colors.

A tree's certificate is its level sequence as the free-tree walk
(enumeration.py) yields it; equal iff the trees are isomorphic, and
Tree.from_levels of it is a canonical labelling.

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
    """The one or two middle vertices of a tree: the last left when its
    leaves are stripped off, a layer at a time."""
    adj = t.adjacency_sets()
    layer, left = [v for v, a in enumerate(adj) if len(a) <= 1], t.n
    while left > 2:  # no two leaves are adjacent, so each has one neighbour left
        left -= len(layer)
        nxt = []
        for v in layer:
            u = adj[v].pop()
            adj[u].remove(v)
            if len(adj[u]) == 1:
                nxt.append(u)
        layer = nxt
    return sorted(layer)


def centre_rooting_kept(levels, split):
    """The free-tree walk's keep test (enumeration.py); split ends the first child's
    subtree.  Heights, then sizes, decide before left and rest are built."""
    hl, hr = max(levels[1:split]) - 1, max(levels[split:], default=1)
    if hl != hr:
        return hl < hr
    sl, sr = split - 1, len(levels) - split + 1
    if sl != sr:
        return sl < sr
    return [d - 1 for d in levels[1:split]] <= levels[:1] + levels[split:]


def canonical_certificate(t: Tree) -> tuple:
    """The tree's level sequence as the free-tree walk yields it: rooted at
    a centre, each vertex's child sequences in descending order."""
    t = Tree.from_graph(t)  # a cycle has no leaves to strip
    adj = t.adjacency_sets()
    for c in tree_centers(t):
        order, parent = rooted_order(adj, c)
        seq = {c: [1]}  # each vertex's depth, then its children's sequences
        for v in order[1:]:
            seq[v] = [seq[parent[v]][0] + 1]
        for v in reversed(order):  # every child finished before its parent
            for kid in sorted((seq.pop(u) for u in adj[v] if u != parent[v]), reverse=True):
                seq[v] += kid
        levels = seq[c]  # the first child's subtree ends at the next 2, or at the end
        if len(levels) == 1 or centre_rooting_kept(levels, (levels + [2]).index(2, 2)):
            return tuple(levels)


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
