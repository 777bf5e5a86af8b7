"""Exhaustive generation of non-isomorphic free trees and small
unicyclic graphs.

Free trees are generated by the canonical level-sequence successor
scheme: rooted trees on n vertices correspond to canonical level
sequences (each entry is the depth of a vertex in preorder, root depth
1, and each subtree's sequence is lexicographically maximal among its
siblings' reorderings).  Starting from the path (1,2,...,n) the
successor rule walks every canonical sequence exactly once, ending at
the star (1,2,2,...,2).  After Wright, Richmond, Odlyzko and McKay
("Constant time generation of free trees", SIAM J. Comput. 1986), each
free tree is kept once by a test on its sequence alone.  Split it into
the first child's subtree ``left`` and the root with its other subtrees
``rest``.  The tallest subtree comes first, so the root is a centre iff
``rest`` is at least as tall as ``left``.  If both are equally tall, the
tree is bicentral and the other centre's rooting swaps the two; the one
with ``(len(left), left) <= (len(rest), rest)`` is kept, and if both are
one rooted tree the walk meets it once.  Only kept sequences are built
into a ``Tree``.

Unicyclic graphs are produced the blunt way the small cap invites:
add every non-edge to every tree and deduplicate by the small-graph
canonical form.
"""

# canonical_certificate is unused here but perfbench/tracing.py wraps it by this module's name
from .canon import canonical_certificate, small_graph_certificate  # noqa: F401
from .errors import CapacityError
from .graphs import Graph, Tree

TREE_CAP = 22
UNICYCLIC_MIN, UNICYCLIC_MAX = 3, 10

# Non-isomorphic free trees on 1..12 vertices; pinned by an independent
# brute-force oracle (Pruefer enumeration + certificate dedup) in tests.
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


def _level_sequences(n):
    """Canonical level sequences of rooted trees on n vertices."""
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


def _edges_from_levels(levels):
    # parent of vertex i is the nearest earlier vertex one level up
    edges = []
    for i in range(1, len(levels)):
        for j in range(i - 1, -1, -1):
            if levels[j] == levels[i] - 1:
                edges.append((j, i))
                break
    return edges


def _free_canonical(levels):
    """True iff this rooted tree is the one kept for its free tree (n >= 2)."""
    # the first child's subtree ends at the next 2, or at the sentinel
    split = (levels + [2]).index(2, 2)
    left = [d - 1 for d in levels[1:split]]
    rest = levels[:1] + levels[split:]
    # by height first: the root is a centre iff rest is at least as tall
    return (max(left), len(left), left) <= (max(rest), len(rest), rest)


def enumerate_trees(n: int):
    """Yield one representative per isomorphism class of free trees on n
    vertices (1 <= n <= 22)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > TREE_CAP:
        raise CapacityError(f"tree enumeration capped at n = {TREE_CAP}")
    if n == 1:
        yield Tree(1)
        return
    for levels in _level_sequences(n):
        if _free_canonical(levels):
            yield Tree(n, _edges_from_levels(levels))


def classify(t: Tree) -> str:
    """path, spider, two-branch, or other, by the count of degree->=3 vertices."""
    branches = sum(1 for d in t.degrees() if d >= 3)
    if branches == 0:
        return "path"
    if branches == 1:
        return "spider"
    if branches == 2:
        return "two-branch"
    return "other"


def enumerate_unicyclic(n: int):
    """Yield one representative per isomorphism class of connected simple
    graphs with n vertices and n edges (3 <= n <= 10).

    Every unicyclic graph is a tree plus one extra edge, so adding each
    non-edge to each tree and deduplicating by canonical form is
    exhaustive.
    """
    if not isinstance(n, int) or not UNICYCLIC_MIN <= n <= UNICYCLIC_MAX:
        raise CapacityError(
            f"unicyclic enumeration supports {UNICYCLIC_MIN} <= n <= {UNICYCLIC_MAX}")
    seen = set()
    for t in enumerate_trees(n):
        present = set(t._normalized_edges())
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in present:
                    continue
                g = Graph(n, list(t.edges) + [(u, v)])
                cert = small_graph_certificate(g)
                if cert not in seen:
                    seen.add(cert)
                    yield g
