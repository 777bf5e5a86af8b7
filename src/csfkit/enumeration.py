"""Exhaustive generation of non-isomorphic free trees and small
unicyclic graphs.

A rooted tree is written as its canonical level sequence: vertex depths
in preorder, root depth 1, each subtree lexicographically maximal among
its siblings'.  The Beyer–Hedetniemi successor at a vertex p deeper
than 2 lowers p by one and repeats the block from p's new parent to the
end, giving the next canonical sequence in reverse lexicographic order.

Free trees are walked by the method of Wright, Richmond, Odlyzko and
McKay ("Constant time generation of free trees", SIAM J. Comput. 1986).
Split a sequence into the first child's subtree ``left`` and the root
with its other subtrees ``rest``.  The root is a centre iff ``rest`` is
at least as tall as ``left``; of a bicentral tree's two centre rootings
the one with ``(len(left), left) <= (len(rest), rest)`` is kept
(canon.centre_rooting_kept), so each kept sequence is one free tree.
After a kept sequence the walk takes the successor.  After a rejected
one it jumps: every successor that changes only ``rest`` fails too, so
it steps once at the last vertex p of ``left``, and if p sat deeper
than 3 (the new ``left`` then runs to the end) it sets the last h + 1
entries to 2, 3, ..., h + 2, h the new ``left``'s height: the least
``rest`` that can balance it.  Each free tree costs one successor step
and at most one jump.

Unicyclic graphs are produced the blunt way the small cap invites:
add every non-edge to every tree and deduplicate by the small-graph
canonical form.
"""

from .canon import centre_rooting_kept, small_graph_certificate
# canonical_certificate is unused here but perfbench/tracing.py wraps it by this module's name
from .canon import canonical_certificate  # noqa: F401
from .errors import CapacityError
from .graphs import Graph, Tree

TREE_CAP = 22
UNICYCLIC_MIN, UNICYCLIC_MAX = 3, 10

# Non-isomorphic free trees on 1..22 vertices (OEIS A000055); tests hold enumerate_trees
# to them and to a brute-force oracle (Pruefer enumeration + AHU-code dedup).
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
                    19320, 48629, 123867, 317955, 823065, 2144505, 5623756)


def _successor(seq, p):
    """The Beyer–Hedetniemi step at p (seq[p] > 2): the next canonical
    level sequence after seq that keeps seq[:p]."""
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    # nxt[i] = nxt[i - (p - q)] for i >= p: the block seq[q:p], repeated
    reps = (len(seq) - q) // (p - q)
    return seq[:p] + (seq[q:p] * reps)[:len(seq) - p]


def _free_levels(n):
    """The free trees on n vertices, each as the list of its
    canonical_certificate, in the order of the rooted walk."""
    if n == 1:
        yield [1]
        return
    seq = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    while True:
        # the first child's subtree ends at the next 2, or at the end
        split = (seq + [2]).index(2, 2)
        if centre_rooting_kept(seq, split):
            yield seq
            p = n - 1
            while seq[p] <= 2:
                p -= 1
                if p == 0:
                    return
            seq = _successor(seq, p)
        else:
            p = split - 1
            jump = seq[p] > 3
            seq = _successor(seq, p)
            if jump:
                h = max(seq) - 2
                seq[n - h - 1:] = range(2, h + 3)


def enumerate_trees(n: int):
    """Yield one representative per isomorphism class of free trees on n
    vertices (1 <= n <= 22)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > TREE_CAP:
        raise CapacityError(f"tree enumeration capped at n = {TREE_CAP}")
    for levels in _free_levels(n):
        yield Tree.from_levels(levels)


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
    exhaustive.  Each class is yielded in its canonical labelling, the
    edge list of its small_graph_certificate.
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
                cert = small_graph_certificate(Graph(n, list(t.edges) + [(u, v)]))
                if cert not in seen:
                    seen.add(cert)
                    yield Graph(n, cert[2])
