"""Multigraphs with loops, vertex weights, and tree-structure queries.

Vertices are 0..n-1.  Edges are an indexed sequence of unordered endpoint
pairs; loops (u == v) and duplicate pairs are allowed and preserved.  Edge
subsets everywhere are sets of edge *indices*, which is what the CSF
subset expansion and deletion/contraction identities address.

Forest and tree checks, components and contraction share one union-find
(_find, _join) that roots each class at its smallest vertex; a Tree built
from a level sequence needs none, as its depths prove it a tree, and nor
does one built from parent pointers that each precede their child.  Tree
queries (subtree enumeration, trunk, twigs, path counts) live here as
functions; csf-engine and invariants consume them.  Every rooted walk
goes through rooted_order, an iterative preorder.
"""

from collections import Counter

from .errors import CapacityError, NotATreeError

SUBTREE_WORK_CAP = 1 << 24


def _find(parent, x):
    """Root of x's class in the forest `parent`, halving the path walked."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _join(parent, u, v):
    """Merge u's and v's classes under the smaller root; False if already one."""
    ru, rv = _find(parent, u), _find(parent, v)
    if ru == rv:
        return False
    if ru < rv:
        parent[rv] = ru
    else:
        parent[ru] = rv
    return True


def _index_set(s, bound, what):
    """s as a set; ValueError unless each member is an int (not a bool) in 0..bound-1."""
    s = set(s)
    for i in s:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < bound:
            raise ValueError(f"{what} {i!r} is not an int in 0..{bound - 1}")
    return s


class Graph:
    """Finite multigraph; immutable by convention after construction."""

    def __init__(self, n, edges=()):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("vertex count must be a nonnegative integer")
        es = []
        for e in edges:
            u, v = e
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} is not a pair of ints in 0..{n - 1}")
            es.append((u, v))
        self.n = n
        self.edges = tuple(es)

    @property
    def m(self):
        return len(self.edges)

    def _normalized_edges(self):
        # identity is the labeled edge multiset; edge order and direction
        # only matter for index-based operations, not equality
        return tuple(sorted((u, v) if u <= v else (v, u) for u, v in self.edges))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._normalized_edges() == other._normalized_edges()

    def __hash__(self):
        return hash((self.n, self._normalized_edges()))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, edges={list(self.edges)!r})"

    def has_loop(self):
        return any(u == v for u, v in self.edges)

    def is_simple(self):
        # a loop is left out of the set and a repeated pair collapses in it
        pairs = {(u, v) if u < v else (v, u) for u, v in self.edges if u != v}
        return len(pairs) == len(self.edges)

    def degrees(self):
        """Degree of each vertex; a loop contributes 2 to its endpoint."""
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def adjacency_sets(self):
        """Neighbor sets ignoring multiplicity and loops (traversal view)."""
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def components(self, edge_subset=None):
        """Connected components of the spanning subgraph (V, edge_subset).

        edge_subset is a set of edge indices; None means all edges.
        Returns a list of frozensets ordered by smallest member (the root).
        """
        parent = list(range(self.n))
        edges = (self.edges if edge_subset is None
                 else [self.edges[i] for i in _index_set(edge_subset, self.m, "edge")])
        for u, v in edges:
            _join(parent, u, v)
        groups = {}
        for v in range(self.n):
            groups.setdefault(_find(parent, v), []).append(v)
        return [frozenset(g) for g in groups.values()]

    def is_connected(self):
        return self.n <= 1 or len(self.components()) == 1

    def is_forest(self):
        """No edge closes a cycle (a loop, a repeated pair or a longer one)."""
        parent = list(range(self.n))
        return all(_join(parent, u, v) for u, v in self.edges)

    def delete_edges(self, s):
        """Same vertices, edges with indices in s removed (order kept)."""
        s = _index_set(s, self.m, "edge")
        return Graph(self.n, [e for i, e in enumerate(self.edges) if i not in s])

    def delete_vertices(self, w_set):
        """Remove the vertices in w_set and all incident edges.

        Survivors are relabeled 0..n'-1 preserving their original order.
        """
        w_set = _index_set(w_set, self.n, "vertex")
        keep = [v for v in range(self.n) if v not in w_set]
        relabel = {v: i for i, v in enumerate(keep)}
        edges = [(relabel[u], relabel[v]) for u, v in self.edges
                 if u not in w_set and v not in w_set]
        return Graph(len(keep), edges)

    def induced_subgraph(self, w_set):
        """Subgraph induced on w_set, vertices relabeled in sorted order."""
        return self.delete_vertices(set(range(self.n)) - _index_set(w_set, self.n, "vertex"))

    def degree_sequence(self):
        """(d_1, d_2, ...) where d_i counts vertices of degree i.

        Length is n-1 for simple graphs; extended when multi-edges or
        loops push a degree past n-1.  Degree-0 vertices are not counted.
        """
        degs = self.degrees()
        top = max(self.n - 1, max(degs, default=0))
        counts = Counter(degs)
        return tuple(counts.get(i, 0) for i in range(1, top + 1))


class VertexWeighting(tuple):
    """Nonnegative integer weight per vertex: an immutable tuple of them."""

    __slots__ = ()

    def __new__(cls, weights):
        ws = tuple.__new__(cls, weights)
        for w in ws:
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValueError(f"weights must be nonnegative integers, got {w!r}")
        return ws

    weights = property(tuple)

    @classmethod
    def unit(cls, n):
        return cls((1,) * n)

    def __repr__(self):
        return f"VertexWeighting({list(self)!r})"

    def total(self):
        return sum(self)


def contract_edges(g: Graph, w: VertexWeighting, s):
    """Contract the edges with indices in s; weights add across merges.

    Loop edges in s are simply deleted (weights untouched).  Parallel
    edges and loops *created* by the contraction are kept.  The result
    does not depend on any ordering of s.  The merged classes are the
    components of (V, s), relabeled in order of their smallest vertex.
    """
    s = set(s)  # g.components(s) checks each index
    if not s:
        raise ValueError("contraction set must be nonempty")
    if len(w) != g.n:
        raise ValueError("weighting length does not match vertex count")
    classes = g.components(s)
    label = {v: k for k, comp in enumerate(classes) for v in comp}
    edges = [(label[u], label[v]) for i, (u, v) in enumerate(g.edges) if i not in s]
    weights = [sum(w[v] for v in comp) for comp in classes]
    return Graph(len(classes), edges), VertexWeighting(weights)


class Tree(Graph):
    """n >= 1 vertices and n-1 edges closing no cycle, so connected and simple;
    Tree(n, edges) proves it by union-find, from_levels by depths, and _from_parents's caller."""

    def __init__(self, n, edges=()):
        super().__init__(n, edges)
        if n < 1:
            raise NotATreeError("a tree has at least one vertex")
        if len(self.edges) != n - 1:
            raise NotATreeError(f"tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}")
        parent = list(range(n))  # one union-find pass: an edge that joins nothing closes a cycle
        for i, (u, v) in enumerate(self.edges):
            if not _join(parent, u, v):
                raise NotATreeError(f"edge {i} {self.edges[i]} closes a cycle, so the "
                                    f"{n - 1} edges cannot join all {n} vertices")

    @classmethod
    def from_levels(cls, levels):
        """The tree of a level sequence from outside (preorder depths, the
        root at 1): vertex i hangs from the last vertex one level above it.
        Depths that start at 1 and then stay within 2..(previous depth + 1)
        prove it a tree, so no union-find check runs."""
        if any(type(d) is not int for d in levels):
            raise ValueError(f"depths must be ints, got {list(levels)!r}")
        n = len(levels)
        if not n or levels[0] != 1:
            raise NotATreeError(f"a level sequence starts at depth 1, got {list(levels)!r}")
        parent, last = [-1] * n, [0] * (n + 1)  # last[d]: latest vertex at depth d
        for i in range(1, n):
            d = levels[i]
            if not 2 <= d <= levels[i - 1] + 1:
                raise NotATreeError(f"depth {d} of vertex {i} is not in 2..{levels[i - 1] + 1}")
            parent[i] = last[d - 1]
            last[d] = i
        return cls._from_parents(parent)

    @classmethod
    def _from_parents(cls, parent):
        """The tree with edges (parent[i], i), i >= 1, unchecked: the caller proves
        each parent[i] < i, which joins every vertex to 0 with no cycle."""
        t = cls.__new__(cls)
        t.n, t.edges = len(parent), tuple(zip(parent[1:], range(1, len(parent))))
        return t

    @classmethod
    def from_graph(cls, g: Graph):
        """g itself when it is already a Tree, else g checked as one."""
        return g if isinstance(g, cls) else cls(g.n, g.edges)

    def leaves(self):
        return [v for v, d in enumerate(self.degrees()) if d == 1]


def as_forest(g: Graph) -> Graph:
    """Validate that g is a forest (simple, acyclic); return it unchanged.
    A Tree passed a stricter check when it was built and is not checked again."""
    if not isinstance(g, Tree) and not g.is_forest():
        raise NotATreeError("input must be a forest (simple and acyclic)")
    return g


def rooted_order(adj, root):
    """(order, parent) of the tree around root, walked without recursion.

    order is a preorder of root's component in which each vertex's
    descendants follow it contiguously, and siblings come in the
    iteration order of adj; reversed, it lists every child before its
    parent.  parent[v] is v's parent, -1 for root and outside vertices.
    """
    parent = [-1] * len(adj)
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        kids = [u for u in adj[v] if u != parent[v]]
        for u in kids:
            parent[u] = v
        stack.extend(reversed(kids))
    return order, parent


def enumerate_subtrees(t: Graph):
    """Yield every nonempty vertex set inducing a connected subgraph.

    For a forest these are exactly the subtree vertex sets of its
    components.  Each set is yielded exactly once, as a frozenset.

    Each set grows from its top vertex through that vertex's preorder
    block: a vertex joins only after its parent, and leaving a vertex
    out skips its whole block.  Raises CapacityError, before any set is
    yielded, when the count of sets times n passes SUBTREE_WORK_CAP.
    """
    as_forest(t)
    adj = t.adjacency_sets()
    blocks, count = [], 0
    for comp in t.components():
        order, parent = rooted_order(adj, min(comp))
        size = dict.fromkeys(order, 1)
        tops = dict.fromkeys(order, 1)  # connected sets with v as top vertex
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
            tops[parent[v]] *= 1 + tops[v]
        count += sum(tops.values())
        blocks.append((order, [i + size[v] for i, v in enumerate(order)]))
    if count * t.n > SUBTREE_WORK_CAP:
        raise CapacityError(f"subtree enumeration capped at {SUBTREE_WORK_CAP} "
                            f"(subtree count times n), got {count} subtrees")

    def walk():
        for order, end in blocks:
            for top, v in enumerate(order):
                stack = [(top + 1, (v,))]
                while stack:
                    i, cur = stack.pop()
                    if i == end[top]:
                        yield frozenset(cur)
                        continue
                    stack.append((end[i], cur))  # order[i] left out
                    stack.append((i + 1, cur + (order[i],)))

    return walk()


def trunk(t: Graph):
    """Smallest subtree containing all vertices of degree >= 3, per component.

    Empty frozenset when no such vertex exists (paths); for a spider this
    is the single branch vertex.  Rooted at a branch vertex, a vertex is
    in the trunk iff its subtree holds a branch vertex.
    """
    adj = t.adjacency_sets()
    holds = [d >= 3 for d in t.degrees()]
    for comp in t.components():
        root = next((v for v in comp if holds[v]), None)
        if root is not None:
            order, parent = rooted_order(adj, root)
            for v in reversed(order[1:]):
                holds[parent[v]] |= holds[v]
    return frozenset(v for v in range(t.n) if holds[v])


def twig_sequence(f: Graph):
    """(t_1, t_2, ...): t_i is the number of twigs of length i in a forest.

    Vertices off the trunk have degree <= 2, so each piece the trunk cuts
    off is a path hanging from it by one end edge: a twig, running from a
    leaf to the first vertex of degree >= 3, whose length counts its edges
    and that one.  A bare path component is ONE twig, its edges the length;
    an isolated vertex contributes nothing (there is no length-0 twig).
    """
    as_forest(f)
    core = trunk(f)
    off = [i for i, (u, v) in enumerate(f.edges) if u not in core and v not in core]
    piece = {v: k for k, comp in enumerate(f.components(off)) for v in comp}
    hang = Counter(piece[v if u in core else u] for u, v in f.edges
                   if u not in core or v not in core)  # edges per piece
    counts = Counter(hang.values())
    top = max(counts, default=0)
    return tuple(counts.get(i, 0) for i in range(1, top + 1))


def path_sequence(f: Graph):
    """(s_1, s_2, ...): s_i is the number of vertex pairs at distance i.

    In a forest each pair at finite distance determines a unique path, so
    this counts paths by length.  Trailing zeros are trimmed.  Each
    component is rooted at its smallest vertex, and each pair is counted
    at its top vertex p.  A pair with its two ends under different
    children of p is counted when p merges the depth counts of its
    children, kept deepest first so that p takes over the longer list and
    adds itself at its end.  A pair with p as one end is an ancestor pair:
    a vertex at depth d has one ancestor at each distance 1..d, read off
    the root's depth counts.  Memory is O(n); a merge multiplies list
    lengths no larger than the two sides' vertex counts, so the merges
    take at most C(n, 2) multiply-adds, and paths and stars O(n) time.
    """
    as_forest(f)
    adj = f.adjacency_sets()
    counts = [0] * (f.n + 1)
    for comp in f.components():
        order, parent = rooted_order(adj, min(comp))
        below = {}  # p -> vertices under p by depth below p, deepest (last) first
        for v in reversed(order[1:]):
            lv = below.pop(v, [])
            lv.append(1)  # v, at depth 1 below its parent
            lp = below.setdefault(parent[v], lv)
            if lp is lv:
                continue
            if len(lp) < len(lv):
                lp, lv = lv, lp
                below[parent[v]] = lp
            for a, x in enumerate(reversed(lv), 2):
                for b, y in enumerate(reversed(lp)):
                    counts[a + b] += x * y
            for a in range(1, len(lv) + 1):
                lp[-a] += lv[-a]
        reach = 0
        depths = below.pop(order[0], [])
        for a, x in enumerate(depths):
            reach += x
            counts[len(depths) - a] += reach
    top = max((d for d, c in enumerate(counts) if c), default=0)
    return tuple(counts[1:top + 1])

