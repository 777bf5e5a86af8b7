"""Chromatic symmetric functions in the power-sum basis.

Three independent routes compute the same object:

  * csf_power_sum / csf_weighted: the signed edge-subset expansion
    X = sum over A of E of (-1)^|A| p_pi(A), where pi(A) lists the
    component orders (total component weights, in the weighted case)
    of the spanning subgraph (V, A).
  * csf_deletion_contraction: the weighted recursion
    X(G) = X(G-e) - X(G/e) down to edgeless graphs.
  * csf_forest: product of the component CSFs.

csf_tree is a fourth, tree-only route: a rooted component-splitting DP
that is far faster than the 2^|E| expansion and makes the exhaustive
distinctness verification tractable on one core.  It is cross-checked
against csf_power_sum in the tests.  csf_graph picks the tree DP or the
subset expansion for a multigraph.

The tree DP is one hook on rooted_product_fold, the rooted DP that also
counts the subtrees behind S_T and F_T (invariants.py): each child's
finished state becomes a list of (packed key, count) options, which the
fold merges into its parent's state by adding keys and multiplying
counts.  The fold charges every merge its work before running it, and
TREE_DP_WORK_CAP bounds the sum for all three.

Packed partition keys, shared by the tree DP and the subset expansion:
a multiset of component weights is one int whose field w, b =
n.bit_length() + 1 bits wide, counts the components of weight w.  No
field can exceed the n components of an n-vertex graph, so merging
components is one int addition that never carries between fields.
_decode turns a key into its partition, dropping field 0 (zero-weight
components, or the tree DP's open size, 0 by then).  A tree of order
n <= 31 (b <= 6) decodes through _partition, _decode behind an lru_cache
of 8192 entries (a few MB at most), as its closed keys recur across the trees
of one order; the subset expansion and larger trees call _decode, keeping none.

Subset-expansion strategy (documented choice): a depth-first include /
exclude walk over the edges carrying an incremental union-find with
rollback and the packed key of the current components.  Each root holds
its component's field bit 1 << w * b: a union's bit is one shift of one
root's bit by the other's field offset, and the root with the smaller
bit joins the other.  A frame includes its edge in a nested call, then
excludes it by going on to the next edge; the last edge writes both its
leaves in place.  When an edge's endpoints are already connected, the
walk returns at once: pairing each remaining subset B with B xor {e}
cancels, as e joins nothing but flips the sign.  In any edge order the
leaves are the subsets with no broken circuit (Whitney; Stanley 1995,
Thm 2.9), so acyclic: a leaf's sign (-1)^|A| is read off its key, |A|
being n minus its fields' sum.  Breadth-first order puts an edge that
closes a cycle right after its path, so fewer nodes are walked.  A loop's
endpoints are always connected, so a graph with a loop yields zero.
"""

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter

from .canon import are_isomorphic
from .errors import CapacityError, NotATreeError
from .graphs import (Graph, Tree, VertexWeighting, as_forest, contract_edges, enumerate_subtrees,
                     rooted_order)
from .psym import ONE, PPolynomial, _raw, p_of_partition

SUBSET_LEAF_CAP = 1 << 22
TREE_DP_WORK_CAP = 8_000_000


class CsfResult(tuple):
    """A CSF plus the degree it should be homogeneous of: an immutable (poly, source_order)."""

    __slots__ = ()

    def __new__(cls, poly: PPolynomial, source_order: int):
        if not poly.is_homogeneous(source_order):
            raise ValueError("CSF is not homogeneous of the stated order")
        return tuple.__new__(cls, (poly, source_order))

    poly = property(itemgetter(0))
    source_order = property(itemgetter(1))

    def __getnewargs__(self):  # pickle and copy rebuild through __new__, so check again
        return tuple(self)

    def __repr__(self):
        return f"CsfResult(poly={self.poly!r}, source_order={self.source_order!r})"


def _decode(k, b):
    """The partition of packed key k of field width b, field 0 dropped."""
    lam, k = (), k >> b
    while k:  # peel the highest nonzero field: the largest part left
        f = (k.bit_length() - 1) // b
        m = k >> f * b
        lam += (f + 1,) * m
        k -= m << f * b
    return lam


# the closed keys of the trees of one order come from its p(n) partitions
_partition = lru_cache(maxsize=8192)(_decode)


def _subset_expansion(n, edges, weights):
    """Signed counts {pi(A): sum of (-1)^|A|} over edge subsets A, zero-free.

    The walk carries pi(A) as a packed key and each root the bit 1 << w * b of its weight w;
    a union of roots with bits su and sv adds s - su - sv, s = su << wv * b = 1 << (wu + wv) * b.
    """
    m = len(edges)
    # Frames nest once per included edge; the leaves are written at edge m - 1.  A leaf has no
    # broken circuit, so is acyclic: the acyclic subsets, of at most n - 1 links each, bound them.
    # d nested frames hold d acyclic links, so the charge is at least 2^d: at most 22 frames.
    # A leaf costs 1 + (key bits) // 256 units, a key being (W + 1) * b bits for total weight W
    b = n.bit_length() + 1
    links, leaves, width = sum(u != v for u, v in edges), 0, 1 + (sum(weights) + 1) * b // 256
    for k in range(min(links, n - 1) + 1):
        leaves += comb(links, k) * width
        if leaves > SUBSET_LEAF_CAP:
            raise CapacityError(f"subset expansion capped at {SUBSET_LEAF_CAP} subset units")
    # Edges by (later, earlier) endpoint position in a breadth-first search over
    # the links, one component at a time from its smallest unvisited vertex
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    pos = {}
    for root in range(n):
        queue = [root]
        for u in queue:  # the list grows as the search goes; u's first visit places it
            if u not in pos:
                pos[u] = len(pos)
                queue += adj[u]
    edges = sorted(edges, key=lambda e: sorted((pos[e[0]], pos[e[1]]), reverse=True))
    parent, bit, last = list(range(n)), [1 << w * b for w in weights], m - 1

    def walk(i, key):
        while True:  # include edge i below, then go on excluding it
            ru, rv = edges[i]
            while parent[ru] != ru:
                ru = parent[ru]
            while parent[rv] != rv:
                rv = parent[rv]
            if ru == rv:  # include/exclude of this edge cancel exactly; nothing survives
                return
            su, sv = bit[ru], bit[rv]
            s = su << sv.bit_length() - 1  # the union's bit 1 << (wu + wv) * b
            joined = key + s - su - sv
            if i == last:
                acc[joined] = acc.get(joined, 0) + 1
                acc[key] = acc.get(key, 0) + 1
                return
            if su < sv:  # the root with the smaller bit (lighter) joins the other
                ru, rv, su = rv, ru, sv
            parent[rv], bit[ru] = ru, s
            walk(i + 1, joined)
            parent[rv], bit[ru] = rv, su  # su: the kept root's bit before the union
            i += 1

    key = sum(bit)
    acc = {} if m else {key: 1}  # leaves per key
    if m:
        walk(0, key)
    counts, mask = {}, (1 << b) - 1
    for k, c in acc.items():  # keys that differ only in field 0 share a partition
        lam = _decode(k, b)  # a leaf is acyclic: |A| = n - components, field 0 included
        counts[lam] = counts.get(lam, 0) + (-c if (n - len(lam) - (k & mask)) % 2 else c)
    return {lam: c for lam, c in counts.items() if c}


def csf_power_sum(g: Graph) -> CsfResult:
    """X_G by the edge-subset expansion; zero when g has a loop."""
    acc = _subset_expansion(g.n, g.edges, (1,) * g.n)
    return CsfResult(_raw(acc), g.n)


def csf_weighted(g: Graph, w: VertexWeighting) -> CsfResult:
    """X_(G,w) by the weighted edge-subset expansion (Python API only).

    A component of total weight 0 contributes the part 0, and p_0 = 1,
    so zero parts are dropped from the partition.  The walk's packed keys
    are (W + 1) * b bits wide for total weight W; the subset cap charges it.
    """
    if len(w) != g.n:
        raise ValueError("weighting length does not match vertex count")
    acc = _subset_expansion(g.n, g.edges, w.weights)
    return CsfResult(_raw(acc), w.total())


def _pick_edge(g: Graph):
    # Contracting a non-loop edge drops the vertex count by one; a loop
    # keeps it.  Pick the minimizer, tie-broken by lowest index: the
    # first non-loop edge, else the first loop.
    for i, (u, v) in enumerate(g.edges):
        if u != v:
            return i
    return 0 if g.edges else None


def _edgeless_csf(w: VertexWeighting) -> PPolynomial:
    return p_of_partition(tuple(sorted((x for x in w.weights if x), reverse=True)))


def _deletion_contraction(g: Graph, w: VertexWeighting) -> PPolynomial:
    pick = _pick_edge(g)
    if pick is None:
        return _edgeless_csf(w)
    u, v = g.edges[pick]
    if u == v:
        # G/e = G-e for a loop, so the two branches are equal and cancel
        return PPolynomial()
    gd = g.delete_edges({pick})
    gc, wc = contract_edges(g, w, {pick})
    return _deletion_contraction(gd, w) - _deletion_contraction(gc, wc)


def csf_deletion_contraction(g: Graph, w: VertexWeighting = None) -> CsfResult:
    """X_(G,w) by the deletion-contraction recursion (unit weights if w is None)."""
    if w is None:
        w = VertexWeighting.unit(g.n)
    if len(w) != g.n:
        raise ValueError("weighting length does not match vertex count")
    return CsfResult(_deletion_contraction(g, w), w.total())


def csf_forest(f: Graph) -> CsfResult:
    """X_F as the product of its components' CSFs."""
    as_forest(f)
    poly = ONE
    for comp in f.components():
        poly = poly * csf_power_sum(f.induced_subgraph(comp)).poly
    return CsfResult(poly, f.n)


def rooted_product_fold(t: Graph, seed, options):
    """The root's state of a product fold over a tree rooted at vertex 0.

    A state is a map {packed key: count}; vertex v starts at {seed[v]: 1}.
    In reversed preorder every child's state is finished before its
    parent's, and options(state) turns it into the list of (key, count)
    choices the child offers its parent, merged shortest list first.  The
    merge adds each parent key to each option key and multiplies their
    counts; the callers' keys are nonnegative ints whose fields never
    carry, so an addition merges fields.  Each merge is charged (parent
    keys + 1) x options x (1 + w // 256) units before it runs, w the bit
    length of the widest key it can build (the +1 pays for building the
    options, w for adding wide ints and holding them); CapacityError once
    the sum passes TREE_DP_WORK_CAP.
    """
    order, parent = rooted_order(t.adjacency_sets(), 0)
    offered, work = {}, 0  # offered[p]: the option lists of p's finished children
    for v in reversed(order):
        sv, top = {seed[v]: 1}, seed[v]  # top: the largest key sv can hold
        for opts in sorted(offered.pop(v, ()), key=len):
            top += max(opts)[0]
            work += (len(sv) + 1) * len(opts) * (1 + top.bit_length() // 256)
            if work > TREE_DP_WORK_CAP:
                raise CapacityError(f"tree DP capped at {TREE_DP_WORK_CAP} merge units")
            nxt = {}
            get = nxt.get
            for k1, c1 in sv.items():
                for k2, c2 in opts:
                    k = k1 + k2
                    nxt[k] = get(k, 0) + c1 * c2
            sv = nxt
        if v:  # not the root, vertex 0
            offered.setdefault(parent[v], []).append(options(sv))
    return sv


def _tree_terms(t: Graph):
    """{pi(A): (-1)^|A| |{A}|} over the 2^(n-1) edge subsets of a tree.

    The fold's state at a vertex counts the edge subsets of its subtree
    by (size of the still-open component containing the vertex, multiset
    of completed component sizes).  A state is a packed key (see the
    module docstring) whose field 0 holds the open size instead.  The
    open size plus the closed parts of a subtree's state add up to its
    order, so a merge of two disjoint subtrees never carries.  A child
    edge is either kept (the child's key k as it is) or cut (close(k),
    which moves the open size s into field s); cut keys that coincide are
    summed.  The root's state is closed the same way, which empties field
    0, so each closed key k is one partition: one pass decodes it and signs
    its count by (-1)^|A|, |A| = n - l, l = k % mask (its fields add to l <= n < mask).
    """
    n = t.n
    b = n.bit_length() + 1
    mask = (1 << b) - 1

    def close(keys):
        out = {}
        for k, c in keys.items():
            s = k & mask
            k += (1 << s * b) - s
            out[k] = out.get(k, 0) + c
        return out

    def keep_or_cut(keys):
        return [*keys.items(), *close(keys).items()]

    root = close(rooted_product_fold(t, [1] * n, keep_or_cut))
    decode = _partition if b <= 6 else _decode
    return {decode(k, b): -c if (n - k % mask) % 2 else c for k, c in root.items()}


def csf_tree(t: Graph) -> CsfResult:
    """X_T for a tree, by the rooted component-splitting DP."""
    t = Tree.from_graph(t)
    return CsfResult(_raw(_tree_terms(t)), t.n)


def csf_graph(g: Graph):
    """(X_G, route name) by the cheapest exact route.

    A loop leaves no proper colouring, so X_G is zero ("loop").  Parallel
    edges force the same inequality and collapse to one.  A tree takes the
    tree DP ("tree-dp"); any other graph, a forest too, takes the subset
    expansion over the collapsed edges ("subset-expansion").
    """
    if g.has_loop():
        return CsfResult(PPolynomial(), g.n), "loop"
    simple = Graph(g.n, dict.fromkeys((min(e), max(e)) for e in g.edges))
    try:
        t = Tree.from_graph(simple)
    except NotATreeError:
        return csf_power_sum(simple), "subset-expansion"
    return csf_tree(t), "tree-dp"


def level_sum(x: CsfResult, k: int):
    """Sum of c_lambda over partitions with exactly k parts."""
    return sum(c for lam, c in x.poly.terms.items() if len(lam) == k)


def forest_level_value(n: int, j: int, k: int) -> int:
    """The closed form (-1)^(n-k) C(n-j, k-j) the level sum must equal
    for an n-vertex forest with j components (0 when k < j)."""
    if k < j:
        return 0
    val = comb(n - j, k - j)
    return val if (n - k) % 2 == 0 else -val


def subtree_derivative(f: Graph, j: int) -> PPolynomial:
    """(-1)^(j-1) sum of X_(F - V(H)) over j-vertex subtrees H of the forest F.

    Equals the formal partial derivative of X_F with respect to p_j.
    """
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError("j must be a positive integer")
    total = PPolynomial()  # enumerate_subtrees checks that f is a forest
    for w_set in enumerate_subtrees(f):
        if len(w_set) == j:
            total = total + csf_power_sum(f.delete_vertices(w_set)).poly
    return total if j % 2 == 1 else -total


def inclusion_exclusion_rhs(g: Graph, w: VertexWeighting, s) -> PPolynomial:
    """The right side of the inclusion-exclusion identity over a nonempty
    edge set S: sum over nonempty I subset S of (-1)^(|I|-1) X_(G-I, w),
    plus (-1)^|S| X_(G/S, w_{G/S}).  Equals X_(G,w)."""
    s = sorted(set(s))
    if not s:
        raise ValueError("S must be a nonempty set of edge indices")
    gc, wc = contract_edges(g, w, set(s))
    term = csf_weighted(gc, wc).poly
    return _deletion_sum(g, w, s) + (term if len(s) % 2 == 0 else -term)


def _deletion_sum(g: Graph, w: VertexWeighting, s) -> PPolynomial:
    """Sum over nonempty I subset S of (-1)^(|I|-1) X_(G-I, w)."""
    total = PPolynomial()
    for r in range(1, len(s) + 1):
        for subset in combinations(s, r):
            term = csf_weighted(g.delete_edges(subset), w).poly
            total = total + (term if r % 2 == 1 else -term)
    return total


def corollary_difference(g: Graph, s, h: Graph, t):
    """Both sides of the contraction-elimination identity.

    lhs = X_G - X_H; rhs = the deletion inclusion-exclusion sum over S
    minus the one over T.  Requires the unit-weighted contractions G/S
    and H/T to be isomorphic as weighted graphs, which makes the two
    contraction terms equal.  lhs = rhs then needs those terms to carry
    the same sign: for acyclic S and T the isomorphism already forces
    |S| = |T| (both equal the drop in vertex count), and when the common
    contraction has a loop both terms vanish; outside those cases a
    parity mismatch (-1)^|S| != (-1)^|T| leaves the sides differing by
    twice the contraction term.
    """
    s, t = sorted(set(s)), sorted(set(t))
    if not s or not t:
        raise ValueError("S and T must be nonempty edge-index sets")
    if not g.is_simple() or not h.is_simple():
        raise ValueError("the identity is stated for simple graphs")
    gc, gw = contract_edges(g, VertexWeighting.unit(g.n), set(s))
    hc, hw = contract_edges(h, VertexWeighting.unit(h.n), set(t))
    if not are_isomorphic(gc, hc, gw.weights, hw.weights):
        raise ValueError("precondition failed: G/S and H/T are not isomorphic as weighted graphs")
    lhs = csf_power_sum(g).poly - csf_power_sum(h).poly
    unit = VertexWeighting.unit
    rhs = _deletion_sum(g, unit(g.n), s) - _deletion_sum(h, unit(h.n), t)
    return lhs, rhs
