import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from csfkit import (
    CapacityError,
    CsfResult,
    Graph,
    NotATreeError,
    PPolynomial,
    Tree,
    VertexWeighting,
    corollary_difference,
    csf_deletion_contraction,
    csf_forest,
    csf_graph,
    csf_power_sum,
    csf_tree,
    csf_weighted,
    enumerate_trees,
    enumerate_unicyclic,
    forest_level_value,
    inclusion_exclusion_rhs,
    level_sum,
    subtree_derivative,
)
from csfkit.csf import _partition, _tree_terms
from csfkit.partitions import partitions
from csfkit.verify import _weighted_instances
from helpers import random_permutation, random_tree, random_weighted_multigraph

P3 = Graph(3, [(0, 1), (1, 2)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def poly(d):
    return PPolynomial(d)


def test_hand_values_unit_weights():
    assert csf_power_sum(Graph(1)).poly == poly({(1,): 1})
    assert csf_power_sum(Graph(2, [(0, 1)])).poly == poly({(1, 1): 1, (2,): -1})
    # expansion over edge subsets, worked by hand
    assert csf_power_sum(P3).poly == poly({(1, 1, 1): 1, (2, 1): -2, (3,): 1})
    assert csf_power_sum(K3).poly == poly({(1, 1, 1): 1, (2, 1): -3, (3,): 2})
    assert csf_power_sum(C4).poly == poly(
        {(1, 1, 1, 1): 1, (2, 1, 1): -4, (3, 1): 4, (2, 2): 2, (4,): -3})


def test_csf_result_is_an_immutable_value():
    x = poly({(2,): -1, (1, 1): 1})
    a = CsfResult(x, 2)
    b = CsfResult(poly({(1, 1): 1, (2,): -1}), 2)
    assert a == b and hash(a) == hash(b) == hash((x, 2))
    assert a != CsfResult(x.scale(2), 2) and a != x
    # the zero polynomial is homogeneous of every degree, so the order tells them apart
    assert CsfResult(PPolynomial(), 2) != CsfResult(PPolynomial(), 3)
    assert repr(a) == "CsfResult(poly=PPolynomial(-1*p(2,) + 1*p(1,1)), source_order=2)"
    with pytest.raises(AttributeError):
        a.poly = PPolynomial()
    with pytest.raises(AttributeError):
        a.label = "P2"
    with pytest.raises(AttributeError):
        del a.source_order
    assert a.poly is x and a.source_order == 2
    with pytest.raises(ValueError, match="not homogeneous"):
        CsfResult(poly({(2,): 1, (1,): 1}), 2)
    with pytest.raises(ValueError, match="not homogeneous"):
        CsfResult(x, 3)


def test_loop_annihilates():
    looped = Graph(3, [(0, 1), (1, 2), (2, 2)])
    assert csf_power_sum(looped).poly == PPolynomial()
    assert csf_deletion_contraction(looped).poly == PPolynomial()
    # even when the loop sits in a separate component
    g = Graph(3, [(0, 1), (2, 2)])
    assert csf_power_sum(g).poly == PPolynomial()


def test_hand_values_weighted():
    g = Graph(2, [(0, 1)])
    assert csf_weighted(g, VertexWeighting((2, 1))).poly == poly({(2, 1): 1, (3,): -1})
    # zero-weight middle vertex of a 3-path, worked by hand
    assert csf_weighted(P3, VertexWeighting((1, 0, 2))).poly == poly({(2, 1): -1, (3,): 1})
    # all-zero weights: X is the empty product, 1
    assert csf_weighted(Graph(2), VertexWeighting((0, 0))).poly == poly({(): 1})


def test_weight_length_validated():
    with pytest.raises(ValueError):
        csf_weighted(P3, VertexWeighting((1, 1)))


def test_multi_edge_collapses_to_single():
    # parallel edges force the same inequality, so X is unchanged
    single = Graph(2, [(0, 1)])
    double = Graph(2, [(0, 1), (0, 1)])
    assert csf_power_sum(double).poly == csf_power_sum(single).poly
    assert csf_deletion_contraction(double).poly == csf_power_sum(single).poly


def test_route_equality_all_trees():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            a = csf_power_sum(t).poly
            assert csf_deletion_contraction(t).poly == a
            assert csf_forest(t).poly == a
            assert csf_tree(t).poly == a


def relabelled_random_tree(rng, lo, hi):
    # enumerated trees are rooted at vertex 0 with parents numbered first;
    # relabelled trees with shuffled, flipped edges are not
    t = random_tree(rng, rng.randint(lo, hi))
    perm = random_permutation(rng, t.n)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in t.edges]
    rng.shuffle(edges)
    return Tree(t.n, edges)


def test_tree_route_on_random_labellings():
    rng = random.Random(2023)
    for _ in range(150):
        t = relabelled_random_tree(rng, 1, 12)
        assert csf_tree(t).poly == csf_power_sum(t).poly


def test_tree_route_on_larger_random_labellings():
    rng = random.Random(2024)
    for _ in range(100):
        t = relabelled_random_tree(rng, 12, 16)
        assert csf_tree(t).poly == csf_power_sum(t).poly


def path(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def broom(n, k):
    """A k-vertex path whose last vertex carries n - k leaves."""
    return Tree(n, [(i, i + 1) for i in range(k - 1)] + [(k - 1, i) for i in range(k, n)])


# the tree DP packs fields of n.bit_length() + 1 bits: the width steps
# up between 15 and 16, 31 and 32, 63 and 64
FIELD_WIDTH_ORDERS = (15, 16, 17, 31, 32, 33, 63, 64, 65)


@pytest.mark.parametrize("n", FIELD_WIDTH_ORDERS)
def test_tree_dp_star_closed_form_at_field_width_steps(n):
    # keeping k of the n - 1 edges leaves one (k + 1)-part and n - 1 - k ones
    expect = poly({(k + 1,) + (1,) * (n - 1 - k): (-1) ** k * comb(n - 1, k) for k in range(n)})
    # rooted at the centre, and at a leaf whose one child is the centre
    assert csf_tree(Tree(n, [(0, i) for i in range(1, n)])).poly == expect
    assert csf_tree(Tree(n, [(n - 1, i) for i in range(n - 1)])).poly == expect


@pytest.mark.parametrize("n", FIELD_WIDTH_ORDERS)
def test_tree_dp_level_sums_at_field_width_steps(n):
    # a path past 44 vertices passes the DP cap; the broom stands in there
    shapes = [broom(n, 12)]
    if n <= 44:
        shapes.append(path(n))
    for t in shapes:
        x = csf_tree(t)
        for k in range(n + 2):
            assert level_sum(x, k) == forest_level_value(n, 1, k)


def test_tree_dp_cap_stops_between_paths_44_and_45():
    # the fold charges (parent keys + 1) x options x key width: 7,476,048
    # units on path-44, past the 8,000,000 cap on path-45
    assert len(csf_tree(path(44)).poly) == 75_175
    with pytest.raises(CapacityError, match="tree DP capped"):
        csf_tree(path(45))


def test_route_equality_random_weighted_multigraphs():
    rng = random.Random(101)
    for _ in range(200):
        g, w = random_weighted_multigraph(rng)
        assert csf_weighted(g, w).poly == csf_deletion_contraction(g, w).poly


def test_packed_subset_walk_matches_deletion_contraction():
    """The walk's packed key is (W + 1) * b bits wide for total weight W and
    b = n.bit_length() + 1: weights up to 1,000 on at most 6 vertices put
    parts far past the n fields a unit weighting uses."""
    cases = [
        (Graph(0), VertexWeighting(())),
        (Graph(3), VertexWeighting((0, 2, 0))),  # edgeless, zero weights dropped
        (Graph(4), VertexWeighting((0,) * 4)),  # X = 1
        (Graph(4, [(0, 1), (2, 3), (1, 2)]), VertexWeighting((0,) * 4)),  # X = (1 - 1)^3
        (Graph(3, [(0, 1), (1, 2), (1, 1)]), VertexWeighting((1, 0, 2))),  # loop: X = 0
        (Graph(3, [(0, 1), (1, 0), (1, 2)]), VertexWeighting((0, 3, 0))),  # X = 0
        (Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), VertexWeighting((0, 1000, 0, 999))),
    ]
    rng = random.Random(15)
    for _ in range(150):
        n = rng.randint(1, 6)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 7))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 2)))  # parallel edges
        top = rng.choice((3, 1000))
        cases.append((Graph(n, edges), VertexWeighting(
            [rng.choice((0, rng.randint(1, top))) for _ in range(n)])))
    for g, w in cases:
        assert csf_weighted(g, w).poly == csf_deletion_contraction(g, w).poly
    assert [csf_weighted(g, w).poly for g, w in cases[:6]] == [
        poly({(): 1}), poly({(2,): 1}), poly({(): 1}), *[PPolynomial()] * 3]
    assert csf_weighted(*cases[6]).poly == poly({(1000, 999): 1, (1999,): -1})


def test_wide_keys_beside_zero_weights_match_deletion_contraction():
    # weights from {0, 1, 2, 2000} on 2..6 vertices: a 2000 puts keys past 4,096 bits
    # (16 cap units) while zero-weight roots join in field 0; parallel edges, and a loop in one
    # graph of four, which must give zero
    rng = random.Random(29)
    wide = nonzero = 0
    for k in range(400):
        n = rng.randint(2, 6)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 7))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 2)))  # parallel edges
        if k % 4 == 0:
            edges.append((rng.randrange(n),) * 2)
        g, w = Graph(n, edges), VertexWeighting([rng.choice((0, 1, 2, 2000)) for _ in range(n)])
        x = csf_weighted(g, w).poly
        assert x == csf_deletion_contraction(g, w).poly
        assert not (k % 4 == 0 and x)
        if x and 0 in w and (w.total() + 1) * (n.bit_length() + 1) > 4096:
            wide += 1
        nonzero += bool(x)
    assert wide >= 30 and nonzero >= 150, (wide, nonzero)


def acyclic_orientations(g):
    """Brute force over the 2^m orientations; a loop is a directed cycle."""
    count = 0
    for mask in range(1 << len(g.edges)):
        arcs = [(v, u) if mask >> k & 1 else (u, v) for k, (u, v) in enumerate(g.edges)]
        indeg = [0] * g.n
        for _, v in arcs:
            indeg[v] += 1
        sources = [v for v in range(g.n) if not indeg[v]]
        for u in sources:  # Kahn's peeling reaches every vertex iff no arc lies on a cycle
            for a, v in arcs:
                if a == u:
                    indeg[v] -= 1
                    if not indeg[v]:
                        sources.append(v)
        count += len(sources) == g.n
    return count


def test_subset_walk_counts_acyclic_orientations():
    """The chromatic polynomial is chi_G(k) = sum of c_lambda k^l(lambda), and
    c_lambda has the sign (-1)^(n - l(lambda)), so the sum of |c_lambda| is
    (-1)^n chi_G(-1), Stanley's count of acyclic orientations.  The edge
    order the walk is given must not matter."""
    def complete(n):
        return Graph(n, [(u, v) for v in range(n) for u in range(v)])

    graphs = [g for n in range(3, 8) for g in enumerate_unicyclic(n)]
    graphs += [complete(4), complete(5)]
    graphs += [C4, Graph(4, [*C4.edges, (1, 0)]), Graph(4, [*C4.edges, (2, 2)])]
    for g in graphs:
        for edges in (g.edges, g.edges[::-1]):
            h = Graph(g.n, edges)
            total = sum(abs(c) for c in csf_power_sum(h).poly.terms.values())
            assert total == acyclic_orientations(h), h.edges
    assert acyclic_orientations(complete(4)) == 24
    assert acyclic_orientations(graphs[-2]) == acyclic_orientations(C4) == 14
    assert acyclic_orientations(graphs[-1]) == 0


def test_subset_cap_charges_at_least_the_walk_leaves():
    """The walk's leaves are the broken-circuit-free subsets, the sum of |c_lambda|
    of them (above).  Each is acyclic, so the count the cap charges, the subsets
    of at most n - 1 of the m' links, bounds them."""
    def complete(n):
        return Graph(n, [(u, v) for v in range(n) for u in range(v)])

    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                     + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])
    graphs = [g for n in range(3, 8) for g in enumerate_unicyclic(n)]
    graphs += [complete(4), complete(5), complete(6), petersen]
    graphs += [g for g, _ in _weighted_instances() if g.is_simple()]
    counts = []
    for g in graphs:
        links = sum(u != v for u, v in g.edges)
        charged = sum(comb(links, k) for k in range(min(links, g.n - 1) + 1))
        leaves = sum(abs(c) for c in csf_power_sum(g).poly.terms.values())
        assert leaves <= charged, g.edges
        counts.append((leaves, charged))
    assert len(graphs) == 54 + 4 + 2
    # K4, K5 and K6 have n! leaves; the Petersen graph has 16,680 acyclic orientations
    assert counts[-6:-2] == [(24, 42), (120, 386), (720, 4944), (16680, 27824)]


def test_trusted_term_maps_are_canonical():
    # csf_tree, csf_power_sum and csf_weighted build their polynomials
    # unvalidated; the validating constructor must find nothing to change
    results = [csf_tree(t) for n in range(1, 10) for t in enumerate_trees(n)]
    rng = random.Random(16)
    for _ in range(200):
        g, w = random_weighted_multigraph(rng)
        results += [csf_power_sum(g), csf_weighted(g, w), csf_graph(g)[0]]
    for x in results:
        assert PPolynomial(dict(x.poly.terms)) == x.poly
        assert 0 not in x.poly.terms.values()
    assert sum(not x.poly for x in results) > 50  # loops: the empty map


def test_forest_route_factorizes():
    f = Graph(5, [(0, 1), (1, 2), (3, 4)])
    prod = csf_power_sum(Graph(3, [(0, 1), (1, 2)])).poly * csf_power_sum(
        Graph(2, [(0, 1)])).poly
    assert csf_forest(f).poly == prod
    assert csf_power_sum(f).poly == prod


def test_homogeneity_and_source_order():
    # the result is homogeneous of the total weight
    res = csf_weighted(P3, VertexWeighting((2, 3, 1)))
    assert res.source_order == 6
    assert res.poly.is_homogeneous(6)
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert csf_tree(t).poly.is_homogeneous(n)


def test_tree_partition_counts_sum():
    # the signless expansion has exactly 2^(n-1) spanning forests
    rng = random.Random(55)
    for _ in range(20):
        t = random_tree(rng, rng.randint(1, 12))
        terms = _tree_terms(t)
        assert sum(map(abs, terms.values())) == 2 ** (t.n - 1)
        # (-1)^|A| with |A| = n - l(pi(A)), every count nonzero
        assert all(c * (-1) ** (t.n - len(lam)) > 0 for lam, c in terms.items())


def test_tree_route_rejects_non_trees():
    with pytest.raises(NotATreeError):
        csf_tree(K3)
    with pytest.raises(NotATreeError):
        csf_tree(Graph(3, [(0, 1)]))


def test_coefficient_and_level_sum():
    x = csf_power_sum(P3)
    assert x.poly.coefficient((2, 1)) == -2
    assert x.poly.coefficient((3,)) == 1
    assert x.poly.coefficient((1, 1)) == 0
    assert level_sum(x, 3) == 1
    assert level_sum(x, 2) == -2
    assert level_sum(x, 1) == 1


def test_level_sums_match_closed_form():
    rng = random.Random(77)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 10))
        kill = [i for i in range(t.n - 1) if rng.random() < 0.3]
        f = t.delete_edges(kill)
        x = csf_forest(f)
        j = len(f.components())
        for k in range(0, f.n + 2):
            assert level_sum(x, k) == forest_level_value(f.n, j, k)


def test_forest_level_value_cases():
    assert forest_level_value(5, 1, 1) == 1  # (-1)^(n-k) C(n-j, k-j)
    assert forest_level_value(5, 1, 2) == -4
    assert forest_level_value(5, 2, 1) == 0
    assert forest_level_value(4, 4, 4) == 1  # edgeless


def test_subtree_derivative_matches_formal_derivative():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            x = csf_tree(t).poly
            for j in range(1, n + 1):
                assert subtree_derivative(t, j) == x.partial_derivative(j)
    # and on a disconnected forest
    f = Graph(5, [(0, 1), (1, 2), (3, 4)])
    x = csf_forest(f).poly
    for j in range(1, 6):
        assert subtree_derivative(f, j) == x.partial_derivative(j)


def test_subtree_derivative_hand():
    # P_3, j = 2: the two edges are the 2-vertex subtrees; deleting either
    # leaves a single vertex, so the sum is -2 p_1
    assert subtree_derivative(P3, 2) == poly({(1,): -2})


def test_inclusion_exclusion_identity():
    rng = random.Random(303)
    checked = 0
    while checked < 100:
        g, w = random_weighted_multigraph(rng, max_n=6)
        if not g.edges:
            continue
        size = rng.randint(1, len(g.edges))
        s = set(rng.sample(range(len(g.edges)), size))
        assert inclusion_exclusion_rhs(g, w, s) == csf_weighted(g, w).poly
        checked += 1


def test_inclusion_exclusion_rejects_empty_s():
    with pytest.raises(ValueError):
        inclusion_exclusion_rhs(P3, VertexWeighting.unit(3), set())


def test_identities_refuse_edge_indices_out_of_range():
    # as list indices, -1 and 2 would contract P3's edge 1 or fail late; both are refused first
    with pytest.raises(ValueError, match="edge -1 is not an int"):
        inclusion_exclusion_rhs(P3, VertexWeighting.unit(3), {-1})
    with pytest.raises(ValueError, match="edge 2 is not an int"):
        corollary_difference(P3, {2}, P3, {0})


def test_corollary_difference_acyclic():
    # P_5 with an interior edge contracted and the (2,1,1)-spider with an
    # outer leg edge contracted both give a 4-path with a weight-2 vertex
    # next to an end
    p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    spider = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    lhs, rhs = corollary_difference(p5, {1}, spider, {3})
    assert lhs == csf_power_sum(p5).poly - csf_power_sum(spider).poly
    assert lhs == rhs
    # a two-edge acyclic contraction: both collapse to a 3-path with one
    # weight-3 end
    lhs2, rhs2 = corollary_difference(p5, {0, 1}, spider, {2, 3})
    assert lhs2 == rhs2


def test_corollary_difference_checks_isomorphism():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = Graph(4, [(0, 1), (0, 2), (0, 3)])
    # contracting different-shape sets must be rejected
    with pytest.raises(ValueError):
        corollary_difference(g, {0}, h, {0, 1})


def test_corollary_parity_defect():
    # S = all of K_3, T = both edges of P_3: the contractions are the same
    # weighted point, but |S| and |T| have opposite parity, so the sides
    # differ by exactly twice the contraction term
    lhs, rhs = corollary_difference(K3, {0, 1, 2}, P3, {0, 1})
    assert lhs != rhs
    assert lhs - rhs == poly({(3,): -2})


def test_subset_cap_bounds_acyclic_subsets():
    # a 40-vertex path has 2^39 acyclic edge subsets: refused before the walk
    with pytest.raises(CapacityError):
        csf_power_sum(Graph(40, [(i, i + 1) for i in range(39)]))
    # 65 parallel edges on 2 vertices have 66: computed at once
    assert csf_power_sum(Graph(2, [(0, 1)] * 65)).poly == poly({(1, 1): 1, (2,): -1})
    # frames nest once per included edge, not once per edge: 5,000 parallel
    # edges include at most one at a time, and answer at once
    assert csf_power_sum(Graph(2, [(0, 1)] * 5000)).poly == poly({(1, 1): 1, (2,): -1})


def test_subset_cap_charges_the_key_width():
    # a packed key is (W + 1) * b bits wide for total weight W, and each
    # acyclic subset costs 1 + key bits // 256: the 4-cycle weighted
    # (W, 1, W, 2) has 15 acyclic subsets, refused at W = 10^7 before the walk
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(CapacityError, match="subset expansion capped"):
        csf_weighted(c4, VertexWeighting((10**7, 1, 10**7, 2)))
    w = VertexWeighting((10**6, 1, 10**6, 2))
    assert csf_weighted(c4, w).poly == csf_deletion_contraction(c4, w).poly


def test_subset_walk_holds_nothing_sized_by_the_total_weight():
    # keys here are (W + 1) * b = 40,016 bits wide; a table of 1 << w * b for
    # every w <= W = 10,003 would take about 25 MB, the walk's own keys a few KB
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    w = VertexWeighting((5000, 1, 5000, 2))
    tracemalloc.start()
    try:
        x = csf_weighted(c4, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    assert x.poly == csf_deletion_contraction(c4, w).poly


def test_subset_walk_matches_the_tree_dp_on_orders_9_to_11():
    trees = [t for n in range(9, 12) for t in enumerate_trees(n)]
    assert len(trees) == 47 + 106 + 235
    for t in trees:
        assert csf_power_sum(t) == csf_tree(t), t.edges


def test_subset_walk_ignores_edge_order_and_labels():
    """7- and 8-vertex multigraphs with up to 12 links, parallel edges and zero
    weights: the walk's edge order and union choices depend on the order the
    edges come in and on the vertex labels, its result must not."""
    rng = random.Random(25)
    for _ in range(80):
        n = rng.randint(7, 8)
        edges = [(rng.randrange(v), v) for v in range(1, n)]  # a spanning tree
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 11 - len(edges)))]
        edges.append(rng.choice(edges))  # at least one parallel pair
        weights = [rng.choice((0, 1, 1, 2, 3)) for _ in range(n)]
        want = csf_deletion_contraction(Graph(n, edges), VertexWeighting(weights)).poly
        perm = random_permutation(rng, n)
        shuffled = rng.sample(edges, len(edges))
        relabelled = [(perm[u], perm[v]) for u, v in shuffled]
        moved = [0] * n
        for v, x in enumerate(weights):
            moved[perm[v]] = x
        for es, ws in ((edges, weights), (edges[::-1], weights), (shuffled, weights),
                       (relabelled, moved)):
            assert csf_weighted(Graph(n, es), VertexWeighting(ws)).poly == want, (es, ws)


def test_graph_route_decides_a_loop_at_once():
    # 600 edges pass the subset walk's depth cap; the loop alone gives X = 0
    res, route = csf_graph(Graph(600, [(i, i + 1) for i in range(599)] + [(7, 7)]))
    assert route == "loop"
    assert res.poly == PPolynomial() and res.source_order == 600


def test_graph_route_collapses_parallel_edges():
    res, route = csf_graph(Graph(2, [(1, 0)] * 1200))
    assert route == "tree-dp"
    assert res.poly == poly({(1, 1): 1, (2,): -1})


def test_graph_route_stops_large_trees_on_the_dp_cap():
    # a 501-vertex broom (a 50-vertex path ending in 451 leaves) has few
    # states per vertex, but its keys grow to hundreds of fields up the
    # handle; the cap charges their width and stops it early
    with pytest.raises(CapacityError, match="tree DP capped"):
        csf_graph(broom(501, 50))
    res, route = csf_graph(Graph(64, [(0, i) for i in range(1, 64)]))
    assert route == "tree-dp" and len(res.poly) == 64


def test_deletion_contraction_weighted_hand():
    # single edge, weights (2,1): X = p_2 p_1 - p_3 via the recurrence
    g = Graph(2, [(0, 1)])
    res = csf_deletion_contraction(g, VertexWeighting((2, 1)))
    assert res.poly == poly({(2, 1): 1, (3,): -1})


def test_fraction_scalars_stay_exact():
    x = csf_power_sum(C4).poly
    assert (x.scale(Fraction(1, 3)) * 3) == x


def packed(lam, b):
    return sum(1 << part * b for part in lam)


def test_partition_decode_is_the_same_cold_and_warm():
    # every partition of n <= 16, packed at its width; a field-0 count is dropped
    for warm in (False, True):
        for n in range(1, 17):
            b = n.bit_length() + 1
            for lam in partitions(n):
                if not warm:
                    _partition.cache_clear()
                assert _partition(packed(lam, b), b) == lam
                assert _partition(packed(lam, b) + 3, b) == lam
    assert _partition.cache_info().hits > 0


def test_memo_leaves_every_csf_unchanged():
    def trees(clear):
        out = []
        for t in (t for n in range(1, 11) for t in enumerate_trees(n)):
            clear()
            out.append(csf_tree(t))
        return out

    cold = trees(_partition.cache_clear)
    assert trees(lambda: None) == cold
    assert len(cold) == 201


def test_wide_keys_bypass_the_memo():
    # the subset expansion's keys grow with the total weight, and a tree past
    # order 31 has wider fields: both decode without keeping anything
    csf_tree(P3)
    before = _partition.cache_info().currsize
    for g, w in _weighted_instances():  # zero weights put counts in field 0
        assert csf_weighted(g, w).poly == csf_deletion_contraction(g, w).poly
        csf_power_sum(g)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(csf_weighted(c4, VertexWeighting((10**5, 1, 10**5, 2))).poly) > 0
    assert len(csf_tree(Tree(200, [(0, i) for i in range(1, 200)])).poly) == 200
    assert _partition.cache_info().currsize == before


def test_memo_stays_within_its_bound():
    _partition.cache_clear()
    path30 = csf_tree(Tree(30, [(i, i + 1) for i in range(29)]))
    assert len(path30.poly) == 5604
    info = _partition.cache_info()
    assert info.maxsize == 8192 and info.currsize <= info.maxsize
    # the 6,842 partitions of 31 do not all fit next to those of 30: the oldest go
    assert len(csf_tree(Tree(31, [(i, i + 1) for i in range(30)])).poly) == 6842
    assert _partition.cache_info().currsize == 8192
    assert csf_tree(Tree(30, [(i, i + 1) for i in range(29)])) == path30
