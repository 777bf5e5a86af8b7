import copy
import inspect
import pickle
import random
import re
import sys
from collections import Counter
from itertools import combinations, islice

import pytest

from csfkit import (
    CapacityError,
    Graph,
    NotATreeError,
    Tree,
    VertexWeighting,
    are_isomorphic,
    contract_edges,
    csf_tree,
    enumerate_subtrees,
    enumerate_trees,
    f_polynomial_direct,
    f_polynomial_dp,
    path_sequence,
    subtree_polynomial,
    subtree_polynomial_dp,
    trunk,
    twig_sequence,
)
from csfkit.graphs import as_forest
from helpers import (
    boundary_and_interior,
    contract_by_own_union_find,
    prufer_tree,
    random_tree,
    random_weighted_multigraph,
    tree_distance_pairs,
    twig_sequence_by_leaf_walk,
)

P4 = Tree(4, [(0, 1), (1, 2), (2, 3)])
STAR4 = Tree(4, [(0, 1), (0, 2), (0, 3)])


def brute_subtrees(t: Graph):
    found = set()
    for r in range(1, t.n + 1):
        for subset in combinations(range(t.n), r):
            sub = t.induced_subgraph(subset)
            if sub.is_connected() and sub.is_forest():
                found.add(frozenset(subset))
    return found


def test_graph_basics():
    g = Graph(3, [(0, 1), (1, 2), (1, 1)])
    assert g.m == 3
    assert g.has_loop()
    assert not g.is_simple()
    assert g.degrees() == [1, 4, 1]  # a loop adds 2
    assert Graph(2, [(0, 1), (1, 0)]).m == 2
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1)


@pytest.mark.parametrize("edge", [(0, 1.0), (1.0, 0), (True, 0), (0, False), ("0", 1)])
def test_endpoints_refuse_bools_and_non_ints(edge):
    for cls in (Graph, Tree):
        with pytest.raises(ValueError, match="is not a pair of ints in 0..1"):
            cls(2, [edge])


def test_equality_ignores_edge_order_and_direction():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(2, 1), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])


def test_components():
    g = Graph(5, [(0, 1), (3, 4)])
    comps = g.components()
    assert set(comps) == {frozenset({0, 1}), frozenset({2}), frozenset({3, 4})}
    # restricted to an edge subset
    comps2 = g.components(edge_subset=[1])
    assert frozenset({0}) in comps2 and frozenset({3, 4}) in comps2


def test_forest_and_connected():
    assert P4.is_connected() and P4.is_forest()
    assert not Graph(3, [(0, 1), (1, 2), (0, 2)]).is_forest()
    assert not Graph(2, [(0, 0)]).is_forest()  # loop is a cycle
    assert Graph(1).is_connected()


def test_delete_vertices_relabels_in_order():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    h = g.delete_vertices({1})
    # survivors 0,2,3,4 become 0,1,2,3
    assert h == Graph(4, [(1, 2), (2, 3)])


def test_degree_sequence():
    assert tuple(P4.degree_sequence()) == (2, 2, 0)
    assert tuple(STAR4.degree_sequence()) == (3, 0, 1)
    # multigraph degree can exceed n-1
    g = Graph(2, [(0, 1), (0, 1), (0, 0)])
    assert tuple(g.degree_sequence()) == (0, 1, 0, 1)


def test_boundary_and_interior():
    e, d = boundary_and_interior(P4, {1, 2})
    assert (e, d) == (1, 2)
    e, d = boundary_and_interior(STAR4, {0})
    assert (e, d) == (0, 3)


def test_vertex_weighting():
    w = VertexWeighting((2, 0, 1))
    assert w.total() == 3
    assert w[1] == 0
    assert VertexWeighting.unit(3) == VertexWeighting((1, 1, 1))
    with pytest.raises(ValueError):
        VertexWeighting((1, -1))


def test_vertex_weighting_is_an_immutable_tuple_that_pickles():
    _, contracted = contract_edges(Graph(3, [(0, 1), (1, 2)]), VertexWeighting((2, 0, 1)), {0})
    assert contracted == (2, 1)
    for value in (VertexWeighting((2, 0, 1)), contracted):
        assert hash(value) == hash(tuple(value)) and value.weights == tuple(value)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value and type(twin) is VertexWeighting
    with pytest.raises(AttributeError):
        contracted.weights = (1, 1)
    with pytest.raises(ValueError, match="got True"):
        VertexWeighting((1, True))


def test_tree_validation():
    with pytest.raises(NotATreeError):
        Tree(3, [(0, 1)])
    with pytest.raises(NotATreeError):
        Tree(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotATreeError):
        Tree.from_graph(Graph(2, [(0, 1), (0, 1)]))
    assert Tree.from_graph(Graph(2, [(0, 1)])).leaves() == [0, 1]


@pytest.mark.parametrize("levels", [[True, 2], [1, True], [1, 2.0], [1.0], [1, "2"]])
def test_from_levels_refuses_depths_that_are_not_ints(levels):
    with pytest.raises(ValueError, match="depths must be ints"):
        Tree.from_levels(levels)


@pytest.mark.parametrize("levels", [[], [2], [1, 1], [1, 3], [1, 2, 4]])
def test_from_levels_refuses_a_sequence_that_is_not_a_tree(levels):
    with pytest.raises(NotATreeError):
        Tree.from_levels(levels)


@pytest.mark.parametrize("levels, edges", [
    ([1], ()),
    ([1, 2], ((0, 1),)),
    ([1, 2, 3, 2], ((0, 1), (1, 2), (0, 3))),
])
def test_from_levels_hangs_each_vertex_from_the_last_one_level_up(levels, edges):
    t = Tree.from_levels(levels)
    assert isinstance(t, Tree) and t.n == len(levels) and t.edges == edges


@pytest.mark.parametrize("n, edges, named", [
    (3, [(0, 1), (2, 2)], "edge 1 (2, 2)"),  # a loop
    (3, [(0, 1), (1, 0)], "edge 1 (1, 0)"),  # a repeated pair
    (4, [(0, 1), (1, 2), (2, 0)], "edge 2 (2, 0)"),  # a triangle beside an isolated vertex
])
def test_tree_error_names_the_edge_that_closes_a_cycle(n, edges, named):
    with pytest.raises(NotATreeError, match=re.escape(named) + " closes a cycle"):
        Tree(n, edges)


def _seeded_multigraphs():
    rng = random.Random(3)
    return [random_weighted_multigraph(rng) for _ in range(500)]


def test_is_forest_is_simple_and_one_component_per_missing_edge():
    # the definition is_forest had before its one pass: simple, and m + c = n
    for g, _ in _seeded_multigraphs():
        assert g.is_forest() == (g.is_simple() and g.m + len(g.components()) == g.n), g


def test_contraction_classes_are_components():
    for g, w in _seeded_multigraphs():
        for r in range(1, 4):
            for s in combinations(range(g.m), r):
                gc, wc = contract_edges(g, w, s)
                oc, ow = contract_by_own_union_find(g, w, s)
                assert (gc.n, gc.edges, wc) == (oc.n, oc.edges, ow), (g, s)


def test_twigs_hang_off_the_trunk():
    trees = [t for n in range(1, 11) for t in enumerate_trees(n)]
    small = [t for t in trees if t.n <= 6]
    # every two-component forest of trees n <= 6, b's vertices shifted past a's
    forests = trees + [Graph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])
                       for a in small for b in small]
    for f in forests:
        assert twig_sequence(f) == twig_sequence_by_leaf_walk(f), f


def test_a_tree_is_its_own_proof():
    # a Tree is handed back as is; a plain Graph that is a tree is checked
    t = Tree.from_graph(Graph(4, P4.edges))
    assert type(t) is Tree and t == P4
    assert Tree.from_graph(t) is t and as_forest(t) is t
    forest = Graph(3, [(0, 1)])
    assert as_forest(forest) is forest
    tree_only = (csf_tree, subtree_polynomial, f_polynomial_direct, subtree_polynomial_dp,
                 f_polynomial_dp)
    forest_ok = (path_sequence, twig_sequence, enumerate_subtrees)
    for g in (Graph(3, [(0, 1), (1, 2), (0, 2)]), Graph(3, [(0, 1), (1, 0), (1, 2)]),
              Graph(2, [(0, 1), (1, 1)])):
        for query in tree_only + forest_ok + (as_forest, Tree.from_graph):
            with pytest.raises(NotATreeError):
                query(g)
    for query in tree_only + (Tree.from_graph,):
        with pytest.raises(NotATreeError):
            query(forest)


def test_subtree_enumeration_hand_counts():
    # path: n(n+1)/2 subtrees; star: 2^(n-1) + n - 1
    for n in range(1, 9):
        path = Tree(n, [(i, i + 1) for i in range(n - 1)])
        assert sum(1 for _ in enumerate_subtrees(path)) == n * (n + 1) // 2
        star = Tree(n, [(0, i) for i in range(1, n)])
        expected = 2 ** (n - 1) + n - 1 if n > 1 else 1
        assert sum(1 for _ in enumerate_subtrees(star)) == expected


def test_subtree_enumeration_against_brute_force():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            got = set(enumerate_subtrees(t))
            assert got == brute_subtrees(t)
            assert len(got) == sum(1 for _ in enumerate_subtrees(t))  # no repeats


def test_subtree_enumeration_against_brute_force_on_forests():
    rng = random.Random(17)
    for _ in range(40):
        edges, n = [], 0
        for size in [rng.randint(1, 5) for _ in range(rng.randint(2, 3))]:
            edges += [(u + n, v + n) for u, v in random_tree(rng, size).edges]
            n += size
        perm = list(range(n))
        rng.shuffle(perm)
        f = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        got = list(enumerate_subtrees(f))
        assert len(got) == len(set(got))
        assert set(got) == brute_subtrees(f)


def test_subtree_walk_needs_no_recursion():
    # a 300-vertex path nests sets 300 deep; the walk must not need that
    # many frames
    path = Tree(300, [(i, i + 1) for i in range(299)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        sets = list(islice(enumerate_subtrees(path), 300))
    finally:
        sys.setrecursionlimit(limit)
    assert len(set(sets)) == 300
    assert all(path.induced_subgraph(w).is_connected() for w in sets)


def test_subtree_enumeration_past_its_cap_raises_before_walking():
    # 720,600 subtrees times 1,200 vertices passes the cap
    with pytest.raises(CapacityError):
        enumerate_subtrees(Tree(1200, [(i, i + 1) for i in range(1199)]))


def test_boundary_counts_components_of_complement():
    # in a tree, deleting a subtree W leaves exactly d(W) components
    for n in range(2, 9):
        for t in enumerate_trees(n):
            for w_set in enumerate_subtrees(t):
                _, d = boundary_and_interior(t, w_set)
                rest = t.delete_vertices(w_set)
                assert d == (len(rest.components()) if rest.n else 0)


def test_trunk():
    assert trunk(P4) == frozenset()
    assert trunk(STAR4) == frozenset({0})
    # two branch vertices joined by a path: trunk is that path, inclusive
    t = Tree(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (5, 7)])
    assert trunk(t) == frozenset({0, 3, 4, 5})


def test_trunk_is_connected():
    rng = random.Random(7)
    for _ in range(50):
        t = random_tree(rng, rng.randint(4, 12))
        tr = trunk(t)
        if tr:
            assert t.induced_subgraph(tr).is_connected()


def test_twig_sequence():
    assert twig_sequence(STAR4) == (3,)
    # bare path contributes one twig spanning the whole component
    assert twig_sequence(P4) == (0, 0, 1)
    # subdivided star: three twigs of length 2
    t = Tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert twig_sequence(t) == (0, 3)
    # forest: P_3 + K_2 gives one twig of length 2, one of length 1
    f = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert twig_sequence(f) == (1, 1)
    # isolated vertices contribute nothing
    assert twig_sequence(Graph(1)) == ()


def test_twig_total_vs_leaves():
    # every leaf starts exactly one twig unless its component is a path
    rng = random.Random(11)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 12))
        ts = twig_sequence(t)
        if trunk(t):
            assert sum(ts) == len(t.leaves())
        else:
            assert sum(ts) == 1


def test_path_sequence():
    assert path_sequence(P4) == (3, 2, 1)
    assert path_sequence(STAR4) == (3, 3)
    assert path_sequence(Graph(1)) == ()
    # forest: only within-component pairs are counted
    f = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert path_sequence(f) == (3, 1)
    # long depth lists: a path rooted at an end and in the middle, stars at either end
    n = 1000
    mid_rooted = [(0, 1)] + [(i, i + 2) for i in range(n - 2)]
    for edges in ([(i, i + 1) for i in range(n - 1)], mid_rooted):
        assert path_sequence(Graph(n, edges)) == tuple(range(n - 1, 0, -1))
    for centre in (0, n - 1):
        star = Graph(n, [(centre, v) for v in range(n) if v != centre])
        assert path_sequence(star) == (n - 1, (n - 1) * (n - 2) // 2)


def test_path_sequence_total():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert sum(path_sequence(t)) == n * (n - 1) // 2
            assert len(tree_distance_pairs(t)) == n * (n - 1) // 2


def test_path_sequence_counts_the_distance_pairs():
    # tree_distance_pairs lists every pair; path_sequence only counts them
    rng = random.Random(31)
    forests = [t for n in range(1, 11) for t in enumerate_trees(n)]
    for _ in range(20):
        t = random_tree(rng, rng.randint(2, 14))
        forests.append(t.delete_edges([i for i in range(t.n - 1) if rng.random() < 0.3]))
    forests.append(Graph(3))
    for f in forests:
        counts = Counter(tree_distance_pairs(f).values())
        assert path_sequence(f) == tuple(counts[i] for i in range(1, max(counts, default=0) + 1))


@pytest.mark.parametrize("call, s, named", [
    ("contract_edges", {-1}, "edge -1"),  # as a list index, -1 would contract edge 1 and keep it
    ("contract_edges", {True}, "edge True"),
    ("delete_edges", {-1}, "edge -1"),  # matches no index, so would delete nothing
    ("delete_edges", {99}, "edge 99"),
    ("delete_edges", {0.0}, "edge 0.0"),
    ("components", {5}, "edge 5"),  # not an IndexError
    ("components", {"0"}, "edge '0'"),
    ("delete_vertices", {7}, "vertex 7"),  # not ignored
    ("delete_vertices", {False}, "vertex False"),
    ("induced_subgraph", {0, 1, 7}, "vertex 7"),  # not dropped
])
def test_index_sets_are_checked(call, s, named):
    # P3 has edges 0..1 and vertices 0..2; each index must be an int, not a bool, in range
    p3 = Graph(3, [(0, 1), (1, 2)])
    run = getattr(p3, call, None) or (lambda s: contract_edges(p3, VertexWeighting.unit(3), s))
    top = 2 if named.startswith("vertex") else 1
    with pytest.raises(ValueError, match=re.escape(f"{named} is not an int in 0..{top}")):
        run(s)


def test_contract_single_edge():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    w = VertexWeighting((1, 2, 4))
    gc, wc = contract_edges(g, w, {0})
    assert gc.n == 2
    assert wc == VertexWeighting((3, 4))
    # the two former triangle sides become parallel edges
    assert sorted(gc.edges) == [(0, 1), (0, 1)]


def test_contract_creates_loop():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    w = VertexWeighting.unit(3)
    gc, wc = contract_edges(g, w, {0, 1})
    assert gc.n == 1
    assert wc.total() == 3
    assert gc.has_loop()


def test_contract_loop_in_s_is_deleted():
    g = Graph(2, [(0, 0), (0, 1)])
    gc, wc = contract_edges(g, VertexWeighting((2, 1)), {0})
    assert gc == Graph(2, [(0, 1)])
    assert wc == VertexWeighting((2, 1))


def test_contract_order_invariance():
    # contracting S at once matches contracting its edges one at a time,
    # in any order, up to weighted isomorphism
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 6)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 8))]
        g = Graph(n, edges)
        w = VertexWeighting([rng.randint(0, 3) for _ in range(n)])
        s = {i for i in range(len(edges)) if rng.random() < 0.5} or {0}
        gc, wc = contract_edges(g, w, s)
        cur_g, cur_w = g, w
        pending = sorted(s)
        while pending:
            idx = pending.pop(rng.randrange(len(pending)))
            cur_g, cur_w = contract_edges(cur_g, cur_w, {idx})
            # single-edge contraction drops exactly edge idx and keeps the
            # survivors' order, so later indices shift down by one
            pending = [i - 1 if i > idx else i for i in pending]
        assert are_isomorphic(gc, cur_g, wc.weights, cur_w.weights)


def test_enumerate_subtrees_requires_forest():
    with pytest.raises(NotATreeError):
        list(enumerate_subtrees(Graph(3, [(0, 1), (1, 2), (0, 2)])))
