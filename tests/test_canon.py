import random
from itertools import combinations

import pytest

from csfkit import (
    CapacityError,
    Graph,
    NotATreeError,
    Tree,
    are_isomorphic,
    canonical_certificate,
    enumerate_trees,
    small_graph_certificate,
)
from csfkit.canon import centre_rooting_kept
from csfkit.enumeration import _free_levels
from helpers import (ahu_certificate, centre_rooting_kept_by_tuples, prufer_tree,
                     random_permutation, random_tree, relabel, rooted_level_sequences)


def test_certificate_relabeling_invariance():
    rng = random.Random(31)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 14))
        cert = canonical_certificate(t)
        perm = random_permutation(rng, t.n)
        t2 = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
        assert canonical_certificate(t2) == cert


def test_certificate_of_long_path_needs_no_recursion():
    # deeper than the interpreter's default recursion limit
    n = 2500
    perm = random_permutation(random.Random(5), n)
    path = Tree(n, [(i, i + 1) for i in range(n - 1)])
    cert = canonical_certificate(path)
    assert len(cert) == n
    assert canonical_certificate(Tree.from_graph(relabel(path, perm))) == cert


def test_certificate_is_the_walks_level_sequence():
    # a fixed point of every tree the walk yields; with Otter's count this
    # shows the walk exhaustive and duplicate-free (n = 18 runs in CI)
    for n in range(1, 17):
        for levels in _free_levels(n):
            assert canonical_certificate(Tree.from_levels(levels)) == tuple(levels)


def test_keep_test_exits_early_as_the_tuple_comparison_decides():
    # every rooted tree through order 12 (7,812 of them), split where the
    # walk splits: at the root's second child, or at the end
    seen = 0
    for n in range(2, 13):
        for levels in rooted_level_sequences(n):
            split = (levels + [2]).index(2, 2)
            kept = centre_rooting_kept(levels, split)
            assert kept == centre_rooting_kept_by_tuples(levels, split), levels
            seen += 1
    assert seen == 7812


def test_certificate_agrees_with_ahu_oracle():
    # equal certificates exactly when the AHU codes are equal, over all
    # pairs of trees with n <= 9, each tree also under two relabellings
    rng = random.Random(9)
    trees = []
    for n in range(1, 10):
        for t in enumerate_trees(n):
            trees += [t] + [Tree.from_graph(relabel(t, random_permutation(rng, n)))
                            for _ in range(2)]
    certs = [(canonical_certificate(t), ahu_certificate(t)) for t in trees]
    for (a, ahu_a), (b, ahu_b) in combinations(certs, 2):
        assert (a == b) == (ahu_a == ahu_b)


def test_certificate_refuses_graphs_that_are_not_trees():
    for g in (Graph(5, [(i, (i + 1) % 5) for i in range(5)]), Graph(4, [(0, 1), (2, 3)])):
        with pytest.raises(NotATreeError):
            canonical_certificate(g)


def test_certificates_separate_all_small_trees():
    for n in range(1, 10):
        certs = [canonical_certificate(t) for t in enumerate_trees(n)]
        assert len(certs) == len(set(certs))


def test_certificate_orders_and_hashes():
    a = canonical_certificate(Tree(2, [(0, 1)]))
    b = canonical_certificate(Tree(3, [(0, 1), (1, 2)]))
    assert a != b
    assert (a < b) != (b < a)
    assert len({a, a, b}) == 2


def test_small_graph_certificate_invariance():
    rng = random.Random(17)
    graphs = [
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
        Graph(3, [(0, 0), (0, 1), (1, 2), (1, 2)]),
        Graph(5, [(0, 1), (0, 1), (2, 2)]),
    ]
    for g in graphs:
        cert = small_graph_certificate(g)
        for _ in range(10):
            perm = random_permutation(rng, g.n)
            assert small_graph_certificate(relabel(g, perm)) == cert


def test_small_graph_certificate_separates():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k3_plus_k1 = Graph(4, [(0, 1), (1, 2), (2, 0)])
    paw = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    certs = {small_graph_certificate(g) for g in (c4, k3_plus_k1, paw)}
    assert len(certs) == 3
    # loop vs parallel edge on two vertices
    assert small_graph_certificate(Graph(2, [(0, 0)])) != small_graph_certificate(
        Graph(2, [(0, 1), (0, 1)]))


def test_small_graph_certificate_regular_pair():
    # C_6 vs two triangles: both 2-regular on six vertices, so refinement
    # alone cannot separate them and individualization must kick in
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_k3 = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert small_graph_certificate(c6) != small_graph_certificate(two_k3)


def test_are_isomorphic_with_colors():
    p3 = Graph(3, [(0, 1), (1, 2)])
    # weight at an end vs at the middle
    assert are_isomorphic(p3, p3, [2, 1, 1], [1, 1, 2])
    assert not are_isomorphic(p3, p3, [2, 1, 1], [1, 2, 1])


def test_are_isomorphic_matches_tree_certificates():
    rng = random.Random(3)
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    for a, b in combinations(trees, 2):
        if a.n != b.n:
            continue
        same = canonical_certificate(a) == canonical_certificate(b)
        assert are_isomorphic(Graph(a.n, a.edges), Graph(b.n, b.edges)) == same


def test_capacity_cap():
    with pytest.raises(CapacityError):
        small_graph_certificate(Graph(13, [(0, 1)]))


def test_prufer_relabel_certificates_agree():
    # every labeled tree from a Pruefer sequence has exactly one
    # certificate, shared with all its relabelings
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(3, 9)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        t = prufer_tree(seq)
        perm = random_permutation(rng, n)
        assert canonical_certificate(t) == canonical_certificate(
            Tree(n, [(perm[u], perm[v]) for u, v in t.edges]))
