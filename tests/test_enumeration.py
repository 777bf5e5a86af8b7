import random
from itertools import product

import pytest

from csfkit import (
    CapacityError,
    FREE_TREE_COUNTS,
    Graph,
    Tree,
    canonical_certificate,
    classify,
    enumerate_trees,
    enumerate_unicyclic,
    small_graph_certificate,
)
from helpers import prufer_tree, random_permutation

# standard counts of free trees on 1..12 vertices
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)
# standard counts of connected unicyclic graphs on 3..9 vertices
UNICYCLIC_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240}


def test_tree_counts():
    assert FREE_TREE_COUNTS == TREE_COUNTS
    for n, expected in enumerate(TREE_COUNTS, start=1):
        assert sum(1 for _ in enumerate_trees(n)) == expected


def test_trees_are_trees_and_distinct():
    # OEIS A000055 through n = 14
    counts = TREE_COUNTS + (1301, 3159)
    for n in range(1, 15):
        certs = set()
        for t in enumerate_trees(n):
            assert isinstance(t, Tree)
            assert t.n == n
            certs.add(canonical_certificate(t))
        assert len(certs) == counts[n - 1]


def test_one_tree_built_per_free_tree(monkeypatch):
    # rooted candidates are rejected from their level sequence, before
    # any Tree is built
    calls = []
    real_init = Tree.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Tree, "__init__", counting_init)
    assert len(list(enumerate_trees(10))) == 106
    assert len(calls) == 106


def test_exhaustive_prufer_cross_check():
    # every labeled tree arises from a Pruefer sequence, so the canonical
    # certificates of all sequences must be exactly the enumerated set
    for n in range(3, 8):
        from_prufer = set()
        for seq in product(range(n), repeat=n - 2):
            from_prufer.add(canonical_certificate(prufer_tree(list(seq))))
        enumerated = {canonical_certificate(t) for t in enumerate_trees(n)}
        assert from_prufer == enumerated


def test_certificate_stability_under_relabeling():
    rng = random.Random(13)
    for t in enumerate_trees(8):
        cert = canonical_certificate(t)
        for _ in range(10):
            perm = random_permutation(rng, t.n)
            t2 = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
            assert canonical_certificate(t2) == cert


def test_classify():
    path = Tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    spider = Tree(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    two_branch = Tree(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
    assert classify(path) == "path"
    assert classify(spider) == "spider"
    assert classify(two_branch) == "two-branch"
    assert classify(Tree(1)) == "path"
    assert classify(Tree(2, [(0, 1)])) == "path"


def test_classify_partitions_all_trees():
    for n in range(1, 10):
        seen = {"path": 0, "spider": 0, "two-branch": 0, "other": 0}
        for t in enumerate_trees(n):
            seen[classify(t)] += 1
        assert seen["path"] == 1  # exactly one path per order
        assert sum(seen.values()) == TREE_COUNTS[n - 1]


def test_unicyclic_counts():
    for n, expected in UNICYCLIC_COUNTS.items():
        got = list(enumerate_unicyclic(n))
        assert len(got) == expected
        for g in got:
            assert g.n == n and g.m == n  # unicyclic: as many edges as vertices
            assert g.is_connected()
            assert g.is_simple()
            assert not g.is_forest()


def test_unicyclic_distinct():
    for n in range(3, 9):
        certs = {small_graph_certificate(g) for g in enumerate_unicyclic(n)}
        assert len(certs) == UNICYCLIC_COUNTS[n]


def test_capacity_limits():
    with pytest.raises(CapacityError):
        next(enumerate_trees(23))
    with pytest.raises(ValueError):
        next(enumerate_trees(0))
    with pytest.raises(CapacityError):
        next(enumerate_unicyclic(11))
    with pytest.raises(CapacityError):
        next(enumerate_unicyclic(2))


def test_enumeration_is_deterministic():
    a = [t.edges for t in enumerate_trees(9)]
    b = [t.edges for t in enumerate_trees(9)]
    assert a == b
    ua = [g.edges for g in enumerate_unicyclic(7)]
    ub = [g.edges for g in enumerate_unicyclic(7)]
    assert ua == ub
