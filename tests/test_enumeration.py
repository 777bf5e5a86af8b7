import random
from itertools import product

import pytest

from csfkit import (
    CapacityError,
    FREE_TREE_COUNTS,
    Graph,
    Tree,
    classify,
    enumerate_trees,
    enumerate_unicyclic,
    format_graph6,
    small_graph_certificate,
)
from csfkit import enumeration
from helpers import (ahu_certificate, free_levels_by_filter, otter_free_counts, prufer_tree,
                     random_permutation)

# standard counts of free trees on 1..22 vertices (OEIS A000055)
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
               19320, 48629, 123867, 317955, 823065, 2144505, 5623756)
# standard counts of connected unicyclic graphs on 3..9 vertices
UNICYCLIC_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240}


def test_tree_counts():
    assert FREE_TREE_COUNTS == TREE_COUNTS
    for n, expected in enumerate(TREE_COUNTS[:17], start=1):
        assert sum(1 for _ in enumerate_trees(n)) == expected


def test_otter_counts_match_the_table():
    assert otter_free_counts(22) == list(TREE_COUNTS)


def test_free_walk_matches_rooted_walk_filtered():
    # the jump skips only candidates the centre test would reject
    for n in range(1, 17):
        assert list(enumeration._free_levels(n)) == free_levels_by_filter(n)


def test_free_walk_steps_at_most_twice_per_tree(monkeypatch):
    calls = []
    real_successor = enumeration._successor

    def counting_successor(seq, p):
        calls.append(p)
        return real_successor(seq, p)

    monkeypatch.setattr(enumeration, "_successor", counting_successor)
    trees = sum(1 for _ in enumeration._free_levels(14))
    assert trees == 3159
    assert len(calls) <= 2 * trees


def test_trees_are_trees_and_distinct():
    for n in range(1, 15):
        certs = set()
        for t in enumerate_trees(n):
            assert isinstance(t, Tree)
            assert t.n == n
            certs.add(ahu_certificate(t))
        assert len(certs) == TREE_COUNTS[n - 1]


def test_one_tree_built_per_free_tree(monkeypatch):
    # rooted candidates are rejected from their level sequence, before
    # any Tree is built
    calls = []
    real_from_levels = Tree.from_levels

    def counting_from_levels(cls, levels):
        calls.append(1)
        return real_from_levels(levels)

    monkeypatch.setattr(Tree, "from_levels", classmethod(counting_from_levels))
    assert len(list(enumerate_trees(10))) == 106
    assert len(calls) == 106


def test_trees_from_levels_match_the_validating_constructor():
    # the level-sequence proof against the union-find one, and graph6
    # without its simplicity check against graph6 with it
    for n in range(1, 13):
        for t in enumerate_trees(n):
            checked = Tree(n, t.edges)
            assert t == checked and t.edges == checked.edges
            assert format_graph6(t) == format_graph6(Graph(t.n, t.edges))


def test_exhaustive_prufer_cross_check():
    # every labeled tree arises from a Pruefer sequence, so the AHU codes
    # of all sequences must be exactly the enumerated set
    for n in range(3, 8):
        from_prufer = set()
        for seq in product(range(n), repeat=n - 2):
            from_prufer.add(ahu_certificate(prufer_tree(list(seq))))
        enumerated = {ahu_certificate(t) for t in enumerate_trees(n)}
        assert from_prufer == enumerated


def test_certificate_stability_under_relabeling():
    rng = random.Random(13)
    for t in enumerate_trees(8):
        cert = ahu_certificate(t)
        for _ in range(10):
            perm = random_permutation(rng, t.n)
            t2 = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
            assert ahu_certificate(t2) == cert


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
            # yielded in its canonical labelling, so collide names it as is
            assert g.edges == small_graph_certificate(g)[2]


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
