import random

import pytest

from csfkit import (
    Graph,
    GraphParseError,
    enumerate_trees,
    enumerate_unicyclic,
    format_edge_list,
    format_graph6,
    load_graph,
    parse_edge_list,
    parse_graph6,
)
from helpers import format_graph6_pairwise, random_tree

P4_TEXT = "4 3\n0 1\n1 2\n2 3\n"


def test_parse_edge_list():
    g = parse_edge_list(P4_TEXT)
    assert g == Graph(4, [(0, 1), (1, 2), (2, 3)])
    # blank lines are fine, loops and parallel edges are allowed
    g2 = parse_edge_list("2 3\n\n0 0\n0 1\n\n0 1\n")
    assert g2.m == 3 and g2.has_loop()


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("4\n0 1\n")
    with pytest.raises(GraphParseError, match="line 3"):
        parse_edge_list("2 2\n0 1\n0 7\n")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("2 1\n0 1 1\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("2 2\n0 1\n")  # declared m does not match


def test_edge_list_order_is_capped_at_the_graph6_limit():
    assert parse_edge_list("258047 0").n == 258047
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("258048 0")


def test_edge_list_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 8)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
        g = Graph(n, edges)
        assert parse_edge_list(format_edge_list(g)) == g


def test_known_graph6_values():
    # standard encodings: K_3 and the 4-path
    assert format_graph6(Graph(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    assert parse_graph6("Bw") == Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert parse_graph6(">>graph6<<Bw") == Graph(3, [(0, 1), (0, 2), (1, 2)])


def test_graph6_round_trip_trees_and_unicyclic():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert parse_graph6(format_graph6(t)) == Graph(t.n, t.edges)
    for n in range(3, 8):
        for g in enumerate_unicyclic(n):
            assert parse_graph6(format_graph6(g)) == g


def test_graph6_larger_n():
    # multi-byte length prefix kicks in at n = 63
    rng = random.Random(9)
    t = random_tree(rng, 80)
    g = Graph(t.n, t.edges)
    assert parse_graph6(format_graph6(g)) == g


def test_graph6_matches_pairwise_encoder():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert format_graph6(t) == format_graph6_pairwise(t)
    for n in range(3, 9):
        for g in enumerate_unicyclic(n):
            assert format_graph6(g) == format_graph6_pairwise(g)
    # 63 and up take the four-character size header
    rng = random.Random(42)
    for n in (0, 1, 2, 62, 63, 64):
        pairs = [(u, v) if rng.random() < 0.5 else (v, u)
                 for v in range(n) for u in range(v) if rng.random() < 0.3]
        rng.shuffle(pairs)
        g = Graph(n, pairs)
        assert format_graph6(g) == format_graph6_pairwise(g)
        assert parse_graph6(format_graph6(g)) == g


def test_graph6_rejects_garbage():
    with pytest.raises(GraphParseError):
        parse_graph6("")
    with pytest.raises(GraphParseError):
        parse_graph6("B\x19")
    with pytest.raises(GraphParseError):
        parse_graph6("Bw~")  # trailing data


def test_graph6_refuses_non_simple():
    with pytest.raises(ValueError):
        format_graph6(Graph(2, [(0, 0)]))
    with pytest.raises(ValueError):
        format_graph6(Graph(2, [(0, 1), (0, 1)]))


def test_load_graph_sniffs_both():
    assert load_graph(P4_TEXT) == Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert load_graph("Bw\n") == Graph(3, [(0, 1), (0, 2), (1, 2)])
