import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import comb

import pytest

from csfkit import (
    BivariatePolynomial,
    CapacityError,
    ConsistencyError,
    CsfResult,
    Graph,
    NotATreeError,
    PPolynomial,
    Tree,
    VertexWeighting,
    csf_power_sum,
    csf_tree,
    csf_weighted,
    enumerate_subtrees,
    enumerate_trees,
    f_polynomial_direct,
    f_polynomial_dp,
    f_polynomial_from_csf,
    generalized_degree_sequence,
    identity_matrix,
    matrix_multiply,
    omega_check,
    path_sequence,
    sigma,
    sign_binomial_matrix,
    stats_from_subtree_polynomial,
    subtree_polynomial,
    subtree_polynomial_dp,
)
from csfkit import csf, invariants
from csfkit.graphs import rooted_order
from helpers import random_permutation, random_tree, relabel

P3 = Tree(3, [(0, 1), (1, 2)])
P4 = Tree(4, [(0, 1), (1, 2), (2, 3)])
STAR4 = Tree(4, [(0, 1), (0, 2), (0, 3)])


def test_bivariate_basics():
    f = BivariatePolynomial({(1, 2): 3, (2, 0): -1, (3, 3): 0})
    assert f.coefficient(1, 2) == 3
    assert f.coefficient(3, 3) == 0  # zero coefficients are dropped
    assert f.serialize() == "(1,2): 3\n(2,0): -1"


def test_subtree_polynomial_hand():
    # P_4: four vertices, three edges, two 3-paths, one 4-path
    assert subtree_polynomial(P4) == BivariatePolynomial(
        {(0, 0): 4, (1, 1): 3, (2, 2): 2, (3, 2): 1})
    # star: singletons, edges, cherries, and the whole star
    assert subtree_polynomial(STAR4) == BivariatePolynomial(
        {(0, 0): 4, (1, 1): 3, (2, 2): 3, (3, 3): 1})
    assert subtree_polynomial(Tree(1)) == BivariatePolynomial({(0, 0): 1})


def test_subtree_polynomial_total_counts_subtrees():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            s = subtree_polynomial(t)
            total = sum(s.terms.values())
            assert total == sum(1 for _ in enumerate_subtrees(t))
            assert s.coefficient(0, 0) == t.n  # the singleton subtrees


def test_stats_from_subtree_polynomial():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            degs, paths = stats_from_subtree_polynomial(subtree_polynomial(t), t.n)
            expect_degs = list(t.degree_sequence())
            while expect_degs and expect_degs[-1] == 0:
                expect_degs.pop()
            assert list(degs) == expect_degs
            assert tuple(paths) == path_sequence(t)


def _dp_test_trees():
    # every tree through n = 11, then seeded random trees up to n = 20
    for n in range(1, 12):
        yield from enumerate_trees(n)
    rng = random.Random(41)
    for _ in range(40):
        yield random_tree(rng, rng.randint(12, 20))


def test_dps_match_subtree_enumeration():
    for t in _dp_test_trees():
        assert subtree_polynomial_dp(t) == subtree_polynomial(t)
        assert f_polynomial_dp(t) == f_polynomial_direct(t)
    assert subtree_polynomial_dp(Tree(1)) == BivariatePolynomial({(0, 0): 1})
    assert f_polynomial_dp(Tree(2, [(0, 1)])) == BivariatePolynomial({(1, 1): 2, (2, 0): 1})
    # a Graph that is a tree is accepted, and a non-tree refused, as by the oracles
    assert f_polynomial_dp(Graph(4, P4.edges)) == f_polynomial_direct(P4)
    with pytest.raises(NotATreeError):
        subtree_polynomial_dp(Graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_dp_work_cap_counts_state_pairs(monkeypatch):
    # on a path rooted at an end, merge k meets 1 parent key with the child's
    # k sets and the stay-out option, on keys far narrower than 256 bits:
    # (1 + 1) x (k + 1) units, 928 in all for k = 1..29
    path = Tree(30, [(v, v + 1) for v in range(29)])
    monkeypatch.setattr(csf, "TREE_DP_WORK_CAP", 928)
    assert f_polynomial_dp(path) == f_polynomial_direct(path)
    assert subtree_polynomial_dp(path) == subtree_polynomial(path)
    monkeypatch.setattr(csf, "TREE_DP_WORK_CAP", 927)
    for dp in (f_polynomial_dp, subtree_polynomial_dp):
        with pytest.raises(CapacityError, match="capped"):
            dp(path)


def _subtree_count(t):
    # prod over the children c of v of (1 + s_c) counts the subtrees topped at v
    order, parent = rooted_order(t.adjacency_sets(), 0)
    tops = [1] * t.n
    for v in reversed(order[1:]):
        tops[parent[v]] *= 1 + tops[v]
    return sum(tops)


def test_dps_at_scale_match_counts_and_read_offs():
    # far past enumeration: each coefficient sum is the subtree count, S_T
    # gives back the degree and path sequences, and relabelling (which moves
    # the DPs' root) changes neither polynomial
    rng = random.Random(16)
    for _ in range(3):
        t = random_tree(rng, 200)
        count = _subtree_count(t)
        degrees = list(t.degree_sequence())
        while degrees[-1] == 0:
            degrees.pop()
        s_poly, f_poly = subtree_polynomial_dp(t), f_polynomial_dp(t)
        assert sum(s_poly.terms.values()) == sum(f_poly.terms.values()) == count
        assert stats_from_subtree_polynomial(s_poly, t.n) == (tuple(degrees), path_sequence(t))
        for _ in range(2):
            t2 = relabel(t, random_permutation(rng, t.n))
            assert subtree_polynomial_dp(t2) == s_poly and f_polynomial_dp(t2) == f_poly


def test_tree_dps_are_labelling_invariant():
    rng = random.Random(30)
    # two adjacent centres with 120 leaves each: merged in adjacency order,
    # most labellings passed the work cap
    double_star = Tree(242, [(0, 1)] + [(c, 2 + 120 * c + i) for c in (0, 1) for i in range(120)])
    cases = chain(((random_tree(rng, rng.randint(2, 30)), 2) for _ in range(20)),
                  [(double_star, 5)])
    for t, relabellings in cases:
        x, s_poly, f_poly = csf_tree(t), subtree_polynomial_dp(t), f_polynomial_dp(t)
        for _ in range(relabellings):
            t2 = relabel(t, random_permutation(rng, t.n))
            assert csf_tree(t2) == x
            assert subtree_polynomial_dp(t2) == s_poly and f_polynomial_dp(t2) == f_poly


def test_degree_read_off_matches_alternating_binomial_sum():
    # the Taylor shift against the formula it replaces, d_i for i >= 2
    for n in range(1, 11):
        for t in enumerate_trees(n):
            s = subtree_polynomial(t)
            degs, _ = stats_from_subtree_polynomial(s, n)
            for i in range(2, n):
                expect = sum(comb(k, i) * (-1) ** (i + k) * s.coefficient(k, k)
                             for k in range(i, n))
                assert (degs[i - 1] if i <= len(degs) else 0) == expect


def test_f_polynomial_direct_hand():
    assert f_polynomial_direct(P4) == BivariatePolynomial(
        {(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 1, (3, 1): 2, (4, 0): 1})
    assert f_polynomial_direct(STAR4) == BivariatePolynomial(
        {(1, 1): 3, (1, 3): 1, (2, 2): 3, (3, 1): 3, (4, 0): 1})


def test_sigma_hand_values():
    assert sigma((2, 1), 1, 1, 3) == -1
    assert sigma((2, 1), 1, 2, 3) == 1
    assert sigma((1, 1, 1), 1, 2, 3) == 3
    assert sigma((1, 1, 1), 1, 1, 3) == 0  # out-of-range binomial
    assert sigma((3,), 1, 1, 3) == 0  # no part equals 1
    assert sigma((3,), 3, 0, 3) == 1
    with pytest.raises(ValueError):
        sigma((2, 1), 1, 1, 4)
    for args in ((True, 1, 3), (1, True, 3), (1, 1, 3.0), (1.0, 1, 3), (1, 1, True)):
        with pytest.raises(ValueError, match="must be ints"):
            sigma((2, 1), *args)


def test_transform_matches_direct():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            assert f_polynomial_from_csf(csf_tree(t), t.n) == f_polynomial_direct(t)


def test_transform_matches_direct_on_larger_trees():
    # paths and random trees past the all-trees orders above
    for n in range(20, 25):
        path = Tree(n, [(v, v + 1) for v in range(n - 1)])
        assert f_polynomial_from_csf(csf_tree(path), n) == f_polynomial_direct(path)
    rng = random.Random(23)
    for _ in range(60):
        t = random_tree(rng, rng.randint(10, 18))
        assert f_polynomial_from_csf(csf_tree(t), t.n) == f_polynomial_direct(t)


def _error_text(route, x, n):
    try:
        route(x, n)
    except ConsistencyError as exc:
        return str(exc)
    return None


def test_both_routes_report_the_same_first_bad_coefficient():
    # random homogeneous inputs that are not tree CSFs, with negative and
    # fractional coefficients: the term walk and the Omega grid name the
    # same (i, j) first
    from csfkit.partitions import partitions
    rng = random.Random(31)
    raised = 0
    for _ in range(150):
        n = rng.randint(2, 7)
        parts = list(partitions(n))
        x = PPolynomial({lam: Fraction(rng.randint(-5, 8), rng.choice((1, 1, 2, 3)))
                         for lam in rng.sample(parts, rng.randint(1, len(parts)))})
        if not x:
            continue
        text = _error_text(f_polynomial_from_csf, x, n)
        assert text == _error_text(omega_check, x, n)
        if text is None:
            assert f_polynomial_from_csf(x, n) == omega_check(x, n)
        raised += text is not None
    assert raised > 100


def test_flat_sigma_sums_match_both_other_routes():
    for n in range(1, 12):
        for t in enumerate_trees(n):
            x = csf_tree(t)
            assert f_polynomial_from_csf(x, n) == omega_check(x, n) == f_polynomial_dp(t)


def test_transform_names_the_first_bad_coefficient():
    def complete(n):
        return Graph(n, [(u, v) for v in range(n) for u in range(v)])

    p6 = csf_tree(Tree(6, [(v, v + 1) for v in range(5)])).poly
    cases = [
        (csf_power_sum(complete(4)).poly, 4, "negative f(1,2) = -4"),
        (csf_power_sum(complete(5)).poly, 5, "negative f(1,2) = -35"),
        (csf_power_sum(Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])).poly, 5,
         "negative f(1,2) = -9"),
        (csf_weighted(complete(3), VertexWeighting((1, 2, 3))).poly, 6, "negative f(1,1) = -1"),
        (csf_tree(P3).poly.scale(Fraction(1, 2)), 3, "non-integral f(1,2) = 1/2"),
        (p6.scale(Fraction(1, 3)), 6, "non-integral f(1,1) = 2/3"),
        (csf_tree(P4).poly + PPolynomial({(4,): Fraction(1, 3)}), 4, "non-integral f(4,0) = 2/3"),
        (csf_tree(P4).poly + PPolynomial({(2, 1, 1): Fraction(-1, 2)}), 4, "negative f(1,3) = -1"),
    ]
    for x, n, bad in cases:
        text = f"transform produced {bad}; input is not a tree CSF"
        assert _error_text(f_polynomial_from_csf, x, n) == text
        assert _error_text(omega_check, x, n) == text


def test_transform_memory_stays_linear_on_a_star():
    # star-600's CSF has 600 terms: the Horner pass keeps one row of part 1
    # and the nonzero values, not an (n + 1)^2 table of length sums
    star = Tree(600, [(0, v) for v in range(1, 600)])
    x = csf_tree(star)
    tracemalloc.start()
    try:
        f = f_polynomial_from_csf(x, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert f == f_polynomial_dp(star)


def test_transform_accepts_bare_polynomial():
    x = csf_tree(P4)
    assert f_polynomial_from_csf(x.poly, 4) == f_polynomial_direct(P4)


def test_transform_keeps_a_length_sum_that_cancels():
    # X_A + X_B - X_C over three 7-vertex trees: its length sum of part 3 at
    # length 3 cancels to 0, and the transform, linear in its input, must
    # still give F_A + F_B - F_C, as omega_check does
    a, b, c = (Tree(7, edges) for edges in (
        [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (0, 6)],
        [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (0, 6)],
        [(0, 1), (1, 2), (1, 3), (1, 4), (0, 5), (5, 6)]))
    y = csf_tree(a).poly + csf_tree(b).poly - csf_tree(c).poly
    assert invariants._length_sums(y, 7)[3][3] == 0
    want = Counter(f_polynomial_dp(a).terms) + Counter(f_polynomial_dp(b).terms)
    want.subtract(f_polynomial_dp(c).terms)
    assert f_polynomial_from_csf(y, 7) == omega_check(y, 7) == BivariatePolynomial(want)


def test_degree_row_of_f():
    # f(1, j) counts vertices of degree j
    for n in range(2, 9):
        for t in enumerate_trees(n):
            f = f_polynomial_from_csf(csf_tree(t), t.n)
            degs = t.degree_sequence()
            for j in range(1, n):
                assert f.coefficient(1, j) == degs[j - 1]


def test_omega_route_matches():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            x = csf_tree(t)
            assert omega_check(x, t.n) == f_polynomial_from_csf(x, t.n)


def test_level_grouped_route_matches():
    # third route: group c_lambda by length into d_{i,k}, then resum
    for n in range(1, 9):
        for t in enumerate_trees(n):
            x = csf_tree(t).poly
            f = f_polynomial_from_csf(x, n)
            for i in range(1, n + 1):
                d = {}
                for lam, c in x.terms.items():
                    k = len(lam) - 1
                    d[k] = d.get(k, 0) + lam.count(i) * c
                for j in range(0, n - i + 1):
                    total = sum(comb(n - i - k, j - k) * dk
                                for k, dk in d.items()
                                if 0 <= j - k <= n - i - k)
                    if (n - j - 1) % 2 == 1:
                        total = -total
                    assert total == f.coefficient(i, j)


def test_consistency_error_non_homogeneous():
    with pytest.raises(ConsistencyError):
        f_polynomial_from_csf(PPolynomial({(3,): 1, (2,): 1}), 3)
    with pytest.raises(ConsistencyError):
        omega_check(PPolynomial({(3,): 1, (2,): 1}), 3)
    with pytest.raises(ConsistencyError):
        f_polynomial_from_csf(PPolynomial(), 3)


def test_consistency_error_non_integral():
    half = csf_tree(P3).poly.scale(Fraction(1, 2))
    with pytest.raises(ConsistencyError):
        f_polynomial_from_csf(half, 3)
    with pytest.raises(ConsistencyError):
        omega_check(half, 3)


def test_consistency_error_negative():
    negated = -csf_tree(P3).poly
    with pytest.raises(ConsistencyError):
        f_polynomial_from_csf(negated, 3)
    with pytest.raises(ConsistencyError):
        omega_check(negated, 3)


def test_non_tree_csf_can_fail_consistency():
    # the triangle's CSF happens to pass the transform, but scaling any
    # CSF by 1/2 cannot: f(n,0) would be 1/2
    from csfkit import csf_power_sum
    tri = csf_power_sum(Graph(3, [(0, 1), (1, 2), (0, 2)])).poly
    f = f_polynomial_from_csf(tri, 3)
    assert f.coefficient(3, 0) == 2  # c_(3) = 2 for the triangle
    with pytest.raises(ConsistencyError):
        f_polynomial_from_csf(tri.scale(Fraction(1, 2)), 3)


def test_sign_binomial_matrix_hand():
    assert sign_binomial_matrix(2, 5, 1) == [[-1, 0], [3, 1]]


def test_sign_binomial_matrix_involution_spot():
    for n in range(2, 12):
        for i in range(1, n):
            for k in range(1, n - i + 1):
                a = sign_binomial_matrix(k, n, i)
                assert matrix_multiply(a, a) == identity_matrix(k)


def test_matrix_helpers():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert matrix_multiply(a, b) == [[2, 1], [4, 3]]
    assert identity_matrix(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_generalized_degree_sequence_hand():
    got = generalized_degree_sequence(P3)
    assert got == Counter({
        (0, 0, 0): 1,
        (1, 0, 1): 2, (1, 0, 2): 1,
        (2, 1, 1): 2, (2, 0, 2): 1,
        (3, 2, 0): 1,
    })


def test_generalized_degree_projection():
    # restricting to connected slices (e = |W| - 1) recovers F_T
    for n in range(1, 9):
        for t in enumerate_trees(n):
            sliced = {}
            for (size, e, d), c in generalized_degree_sequence(t).items():
                if size >= 1 and e == size - 1:
                    sliced[(size, d)] = sliced.get((size, d), 0) + c
            assert sliced == dict(f_polynomial_direct(t).terms)


def test_generalized_degree_sequence_invariance():
    rng = random.Random(19)
    for _ in range(20):
        t = random_tree(rng, rng.randint(2, 9))
        perm = random_permutation(rng, t.n)
        t2 = Graph(t.n, [(perm[u], perm[v]) for u, v in t.edges])
        assert generalized_degree_sequence(t) == generalized_degree_sequence(t2)


def test_generalized_degree_capacity():
    with pytest.raises(CapacityError):
        generalized_degree_sequence(Graph(25))


def test_subtree_polynomial_requires_tree():
    with pytest.raises(NotATreeError):
        subtree_polynomial(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(NotATreeError):
        f_polynomial_direct(Graph(3, [(0, 1)]))


def test_an_order_n_csf_result_is_not_rescanned_but_every_refusal_stays(monkeypatch):
    x, scans = csf_tree(P4), []
    real = PPolynomial.is_homogeneous
    monkeypatch.setattr(PPolynomial, "is_homogeneous",
                        lambda self, n: scans.append(n) or real(self, n))
    assert f_polynomial_from_csf(x, 4) == omega_check(x, 4) == f_polynomial_dp(P4)
    assert scans == []
    bad = [
        (x, 3),  # a CsfResult of the wrong order
        (x, 5),
        (CsfResult(PPolynomial(), 3), 3),  # the zero CSF
        (PPolynomial({(3,): 1, (2,): 1}), 3),  # a bare polynomial that is not homogeneous
    ]
    for y, n in bad:
        for route in (f_polynomial_from_csf, omega_check):
            with pytest.raises(ConsistencyError, match="nonzero homogeneous CSF of degree"):
                route(y, n)


def test_length_sums_count_each_run_once():
    poly = PPolynomial({(3, 3, 2, 1, 1): 2, (4, 1, 1, 1, 1): -1, (2, 2, 2, 2, 1): 5, (9,): 7})
    want = [{} for _ in range(10)]
    for lam, c in poly.terms.items():
        for i, m in Counter(lam).items():
            sign = -1 if (9 - len(lam)) % 2 else 1
            want[i][len(lam)] = want[i].get(len(lam), 0) + sign * m * c
    assert invariants._length_sums(poly, 9) == want


def test_omega_pieces_are_shared_for_the_latest_order():
    invariants._omega_pieces.cache_clear()
    six = invariants._omega_pieces(6)
    assert invariants._omega_pieces(6) is six and isinstance(six, tuple)
    assert [key for key, _ in six] == sorted(key for key, _ in six)
    invariants._omega_pieces(7)
    assert invariants._omega_pieces(6) is not six and invariants._omega_pieces(6) == six


def test_transforms_refuse_a_bool_degree():
    # True == 1 would pass for the order of K1's CSF, and omega_check would build the key (True,)
    k1 = csf_tree(Tree(1))
    for route in (f_polynomial_from_csf, omega_check):
        with pytest.raises(ValueError, match="n must be an integer"):
            route(k1, True)
        assert route(k1, 1) == BivariatePolynomial({(1, 0): 1})
