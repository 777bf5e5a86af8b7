"""Distinctness verification, collision search, and the identity selftest.

verify_distinct streams every free tree of each order, computes X_T by
the fast tree DP, and groups trees in one dict keyed by X_T's coefficient
vector, not its text: equal keys mean equal polynomials.  Trees that share
a key are named by their graph6 as enumerated, their canonical labelling.

find_collisions does the unicyclic analogue, where genuine collisions
exist, keyed by the CSF serialization its output names.  selftest bundles
the cross-route identities into named checks, each reporting a minimal
counterexample on failure.
"""

import os
import time
from array import array
from functools import lru_cache
from itertools import combinations

from . import invariants
# canonical_certificate is unused here but perfbench/tracing.py wraps it by this module's name
from .canon import canonical_certificate  # noqa: F401
from .csf import (
    corollary_difference,
    csf_deletion_contraction,
    csf_forest,
    csf_graph,
    csf_power_sum,
    csf_tree,
    csf_weighted,
    forest_level_value,
    inclusion_exclusion_rhs,
    level_sum,
    subtree_derivative,
)
from .enumeration import classify, enumerate_trees, enumerate_unicyclic
from .errors import CapacityError
from .formats import format_edge_list, format_graph6
from .graphs import Graph, Tree, VertexWeighting, path_sequence, trunk, twig_sequence
from .invariants import (
    f_polynomial_direct,
    f_polynomial_dp,
    generalized_degree_sequence,
    identity_matrix,
    matrix_multiply,
    sign_binomial_matrix,
    stats_from_subtree_polynomial,
    subtree_polynomial,
    subtree_polynomial_dp,
)
from .partitions import partitions

VERIFY_CAP = 20
SELFTEST_CAP = 12
HASH_PERSON = b"csfkit.csf.v1"


def csf_hash(serialization: str) -> str:
    """Stable 128-bit digest of a canonical CSF serialization."""
    from hashlib import blake2b  # here, so that only callers of csf_hash load hashlib
    return blake2b(serialization.encode("utf-8"), digest_size=16,
                   person=HASH_PERSON).hexdigest()


def _classes(keyed, name):
    """Groups a stream of (key, member): (members, distinct keys, sorted (a, b, key)
    over pairs of named members that share a key)."""
    groups = {}
    for key, member in keyed:
        groups.setdefault(key, []).append(member)
    pairs = sorted((a, b, key) for key, members in groups.items() if len(members) > 1
                   for a, b in combinations(sorted(map(name, members)), 2))
    return sum(map(len, groups.values())), len(groups), pairs


@lru_cache(maxsize=None)
def _slots(n):  # partitions(n) has one order in every process, so workers' keys agree
    return {lam: i for i, lam in enumerate(partitions(n))}


def _csf_key(x):
    """X_T as bytes: its coefficients, one C int (32 bits) per partition of its order.

    CsfResult checked X_T homogeneous, so every term has a slot: equal bytes, equal X_T.
    A tree's sum of |c_lambda| is 2^(n-1), one per edge subset (each partition's signs
    agree), at most 2^21 at TREE_CAP = 22; a coefficient past 32 bits would raise
    OverflowError rather than let two keys collide.
    """
    slots = _slots(x.source_order)
    vec = [0] * len(slots)
    for lam, c in x.poly.terms.items():
        vec[slots[lam]] = c
    return array("i", vec).tobytes()


def _tree_job(t):
    return _csf_key(csf_tree(t)), t.edges


def _stream_results(n, jobs):
    trees, workers = enumerate_trees(n), min(jobs, os.cpu_count() or 1)
    if workers == 1:  # a one-process pool would only pickle every tree
        yield from map(_tree_job, trees)
        return
    from multiprocessing import Pool  # here, so that importing csfkit does not load it
    with Pool(processes=workers) as pool:
        # imap keeps submission order, so the reduce is order-stable no
        # matter how the pool schedules the work
        yield from pool.imap(_tree_job, trees, chunksize=64)


def verify_distinct(max_n: int, jobs: int = 1):
    """Check pairwise distinctness of tree CSFs for every order <= max_n.

    Returns one VerificationReport per order.  Identical collision sets
    for any jobs count; it runs fully in-process when jobs = 1 or only
    one core is usable.
    """
    if not isinstance(max_n, int) or isinstance(max_n, bool) or max_n < 1:
        raise ValueError("max_n must be a positive integer")
    if max_n > VERIFY_CAP:
        raise CapacityError(f"verification capped at max_n = {VERIFY_CAP}")
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError("jobs must be a positive integer")
    from .reports import VerificationReport  # here, so that compute does not load dataclasses
    reports = []
    for n in range(1, max_n + 1):
        t0 = time.perf_counter()
        count, distinct, pairs = _classes(_stream_results(n, jobs),
                                          lambda edges: format_graph6(Graph(n, edges)))
        elapsed = int((time.perf_counter() - t0) * 1000)
        reports.append(VerificationReport(
            order=n,
            graph_class="trees",
            tree_count=count,
            distinct_csf_count=distinct,
            collisions=[(a, b) for a, b, _ in pairs],
            elapsed_ms=elapsed,
            config={"max_n": max_n, "jobs": jobs},
        ))
    return reports


def find_collisions(graph_class: str, n: int):
    """All non-isomorphic same-CSF pairs in the class, deterministically.

    Returns a list of (certificate, certificate, shared CSF serialization):
    the graph6 of each graph in the canonical labelling enumeration gives it.
    """
    if graph_class != "unicyclic":
        raise ValueError(f"unsupported class: {graph_class!r}")
    keyed = ((csf_power_sum(g).poly.serialize(), g) for g in enumerate_unicyclic(n))
    return _classes(keyed, format_graph6)[2]


def _counterexample(g: Graph) -> str:
    if g.is_simple():
        return format_graph6(g)
    return format_edge_list(g).replace("\n", "; ").strip("; ")


def _first_failure(instances, predicate):
    # instances: graphs, or tuples whose first entry is the graph to report;
    # predicate returns True on pass, and an exception it raises is named
    for inst in instances:
        try:
            ok, why = predicate(inst), ""
        except Exception as exc:
            ok, why = False, f" ({type(exc).__name__})"
        if not ok:
            return False, _counterexample(inst[0] if isinstance(inst, tuple) else inst) + why
    return True, ""


def _weighted_instances():
    # fixed multigraph zoo: loops, parallels, zero weights
    yield Graph(1, [(0, 0)]), VertexWeighting((1,))
    yield Graph(2, [(0, 1), (0, 1)]), VertexWeighting((2, 1))
    yield Graph(3, [(0, 1), (1, 2), (0, 2), (1, 1)]), VertexWeighting((1, 1, 1))
    yield Graph(3, [(0, 1), (1, 2)]), VertexWeighting((2, 0, 1))
    yield Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), VertexWeighting((1, 2, 1, 3))
    yield Graph(4, [(0, 1), (0, 1), (2, 3)]), VertexWeighting((1, 1, 4, 0))


def selftest(max_n: int = 7):
    """Run the named identity checks; returns (ok, [(name, ok, counterexample)]).

    max_n bounds the tree corpora; max_n = 1 makes most checks vacuous.
    """
    if not isinstance(max_n, int) or isinstance(max_n, bool) or max_n < 1:
        raise ValueError("max_n must be a positive integer")
    if max_n > SELFTEST_CAP:
        raise CapacityError(f"selftest capped at max_n = {SELFTEST_CAP}")
    trees = [t for n in range(1, max_n + 1) for t in enumerate_trees(n)]
    small_trees = [t for t in trees if t.n <= 6]
    # the small trees and one genuinely disconnected forest: P_3 + K_2
    forests = small_trees + ([Graph(5, [(0, 1), (1, 2), (3, 4)])] if max_n >= 5 else [])
    results = []

    def run(name, ok_counter):
        ok, cx = ok_counter
        results.append((name, ok, cx))

    def routes_agree(t):
        a = csf_power_sum(t).poly
        return (a == csf_deletion_contraction(t).poly
                and a == csf_forest(t).poly
                and a == csf_tree(t).poly)
    run("route-equality-trees", _first_failure(small_trees, routes_agree))

    def weighted_routes_agree(pair):
        g, w = pair
        return csf_weighted(g, w).poly == csf_deletion_contraction(g, w).poly
    run("route-equality-weighted", _first_failure(_weighted_instances(), weighted_routes_agree))

    def derivative_ok(f):
        x = csf_forest(f).poly
        return all(x.partial_derivative(j) == subtree_derivative(f, j)
                   for j in range(1, f.n + 1))
    run("derivative-identity", _first_failure(forests, derivative_ok))

    def level_ok(f):
        x = csf_forest(f)
        j = len(f.components())
        return all(level_sum(x, k) == forest_level_value(f.n, j, k)
                   for k in range(0, f.n + 1))
    run("level-sums", _first_failure(forests, level_ok))

    def incl_excl_ok(pair):
        g, w = pair
        s = set(range(0, len(g.edges), 2))
        s.add(0)
        return inclusion_exclusion_rhs(g, w, s) == csf_weighted(g, w).poly
    run("inclusion-exclusion", _first_failure(_weighted_instances(), incl_excl_ok))

    def corollary_ok(args):
        g, s, h, t = args
        lhs, rhs = corollary_difference(g, s, h, t)
        return lhs == rhs
    # triangle move: u=0, v1=1, v2=2 plus an anchor path; H rewires 0-1 to 1-2
    g_tm = Graph(4, [(0, 1), (0, 2), (2, 3)])
    h_tm = Graph(4, [(1, 2), (0, 2), (2, 3)])
    # two 6-vertex two-branch trees with the trunk edge contracted
    g_h6 = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
    h_h6 = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    instances = [
        (g_tm, {1}, h_tm, {1}),
        (g_h6, {3}, h_h6, {3}),
        (g_tm, {0, 2}, g_tm, {0, 2}),
    ]
    run("corollary-difference", _first_failure(instances, corollary_ok))

    def sigma_ok(t):
        via_sigma = invariants.f_polynomial_from_csf(csf_tree(t), t.n)
        direct = f_polynomial_direct(t)
        return via_sigma == direct and f_polynomial_dp(t) == direct
    run("sigma-vs-direct", _first_failure(trees, sigma_ok))

    def omega_ok(t):
        x = csf_tree(t)
        return invariants.omega_check(x, t.n) == invariants.f_polynomial_from_csf(x, t.n)
    run("omega-route", _first_failure(trees, omega_ok))

    def involution_ok(k, n, i):
        a = sign_binomial_matrix(k, n, i)
        return matrix_multiply(a, a) == identity_matrix(k)
    cx = next((f"(k={k}, n={n}, i={i})" for n in range(2, 11) for i in range(1, n)
               for k in range(1, n - i + 1) if not involution_ok(k, n, i)), "")
    run("involution", (not cx, cx))

    def stats_ok(t):
        s_poly = subtree_polynomial(t)
        degs, paths = stats_from_subtree_polynomial(s_poly, t.n)
        direct_degs = list(t.degree_sequence())
        while direct_degs and direct_degs[-1] == 0:
            direct_degs.pop()
        return (degs == tuple(direct_degs) and paths == path_sequence(t)
                and subtree_polynomial_dp(t) == s_poly)
    run("subtree-stats", _first_failure(trees, stats_ok))

    def projection_ok(t):
        gds = generalized_degree_sequence(t)
        sliced = {}
        for (size, e, d), c in gds.items():
            if size >= 1 and e == size - 1:
                key = (size, d)
                sliced[key] = sliced.get(key, 0) + c
        return sliced == f_polynomial_direct(t).terms
    run("gds-projection", _first_failure([t for t in trees if t.n <= 8], projection_ok))

    overall = all(ok for _, ok, _ in results)
    return overall, results


def compute_report(g: Graph, what: str) -> dict:
    """The JSON-ready document behind the compute subcommand."""
    if what not in ("csf", "invariants", "transform"):
        raise ValueError(f"unknown computation: {what!r}")
    doc = {"what": what, "n": g.n, "edge_count": len(g.edges)}
    if what == "csf":
        result, doc["route"] = csf_graph(g)
        ser = result.poly.serialize()
        doc["source_order"] = result.source_order
        doc["csf"] = ser
        doc["csf_hash"] = csf_hash(ser)
        doc["term_count"] = len(result.poly)
        return doc
    t = Tree.from_graph(g)
    if what == "invariants":
        # both DPs first: their cap refuses a large tree before any other work
        s_poly = subtree_polynomial_dp(t)
        f_poly = f_polynomial_dp(t)
        degs, paths = stats_from_subtree_polynomial(s_poly, t.n)
        doc["degree_sequence"] = list(t.degree_sequence())
        doc["path_sequence"] = list(path_sequence(t))
        doc["twig_sequence"] = list(twig_sequence(t))
        doc["trunk_order"] = len(trunk(t))
        doc["subtree_polynomial"] = s_poly.serialize()
        doc["f_polynomial"] = f_poly.serialize()
        doc["stats_from_subtree_polynomial"] = {
            "degrees": list(degs), "paths": list(paths)}
        doc["classification"] = classify(t)
        return doc
    x = csf_tree(t)
    via_sigma = invariants.f_polynomial_from_csf(x, t.n)
    direct = f_polynomial_dp(t)
    doc["f_from_csf"] = via_sigma.serialize()
    doc["f_direct"] = direct.serialize()
    doc["equal"] = via_sigma == direct
    return doc
