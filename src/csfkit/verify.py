"""Distinctness verification, collision search, and the identity selftest.

verify_distinct streams every free tree of each order, computes X_T by
the fast tree DP, and groups trees in one dict keyed by the canonical CSF
serialization.  The serialization is canonical, so equal keys mean equal
polynomials.  Trees that share a key are named by their graph6 as
enumerated, which is their canonical labelling.

find_collisions does the unicyclic analogue, where genuine collisions
exist.  selftest bundles the cross-route identities into named checks,
each reporting a minimal counterexample on failure.
"""

import os
import time
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

VERIFY_CAP = 20
SELFTEST_CAP = 12
HASH_PERSON = b"csfkit.csf.v1"


def csf_hash(serialization: str) -> str:
    """Stable 128-bit digest of a canonical CSF serialization."""
    from hashlib import blake2b  # here, so that only callers of csf_hash load hashlib
    return blake2b(serialization.encode("utf-8"), digest_size=16,
                   person=HASH_PERSON).hexdigest()


def _pairs(groups, name):
    """Sorted (a, b, key) over pairs of named members of groups of two or more."""
    return sorted((a, b, key) for key, members in groups.items() if len(members) > 1
                  for a, b in combinations(sorted(map(name, members)), 2))


def _tree_job(t):
    return csf_tree(t).poly.serialize(), t.edges


def _stream_results(n, jobs):
    trees = enumerate_trees(n)
    if jobs <= 1:
        yield from map(_tree_job, trees)
        return
    from multiprocessing import Pool  # here, so that importing csfkit does not load it
    with Pool(processes=min(jobs, os.cpu_count() or 1)) as pool:
        # imap keeps submission order, so the reduce is order-stable no
        # matter how the pool schedules the work
        yield from pool.imap(_tree_job, trees, chunksize=64)


def verify_distinct(max_n: int, jobs: int = 1):
    """Check pairwise distinctness of tree CSFs for every order <= max_n.

    Returns one VerificationReport per order.  Identical collision sets
    for any jobs count; jobs = 1 runs fully in-process.
    """
    if not isinstance(max_n, int) or max_n < 1:
        raise ValueError("max_n must be a positive integer")
    if max_n > VERIFY_CAP:
        raise CapacityError(f"verification capped at max_n = {VERIFY_CAP}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    from .reports import VerificationReport  # here, so that compute does not load dataclasses
    reports = []
    for n in range(1, max_n + 1):
        t0 = time.perf_counter()
        groups = {}
        count = 0
        for ser, edges in _stream_results(n, jobs):
            count += 1
            groups.setdefault(ser, []).append(edges)
        pairs = _pairs(groups, lambda edges: format_graph6(Graph(n, edges)))
        elapsed = int((time.perf_counter() - t0) * 1000)
        reports.append(VerificationReport(
            order=n,
            graph_class="trees",
            tree_count=count,
            distinct_csf_count=len(groups),
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
    groups = {}
    for g in enumerate_unicyclic(n):
        groups.setdefault(csf_power_sum(g).poly.serialize(), []).append(g)
    return _pairs(groups, format_graph6)


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


def _forest_instances(max_n):
    for n in range(1, min(max_n, 6) + 1):
        for t in enumerate_trees(n):
            yield t
    if max_n >= 5:
        # one genuinely disconnected forest: P_3 + K_2
        yield Graph(5, [(0, 1), (1, 2), (3, 4)])


def selftest(max_n: int = 7):
    """Run the named identity checks; returns (ok, [(name, ok, counterexample)]).

    max_n bounds the tree corpora; max_n = 1 makes most checks vacuous.
    """
    if not isinstance(max_n, int) or max_n < 1:
        raise ValueError("max_n must be a positive integer")
    if max_n > SELFTEST_CAP:
        raise CapacityError(f"selftest capped at max_n = {SELFTEST_CAP}")
    trees = [t for n in range(1, max_n + 1) for t in enumerate_trees(n)]
    small_trees = [t for t in trees if t.n <= 6]
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
    run("derivative-identity", _first_failure(_forest_instances(max_n), derivative_ok))

    def level_ok(f):
        x = csf_forest(f)
        j = len(f.components())
        return all(level_sum(x, k) == forest_level_value(f.n, j, k)
                   for k in range(0, f.n + 1))
    run("level-sums", _first_failure(_forest_instances(max_n), level_ok))

    def incl_excl_ok(pair):
        g, w = pair
        if not g.edges:
            return True
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

    pieces = {}  # order -> its Omega pieces, built once in this run (omega_check builds per call)

    def omega_ok(t):
        x = csf_tree(t)
        if t.n not in pieces:
            pieces[t.n] = invariants._omega_pieces(t.n)
        via_omega = invariants._omega_products(x.poly, pieces[t.n])
        return via_omega == invariants.f_polynomial_from_csf(x, t.n)
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
