"""Tests of the benchmark itself: reproducible corpora, gates that trip on
wrong answers, tracing that leaves csfkit as it found it."""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import corpus
import gates
import run
import tracing
import workloads
from csfkit import (
    Tree,
    compute_report,
    csf_tree,
    enumerate_trees,
    enumerate_unicyclic,
    format_graph6,
    load_graph,
    parse_graph6,
    verify_distinct,
)
from csfkit import enumeration, verify


def _relabel(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


# corpus

def test_same_seed_gives_byte_identical_corpus():
    assert corpus.corpus_bytes(corpus.make_corpus(7)) == corpus.corpus_bytes(corpus.make_corpus(7))
    assert corpus.corpus_bytes(corpus.make_corpus(7)) != corpus.corpus_bytes(corpus.make_corpus(8))


def test_seeds_relabel_the_same_shapes():
    a, b = corpus.make_corpus(7), corpus.make_corpus(8)
    assert {r.text for r in a}.isdisjoint(r.text for r in b)

    def shapes(reqs):
        # a tree by its certificate, a multigraph by its degree sequence
        out = []
        for r in reqs:
            g = load_graph(r.text)
            degrees = sorted(Counter(v for e in g.edges for v in e).values())
            out.append((r.kind, r.what, r.n, r.m, gates.tree_certificate(g.n, g.edges), degrees))
        return sorted(out)
    assert shapes(a) == shapes(b)


def test_corpus_requests_parse_to_their_stated_shape():
    reqs = corpus.make_corpus(3)
    mix = corpus.describe(reqs)
    assert {k: d["requests"] for k, d in mix.items()} == {
        "csf-multigraph": 88, "csf-tree": 64, "invariants": 32, "transform": 32}
    for r in reqs:
        g = load_graph(r.text)
        assert (g.n, len(g.edges)) == (r.n, r.m)
        if r.kind == "csf-multigraph":
            assert not g.is_simple()
        else:
            Tree.from_graph(g)


def test_graph6_text_round_trips_through_csfkit():
    rng = random.Random(1)
    for n in (2, 7, 13, 20):
        edges = corpus.random_tree_edges(rng, n)
        g = parse_graph6(corpus.graph6_text(n, edges))
        assert g == Tree(n, edges)


# certificates written for the gates

def test_tree_certificate_separates_and_identifies_trees():
    rng = random.Random(2)
    for n in range(1, 10):
        trees = list(enumerate_trees(n))
        certs = {gates.tree_certificate(n, list(t.edges)) for t in trees}
        assert len(certs) == len(trees) == gates.free_tree_count(n)
        for t in trees:
            assert gates.tree_certificate(n, _relabel(n, t.edges, rng)) in certs


def test_unicyclic_certificate_separates_and_identifies_graphs():
    rng = random.Random(3)
    for n in range(3, 8):
        graphs = list(enumerate_unicyclic(n))
        certs = [gates.unicyclic_certificate(n, list(g.edges)) for g in graphs]
        assert None not in certs
        assert len(set(certs)) == len(graphs) == gates.UNICYCLIC[n]
        for g in graphs:
            assert gates.unicyclic_certificate(n, _relabel(n, g.edges, rng)) in certs


# verify gate

def test_verify_gate_passes_real_output():
    assert gates.check_verify(verify_distinct(7), 7) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: dataclasses.replace(r, tree_count=r.tree_count - 1,
                                  distinct_csf_count=r.distinct_csf_count - 1),
    lambda r: dataclasses.replace(r, distinct_csf_count=r.distinct_csf_count - 1),
    lambda r: dataclasses.replace(r, collisions=[("a", "b")]),
    lambda r: dataclasses.replace(r, tree_count=r.tree_count + 1,
                                  distinct_csf_count=r.distinct_csf_count + 1),
])
def test_verify_gate_trips_on_wrong_report(corrupt):
    reports = verify_distinct(7)
    reports[6] = corrupt(reports[6])
    assert gates.check_verify(reports, 7)


def test_verify_gate_trips_on_missing_order():
    assert gates.check_verify(verify_distinct(7)[:-1], 7)


# gen gate

def _gen_output():
    return ([format_graph6(t) for t in enumerate_trees(8)],
            [format_graph6(g) for g in enumerate_unicyclic(6)])


def test_gen_gate_passes_real_output():
    trees, uni = _gen_output()
    assert gates.check_gen(trees, 8, uni, 6) == []


def test_gen_gate_trips_on_dropped_tree():
    trees, uni = _gen_output()
    assert gates.check_gen(trees[1:], 8, uni, 6)


def test_gen_gate_trips_on_isomorphic_duplicate():
    trees, uni = _gen_output()
    n, edges = gates.parse_graph6(trees[3])
    trees[4] = format_graph6(Tree(n, _relabel(n, edges, random.Random(4))))
    failures = gates.check_gen(trees, 8, uni, 6)
    assert any("isomorphic" in f for f in failures)


def test_gen_gate_trips_on_wrong_class_and_bad_text():
    trees, uni = _gen_output()
    uni[0] = trees[0]                               # a tree where a unicyclic graph belongs
    trees[0] = "?"                                  # graph6 of the empty graph on 0 vertices
    trees[1] = trees[1][:-1]                        # truncated line
    failures = gates.check_gen(trees, 8, uni, 6)
    assert len(failures) >= 3


def test_gen_gate_trips_on_wrong_unicyclic_count():
    trees, uni = _gen_output()
    assert gates.check_gen(trees, 8, uni + [uni[0]], 6)


# compute gate

def _tree_request(rng, kind, what, n, fmt):
    return corpus.Request(kind, what, n, n - 1, fmt(n, corpus.random_tree_edges(rng, n)))


def _small_mix():
    rng = random.Random(5)
    reqs = [_tree_request(rng, "csf-tree", "csf", 6, corpus.graph6_text),
            _tree_request(rng, "transform", "transform", 7, corpus.edge_list_text),
            _tree_request(rng, "invariants", "invariants", 8, corpus.graph6_text)]
    n, edges = corpus.random_multigraph_edges(rng, 8, loop=False)
    reqs.append(corpus.Request("csf-multigraph", "csf", n, 8, corpus.edge_list_text(n, edges)))
    n, edges = corpus.random_multigraph_edges(rng, 8, loop=True)
    reqs.append(corpus.Request("csf-multigraph", "csf", n, 8, corpus.edge_list_text(n, edges)))
    return reqs


def test_compute_gate_passes_real_responses():
    mix = workloads.ComputeMix()
    reqs = _small_mix()
    state = (reqs, [workloads._expectation(r) for r in reqs])
    wall, lat, texts = mix.run_pass(state)
    assert len(lat) == len(reqs)
    assert sum(lat) == pytest.approx(wall)
    assert mix.check(state, texts) == []


def _response(req):
    return compute_report(load_graph(req.text), req.what)


def test_compute_gate_trips_on_corrupted_csf_line():
    req = _small_mix()[0]
    doc = _response(req)
    lines = doc["csf"].splitlines()
    lines[1] = lines[1].replace("/1", "1/1", 1)
    doc["csf"] = "\n".join(lines)
    assert gates.check_response(workloads._expectation(req), json.dumps(doc))


def test_compute_gate_trips_on_wrong_multigraph_csf():
    req = _small_mix()[3]
    doc = _response(req)
    doc["csf"] = csf_tree(Tree(req.n, [(0, v) for v in range(1, req.n)])).poly.serialize()
    assert gates.check_response(workloads._expectation(req), json.dumps(doc))


def test_compute_gate_trips_on_failed_transform():
    req = _small_mix()[1]
    doc = _response(req)
    doc["equal"] = False
    assert gates.check_response(workloads._expectation(req), json.dumps(doc))


def test_compute_gate_trips_on_wrong_invariants():
    req = _small_mix()[2]
    doc = _response(req)
    doc["degree_sequence"][0] += 1
    assert gates.check_response(workloads._expectation(req), json.dumps(doc))
    doc = _response(req)
    doc["stats_from_subtree_polynomial"]["paths"][-1] += 1
    assert gates.check_response(workloads._expectation(req), json.dumps(doc))


def test_compute_gate_trips_on_exception_and_garbage():
    exp = workloads._expectation(_small_mix()[0])
    assert gates.check_response(exp, None)
    assert gates.check_response(exp, "not json")


# tracing

# passes

def test_verify_pass_items_cover_the_pass():
    w = workloads.VerifyTrees(6)
    wall, lat, reports = w.run_pass(None)
    # one item per tree, plus the time from the call to the first tree
    assert len(lat) == w.attempted(None) + 1
    assert sum(lat) == pytest.approx(wall)
    assert w.check(None, reports) == []


def test_item_best_takes_each_items_least_time_over_whole_passes():
    passes = [(0.6, [0.1, 0.5]), (0.5, [0.3, 0.2]), (0.0, [])]
    assert run.item_best(passes) == [0.1, 0.2]


def test_tracing_restores_every_wrapped_name():
    before = {(id(o), a): getattr(o, a) for o, a, *_ in tracing._CALLS + tracing._GENERATORS}
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    tracing.uninstall(saved)
    after = {(id(o), a): getattr(o, a) for o, a, *_ in tracing._CALLS + tracing._GENERATORS}
    assert before == after


def test_traced_verify_yields_layer_metrics():
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        reports = verify.verify_distinct(7)
        list(enumeration.enumerate_unicyclic(5))
    finally:
        tracing.uninstall(saved)
    assert gates.check_verify(reports, 7) == []
    m = {k: v for k, (v, _) in tracing.summarize(tracer.spans).items()}
    trees = sum(gates.FREE_TREES[:7])
    assert m["csf.tree_dp_calls"] == trees
    assert m["verify.buckets"] == trees and m["verify.max_bucket"] == 1
    assert m["verify.collisions"] == 0
    # trees(5) inside the unicyclic search adds 3 more yields
    assert m["enumeration.trees_yielded"] == trees + 3
    assert 0 < m["enumeration.yield_ratio"] <= 1
    assert m["canon.unicyclic_yield_ratio"] > 0
    assert m["psym.serialized_bytes"] > 0 and m["verify.group_self_s"] > 0
    assert all(s[tracing.END] is not None for s in tracer.spans)


# the command

def test_run_refuses_a_directory_without_sources(tmp_path):
    here = Path(__file__).resolve().parent.parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
