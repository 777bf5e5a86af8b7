import importlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import csfkit

from csfkit import (
    CapacityError,
    Graph,
    NotATreeError,
    Tree,
    compute_report,
    csf_hash,
    csf_power_sum,
    find_collisions,
    parse_graph6,
    selftest,
    verify_distinct,
    write_reports,
)
from csfkit import invariants
from csfkit import verify as verify_module
from csfkit.cli import main
from csfkit.csf import CsfResult
from csfkit.psym import PPolynomial
from helpers import random_permutation, random_tree, relabel

TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47)


def strip_elapsed(report):
    d = report.to_json_dict()
    d.pop("elapsed_ms")
    return d


def test_hash_is_pinned():
    # the digest is part of the on-disk report contract; it must never
    # drift between runs or platforms
    assert csf_hash("1/1 : 1") == "8898106bc07ca39dd66e50834e8143ed"
    assert csf_hash("") != csf_hash(" ")


def test_verify_distinct_counts_and_no_collisions():
    reports = verify_distinct(9)
    assert [r.tree_count for r in reports] == list(TREE_COUNTS)
    for r in reports:
        assert r.graph_class == "trees"
        assert r.distinct_csf_count == r.tree_count
        assert r.collisions == []
        assert r.config == {"max_n": 9, "jobs": 1}


def test_verify_distinct_jobs_agree():
    a = [strip_elapsed(r) for r in verify_distinct(8, jobs=1)]
    b = [strip_elapsed(r) for r in verify_distinct(8, jobs=2)]
    for da, db in zip(a, b):
        da["config"] = db["config"] = None
        assert da == db


def test_verify_pool_bounded_by_cpu_count(monkeypatch):
    started = []

    class RecordingPool:
        # stands in for multiprocessing.Pool: records the worker count and
        # maps in-process, so no process is started
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: 3)
    expected = [strip_elapsed(r) for r in verify_distinct(4)]
    reports = verify_distinct(4, jobs=100000)
    assert started == [3, 3, 3, 3]
    for want, got in zip(expected, map(strip_elapsed, reports)):
        assert got["config"] == {"max_n": 4, "jobs": 100000}
        got["config"]["jobs"] = 1
        assert got == want
    verify_distinct(2, jobs=2)
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: None)
    verify_distinct(1, jobs=2)
    assert started[4:] == [2, 2, 1]


def test_import_does_not_load_multiprocessing():
    # a fresh interpreter, since this one may have loaded it already
    src = str(Path(csfkit.__file__).resolve().parent.parent)
    code = "import sys, csfkit; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("statement, unloaded", [
    ("from csfkit import enumerate_trees, format_graph6",
     ["dataclasses", "fractions", "hashlib", "inspect", "json", "multiprocessing", "pathlib"]),
    ("from csfkit import compute_report, load_graph",
     ["dataclasses", "inspect", "multiprocessing", "pathlib"]),
    ("import csfkit.cli", ["dataclasses"]),
], ids=["gen", "compute", "cli"])
def test_import_loads_only_what_the_command_runs(statement, unloaded):
    # a fresh interpreter without site or environment, as a benchmark setup sample starts
    src = str(Path(csfkit.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); {statement}; "
            f"print(sorted(set({unloaded!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-E", "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_lazy_namespace_resolves_every_exported_name():
    assert len(csfkit.__all__) == len(set(csfkit.__all__)) == 62
    for name in csfkit.__all__:
        owner = importlib.import_module(f"csfkit.{csfkit._OWNER[name]}")
        value = getattr(csfkit, name)
        assert value is getattr(owner, name)
        assert getattr(value, "__module__", owner.__name__) == owner.__name__, name
    # the function, though csfkit.partitions the module is loaded too
    assert csfkit.partitions is sys.modules["csfkit.partitions"].partitions
    assert csfkit.csf.csf_tree is csfkit.csf_tree
    namespace = {}
    exec("from csfkit import *", namespace)
    assert set(csfkit.__all__) <= set(namespace)
    assert set(csfkit.__all__) <= set(dir(csfkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        csfkit.no_such_name


def test_verify_distinct_validates_inputs():
    with pytest.raises(ValueError):
        verify_distinct(0)
    with pytest.raises(CapacityError):
        verify_distinct(21)
    with pytest.raises(ValueError):
        verify_distinct(5, jobs=0)


def test_find_collisions_known_pair():
    pairs = find_collisions("unicyclic", 6)
    assert len(pairs) == 1
    a, b, ser = pairs[0]
    assert (a, b) == ("EO[W", "EjC_")
    ga, gb = parse_graph6(a), parse_graph6(b)
    assert ga != gb and ga.n == gb.n == 6
    # the shared CSF really is shared
    from csfkit import csf_power_sum
    assert csf_power_sum(ga).poly.serialize() == ser
    assert csf_power_sum(gb).poly.serialize() == ser
    # deterministic across calls
    assert find_collisions("unicyclic", 6) == pairs


def test_find_collisions_none_below_six():
    for n in (3, 4, 5):
        assert find_collisions("unicyclic", n) == []


def test_find_collisions_validates():
    with pytest.raises(ValueError):
        find_collisions("trees", 6)
    # the order range is enumerate_unicyclic's, 3..10
    with pytest.raises(CapacityError):
        find_collisions("unicyclic", 11)
    with pytest.raises(CapacityError):
        find_collisions("unicyclic", 2)
    assert find_collisions("unicyclic", 9) == []


def test_selftest_passes():
    ok, results = selftest(max_n=5)
    assert ok
    assert len(results) >= 10
    assert all(passed for _, passed, _ in results)
    assert all(cx == "" for _, _, cx in results)


def test_selftest_vacuous_on_tiny_corpus():
    ok, results = selftest(max_n=1)
    assert ok


def test_selftest_detects_injected_fault(monkeypatch):
    # negate the transform's sign-folded length sum b_l of part 1 at the
    # shortest length, where the Horner pass reads it, and the named check
    # must fail with a concrete counterexample
    real_sums = invariants._length_sums

    def broken_sums(poly, n):
        rows = real_sums(poly, n)
        rows[1][min(rows[1])] *= -1
        return rows

    monkeypatch.setattr(invariants, "_length_sums", broken_sums)
    ok, results = selftest(max_n=4)
    assert not ok
    by_name = {name: (passed, cx) for name, passed, cx in results}
    passed, cx = by_name["sigma-vs-direct"]
    assert not passed
    # names a counterexample graph, and the ConsistencyError the negated
    # coefficient raised on it
    graph6, _, why = cx.partition(" ")
    assert why == "(ConsistencyError)"
    assert parse_graph6(graph6).n >= 1


def test_selftest_omega_route_checks_sigma_apart_from_the_transform(monkeypatch):
    # the transform never evaluates sigma, so a wrong sigma(lambda, 1, 1)
    # fails the Omega route alone
    real_sigma = invariants.sigma

    def broken_sigma(lam, i, j, n):
        s = real_sigma(lam, i, j, n)
        return -s if (i, j) == (1, 1) else s

    monkeypatch.setattr(invariants, "sigma", broken_sigma)
    ok, results = selftest(max_n=4)
    assert not ok
    assert set(_failures(results)) == {"omega-route"}


def test_verify_distinct_reports_colliding_trees(monkeypatch):
    # one CSF per order: every pair of trees of that order collides, and
    # the pairs are named by the sorted graph6 of each tree as enumerated
    monkeypatch.setattr(verify_module, "csf_tree",
                        lambda t: CsfResult(PPolynomial({(t.n,): 1}), t.n))
    for jobs in (1, 2):
        reports = verify_distinct(5, jobs=jobs)
        assert [r.tree_count for r in reports] == [1, 1, 1, 2, 3]
        assert [r.distinct_csf_count for r in reports] == [1, 1, 1, 1, 1]
        assert [r.collisions for r in reports[:3]] == [[], [], []]
        assert reports[3].collisions == [("Ck", "Cs")]
        assert reports[4].collisions == [("DkC", "Dk_"), ("DkC", "Ds_"), ("Dk_", "Ds_")]


def _failures(results):
    return {name: cx for name, passed, cx in results if not passed}


@pytest.mark.parametrize("dp, check", [("f_polynomial_dp", "sigma-vs-direct"),
                                       ("subtree_polynomial_dp", "subtree-stats")])
def test_selftest_checks_the_dps_compute_runs(monkeypatch, dp, check):
    # a DP that counts nothing fails on the first tree, the one-vertex "@"
    monkeypatch.setattr(verify_module, dp, lambda t: invariants.BivariatePolynomial())
    ok, results = selftest(max_n=4)
    assert not ok
    assert _failures(results) == {check: "@"}


def test_selftest_reports_weighted_route_failure(monkeypatch):
    monkeypatch.setattr(verify_module, "csf_deletion_contraction",
                        lambda g, w=None: CsfResult(PPolynomial(), g.n))
    ok, results = selftest(max_n=4)
    assert not ok
    # the loop graph has CSF 0, so the double edge is the first mismatch,
    # named as edge-list text because it is a multigraph
    assert _failures(results)["route-equality-weighted"] == "2 2; 0 1; 0 1"


def test_selftest_reports_corollary_failure(monkeypatch):
    def broken(g, s, h, t):
        raise RuntimeError("injected")
    monkeypatch.setattr(verify_module, "corollary_difference", broken)
    ok, results = selftest(max_n=4)
    assert not ok
    assert [name for name, _, _ in results][5] == "corollary-difference"
    cx = _failures(results)["corollary-difference"]
    assert cx == "Cp (RuntimeError)"
    assert parse_graph6("Cp") == Graph(4, [(0, 1), (0, 2), (2, 3)])


def test_selftest_names_the_exception_a_check_raised(monkeypatch):
    def broken(x, k):
        raise ZeroDivisionError("injected")
    monkeypatch.setattr(verify_module, "level_sum", broken)
    ok, results = selftest(max_n=4)
    assert not ok
    # the first forest instance is the one-vertex tree, graph6 "@"
    assert _failures(results) == {"level-sums": "@ (ZeroDivisionError)"}


def test_compute_report_csf():
    doc = compute_report(Graph(3, [(0, 1), (1, 2), (0, 2)]), "csf")
    assert doc["n"] == 3 and doc["edge_count"] == 3
    assert doc["csf"] == "2/1 : 3\n-3/1 : 2,1\n1/1 : 1,1,1"
    assert doc["csf_hash"] == csf_hash(doc["csf"])
    assert doc["term_count"] == 3


def test_compute_report_names_its_csf_route():
    cases = [
        (Graph(4, [(2, 0), (3, 2), (1, 3)]), "tree-dp"),  # a relabelled path
        (Graph(6, [(4, 1), (0, 2), (2, 5)]), "subset-expansion"),  # a forest
        (Graph(3, [(0, 1), (1, 2), (2, 0), (1, 0)]), "subset-expansion"),
        (Graph(3, [(0, 1), (2, 2)]), "loop"),
        (Graph(0), "subset-expansion"),
        (Graph(1), "tree-dp"),
        (Graph(3, [(0, 1), (1, 0), (1, 2)]), "tree-dp"),  # a path with a doubled edge
        (Graph(4, [(0, 1), (1, 2), (2, 0)]), "subset-expansion"),  # n - 1 edges, a cycle
    ]
    for g, route in cases:
        doc = compute_report(g, "csf")
        assert doc["route"] == route
        assert doc["csf"] == csf_power_sum(g).poly.serialize()


def test_compute_checks_its_tree_once(monkeypatch):
    # one tree check is one is_forest pass; building a Tree finds no components
    calls = Counter()

    def spy(name):
        real = getattr(Graph, name)

        def counted(self, *args):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(Graph, name, counted)

    for name in ("is_forest", "is_simple", "is_connected", "components"):
        spy(name)
    edges = [(0, 1), (1, 2), (2, 3), (2, 4)]
    Tree(5, edges)
    assert calls == {"is_forest": 1}
    for what in ("csf", "invariants", "transform"):
        calls.clear()
        compute_report(Graph(5, edges), what)
        assert calls["is_forest"] == 1, what


def _shuffled(rng, g):
    edges = list(relabel(g, random_permutation(rng, g.n)).edges)
    rng.shuffle(edges)
    return Graph(g.n, edges)


def test_compute_csf_matches_subset_expansion_on_every_route():
    # the subset expansion on the graph exactly as given is the independent
    # check of every route compute --what csf picks
    rng = random.Random(77)
    graphs = [_shuffled(rng, random_tree(rng, rng.randint(1, 14))) for _ in range(200)]
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 14))
        graphs.append(_shuffled(rng, Graph(t.n, [e for e in t.edges if rng.random() < 0.7])))
    for k in range(200):
        # a tree plus chords and parallel copies, and a loop in one of three
        t = random_tree(rng, rng.randint(2, 9))
        edges = list(t.edges) + [rng.sample(range(t.n), 2) for _ in range(rng.randint(0, 3))]
        edges += [rng.choice(edges) for _ in range(rng.randint(1, 3))]
        if k % 3 == 0:
            edges.append((rng.randrange(t.n),) * 2)
        graphs.append(_shuffled(rng, Graph(t.n, edges)))
    routes = Counter()
    for g in graphs:
        doc = compute_report(g, "csf")
        ref = csf_power_sum(g)
        ser = ref.poly.serialize()
        assert (doc["csf"], doc["csf_hash"], doc["term_count"], doc["source_order"]) == (
            ser, csf_hash(ser), len(ref.poly), ref.source_order), g
        routes[doc["route"]] += 1
    assert set(routes) == {"tree-dp", "subset-expansion", "loop"}


def test_compute_report_invariants_and_transform():
    p4 = Tree(4, [(0, 1), (1, 2), (2, 3)])
    doc = compute_report(p4, "invariants")
    assert doc["degree_sequence"] == [2, 2, 0]
    assert doc["path_sequence"] == [3, 2, 1]
    assert doc["trunk_order"] == 0
    assert doc["classification"] == "path"
    doc2 = compute_report(p4, "transform")
    assert doc2["equal"] is True
    assert doc2["f_from_csf"] == doc2["f_direct"]


def test_compute_report_rejects_non_tree_invariants():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotATreeError):
        compute_report(tri, "invariants")
    with pytest.raises(NotATreeError):
        compute_report(tri, "transform")
    with pytest.raises(ValueError):
        compute_report(tri, "nonsense")


def test_write_reports(tmp_path):
    reports = verify_distinct(5)
    paths = write_reports(reports, tmp_path / "out")
    names = sorted(p.name for p in paths)
    assert "summary.csv" in names
    assert "verify_n03.json" in names
    doc = json.loads((tmp_path / "out" / "verify_n04.json").read_text())
    assert doc["class"] == "trees"
    assert doc["tree_count"] == 2
    assert doc["distinct_csf_count"] == 2
    csv_lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert csv_lines[0] == "n,trees,distinct,collisions,ms"
    assert len(csv_lines) == 6
    assert csv_lines[4].startswith("4,2,2,0,")


def test_reports_deterministic_modulo_elapsed():
    a = [strip_elapsed(r) for r in verify_distinct(7)]
    b = [strip_elapsed(r) for r in verify_distinct(7)]
    assert a == b


# CLI


def test_cli_gen(capsys):
    assert main(["gen", "--n", "5", "--class", "trees"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(parse_graph6(line).n == 5 for line in lines)
    assert main(["gen", "--n", "6", "--class", "unicyclic"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13
    assert main(["gen", "--n", "7", "--class", "spiders"]) == 0
    spiders = capsys.readouterr().out.strip().splitlines()
    assert main(["gen", "--n", "7", "--class", "two-branch"]) == 0
    two_branch = capsys.readouterr().out.strip().splitlines()
    assert main(["gen", "--n", "7", "--class", "trees"]) == 0
    trees = capsys.readouterr().out.strip().splitlines()
    # one path per order; spiders + two-branch + path cover order 7
    assert len(spiders) + len(two_branch) + 1 == len(trees) == 11


def test_cli_compute(tmp_path, capsys):
    f = tmp_path / "p4.txt"
    f.write_text("4 3\n0 1\n1 2\n2 3\n")
    out_json = tmp_path / "doc.json"
    assert main(["compute", "--input", str(f), "--what", "csf",
                 "--json", str(out_json)]) == 0
    printed = capsys.readouterr().out
    doc = json.loads(printed)
    assert doc["what"] == "csf" and doc["n"] == 4
    assert json.loads(out_json.read_text()) == doc
    assert main(["compute", "--input", str(f), "--what", "transform"]) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True


def test_cli_compute_non_tree_invariants_is_usage_error(tmp_path, capsys):
    f = tmp_path / "tri.g6"
    f.write_text("Bw\n")
    assert main(["compute", "--input", str(f), "--what", "invariants"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_compute_missing_file(tmp_path, capsys):
    assert main(["compute", "--input", str(tmp_path / "nope"), "--what", "csf"]) == 2


def test_cli_compute_unreadable_input_is_usage_error(tmp_path, capsys):
    assert main(["compute", "--input", str(tmp_path), "--what", "csf"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_verify_and_report(tmp_path, capsys):
    assert main(["verify", "--max-n", "6", "--jobs", "2",
                 "--report", str(tmp_path / "rep")]) == 0
    out = capsys.readouterr().out
    assert "n=6 trees=6 distinct=6 collisions=0" in out
    assert (tmp_path / "rep" / "summary.csv").exists()
    assert (tmp_path / "rep" / "verify_n06.json").exists()


def test_cli_verify_capacity(capsys):
    assert main(["verify", "--max-n", "99"]) == 3
    assert "capped" in capsys.readouterr().err


def test_cli_collide_exit_codes(capsys):
    assert main(["collide", "--class", "unicyclic", "--n", "6"]) == 1
    out = capsys.readouterr().out
    assert "1 colliding pair(s)" in out
    assert main(["collide", "--class", "unicyclic", "--n", "4"]) == 0
    assert "0 colliding pair(s)" in capsys.readouterr().out


def test_cli_selftest(capsys):
    assert main(["selftest", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS route-equality-trees" in out
    assert "FAIL" not in out


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "5", "--class", "bogus"])
    assert exc.value.code == 2
