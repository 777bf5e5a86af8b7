import json
import multiprocessing
import os
import subprocess
import sys
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
    with pytest.raises(CapacityError):
        find_collisions("unicyclic", 9)
    with pytest.raises(CapacityError):
        find_collisions("unicyclic", 2)


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
    # corrupt the transform coefficient and the named check must fail
    # with a concrete counterexample
    real_sigma = invariants.sigma

    def broken_sigma(lam, i, j, n):
        val = real_sigma(lam, i, j, n)
        if i == 1 and j == 1:
            return -val
        return val

    invariants._omega_piece.cache_clear()
    monkeypatch.setattr(invariants, "sigma", broken_sigma)
    try:
        ok, results = selftest(max_n=4)
    finally:
        invariants._omega_piece.cache_clear()
    assert not ok
    by_name = {name: (passed, cx) for name, passed, cx in results}
    passed, cx = by_name["sigma-vs-direct"]
    assert not passed
    assert cx  # names a counterexample graph
    g = parse_graph6(cx)
    assert g.n >= 1


def test_verify_distinct_reports_colliding_trees(monkeypatch):
    # one CSF per order: every pair of trees of that order collides, and
    # the pairs are named by sorted tree certificates
    monkeypatch.setattr(verify_module, "csf_tree",
                        lambda t: CsfResult(PPolynomial({(t.n,): 1}), t.n))
    for jobs in (1, 2):
        reports = verify_distinct(5, jobs=jobs)
        assert [r.tree_count for r in reports] == [1, 1, 1, 2, 3]
        assert [r.distinct_csf_count for r in reports] == [1, 1, 1, 1, 1]
        assert [r.collisions for r in reports[:3]] == [[], [], []]
        assert reports[3].collisions == [("((())())", "(()()())")]
        assert reports[4].collisions == [
            ("((()())())", "((())(()))"),
            ("((()())())", "(()()()())"),
            ("((())(()))", "(()()()())"),
        ]


def _failures(results):
    return {name: cx for name, passed, cx in results if not passed}


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
    assert cx == "Cp"
    assert parse_graph6(cx) == Graph(4, [(0, 1), (0, 2), (2, 3)])


def test_compute_report_csf():
    doc = compute_report(Graph(3, [(0, 1), (1, 2), (0, 2)]), "csf")
    assert doc["n"] == 3 and doc["edge_count"] == 3
    assert doc["csf"] == "2/1 : 3\n-3/1 : 2,1\n1/1 : 1,1,1"
    assert doc["csf_hash"] == csf_hash(doc["csf"])
    assert doc["term_count"] == 3


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
