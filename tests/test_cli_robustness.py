"""Inputs that must end with an exit code, not hang, when run as a command."""

import json
import os
import resource
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from csfkit.psym import PPolynomial

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, preexec_fn=None):
    return subprocess.run([sys.executable, "-m", "csfkit", *args], capture_output=True,
                          text=True, timeout=30, env={**os.environ, "PYTHONPATH": str(SRC)},
                          preexec_fn=preexec_fn)


def _limit_address_space():
    # 1 GiB: a run that sizes lists by a hostile header fails with
    # MemoryError here instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_compute_on_huge_edge_list_header_is_parse_error(tmp_path):
    f = tmp_path / "huge.txt"
    f.write_text("1000000000 0\n")
    out = run_cli("compute", "--input", str(f), "--what", "csf", preexec_fn=_limit_address_space)
    assert out.returncode == 2, out.stderr
    assert "258047" in out.stderr


def _path(n):
    return f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))


def _star(n):
    return f"{n} {n - 1}\n" + "".join(f"0 {i}\n" for i in range(1, n))


def _broom(handle, leaves):
    # a path of `handle` vertices whose last vertex carries `leaves` leaves
    body = _path(handle).split("\n", 1)[1]
    n = handle + leaves
    return f"{n} {n - 1}\n" + body + "".join(f"{handle - 1} {handle + j}\n" for j in range(leaves))


def _star_csf(n):
    # X = sum over k of (-1)^k C(n - 1, k) p_(k+1, 1^(n-1-k))
    return PPolynomial({(k + 1,) + (1,) * (n - 1 - k): (-1) ** k * comb(n - 1, k)
                        for k in range(n)})


LARGE_TREES = {"star40": _star(40), "path1200": _path(1200)}
BUSHY_TREES = {"broom501": _broom(50, 451)}
SPARSE_GRAPHS = {**LARGE_TREES, "path40": _path(40), "path41": _path(41), "path64": _path(64),
                 "star1000": _star(1000), "cycle40": "40 40\n0 39\n" + _path(40).split("\n", 1)[1]}


@pytest.mark.parametrize("name, code, expect", [
    pytest.param("path40", 0, 37338, id="path40"),
    pytest.param("path41", 0, 44583, id="path41"),
    pytest.param("star40", 0, 40, id="star40"),
    # few states per merge and narrow keys: well inside the DP cap
    pytest.param("star1000", 0, 1000, id="star1000"),
    # the DP's merge work passes its cap
    pytest.param("path64", 3, "tree DP capped", id="path64"),
    pytest.param("path1200", 3, "tree DP capped", id="path1200"),
    # a cycle: 2^40 - 40 acyclic subsets, refused before the walk
    pytest.param("cycle40", 3, "subset expansion capped", id="cycle40"),
])
def test_compute_csf_on_large_sparse_graph_ends(tmp_path, name, code, expect):
    f = tmp_path / f"{name}.txt"
    f.write_text(SPARSE_GRAPHS[name])
    out = run_cli("compute", "--input", str(f), "--what", "csf")
    assert out.returncode == code, out.stderr
    if code == 0:
        doc = json.loads(out.stdout)
        assert doc["term_count"] == expect
        if name.startswith("star"):
            assert PPolynomial.deserialize(doc["csf"]) == _star_csf(expect)
    else:
        assert expect in out.stderr


TREE_QUERIES = {**SPARSE_GRAPHS, "star300": _star(300), "path300": _path(300),
                "star1500": _star(1500), "star5000": _star(5000), "path5000": _path(5000)}


@pytest.mark.parametrize("name, what", [
    # on a path or a star each invariant DP charges n^2 + n - 2 units, past
    # the cap from n = 2,828 on; transform's CSF DP stops first on the path
    ("path1200", "transform"),
    ("star5000", "invariants"),
    ("path5000", "invariants"),
])
def test_tree_queries_past_their_work_caps_are_capacity_errors(tmp_path, name, what):
    f = tmp_path / f"{name}.txt"
    f.write_text(TREE_QUERIES[name])
    out = run_cli("compute", "--input", str(f), "--what", what)
    assert out.returncode == 3, out.stderr
    assert "tree DP capped" in out.stderr


def _closed_forms(name):
    # (degree sequence, path sequence) of a star or a path
    shape, n = name[:4], int(name[4:])
    if shape == "star":
        return [n - 1] + [0] * (n - 3) + [1], [n - 1, comb(n - 1, 2)]
    return [2, n - 2] + [0] * (n - 3), list(range(n - 1, 0, -1))


@pytest.mark.parametrize("name, what", [
    # the star has 2^39 + 39 subtrees, too many to enumerate, but the DPs
    # count them by top vertex; path41's transform is its CSF DP and σ
    ("star40", "invariants"),
    ("star40", "transform"),
    ("star300", "invariants"),
    ("path300", "invariants"),
    ("path1200", "invariants"),
    ("path41", "transform"),
    # the star's CSF DP merges 2 options per leaf into narrow keys
    ("star1500", "csf"),
    ("star1500", "transform"),
])
def test_tree_queries_finish(tmp_path, name, what):
    f = tmp_path / f"{name}.txt"
    f.write_text(TREE_QUERIES[name])
    out = run_cli("compute", "--input", str(f), "--what", what)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    if what == "csf":
        assert doc["term_count"] == 1500
        assert PPolynomial.deserialize(doc["csf"]) == _star_csf(1500)
        return
    if what == "transform":
        assert doc["equal"] is True
        return
    degrees, paths = _closed_forms(name)
    assert doc["degree_sequence"] == degrees and doc["path_sequence"] == paths
    while degrees[-1] == 0:
        degrees.pop()
    assert doc["stats_from_subtree_polynomial"] == {"degrees": degrees, "paths": paths}


def test_compute_csf_on_star300_matches_closed_form(tmp_path):
    f = tmp_path / "star300.txt"
    f.write_text(_star(300))
    out = run_cli("compute", "--input", str(f), "--what", "csf")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["route"] == "tree-dp" and doc["term_count"] == 300
    assert PPolynomial.deserialize(doc["csf"]) == _star_csf(300)


@pytest.mark.parametrize("what", ["csf", "transform"])
@pytest.mark.parametrize("name", sorted(BUSHY_TREES))
def test_bushy_trees_stop_on_the_tree_dp_cap(tmp_path, name, what):
    # few states but long partitions: up the handle the keys grow to
    # hundreds of fields, whose width the DP's cap charges, so both
    # queries stop within a second
    f = tmp_path / f"{name}.txt"
    f.write_text(BUSHY_TREES[name])
    out = run_cli("compute", "--input", str(f), "--what", what)
    assert out.returncode == 3, out.stderr
    assert "tree DP capped" in out.stderr


@pytest.mark.parametrize("name", ["broom501", "path1200"])
def test_tree_dp_cap_stops_before_memory_runs_out(tmp_path, name):
    # the cap charges key width as well as key pairs, so wide keys stop it
    # inside 1 GiB of address space, not by MemoryError
    f = tmp_path / f"{name}.txt"
    f.write_text(SPARSE_GRAPHS.get(name) or BUSHY_TREES[name])
    out = run_cli("compute", "--input", str(f), "--what", "csf", preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert "tree DP capped" in out.stderr and "MemoryError" not in out.stderr


@pytest.mark.parametrize("max_n, code", [("0", 2), ("13", 3)])
def test_selftest_max_n_out_of_range(max_n, code):
    out = run_cli("selftest", "--max-n", max_n)
    assert out.returncode == code, out.stderr
