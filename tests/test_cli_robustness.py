"""Inputs that must end with an exit code, not hang, when run as a command."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_compute_csf_on_long_path_is_capacity_error(tmp_path):
    f = tmp_path / "path40.txt"
    f.write_text("40 39\n" + "".join(f"{i} {i + 1}\n" for i in range(39)))
    out = run_cli("compute", "--input", str(f), "--what", "csf")
    assert out.returncode == 3, out.stderr
    assert "capped" in out.stderr


LARGE_TREES = {
    "star40": "40 39\n" + "".join(f"0 {i}\n" for i in range(1, 40)),
    "path1200": "1200 1199\n" + "".join(f"{i} {i + 1}\n" for i in range(1199)),
}


@pytest.mark.parametrize("what", ["invariants", "transform"])
@pytest.mark.parametrize("name", sorted(LARGE_TREES))
def test_tree_queries_past_their_work_caps_are_capacity_errors(tmp_path, name, what):
    # the star has 2^39 + 39 subtrees; the path has 720,600 and a tree DP
    # whose merges pass the work cap long before they finish
    f = tmp_path / f"{name}.txt"
    f.write_text(LARGE_TREES[name])
    out = run_cli("compute", "--input", str(f), "--what", what)
    assert out.returncode == 3, out.stderr
    assert "capped" in out.stderr


@pytest.mark.parametrize("max_n, code", [("0", 2), ("13", 3)])
def test_selftest_max_n_out_of_range(max_n, code):
    out = run_cli("selftest", "--max-n", max_n)
    assert out.returncode == code, out.stderr
