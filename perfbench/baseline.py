"""Write perfbench/baseline.json: the numbers that the README speed claims
are to be checked against.

    python3 perfbench/baseline.py

Records, with the machine and the source they were measured on:
  csf_tree_n16_us   csf_tree on 200 seeded uniform random labelled trees with
                    16 vertices, plus the path and the star; each tree's time
                    is its best of 3 calls; p50 and p95 over the trees.
  verify_order_s    verify_distinct(max_n=14, jobs=1) time per order: the sum
                    of that order's per-tree latencies, each the best of 3
                    passes, as run.py measures them (the time from the call
                    to the first tree counts to order 1); next to it
                    the median of the program's own elapsed_ms per order,
                    and as total_s the least wall time of the 3 passes.
"""

import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from csfkit import Tree, csf_tree  # noqa: E402

import corpus  # noqa: E402
import gates  # noqa: E402
import run  # noqa: E402
from workloads import VerifyTrees  # noqa: E402

SEED = 16
TREES = 200
REPEATS = 3
VERIFY_MAX_N = 14


def _best(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn(*args)
        best = min(best, perf_counter() - t0)
    return best


def tree_dp_n16():
    rng = random.Random(SEED)
    trees = [Tree(16, corpus.random_tree_edges(rng, 16)) for _ in range(TREES)]
    times = [_best(csf_tree, t) * 1e6 for t in trees]
    q = statistics.quantiles(times, n=100, method="inclusive")
    return {
        "trees": TREES, "seed": SEED, "best_of": REPEATS,
        "p50_us": q[49], "p95_us": q[94],
        "path_us": _best(csf_tree, Tree(16, [(i, i + 1) for i in range(15)])) * 1e6,
        "star_us": _best(csf_tree, Tree(16, [(0, i) for i in range(1, 16)])) * 1e6,
    }


def verify_orders():
    w = VerifyTrees(VERIFY_MAX_N)
    passes, program_ms = [], []
    for _ in range(REPEATS):
        wall, lat, reports = w.run_pass(None)
        if w.check(None, reports):
            raise SystemExit("verify-trees output failed its gate")
        passes.append((wall, lat))
        program_ms.append({r.order: r.elapsed_ms for r in reports})
    items = run.item_best(passes)
    out, start = {}, 0
    for n in range(1, VERIFY_MAX_N + 1):
        count = gates.free_tree_count(n) + (n == 1)
        out[str(n)] = {
            "trees": gates.free_tree_count(n),
            "bench_s": sum(items[start:start + count]),
            "program_elapsed_ms": statistics.median(p[n] for p in program_ms),
        }
        start += count
    return {"best_of": REPEATS, "total_s": min(w for w, _ in passes), "orders": out}


def main():
    result = {
        "meta": run.run_metadata(),
        "csf_tree_n16_us": tree_dp_n16(),
        "verify_order_s": verify_orders(),
    }
    path = HERE / "baseline.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
