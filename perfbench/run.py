"""Layered benchmark for csfkit: time to solution end to end, per-module spans
from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  verify-trees  verify_distinct(max_n=12, jobs=1)
  gen-graphs    `csfkit gen`: enumerate_trees(13), then enumerate_unicyclic(8),
                each graph through format_graph6
  compute-mix   a seeded corpus of `csfkit compute` requests (see corpus.py)

Untraced (`--trace 0`): the workload runs in passes over the same items,
at least two, and no further pass starts that would, at the mean time per
pass so far, end after S seconds.  Each pass starts from a full cyclic
garbage collection, so that the collector runs at the same items in every
pass.  On a shared two-core Xeon VM a fixed job ran up to 1.7 times slower
from one second to the next, as other tenants came and went, and most of
the time it ran slow; a whole pass, or the median of passes, reads
whatever share of slow stretches the run happened to get.  The fastest time
of a short item over a run's passes is found in a quiet moment, so each
item is timed on its own and the figures are built from its best time.
  wall_s          the time to finish the workload once: the sum of the item
                  latencies, which cover a pass without gaps, each item at
                  its best over the passes
  items_per_s     trees verified, graphs emitted or requests answered,
                  per second of wall_s
  latency_p50_ms, latency_p95_ms   percentiles of the item latencies, each
                  item's least time over the passes (see workloads.py for
                  what an item is).  Only compute-mix serves requests; the
                  other two report them too, since every workload reports
                  every end-to-end metric
  setup_s         median time for a fresh interpreter to import csfkit and
                  do one warm-up item, sampled once after each of the first
                  passes and nine times in all
  peak_rss_mb     peak resident set of this process

Traced (`--trace 1`): one untraced pass, then one traced pass, each after a
full collection.  The per-layer metrics come from the spans of the traced
pass (see tracing.py); the difference of the two pass times is the tracing
overhead.

Every output is checked after its pass.  A wrong answer or an exception is a
failure; the run goes on.  The last stdout line is the JSON result; the lines
above it are a readable report, and the full result with run metadata and
every failure goes to .perfbench/ in the working directory, the spans of a
traced run too.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".perfbench")
MIN_PASSES = 2
SETUP_SAMPLES = 9


def _setup_sample(warmup):
    """Wall time of one fresh interpreter that imports csfkit and runs the
    workload's warm-up item.  It starts with -S -E, so that the machine's
    site-packages and environment add nothing."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {warmup}"
    t0 = perf_counter()
    # no timeout: with one, subprocess polls the child with sleeps of up
    # to 50 ms, and the samples fall into 50 ms steps
    subprocess.run([sys.executable, "-S", "-E", "-c", code], check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def _one_pass(workload, state, tracer=None):
    """(wall, item latencies, failures) of one pass; a crash is a failure."""
    t0 = perf_counter()
    try:
        wall, lat, outputs = workload.run_pass(state, tracer)
    except Exception as exc:  # the run goes on
        return perf_counter() - t0, [], [f"pass raised {type(exc).__name__}: {exc}"]
    return wall, lat, workload.check(state, outputs)


def item_best(passes):
    """Each item's least latency over the passes that timed every item."""
    n = max(len(lat) for _, lat in passes)
    return [min(col) for col in zip(*(lat for _, lat in passes if len(lat) == n))]


def run_metadata():
    sha = None
    if (ROOT / ".git").exists():  # a checkout without history has only the source hash
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    lines = 0
    for p in sorted(SRC.rglob("*.py")):
        data = p.read_bytes()
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "csfkit" / "__init__.py").is_file():
        print(f"error: csfkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    state = workload.prepare(args.seed)
    failures = []
    result = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": run_metadata()}
    if hasattr(workload, "mix"):
        result["mix"] = workload.mix(state)

    if args.trace:
        # one untraced pass, then one traced pass of the same items
        gc.collect()
        wall, _, fails = _one_pass(workload, state)
        failures += fails
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
        gc.collect()
        try:
            traced_wall, _, fails = _one_pass(workload, state, tracer)
        finally:
            tracing.uninstall(saved)
        failures += fails
        n_passes = 2
        overhead = traced_wall - wall
        metrics = tracing.summarize(tracer.spans)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (overhead / wall, "ratio")
        result["trace_overhead_s"] = overhead
        result["samples"] = {"untraced_pass_s": wall, "traced_pass_s": traced_wall}
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        tracing.write_spans(tracer.spans, spans_path)
        result["spans_file"] = str(spans_path)
    else:
        passes, setup = [], []
        start = perf_counter()
        while (len(passes) < MIN_PASSES
               or (perf_counter() - start) * (1 + 1 / len(passes)) <= args.seconds):
            gc.collect()
            wall, lat, fails = _one_pass(workload, state)
            failures += fails
            passes.append((wall, lat))
            # set-up samples spread between passes, so that one burst of
            # machine noise cannot cover them all
            if len(setup) < SETUP_SAMPLES:
                setup.append(_setup_sample(workload.warmup))
        setup += [_setup_sample(workload.warmup) for _ in range(SETUP_SAMPLES - len(setup))]
        n_passes = len(passes)
        items = item_best(passes)
        # a pass that raised timed no items; if every pass raised, the least pass wall
        wall = sum(items) if items else min(w for w, _ in passes)
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (workload.attempted(state) / wall, "1/s"),
            "latency_p50_ms": (tracing.percentile(items, 50) * 1e3, "ms"),
            "latency_p95_ms": (tracing.percentile(items, 95) * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result["trace_overhead_s"] = None  # measured by traced runs only
        result["samples"] = {
            "passes": len(passes), "latency": len(items),
            "beyond_p95": sum(1 for x in items if x * 1e3 > metrics["latency_p95_ms"][0]),
            "setup": len(setup),
            "pass_wall_s": [w for w, _ in passes],
            "setup_s": setup,
        }

    attempted = workload.attempted(state) * n_passes
    failed = min(len(failures), attempted)
    result.update(attempted=attempted, failed=failed, failures=failures[:100],
                  failed_ratio=failed / attempted,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    meta = result["meta"]
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  src {meta['git_sha'] or 'no git'} sha256:{meta['src_sha256'][:12]} "
          f"{meta['src_lines']} lines; python {meta['python']}; nproc {meta['nproc']}; "
          f"{meta['cpu']}")
    if "mix" in result:
        for kind, d in result["mix"].items():
            print(f"  mix {kind}: {d['requests']} requests, n {d['n'][0]}..{d['n'][1]}, "
                  f"m {d['m'][0]}..{d['m'][1]}")
    print(f"  samples {json.dumps(result['samples'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for msg in failures[:10]:
        print(f"  FAIL {msg}")
    print(f"  result written to {out_path}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
