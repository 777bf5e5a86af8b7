"""The three workloads.  Each runs in this process, as one closed-loop client
with no pool, and calls csfkit only through module attributes (so that
`tracing.install` can wrap them).

A workload is prepared once per run (inputs and reference answers, untimed),
then run in passes over the same items in the same order.  A pass returns its
wall time, one latency per item, and its raw outputs; `check` turns those
outputs into gate failures after the pass, outside the timed region.

The item latencies of a pass follow each other without gaps, from the start
of the pass to its end, so they add up to its wall time.

Sizes: a pass takes one to two seconds on a shared two-core Xeon VM, so
that a run of 40 s holds some twenty passes, enough for every item's best
time to be found in a quiet moment of the machine (see run.py).
`verify_distinct(14)` and `enumerate_trees(15)`, about 13 s and 10 s a pass
there, left two passes in a run of 30 s, and their figures moved by a
quarter from run to run.

Item latency:
  verify-trees  time from `verify_distinct` taking one tree from the
                enumerator to taking the next (the first item starts with
                the call, the last runs to its return), i.e. the time the
                pipeline spends per tree.  The hand-over is timestamped by a
                thin wrapper; no span is recorded in untraced passes.
  gen-graphs    time from one graph6 line to the next, as `csfkit gen`
                prints them.  Four lines in five come from the very next
                candidate tree and take about 0.1 ms, so the median is that
                fast path.
  compute-mix   `load_graph`, `compute_report` and `json.dumps` of one
                request, as `csfkit compute` does them.
"""

import json
from time import perf_counter

from csfkit import csf, enumeration, formats, verify

import corpus
import gates

VERIFY_MAX_N = 12
GEN_TREES_N = 13
GEN_UNICYCLIC_N = 8


def _gaps(marks):
    return [b - a for a, b in zip(marks, marks[1:])]


class VerifyTrees:
    name = "verify-trees"
    warmup = "import csfkit; csfkit.verify_distinct(1)"

    def __init__(self, max_n=VERIFY_MAX_N):
        self.max_n = max_n

    def prepare(self, seed):
        # inputs are every free tree of each order; the seed changes nothing
        return None

    def run_pass(self, state, tracer=None):
        stamps = []
        inner = verify.enumerate_trees

        def stamped(n):
            for t in inner(n):
                stamps.append(perf_counter())
                yield t

        verify.enumerate_trees = stamped
        t0 = perf_counter()
        try:
            reports = verify.verify_distinct(self.max_n, jobs=1)
        finally:
            t1 = perf_counter()
            verify.enumerate_trees = inner
        return t1 - t0, _gaps([t0] + stamps + [t1]), reports

    def attempted(self, state):
        return sum(gates.FREE_TREES[:self.max_n])

    def check(self, state, reports):
        return gates.check_verify(reports, self.max_n)


class GenGraphs:
    name = "gen-graphs"
    warmup = ("from csfkit import enumerate_trees, format_graph6; "
              "format_graph6(next(enumerate_trees(4)))")

    def prepare(self, seed):
        return None

    def run_pass(self, state, tracer=None):
        trees, unicyclic, stamps = [], [], []
        t0 = perf_counter()
        for out, graphs in ((trees, enumeration.enumerate_trees(GEN_TREES_N)),
                            (unicyclic, enumeration.enumerate_unicyclic(GEN_UNICYCLIC_N))):
            for g in graphs:
                if tracer is not None:
                    tracer.item = len(stamps)
                out.append(formats.format_graph6(g))
                stamps.append(perf_counter())
        return perf_counter() - t0, _gaps([t0] + stamps), (trees, unicyclic)

    def attempted(self, state):
        return gates.free_tree_count(GEN_TREES_N) + gates.UNICYCLIC[GEN_UNICYCLIC_N]

    def check(self, state, outputs):
        trees, unicyclic = outputs
        return gates.check_gen(trees, GEN_TREES_N, unicyclic, GEN_UNICYCLIC_N)


def _expectation(req):
    """What a correct response holds, by a route other than the one the
    request takes: the tree DP for trees and deletion-contraction for
    other graphs (compute_report uses the subset expansion for both)."""
    g = formats.load_graph(req.text)
    exp = {"what": req.what, "n": req.n, "m": req.m}
    if req.what == "csf":
        route = csf.csf_tree if req.kind == "csf-tree" else csf.csf_deletion_contraction
        exp["csf"] = route(g).poly.serialize()
    elif req.what == "invariants":
        exp["degrees"], exp["paths"] = gates.tree_invariants(g.n, g.edges)
    return exp


class ComputeMix:
    name = "compute-mix"
    warmup = ("import json; from csfkit import compute_report, load_graph; "
              "json.dumps(compute_report(load_graph('4 3\\n0 1\\n1 2\\n2 3\\n'), 'csf'))")

    def prepare(self, seed):
        reqs = corpus.make_corpus(seed)
        return reqs, [_expectation(r) for r in reqs]

    def run_pass(self, state, tracer=None):
        reqs, _ = state
        texts = []
        t0 = perf_counter()
        stamps = [t0]
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.item = i
            try:
                g = formats.load_graph(req.text)
                text = json.dumps(verify.compute_report(g, req.what), sort_keys=True, indent=2)
            except Exception:  # counted as a failed request; the run goes on
                text = None
            stamps.append(perf_counter())
            texts.append(text)
        return stamps[-1] - t0, _gaps(stamps), texts

    def attempted(self, state):
        return len(state[0])

    def mix(self, state):
        return corpus.describe(state[0])

    def check(self, state, texts):
        reqs, expected = state
        failures = []
        for i, (req, exp, text) in enumerate(zip(reqs, expected, texts)):
            msg = gates.check_response(exp, text)
            if msg:
                failures.append(f"request #{i} ({req.kind}, n={req.n}, m={req.m}): {msg}")
        return failures


WORKLOADS = {w.name: w for w in (VerifyTrees(), GenGraphs(), ComputeMix())}
