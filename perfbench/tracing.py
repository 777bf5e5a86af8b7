"""Spans recorded from outside csfkit, by wrapping the names its pipeline calls.

Nothing in `src/` is edited.  `install` replaces module-level names (and two
class attributes, `Tree.__init__` and `PPolynomial.serialize`) with wrappers
that open a span, call the original and close the span; `uninstall` puts the
originals back.  A wrapped generator gets one span per `next()`, so the time a
consumer spends between items is not charged to the generator.

Each span is a list `[name, start, end, parent, item, note]`: `parent` is the
index of the enclosing span (-1 at top level), `item` the tree or request id
current when it opened, and `note` whatever the wrapper extracted from the
result (term counts, serialized sizes, digests).  Spans stay in memory until
`write_spans` dumps them at the end of a run.
"""

import gzip
import json
import statistics
from time import perf_counter

from csfkit import enumeration, formats, invariants, verify
from csfkit.graphs import Tree
from csfkit.psym import PPolynomial

NAME, START, END, PARENT, ITEM, NOTE = range(6)
STOP = "stop"  # note on a generator span that ended the iteration


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.item, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = perf_counter()
        self.stack.pop()


def _wrap_call(tracer, name, fn, note):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note is not None:
            tracer.spans[idx][NOTE] = note(args, result)
        return result
    return wrapper


def _wrap_gen(tracer, name, fn, set_item):
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        k = 0
        while True:
            idx = tracer.open(name)
            try:
                x = next(it)
            except StopIteration:
                tracer.spans[idx][NOTE] = STOP
                return
            finally:
                tracer.close(idx)
            if set_item:
                tracer.item = (args[0], k)
            k += 1
            yield x
    return wrapper


def _digest_note(args, result):
    return result, hash(args[0])


# (owner, attribute, span name, note extracted from (args, result)).  Each
# owner is where the pipeline looks the name up at call time.
_CALLS = [
    (verify, "verify_distinct", "verify.verify_distinct", None),
    (verify, "compute_report", "verify.compute_report", None),
    (verify, "csf_hash", "verify.hash", _digest_note),
    (verify, "csf_tree", "csf.tree_dp", lambda a, r: len(r.poly)),
    (verify, "csf_power_sum", "csf.subset", None),
    (verify, "canonical_certificate", "canon.tree_cert", None),
    (enumeration, "canonical_certificate", "canon.tree_cert", None),
    (enumeration, "small_graph_certificate", "canon.small_graph", None),
    (Tree, "__init__", "graphs.tree_init", None),
    (PPolynomial, "serialize", "psym.serialize", lambda a, r: len(r)),
    (verify, "subtree_polynomial", "invariants.subtree_poly", None),
    (verify, "stats_from_subtree_polynomial", "invariants.stats", None),
    (verify, "f_polynomial_direct", "invariants.f_direct", None),
    (invariants, "f_polynomial_from_csf", "invariants.sigma", None),
    (formats, "load_graph", "formats.load", None),
    (formats, "format_graph6", "formats.graph6", None),
]

_GENERATORS = [
    (verify, "enumerate_trees", "enumeration.trees"),
    (enumeration, "enumerate_trees", "enumeration.trees"),
    (enumeration, "enumerate_unicyclic", "enumeration.unicyclic"),
]


def install(tracer):
    """Wrap every traced name; returns the originals for `uninstall`.

    The tree generator that `verify` consumes sets the current item to
    `(order, index)` of each tree it hands over.
    """
    saved = []
    for owner, attr, name, note in _CALLS:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap_call(tracer, name, orig, note))
    for owner, attr, name in _GENERATORS:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap_gen(tracer, name, orig, owner is verify))
    return saved


def uninstall(saved):
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)


def _us(seconds):
    return seconds * 1e6


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(spans):
    """The per-layer metrics, as {name: (value, unit)}, derived from spans."""
    by_name = {}
    child_time = [0.0] * len(spans)
    for idx, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(idx)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def dur(idx):
        return spans[idx][END] - spans[idx][START]

    def durs(name):
        return [dur(i) for i in by_name.get(name, [])]

    def busy(name):
        return sum(durs(name), 0.0)

    def med_us(name):
        d = durs(name)
        return _us(statistics.median(d)) if d else 0.0

    def under(name, parent_name):
        return [i for i in by_name.get(name, [])
                if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == parent_name]

    def yielded(name):
        return sum(1 for i in by_name.get(name, []) if spans[i][NOTE] != STOP)

    trees_yielded = yielded("enumeration.trees")
    candidates = len(under("graphs.tree_init", "enumeration.trees"))
    uni_yielded = yielded("enumeration.unicyclic")
    uni_certs = len(under("canon.small_graph", "enumeration.unicyclic"))

    # digest buckets per order, from the (digest, hash of serialization)
    # notes of csf_hash; items are (order, index) in the verify workload
    buckets = {}
    for i in under("verify.hash", "verify.verify_distinct"):
        digest, ser = spans[i][NOTE]
        buckets.setdefault((spans[i][ITEM][0], digest), []).append(ser)
    sizes = [len(v) for v in buckets.values()]
    digest_collisions = sum(1 for v in buckets.values() if len(set(v)) > 1)

    inv_names = [n for n in by_name if n.startswith("invariants.")]
    inv_busy = sum((dur(i) for n in inv_names for i in by_name[n]
                    if spans[i][PARENT] < 0
                    or not spans[spans[i][PARENT]][NAME].startswith("invariants.")), 0.0)

    def self_times(name):
        return [dur(i) - child_time[i] for i in by_name.get(name, [])]

    compute_self = self_times("verify.compute_report")
    tree_dp = durs("csf.tree_dp")
    subset = durs("csf.subset")

    return {
        "enumeration.trees_busy_s": (busy("enumeration.trees"), "s"),
        "enumeration.trees_yielded": (trees_yielded, "count"),
        "enumeration.candidates": (candidates, "count"),
        "enumeration.yield_ratio": (trees_yielded / candidates if candidates else 0.0, "ratio"),
        "enumeration.unicyclic_busy_s": (busy("enumeration.unicyclic"), "s"),
        "canon.small_graph_calls": (len(by_name.get("canon.small_graph", [])), "count"),
        "canon.small_graph_us": (med_us("canon.small_graph"), "us"),
        "canon.unicyclic_yield_ratio": (uni_yielded / uni_certs if uni_certs else 0.0, "ratio"),
        "canon.tree_cert_calls": (len(by_name.get("canon.tree_cert", [])), "count"),
        "canon.tree_cert_us": (med_us("canon.tree_cert"), "us"),
        "graphs.tree_init_calls": (len(by_name.get("graphs.tree_init", [])), "count"),
        "graphs.tree_init_us": (med_us("graphs.tree_init"), "us"),
        "csf.tree_dp_calls": (len(tree_dp), "count"),
        "csf.tree_dp_us_p50": (_us(percentile(tree_dp, 50)), "us"),
        "csf.tree_dp_us_p95": (_us(percentile(tree_dp, 95)), "us"),
        "csf.tree_dp_busy_s": (sum(tree_dp, 0.0), "s"),
        "csf.tree_dp_terms": (sum(spans[i][NOTE] for i in by_name.get("csf.tree_dp", [])),
                              "count"),
        "csf.subset_calls": (len(subset), "count"),
        "csf.subset_us_p50": (_us(percentile(subset, 50)), "us"),
        "csf.subset_us_p95": (_us(percentile(subset, 95)), "us"),
        "csf.subset_busy_s": (sum(subset, 0.0), "s"),
        "psym.serialize_us": (med_us("psym.serialize"), "us"),
        "psym.serialize_busy_s": (busy("psym.serialize"), "s"),
        "psym.serialized_bytes": (sum(spans[i][NOTE] for i in by_name.get("psym.serialize", [])),
                                  "bytes"),
        "verify.hash_us": (med_us("verify.hash"), "us"),
        "verify.group_self_s": (sum(self_times("verify.verify_distinct"), 0.0), "s"),
        "verify.buckets": (len(buckets), "count"),
        "verify.max_bucket": (max(sizes, default=0), "count"),
        "verify.collisions": (digest_collisions, "count"),
        "invariants.sigma_us": (med_us("invariants.sigma"), "us"),
        "invariants.f_direct_us": (med_us("invariants.f_direct"), "us"),
        "invariants.subtree_poly_us": (med_us("invariants.subtree_poly"), "us"),
        "invariants.busy_s": (inv_busy, "s"),
        "formats.load_us": (med_us("formats.load"), "us"),
        "formats.graph6_us": (med_us("formats.graph6"), "us"),
        "verify.compute_self_us": (_us(statistics.median(compute_self)) if compute_self else 0.0,
                                   "us"),
        "trace.spans": (len(spans), "count"),
    }


def write_spans(spans, path):
    """Dump spans as gzipped JSON lines: name, start, end, parent, item."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in spans:
            item = list(s[ITEM]) if isinstance(s[ITEM], tuple) else s[ITEM]
            fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], item]) + "\n")
