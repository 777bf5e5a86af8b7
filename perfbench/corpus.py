"""The seeded request corpus of the compute-mix workload.

Every request is the text `csfkit compute` would read (graph6 or an edge
list) plus the `--what` it asks for.  The corpus is stratified: each
(kind, size) stratum gets a fixed number of requests.  The graphs' shapes
are drawn once, from SHAPE_SEED; the run's seed relabels their vertices,
orders their edges, picks graph6 or edge-list text for trees, and orders
the requests.  Every seed thus asks for the same work in different text.
When the seed drew the shapes as well, a run's figures followed the trees it
happened to draw: the median latency moved by 18 % from seed to seed, with
the machine's noise taken out, as the cost of a transform or invariants
request varies several-fold with the shape of its tree.

Kinds, with PER_STRATUM requests at each size:
  csf-tree        `what=csf` on a uniform random labelled tree, n = 8..15.
  transform       `what=transform` on a random tree, n = 12, 14, 16, 18.
  invariants      `what=invariants` on a random tree, n = 12, 14, 16, 18.
  csf-multigraph  `what=csf` on a connected multigraph that has parallel
                  edges, and a loop in one request of three, m = 8..18.

The heaviest requests are csf-tree at n = 15 and transform and invariants at
n = 18: 3 of the 27 strata, 11 % of the corpus, so the 95th latency
percentile lies among them, with 11 requests beyond it.  A pass takes about
2 s on a shared two-core Xeon VM.  With trees up to n = 18 for csf and
n = 20 for transform and invariants a pass took 5 to 7 s, too few passes in
a run for each request's best time to settle (see run.py).
"""

import heapq
import random
from dataclasses import dataclass

SHAPE_SEED = 2308
PER_STRATUM = 8
CSF_TREE_N = range(8, 16)
TREE_QUERY_N = range(12, 19, 2)
MULTIGRAPH_M = range(8, 19)


@dataclass(frozen=True)
class Request:
    kind: str
    what: str
    n: int
    m: int
    text: str


def random_tree_edges(rng, n):
    """Edges of a uniform random labelled tree, from a Pruefer sequence."""
    if n == 1:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_multigraph_edges(rng, m, loop):
    """A connected multigraph with m edges, at least one parallel pair, and
    one loop when asked: a random spanning tree plus extra edges."""
    n = rng.randint(4, m // 2 + 1)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges.append(rng.choice(edges))
    if loop:
        v = rng.randrange(n)
        edges.append((v, v))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    rng.shuffle(edges)
    return n, edges


def edge_list_text(n, edges):
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def graph6_text(n, edges):
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + n) + body + "\n"


def _shapes():
    """(kind, what, n, edges) of every request, drawn from SHAPE_SEED."""
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for _ in range(PER_STRATUM):
        for kind, what, sizes in (("csf-tree", "csf", CSF_TREE_N),
                                  ("transform", "transform", TREE_QUERY_N),
                                  ("invariants", "invariants", TREE_QUERY_N)):
            shapes += [(kind, what, n, random_tree_edges(rng, n)) for n in sizes]
    for k in range(PER_STRATUM):
        for m in MULTIGRAPH_M:
            n, edges = random_multigraph_edges(rng, m, loop=(k % 3 == 0))
            shapes.append(("csf-multigraph", "csf", n, edges))
    return shapes


def make_corpus(seed):
    """The request list for a seed; the same seed gives the same requests."""
    rng = random.Random(seed)
    reqs = []
    for kind, what, n, edges in _shapes():
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
        rng.shuffle(edges)
        tree = kind != "csf-multigraph"
        fmt = graph6_text if tree and rng.random() < 0.5 else edge_list_text
        reqs.append(Request(kind, what, n, len(edges), fmt(n, edges)))
    rng.shuffle(reqs)
    return reqs


def corpus_bytes(reqs):
    """A byte image of the corpus, for checking reproducibility."""
    return "".join(f"{r.kind} {r.what}\n{r.text}" for r in reqs).encode("utf-8")


def describe(reqs):
    """The mix as {kind: {"requests", "n", "m"}} with size ranges."""
    mix = {}
    for r in reqs:
        d = mix.setdefault(r.kind, {"requests": 0, "n": [r.n, r.n], "m": [r.m, r.m]})
        d["requests"] += 1
        d["n"] = [min(d["n"][0], r.n), max(d["n"][1], r.n)]
        d["m"] = [min(d["m"][0], r.m), max(d["m"][1], r.m)]
    return dict(sorted(mix.items()))
