"""Output gates: each takes what the program produced and returns a list of
failure messages (empty when the output is right).

The gates accept whichever representative and order the program yields.
Isomorphism classes are decided by certificates written here, independent
of `csfkit.canon`: centre-rooted AHU codes for trees, and for unicyclic
graphs the lexicographically least rotation or reflection of the rooted
codes hanging off the cycle.
"""

import json
from collections import Counter, deque

# OEIS A000055: free trees on n = 1..22 vertices.
FREE_TREES = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
              19320, 48629, 123867, 317955, 823065, 2144505, 5623756)
# OEIS A001429: connected unicyclic graphs on n = 3..10 vertices.
UNICYCLIC = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657}


def free_tree_count(n):
    return FREE_TREES[n - 1]


def parse_graph6(line):
    """(n, edges) of a graph6 line with n <= 62."""
    n = ord(line[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 size in {line!r}")
    bits = []
    for ch in line[1:]:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise ValueError(f"bad graph6 character {ch!r}")
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(bits) < need or len(bits) - need >= 6 or any(bits[need:]):
        raise ValueError(f"bad graph6 length or padding in {line!r}")
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return n, [p for p, b in zip(pairs, bits) if b]


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _connected(adj):
    if not adj:
        return False
    seen = {0}
    queue = deque([0])
    while queue:
        for u in adj[queue.popleft()]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(adj)


def _rooted(adj, root, blocked):
    """AHU code of the subtree at root, never entering a vertex in blocked."""
    def code(v, parent):
        return "(" + "".join(sorted(code(u, v) for u in adj[v]
                                    if u != parent and u not in blocked)) + ")"
    return code(root, -1)


def _strip_leaves(adj):
    """Vertices left after repeatedly deleting leaves: the centre of a
    tree (once two or fewer remain), the cycle of a unicyclic graph."""
    deg = [len(a) for a in adj]
    alive = len(adj)
    layer = [v for v, d in enumerate(deg) if d <= 1]
    gone = set()
    while layer and alive > 2:
        nxt = []
        for v in layer:
            gone.add(v)
            alive -= 1
            for u in adj[v]:
                if u not in gone:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return [v for v in range(len(adj)) if v not in gone]


def tree_certificate(n, edges):
    """Equal iff the trees are isomorphic; None if (n, edges) is not a tree."""
    adj = _adjacency(n, edges)
    if len(edges) != n - 1 or not _connected(adj):
        return None
    return min(_rooted(adj, c, ()) for c in _strip_leaves(adj))


def unicyclic_certificate(n, edges):
    """Equal iff the graphs are isomorphic; None unless (n, edges) is a
    connected simple graph with exactly one cycle."""
    norm = {(min(u, v), max(u, v)) for u, v in edges}
    if len(norm) != len(edges) or any(u == v for u, v in norm) or len(edges) != n:
        return None
    adj = _adjacency(n, edges)
    if not _connected(adj):
        return None
    core = set(_strip_leaves(adj))
    # walk the cycle in order from its least vertex
    cycle = [min(core)]
    while len(cycle) < len(core):
        step = [u for u in adj[cycle[-1]] if u in core and u not in cycle]
        cycle.append(step[0])
    codes = [_rooted(adj, v, core) for v in cycle]
    k = len(codes)
    turns = [codes[i:] + codes[:i] for i in range(k)]
    return min(tuple(t) for seq in (turns, [t[::-1] for t in turns]) for t in seq)


def check_verify(reports, max_n):
    """verify_distinct output: one report per order 1..max_n, each with
    A000055 trees, as many distinct CSFs, and no collisions."""
    failures = []
    orders = [r.order for r in reports]
    if orders != list(range(1, max_n + 1)):
        failures.append(f"verify reported orders {orders}, want 1..{max_n}")
    for r in reports:
        if not 1 <= r.order <= len(FREE_TREES):
            continue
        want = free_tree_count(r.order)
        if r.tree_count != want:
            failures.append(f"n={r.order}: {r.tree_count} trees, A000055 says {want}")
        if r.distinct_csf_count != r.tree_count:
            failures.append(f"n={r.order}: {r.distinct_csf_count} distinct CSFs "
                            f"for {r.tree_count} trees")
        if r.collisions:
            failures.append(f"n={r.order}: {len(r.collisions)} collisions reported")
    return failures


def _check_class(lines, n, want, certificate, label):
    failures = []
    seen = {}
    for i, line in enumerate(lines):
        try:
            gn, edges = parse_graph6(line)
        except ValueError as exc:
            failures.append(f"{label} #{i}: {exc}")
            continue
        cert = certificate(gn, edges) if gn == n else None
        if cert is None:
            failures.append(f"{label} #{i}: {line!r} is not a {label} on {n} vertices")
        elif cert in seen:
            failures.append(f"{label} #{i}: {line!r} is isomorphic to #{seen[cert]}")
        else:
            seen[cert] = i
    if len(lines) != want:
        failures.append(f"{len(lines)} {label}s on {n} vertices, want {want}")
    return failures


def check_gen(tree_lines, tree_n, unicyclic_lines, unicyclic_n):
    """gen output: A000055 pairwise non-isomorphic trees, then A001429
    pairwise non-isomorphic connected unicyclic graphs."""
    return (_check_class(tree_lines, tree_n, free_tree_count(tree_n),
                         tree_certificate, "tree")
            + _check_class(unicyclic_lines, unicyclic_n, UNICYCLIC[unicyclic_n],
                           unicyclic_certificate, "unicyclic graph"))


def tree_invariants(n, edges):
    """(degree counts d_1..d_{n-1}, path counts by length) of a tree."""
    adj = _adjacency(n, edges)
    degs = Counter(len(a) for a in adj)
    paths = Counter()
    for src in range(n):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        paths.update(d for v, d in dist.items() if v > src)
    return ([degs.get(i, 0) for i in range(1, n)],
            [paths.get(i, 0) for i in range(1, max(paths, default=0) + 1)])


def _trim(seq):
    seq = list(seq)
    while seq and seq[-1] == 0:
        seq.pop()
    return seq


def check_response(expected, text):
    """One compute response (the JSON text, or None after an exception)
    against the expectation made before timing.  Returns a message or None.

    expected holds "what", "n", "m" and, by kind: "csf" (the serialization
    by an independent route), or "degrees" and "paths".
    """
    if text is None:
        return "request raised"
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"response is not JSON: {exc}"
    what = expected["what"]
    if (doc.get("what"), doc.get("n"), doc.get("edge_count")) != (
            what, expected["n"], expected["m"]):
        return "response header does not match the request"
    if what == "csf":
        if doc.get("csf") != expected["csf"]:
            return "CSF differs from the reference route"
        lines = expected["csf"].splitlines()
        if doc.get("term_count") != len(lines) or doc.get("source_order") != expected["n"]:
            return "term_count or source_order is wrong"
    elif what == "transform":
        if doc.get("equal") is not True or doc.get("f_from_csf") != doc.get("f_direct"):
            return "transform does not round-trip"
    elif what == "invariants":
        stats = doc.get("stats_from_subtree_polynomial", {})
        if doc.get("degree_sequence") != expected["degrees"]:
            return "degree sequence is wrong"
        if doc.get("path_sequence") != expected["paths"]:
            return "path sequence is wrong"
        if (stats.get("degrees") != _trim(expected["degrees"])
                or stats.get("paths") != expected["paths"]):
            return "statistics read off the subtree polynomial are wrong"
    else:
        return f"unknown request kind {what!r}"
    return None
