"""Text formats for graphs: edge lists and graph6.

Edge-list format: first line "n m", then m lines "u v" with 0-based
endpoints.  Blank lines are ignored; parse failures carry 1-based line
numbers.  Loops and multi-edges are representable.

graph6 is the standard compact ASCII encoding of simple graphs (a
">>graph6<<" header is accepted on input).  Emission refuses loops and
multi-edges since the format cannot carry them.  Parsing validates
length and zero padding so that parse/format round-trips exactly.
"""

from .errors import GraphParseError
from .graphs import Graph, Tree

GRAPH6_HEADER = ">>graph6<<"
MAX_ORDER = 258047  # graph6's four-character count; edge lists stop here too


def parse_edge_list(text: str) -> Graph:
    rows = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines()) if line.strip()]
    if not rows:
        raise GraphParseError("empty input")
    lineno, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise GraphParseError(f"expected header 'n m', got {head!r}", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"non-integer header 'n m': {head!r}", line=lineno) from None
    if n < 0 or m < 0:
        raise GraphParseError(f"negative counts in header: {head!r}", line=lineno)
    if n > MAX_ORDER:
        raise GraphParseError(f"vertex count above {MAX_ORDER}: {head!r}", line=lineno)
    body = rows[1:]
    if len(body) != m:
        raise GraphParseError(f"header promises {m} edges, found {len(body)} edge lines",
                              line=lineno)
    edges = []
    for lineno, row in body:
        parts = row.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {row!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {row!r}", line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"endpoint out of range [0,{n}) in {row!r}", line=lineno)
        edges.append((u, v))
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= MAX_ORDER:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError(f"graph6 support here stops at n = {MAX_ORDER}")


def _g6_decode_n(s: str):
    """Returns (n, index of first adjacency character)."""
    if not s:
        raise GraphParseError("empty graph6 string")
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if len(s) >= 2 and s[1] != "~":
        if len(s) < 4:
            raise GraphParseError("truncated graph6 vertex count")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        return n, 4
    raise GraphParseError(f"graph6 vertex counts above {MAX_ORDER} are not supported")


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise GraphParseError(f"invalid graph6 character {ch!r}")
    n, pos = _g6_decode_n(s)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = s[pos:]
    if len(body) != nchars:
        raise GraphParseError(
            f"graph6 body for n={n} needs {nchars} characters, got {len(body)}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise GraphParseError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def format_graph6(g: Graph) -> str:
    if not isinstance(g, Tree) and not g.is_simple():  # a Tree was proven simple when built
        raise ValueError("graph6 cannot encode loops or multi-edges")
    n = g.n
    # one character per 6 bits of the upper triangle, column by column;
    # a simple graph sets each bit once, so adding it to "?" (63) sets it
    body = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))
    for u, v in g.edges:
        if u > v:
            u, v = v, u
        k = v * (v - 1) // 2 + u
        body[k // 6] += 32 >> k % 6
    return _g6_encode_n(n) + body.decode("ascii")


def load_graph(text: str) -> Graph:
    """Sniff edge-list vs graph6 and parse accordingly.

    A first non-blank line of the form "<int> <int>" is read as an edge
    list; anything else is treated as graph6.
    """
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                break
            return parse_edge_list(text)
        break
    return parse_graph6(text)
