"""Tree invariants: the subtree polynomial S_T(q,r), the generalized
degree polynomial F_T(x,y), and the sigma-transform that recovers F_T
from the power-sum coefficients of X_T.

S_T and F_T both sum over the subtrees of T, and each has two routes.
subtree_polynomial_dp and f_polynomial_dp count subtrees by their top
vertex on the tree DP's rooted product fold (csf.rooted_product_fold),
in time polynomial in n and bounded by its TREE_DP_WORK_CAP; compute
uses them.
subtree_polynomial and f_polynomial_direct enumerate the subtrees one
by one, which is exponential on bushy trees; they are the oracles the
DPs are checked against.

The transform is the computational heart: with c_lambda the p-basis
coefficients of X_T,

    f_T(i,j) = sum over lambda of sigma(lambda,i,j) c_lambda,
    sigma(lambda,i,j) = (-1)^(n-j-1) C(n-i-l+1, j-l+1) m_i(lambda),

where l = l(lambda), m_i counts parts of size i, and out-of-range
binomials are 0.  omega_check takes scalar products against the graded
pieces of Omega_n, built from sigma as written; sign_binomial_matrix is
the involution A with A^2 = I underlying the inversion.
f_polynomial_from_csf never evaluates sigma: summed over j, the
binomials of one length l make a power of (1 - y),

    sum_j f_T(i,j) y^j = sum_l b_l y^(l-1) (1 - y)^(n-i+1-l),
    b_l = (-1)^(n-l) sum over lambda of length l of m_i(lambda) c_lambda,

so one pass over the terms sums the b_l of each part i present, and
Horner's rule, H <- H (1 - y) + b_l y^(l-1) for l from the shortest
length present, l_min, up to n - i + 1, yields row i of F_T in about
(n - i + 2 - l_min)^2 / 2 subtractions.

Degree extraction from S_T is valid for degrees >= 2 only: the identity
sum over k >= i of C(k,i)(-1)^(i+k) s_T(k,k) counts the vertices of
degree i through star subtrees K_{1,k} centered at each vertex, but a
single edge is one subtree with two centers, so s_T(1,1) = |E| is half
of what the i = 1 instance needs.  d_1 is recovered by complement, and
the i = 1 case is deliberately not computed from the formula.  For
i >= 2 the sums are the coefficients of P(y - 1), where
P(x) = sum over k of s_T(k,k) x^k, so they are read off a Taylor shift.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from .csf import CsfResult, rooted_product_fold
from .errors import CapacityError, ConsistencyError
from .graphs import Graph, Tree, enumerate_subtrees
from .partitions import partitions, z_of
from .psym import PPolynomial

GENERALIZED_DEGREE_CAP = 24


class BivariatePolynomial:
    """Sparse bivariate polynomial with exact integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in dict(terms).items():
                i, j = key
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"coefficient must be an integer, got {c!r}")
                if c != 0:
                    clean[(int(i), int(j))] = c
        self._terms = clean

    @property
    def terms(self):
        return dict(self._terms)

    def coefficient(self, i, j):
        return self._terms.get((i, j), 0)

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def serialize(self) -> str:
        lines = [f"({i},{j}): {c}" for (i, j), c in sorted(self._terms.items())]
        return "\n".join(lines)

    def __repr__(self):
        return f"BivariatePolynomial({dict(sorted(self._terms.items()))!r})"


def subtree_polynomial(t: Tree) -> BivariatePolynomial:
    """S_T(q,r): sum over subtrees of q^(#edges) r^(#leaf edges).

    Leaf edges of a subtree S are the edges of S incident with leaves of
    S; a single vertex contributes q^0 r^0, a single edge q^1 r^1.
    """
    t = Tree.from_graph(t)
    adj = t.adjacency_sets()
    counts = Counter()
    for w_set in enumerate_subtrees(t):
        # a subtree has |W| - 1 edges, and one leaf edge per leaf except
        # the single edge, whose two leaves share it
        edges = len(w_set) - 1
        leaves = sum(1 for v in w_set if len(adj[v] & w_set) == 1)
        counts[(edges, min(leaves, edges))] += 1
    return BivariatePolynomial(counts)


def stats_from_subtree_polynomial(s: BivariatePolynomial, n: int):
    """(degrees, paths) of an n-vertex tree, read off its S_T.

    paths[i-1] = s(i,2) for i >= 2 and paths[0] = s(1,1) = n - 1.
    degrees[i-1] for i >= 2 comes from the alternating-binomial star
    count; d_1 is n minus the rest (the formula's i = 1 instance is
    wrong by design, see the module docstring).  Trailing zeros are
    trimmed from both sequences.
    """
    degs = [0] * max(n - 1, 0)
    # P(x) = sum of s(k,k) x^k, shifted to P(y - 1) by repeated subtraction;
    # its y^i coefficient is sum over k >= i of C(k,i) (-1)^(i+k) s(k,k)
    shifted = [s.coefficient(k, k) for k in range(n)]
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            shifted[k] -= shifted[k + 1]
    for i in range(2, n):
        degs[i - 1] = shifted[i]
    if n >= 2:
        degs[0] = n - sum(degs)
    paths = [0] * max(n - 1, 0)
    if n >= 2:
        paths[0] = s.coefficient(1, 1)
    for i in range(2, n):
        paths[i - 1] = s.coefficient(i, 2)
    while degs and degs[-1] == 0:
        degs.pop()
    while paths and paths[-1] == 0:
        paths.pop()
    return tuple(degs), tuple(paths)


def f_polynomial_direct(t: Tree) -> BivariatePolynomial:
    """F_T(x,y) = sum over subtrees H of x^|H| y^d(V(H)), by enumeration."""
    t = Tree.from_graph(t)
    deg = t.degrees()
    counts = Counter()
    for w_set in enumerate_subtrees(t):
        # W's |W| - 1 inner edges count twice in its degree sum, the rest once
        counts[(len(w_set), sum(deg[v] for v in w_set) - 2 * len(w_set) + 2)] += 1
    return BivariatePolynomial(counts)


def _count_sets_by_top(counts, t: Tree, seed, lift):
    """Add to counts {key: count} over the connected vertex sets W of a
    tree, on the rooted product fold csf.rooted_product_fold.

    Rooted at vertex 0, each W has one top vertex, the one nearest the
    root.  The state of v counts the keys of the sets with top v inside
    v's subtree, from {seed[v]: 1} on.  A child either stays out (key 0)
    or brings one of its own sets: lift(state) lists them with their keys
    as the parent's sets will see them.  Each finished state is added to
    counts as it is handed to the parent, and the root's at the end.
    """
    def options(keys):
        for k, c in keys.items():
            counts[k] = counts.get(k, 0) + c
        return [(0, 1), *lift(keys)]

    for k, c in rooted_product_fold(Tree.from_graph(t), seed, options).items():
        counts[k] = counts.get(k, 0) + c
    return counts


def subtree_polynomial_dp(t: Tree) -> BivariatePolynomial:
    """S_T(q,r) by the rooted DP; equals subtree_polynomial.

    A set's key is edges + (leaves other than the top << b).  A lifted
    set gains its edge to the new top, and one leaf if the child came
    alone (key 0).  The top is a leaf exactly when one child came in, and
    the sets with one child in are the lifted sets themselves, keyed as
    lifted (the seeds are 0): each is moved up one leaf as it is lifted.
    """
    b = (2 * t.n).bit_length()
    mask, leaf = (1 << b) - 1, 1 << b
    counts = {}

    def lift(keys):
        up = [(k + 1 if k else 1 + leaf, c) for k, c in keys.items()]
        for k, c in up:
            counts[k] = counts.get(k, 0) - c
            counts[k + leaf] = counts.get(k + leaf, 0) + c
        return up

    terms = Counter()
    for k, c in _count_sets_by_top(counts, t, [0] * t.n, lift).items():
        edges = k & mask
        terms[(edges, min(k >> b, edges))] += c
    return BivariatePolynomial(terms)


def f_polynomial_dp(t: Tree) -> BivariatePolynomial:
    """F_T(x,y) by the rooted DP; equals f_polynomial_direct.

    A set's key is (sum over W of deg v) + (|W| << b), and d(W) is that
    degree sum less 2(|W| - 1).  The degree sum stays below 2n < 2^b.
    """
    b = (2 * t.n).bit_length()
    mask = (1 << b) - 1
    seed = [d + (1 << b) for d in t.degrees()]
    counts = _count_sets_by_top({}, t, seed, lambda keys: keys.items())
    return BivariatePolynomial({(k >> b, (k & mask) - 2 * (k >> b) + 2): c
                                for k, c in counts.items()})


def sigma(lam, i: int, j: int, n: int) -> int:
    """The transform coefficient sigma(lambda, i, j) for lambda of n."""
    lam = tuple(lam)
    if sum(lam) != n:
        raise ValueError(f"{lam!r} is not a partition of {n}")
    low = j - len(lam) + 1
    if low < 0 or i not in lam:
        return 0
    s = lam.count(i) * comb(n - i - len(lam) + 1, low)
    return -s if (n - j - 1) % 2 else s


def _degree_n_poly(x, n):
    # x's PPolynomial, refused unless nonzero and of degree n (CsfResult() checks its order)
    is_csf = isinstance(x, CsfResult)
    poly = x.poly if is_csf else x
    if not poly or not ((is_csf and x.source_order == n) or poly.is_homogeneous(n)):
        raise ConsistencyError(f"input is not a nonzero homogeneous CSF of degree {n}")
    return poly


def _f_polynomial(values):
    # F_T from ((i, j), f(i, j)) pairs in ascending (i, j), so the first bad value is reported
    terms = {}
    for (i, j), value in values:
        bad = ("non-integral" if isinstance(value, Fraction) and value.denominator != 1
               else "negative" if value < 0 else "")
        if bad:
            raise ConsistencyError(
                f"transform produced {bad} f({i},{j}) = {value}; input is not a tree CSF")
        if value:
            terms[(i, j)] = int(value)
    return BivariatePolynomial(terms)


def _length_sums(poly, n):
    # rows[i] = {l: b}, b = (-1)^(n-l) a(l, i) and a(l, i) the sum of m_i(lambda) c_lambda
    # over the lambda of length l; a part that never occurs keeps {}.  Each
    # occurrence of part i adds c once, so m_i(lambda) is never counted
    rows = [{} for _ in range(n + 1)]
    for lam, c in poly.terms.items():
        length = len(lam)
        if (n - length) % 2:
            c = -c
        for i in lam:
            row = rows[i]
            row[length] = row.get(length, 0) + c
    return rows


def f_polynomial_from_csf(x, n: int) -> BivariatePolynomial:
    """F_T recovered from a tree CSF by the sigma-transform.

    Accepts a CsfResult or a bare PPolynomial.  Raises ConsistencyError
    when the input is not homogeneous of degree n or when any recovered
    coefficient is negative or non-integral.  Row i comes from one Horner
    pass in (1 - y) over the b_l of part i (see the module docstring).
    """
    rows, values = _length_sums(_degree_n_poly(x, n), n), []
    for i, row in enumerate(rows):
        if row:
            first, h = min(row), []  # h[k] is the coefficient of y^(first - 1 + k)
            for length in range(first, n - i + 2):
                h = [u - v for u, v in zip([*h, row.get(length, 0)], [0, *h])]
            values += [((i, j), v) for j, v in enumerate(h, first - 1) if v]
    return _f_polynomial(values)


@lru_cache(maxsize=1)
def _omega_pieces(n: int):
    # ((i, j), the (i,j)-graded piece sum of sigma(lam,i,j) p_lam / z_lam), ascending, immutable
    pieces = {(i, j): {} for i in range(1, n + 1) for j in range(0, n - i + 1)}
    for lam in partitions(n):
        z = z_of(lam)
        for i in set(lam):
            for j in range(len(lam) - 1, n - i + 1):
                pieces[(i, j)][lam] = Fraction(sigma(lam, i, j, n), z)
    return tuple((key, PPolynomial(terms)) for key, terms in pieces.items())


def omega_check(x, n: int) -> BivariatePolynomial:
    """F_T via scalar products against Omega_n's graded pieces.

    Agrees with f_polynomial_from_csf exactly; same consistency errors.
    The pieces of the most recent order are kept for the next call.
    """
    poly = _degree_n_poly(x, n)
    return _f_polynomial((key, piece.scalar_product(poly)) for key, piece in _omega_pieces(n))


def sign_binomial_matrix(k: int, n: int, i: int):
    """The k x k involution A with a_{m,j} = (-1)^(n-m-1) C(n-i-j, m-j).

    Rows and columns are indexed 1..k mathematically; entry [m-1][j-1]
    holds a_{m,j}.  A @ A is the identity for the valid parameter range.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return [[(-1 if (n - m - 1) % 2 else 1) * comb(n - i - j, m - j) if j <= min(m, n - i) else 0
             for j in range(1, k + 1)] for m in range(1, k + 1)]


def matrix_multiply(a, b):
    """Plain integer matrix product (square, same size)."""
    k = len(a)
    return [[sum(a[r][t] * b[t][c] for t in range(k)) for c in range(k)]
            for r in range(k)]


def identity_matrix(k: int):
    return [[1 if r == c else 0 for c in range(k)] for r in range(k)]


def generalized_degree_sequence(g: Graph) -> Counter:
    """The multiset {(|W|, e(W), d(W)) : W subset of V}, empty set included.

    Brute force over all 2^n subsets; capped at n = 24.
    """
    n = g.n
    if n > GENERALIZED_DEGREE_CAP:
        raise CapacityError(f"generalized degree sequence capped at n = {GENERALIZED_DEGREE_CAP}")
    # A loop's mask is a single bit, so it lands in e(W) or nowhere,
    # never in the boundary count.
    masks = [(1 << u) | (1 << v) for u, v in g.edges]
    counts = Counter()
    for w in range(1 << n):
        e = d = 0
        for full in masks:
            inter = w & full
            if inter == full:
                e += 1
            elif inter:
                d += 1
        counts[(bin(w).count("1"), e, d)] += 1
    return counts
