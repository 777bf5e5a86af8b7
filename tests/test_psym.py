import copy
import hashlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csfkit.csf import csf_power_sum, csf_tree
from csfkit.enumeration import enumerate_trees, enumerate_unicyclic
from csfkit.graphs import Graph
from csfkit.partitions import partitions, z_of
from csfkit.psym import ONE, ZERO, PPolynomial, _tail, p_of_partition
from helpers import reference_serialize


def poly(d):
    return PPolynomial(d)


small_partitions = [lam for n in range(0, 6) for lam in partitions(n)]

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)

polys = st.dictionaries(st.sampled_from(small_partitions), coeffs, max_size=5).map(PPolynomial)


def test_construction_drops_zeros():
    assert poly({(2, 1): 0, (1,): 3}).terms == {(1,): 3}
    assert not poly({})
    assert poly({}) == ZERO


def test_construction_validates():
    with pytest.raises(ValueError):
        poly({(1, 2): 1})  # parts must be descending
    with pytest.raises(ValueError):
        poly({(0,): 1})
    with pytest.raises(TypeError):
        poly({(1,): 0.5})
    with pytest.raises(TypeError):
        poly({(1,): True})


def test_fraction_with_unit_denominator_collapses():
    q = poly({(2,): Fraction(6, 2)})
    assert q.terms == {(2,): 3}
    assert isinstance(q.coefficient((2,)), int)


def test_hand_product():
    a = poly({(2, 1): 2, (3,): -1})
    b = poly({(1,): 1, (2,): 3})
    expected = poly({(2, 1, 1): 2, (2, 2, 1): 6, (3, 1): -1, (3, 2): -3})
    assert a * b == expected


def test_one_and_scalars():
    a = poly({(2, 1): 5})
    assert a * ONE == a
    assert ONE * a == a
    assert a * 2 == poly({(2, 1): 10})
    assert 3 * a == poly({(2, 1): 15})
    assert a.scale(Fraction(1, 5)) == poly({(2, 1): 1})
    assert a - a == ZERO


def test_partial_derivative_hand():
    a = poly({(2, 2, 1): 1})
    assert a.partial_derivative(2) == poly({(2, 1): 2})
    assert a.partial_derivative(1) == poly({(2, 2): 1})
    assert a.partial_derivative(3) == ZERO
    assert ONE.partial_derivative(1) == ZERO
    with pytest.raises(ValueError):
        a.partial_derivative(0)


def test_scalar_product_orthogonality():
    # <p_lam, p_mu> = z_lam when lam == mu, else 0
    lams = [lam for n in range(0, 6) for lam in partitions(n)]
    for lam in lams:
        for mu in lams:
            got = p_of_partition(lam).scalar_product(p_of_partition(mu))
            assert got == (z_of(lam) if lam == mu else 0)


def test_scalar_product_hand():
    a = poly({(2, 1): 2, (1, 1, 1): 1})
    b = poly({(2, 1): Fraction(1, 2), (3,): 7})
    assert a.scalar_product(b) == Fraction(1, 2) * z_of((2, 1)) * 2


def test_degree_and_homogeneity():
    assert poly({(3, 1): 1}).degree() == 4
    assert ZERO.degree() is None
    assert poly({(3, 1): 1, (2, 2): -1}).is_homogeneous()
    assert poly({(3, 1): 1, (2, 2): -1}).is_homogeneous(4)
    assert not poly({(3, 1): 1, (2,): 1}).is_homogeneous()
    assert ZERO.is_homogeneous()
    assert ZERO.is_homogeneous(17)


def test_serialize_ordering():
    a = poly({(1, 1, 1): 1, (2, 1): -2, (3,): 1})
    # degree ties broken reverse-lexicographically, single parts first
    assert a.serialize() == "1/1 : 3\n-2/1 : 2,1\n1/1 : 1,1,1"
    assert ZERO.serialize() == ""
    assert ONE.serialize() == "1/1 :"


def test_repr_follows_the_canonical_order():
    a = poly({(3,): 2, (2, 1): -1, (1,): 1, (): 3, (2, 2): Fraction(1, 3)})
    assert repr(a) == "PPolynomial(3*p() + 1*p(1,) + 2*p(3,) + -1*p(2,1) + 1/3*p(2,2))"
    assert repr(ZERO) == "PPolynomial(0)"


def test_serialize_matches_the_reference_on_graph_csfs():
    trees = [csf_tree(t).poly for n in range(1, 11) for t in enumerate_trees(n)]
    cycles = [csf_power_sum(g).poly for n in range(3, 8) for g in enumerate_unicyclic(n)]
    assert len(trees) == 201 and len(cycles) == 1 + 2 + 5 + 13 + 33
    for p in trees + cycles:
        assert p.serialize() == reference_serialize(p)


def test_serialize_matches_the_reference_past_the_memo_bound():
    p = PPolynomial({lam: 1 for lam in partitions(32)})
    assert len(p) == 8349 > _tail.cache_info().maxsize
    assert p.serialize() == reference_serialize(p)
    assert p.serialize() == reference_serialize(p)  # again, after evictions
    assert _tail.cache_info().currsize <= _tail.cache_info().maxsize


def test_serialize_pins_the_tree_csfs_through_order_11():
    text = "\n\n".join(csf_tree(t).poly.serialize()
                       for n in range(1, 12) for t in enumerate_trees(n))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "bad3e283d6f207c825b9a5c7a60e5155733f29b27fc8827610a2957defd55600"


def test_deserialize_round_trip_hand():
    text = "1/1 : 3\n-2/1 : 2,1\n1/1 : 1,1,1"
    assert PPolynomial.deserialize(text).serialize() == text
    assert PPolynomial.deserialize("") == ZERO
    assert PPolynomial.deserialize("1/1 :") == ONE
    assert PPolynomial.deserialize("-3/4 : 2,2\n") == poly({(2, 2): Fraction(-3, 4)})


def test_immutability():
    a = poly({(2,): 1})
    with pytest.raises(AttributeError):
        a._terms = {}
    with pytest.raises(TypeError):
        a.terms[(3,)] = 5  # terms is a read-only view


@pytest.mark.parametrize("value", [
    poly({(2, 1): Fraction(-3, 4), (3,): 2, (): Fraction(1, 6)}),
    ZERO,
    csf_tree(Graph(4, [(0, 1), (1, 2), (1, 3)])),
], ids=["fractions", "zero", "csf-result"])
def test_pickle_and_copy_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)


@settings(max_examples=120, deadline=None)
@given(polys, polys)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_associativity_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(polys, polys, st.integers(min_value=1, max_value=5))
def test_leibniz_rule(a, b, j):
    lhs = (a * b).partial_derivative(j)
    rhs = a.partial_derivative(j) * b + a * b.partial_derivative(j)
    assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(polys)
@example(ONE)
@example(ZERO)
def test_serialize_round_trip(a):
    assert a.serialize() == reference_serialize(a)
    assert PPolynomial.deserialize(a.serialize()) == a


@settings(max_examples=80, deadline=None)
@given(polys, polys)
def test_scalar_product_symmetry(a, b):
    assert a.scalar_product(b) == b.scalar_product(a)
