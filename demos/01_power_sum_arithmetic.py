"""Exact arithmetic in the power-sum basis.

Walks through building p-polynomials, the ring operations, the formal
partial derivative, the Hall scalar product, and the canonical text
serialization.
"""

from fractions import Fraction

from csfkit import PPolynomial, p_of_partition
from csfkit.partitions import partitions, z_of


def show(label, value):
    print(f"{label}:")
    text = value.serialize() if isinstance(value, PPolynomial) else str(value)
    for line in str(text).splitlines() or ["0"]:
        print(f"    {line}")
    print()


def main():
    p1 = p_of_partition((1,))
    p2 = p_of_partition((2,))
    p21 = p_of_partition((2, 1))

    print("Multiplication concatenates partitions:")
    show("p_1 * p_1", p1 * p1)
    show("p_2 * p_21", p2 * p21)

    print("Coefficients stay exact, whether int or Fraction:")
    f = p21.scale(Fraction(2, 3)) + p1 * p1 * p1
    show("(2/3) p_21 + p_111", f)

    print("The formal derivative d/dp_2 peels one part of size 2:")
    g = p_of_partition((2, 2, 1))
    show("p_221", g)
    show("d/dp_2 p_221", g.partial_derivative(2))

    print("The scalar product is diagonal with <p_lam, p_lam> = z_lam:")
    for lam in partitions(4):
        print(f"    z_{lam} = {z_of(lam)};  "
              f"<p,p> = {p_of_partition(lam).scalar_product(p_of_partition(lam))}")
    print()

    print("Serialization round-trips bit for bit:")
    text = f.serialize()
    show("serialized", text)
    assert PPolynomial.deserialize(text) == f
    print("    deserialize(serialize(f)) == f  OK")


if __name__ == "__main__":
    main()
