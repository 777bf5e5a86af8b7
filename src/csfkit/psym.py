"""Symmetric functions in the power-sum basis, with exact coefficients.

A PPolynomial is a finite rational linear combination of power-sum
monomials p_lambda, stored sparsely as a map from partition tuples to
nonzero exact coefficients.  The p-basis is the only representation used
anywhere in this package; no basis conversions are performed.

Exactness is a hard requirement: coefficients are ints or
fractions.Fraction, never floats.  The constructor keeps integer
coefficients as ints; arithmetic may leave a Fraction of denominator 1,
which is sound, as Python guarantees hash(n) == hash(Fraction(n)).

Canonical text serialization, the key of verify's and collide's groups and
compute's csf field: one term per line, "num/den : part,part,...", by degree
ascending, then parts descending; zero gives "".  Round-trips bit-exactly.
Line tails (" : 3,2,1") come from a memo bounded like csf's decoder (8,192
partitions): verify and collide meet the same few hundred in every tree of
an order; a one-shot compute formats each once, gaining only the cheaper sort.
"""

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType

from .partitions import is_partition, merge_parts, z_of


def _as_exact(c):
    """Validate and normalize a coefficient: int stays int, Fraction with
    unit denominator collapses to int, anything inexact is rejected."""
    if isinstance(c, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class PPolynomial:
    """Immutable sparse polynomial in the power-sum basis."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for parts, c in dict(terms).items():
                if not is_partition(parts):
                    raise ValueError(f"invalid partition key: {parts!r}")
                c = _as_exact(c)
                if c != 0:
                    clean[parts] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PPolynomial is immutable")

    def __reduce__(self):  # pickle and copy rebuild via the constructor, not __setattr__
        return (PPolynomial, (dict(self._terms),))

    @property
    def terms(self):
        """Read-only view of the term map."""
        return MappingProxyType(self._terms)

    def coefficient(self, parts):
        """Coefficient of p_parts, 0 if absent."""
        return self._terms.get(tuple(parts), 0)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, PPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, PPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for parts, c in other._terms.items():
            out[parts] = out.get(parts, 0) + c
        return _nonzero(out)

    def __neg__(self):
        return _raw({parts: -c for parts, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PPolynomial):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """Scalar multiple by an exact rational."""
        c = _as_exact(c)
        return _nonzero({parts: v * c for parts, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.scale(other)
        if not isinstance(other, PPolynomial):
            return NotImplemented
        out = {}
        for la, ca in self._terms.items():
            for lb, cb in other._terms.items():
                key = merge_parts(la, lb)
                out[key] = out.get(key, 0) + ca * cb
        return _nonzero(out)

    __rmul__ = __mul__

    def partial_derivative(self, j):
        """Formal partial derivative with respect to the indeterminate p_j."""
        if not isinstance(j, int) or isinstance(j, bool) or j < 1:
            raise ValueError("j must be a positive integer")
        out = {}
        for parts, c in self._terms.items():
            m = parts.count(j)
            if m == 0:
                continue
            reduced = list(parts)
            reduced.remove(j)
            key = tuple(reduced)
            out[key] = out.get(key, 0) + m * c
        return _nonzero(out)

    def scalar_product(self, other):
        """Hall scalar product: <p_lam, p_mu> = z_lam [lam == mu]."""
        if not isinstance(other, PPolynomial):
            raise TypeError("scalar_product expects a PPolynomial")
        a, b = self._terms, other._terms
        if len(b) < len(a):
            a, b = b, a
        total = 0
        for parts, c in a.items():
            d = b.get(parts)
            if d is not None:
                total += c * d * z_of(parts)
        return _as_exact(total)

    def degree(self):
        """Largest part-sum over terms; None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(parts) for parts in self._terms)

    def is_homogeneous(self, n=None):
        """True iff every key partition has the same sum (n if given).

        The zero polynomial is vacuously homogeneous of every degree.
        """
        degrees = {sum(parts) for parts in self._terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return n is None or degrees == {n}

    def sorted_terms(self):
        """Terms in canonical order: degree ascending, then parts descending."""
        items = sorted(self._terms.items(), key=itemgetter(0), reverse=True)
        return sorted(items, key=lambda kv: sum(kv[0]))  # stable: parts stay descending

    def serialize(self) -> str:
        return "\n".join([f"{c.numerator}/{c.denominator}{_tail(parts)}"
                          for parts, c in self.sorted_terms()])

    @classmethod
    def deserialize(cls, text: str) -> "PPolynomial":
        terms = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            try:
                coeff_s, _, parts_s = line.partition(":")
                num_s, den_s = coeff_s.strip().split("/")
                c = Fraction(int(num_s), int(den_s))
                parts_s = parts_s.strip()
                parts = tuple(int(p) for p in parts_s.split(",")) if parts_s else ()
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"malformed PPolynomial line: {raw!r}") from exc
            if not is_partition(parts):
                raise ValueError(f"malformed partition in line: {raw!r}")
            if parts in terms:
                raise ValueError(f"duplicate partition key: {parts!r}")
            if c != 0:
                terms[parts] = c
        return cls(terms)

    def __repr__(self):
        bits = [f"{c}*p{str(parts).replace(' ', '')}" for parts, c in self.sorted_terms()]
        return "PPolynomial(" + (" + ".join(bits) or "0") + ")"


@lru_cache(maxsize=8192)
def _tail(parts):  # a line after its coefficient; the unit's () ends at the colon
    return " : " + ",".join(map(str, parts)) if parts else " :"


def _raw(clean_terms) -> PPolynomial:
    # Internal constructor bypassing validation; callers guarantee canonical
    # keys and nonzero exact coefficients.
    poly = PPolynomial.__new__(PPolynomial)
    object.__setattr__(poly, "_terms", clean_terms)
    return poly


def _nonzero(terms) -> PPolynomial:
    # _raw of the nonzero terms of a dict accumulated by the ring operations
    return _raw({parts: c for parts, c in terms.items() if c})


ZERO = PPolynomial()
ONE = PPolynomial({(): 1})


def p_of_partition(parts) -> PPolynomial:
    """The monomial 1 * p_parts.  The empty partition gives the unit."""
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a valid partition: {parts!r}")
    return _raw({parts: 1})
