"""Integer partitions: validation, enumeration, and the z-statistic.

A partition is represented throughout the package as a tuple of positive
integers in weakly decreasing order.  The empty tuple is the (unique)
partition of 0 and acts as the multiplicative unit index for power-sum
monomials.
"""

from collections import Counter
from math import factorial


def is_partition(parts) -> bool:
    """True iff `parts` is a tuple of weakly decreasing positive integers."""
    if not isinstance(parts, tuple):
        return False
    prev = None
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            return False
        if prev is not None and p > prev:
            return False
        prev = p
    return True


def merge_parts(a, b):
    """Multiset union of two partitions, re-sorted: the index of p_a * p_b."""
    return tuple(sorted(a + b, reverse=True))


def partitions(n):
    """Yield all partitions of n as weakly decreasing tuples.

    Descending lexicographic order: (n) first, (1,...,1) last.  n = 0
    yields the empty partition once.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    # Iterative rule: shrink the last part > 1, then greedily refill.
    current = [n]
    while True:
        yield tuple(current)
        # Find rightmost part > 1.
        k = len(current) - 1
        while k >= 0 and current[k] == 1:
            k -= 1
        if k < 0:
            return
        # Decrement it and redistribute the tail as large equal parts.
        current[k] -= 1
        cap = current[k]
        rest = len(current) - k - 1 + 1  # the ones we absorbed, plus 1
        del current[k + 1:]
        while rest > 0:
            take = min(cap, rest)
            current.append(take)
            rest -= take


def z_of(parts) -> int:
    """The z-statistic: product over part values i of i^(m_i) * m_i!.

    This is the squared norm of the power-sum monomial indexed by `parts`
    under the standard scalar product on symmetric functions.
    """
    z = 1
    for i, m in Counter(parts).items():
        z *= i ** m * factorial(m)
    return z
