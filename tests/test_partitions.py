from csfkit.partitions import (
    is_partition,
    merge_parts,
    partitions,
    z_of,
)

# p(0)..p(10), standard values
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_counts_match_reference():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert sum(1 for _ in partitions(n)) == expected


def test_each_partition_is_valid():
    for n in range(0, 9):
        for lam in partitions(n):
            assert is_partition(lam)
            assert sum(lam) == n
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def test_ordering_descending_lex():
    got = list(partitions(5))
    assert got[0] == (5,)
    assert got[-1] == (1, 1, 1, 1, 1)
    assert got == sorted(got, reverse=True)
    assert got == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
                   (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_no_duplicates():
    for n in range(0, 10):
        seen = list(partitions(n))
        assert len(seen) == len(set(seen))


def test_is_partition():
    assert is_partition((3, 1, 1))
    assert is_partition(())
    assert not is_partition((1, 3))
    assert not is_partition((2, 0))


def test_merge_parts():
    assert merge_parts((3, 1), (2, 2)) == (3, 2, 2, 1)
    assert merge_parts((), (4,)) == (4,)
    assert merge_parts((), ()) == ()


def test_z_values():
    # z = product over i of i^(m_i) m_i!
    assert z_of(()) == 1
    assert z_of((1,)) == 1
    assert z_of((1, 1, 1)) == 6
    assert z_of((2, 1)) == 2
    assert z_of((3, 3, 1)) == 18
    assert z_of((2, 2, 2)) == 48
    assert z_of((5,)) == 5


def test_z_sum_identity():
    # sum over partitions of n of n!/z equals the number of permutations
    # grouped by cycle type, so the total is n!
    import math
    for n in range(1, 9):
        total = sum(math.factorial(n) // z_of(lam) for lam in partitions(n))
        assert total == math.factorial(n)
