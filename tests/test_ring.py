import pytest
from hypothesis import given, settings, strategies as st

from frieze_mod.ring import _lucas, factorize, is_prime
from oracles import elementary, mat_mul, trial_factorize


def test_factorize_examples():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(2) == [(2, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(1024) == [(2, 10)]


def test_lucas_reads_the_nested_list_power():
    # M(k)**e = [[u_e, -u_{e-1}], [u_{e-1}, -u_{e-2}]]: the doubling
    # against the nested-list power, one factor at a time, for every
    # k mod every n <= 60 and every e <= 3n, e = 0 included
    for n in range(2, 61):
        for k in range(n):
            m, step = [[1, 0], [0, 1]], elementary(k, n)
            for e in range(3 * n + 1):
                assert _lucas(n, k, e) == (m[1][0], m[0][0]), (n, k, e)
                m = mat_mul(step, m, n)


@pytest.mark.parametrize("bad", [1, 0, -6])
def test_factorize_rejects_small(bad):
    with pytest.raises(ValueError):
        factorize(bad)


@given(st.integers(2, 100_000))
@settings(max_examples=300, deadline=None)
def test_factorize_reconstructs(n):
    f = factorize(n)
    total = 1
    for p, mult in f:
        assert is_prime(p) and mult >= 1
        total *= p ** mult
    assert total == n
    assert [p for p, _ in f] == sorted(p for p, _ in f)


def test_factorize_matches_trial_division_up_to_1e5():
    for n in range(2, 100_001):
        f = trial_factorize(n)
        assert factorize(n) == f, n
        assert is_prime(n) == (f == [(n, 1)]), n


# 1009 * 1049 and 1009**2 * 1049: factors just past trial division, where
# Pollard-Brent's batch of gcds overshoots to n and is replayed singly
@pytest.mark.parametrize("n", [1058441, 1009 ** 2 * 1049])
def test_factorize_after_an_overshot_batch(n):
    assert factorize(n) == trial_factorize(n)


# products of known primes near 2**64: 2**32 - 5 and 2**32 - 17, 2**24 - 3
# and 2**40 - 87, 2**61 - 1, and the largest prime below 2**64
@pytest.mark.parametrize("parts", [
    [(4294967279, 1), (4294967291, 1)],
    [(4294967291, 2)],
    [(16777213, 1), (1099511627689, 1)],
    [(3, 1), (2305843009213693951, 1)],
    [(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)],
    [(18446744073709551557, 1)],
    [(2, 3), (1000003, 1), (2147483647, 1)],
])
def test_factorize_near_2_64(parts):
    n = 1
    for p, m in parts:
        n *= p ** m
    assert factorize(n) == parts
    assert all(is_prime(p) for p, _ in parts)


@pytest.mark.parametrize("n", [
    # strong pseudoprimes to the bases 2; 2, 3; ...; 2 through 37
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    # Carmichael numbers
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161,
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)
