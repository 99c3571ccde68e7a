import random
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from frieze_mod import monomial, ring
from frieze_mod.monomial import (Component, SizeCapExceeded, check_half_n_law,
                                 check_prime_size_law, component_profile,
                                 minimal_monomial_size, monomial_profile,
                                 prime_power_ladder, shared_factor_size,
                                 size_via_crt)
from frieze_mod.ring import factorize, is_prime
from oracles import direct_min_size, order_sign, walk_min_size

KNOWN = {
    (2, 0): (2, 1), (2, 1): (3, 1), (4, 2): (4, 1), (5, 0): (2, -1),
    (6, 3): (6, -1), (7, 3): (4, -1), (8, 4): (4, 1), (9, 3): (6, -1),
    (12, 4): (12, 1), (25, 5): (10, -1), (35, 23): (70, 1),
}


@pytest.mark.parametrize("nk,want", sorted(KNOWN.items()))
def test_known_sizes(nk, want):
    assert minimal_monomial_size(*nk) == want


def test_matches_reference_scan():
    for n in range(2, 151):
        for k in range(n):
            want = walk_min_size(n, k)
            assert minimal_monomial_size(n, k) == want, (n, k)
            if n <= 40:
                assert direct_min_size(n, k) == want, (n, k)


@given(st.integers(151, 20000), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_matches_reference_walk_beyond_150(n, k):
    assert minimal_monomial_size(n, k) == walk_min_size(n, k % n)


# primes near 1e9, and the largest primes below 2**32 and 2**64
PRIMES_1E9 = (999999937, 1000000007, 1000000009)
P32, P64 = 4294967291, 18446744073709551557


# 2**64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417, composed from
# seven prime-power classes
@pytest.mark.parametrize("n", PRIMES_1E9 + (P32, P64, 2 ** 64 - 1))
def test_plus_minus_two_has_size_p(n):
    # M(2)**s = [[s + 1, -s], [s, 1 - s]]: the identity first at s = n,
    # for any n, and M(-2)**n = -M(2)**n
    assert minimal_monomial_size(n, 2) == (n, 1)
    assert minimal_monomial_size(n, -2) == (n, -1)


@pytest.mark.parametrize("p", PRIMES_1E9)
def test_random_k_at_primes_near_1e9_is_the_order(p):
    rng = random.Random(p)
    for _ in range(8):
        k = rng.randrange(p)
        size, sign = minimal_monomial_size(p, k)
        assert order_sign(p, k, size) == sign, (p, k, size)


def test_composite_moduli_near_1e9_are_the_order():
    rng = random.Random(1)
    for n in (1000000014, 31607 ** 2, 2 ** 29 * 3, 999999937 * 4):
        for _ in range(4):
            k = rng.randrange(n)
            size, sign = minimal_monomial_size(n, k)
            assert order_sign(n, k, size) == sign, (n, k, size)


def test_wrong_multiple_is_an_internal_error(monkeypatch):
    # the descent must start from a multiple of the size; 2 is not one
    # for k = 1 mod 7 (size 6)
    monkeypatch.setattr(ring, "_size_multiple", lambda p, a, k: {2: 1})
    with pytest.raises(SizeCapExceeded):
        minimal_monomial_size(7, 1)


def test_k_normalizes():
    assert minimal_monomial_size(9, 12) == minimal_monomial_size(9, 3)
    assert minimal_monomial_size(9, -6) == minimal_monomial_size(9, 3)


def test_rejects_bad_modulus():
    # every size entry point reads the one front, which checks n first
    for fn in (minimal_monomial_size, size_via_crt, monomial_profile,
               component_profile):
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                fn(n, 0)


def test_an_oversized_crt_size_is_an_internal_error(monkeypatch):
    # the front checks the composed size against the 3N cap, so a CRT
    # size law that overshoots it fails every size entry point,
    # size_via_crt included: k = 1 mod 7 has the lcm 3, and 10 * 3 is past
    # the cap 3 * 7 + 1
    law = ring._crt_size
    monkeypatch.setattr(ring, "_crt_size",
                        lambda classes: (law(classes)[0], 10, 1))
    for fn in (size_via_crt, minimal_monomial_size, monomial_profile):
        with pytest.raises(SizeCapExceeded, match="size 30 > 22 for n=7, k=1"):
            fn(7, 1)


def test_cap_error_is_internal():
    assert issubclass(SizeCapExceeded, RuntimeError)


def test_component_profile_examples():
    assert component_profile(35, 3) == [Component(5, 5, -1), Component(7, 4, -1)]
    assert component_profile(12, 4) == [Component(4, 2, -1), Component(3, 3, -1)]


def test_size_via_crt_examples():
    law = size_via_crt(35, 3)
    assert (law.lcm_value, law.multiplier, law.size, law.sign) == (20, 2, 40, 1)
    law = size_via_crt(12, 4)
    assert (law.lcm_value, law.multiplier, law.size, law.sign) == (6, 2, 12, 1)
    law = size_via_crt(35, 23)
    assert (law.lcm_value, law.multiplier, law.size, law.sign) == (35, 2, 70, 1)


def test_crt_law_agrees_with_scan(size_table):
    for n in range(2, 101):
        for k in range(n):
            law = size_via_crt(n, k)
            assert (law.size, law.sign) == size_table[(n, k)], (n, k)


def test_doubled_odd_modulus_is_a_plain_lcm(size_table):
    """n = 2u with u odd: the size is lcm of the mod-2 and mod-u sizes,
    with no doubling correction. The size mod n is the walk's
    (size_table), so the package's composition is not compared with
    itself."""
    for u in range(3, 76, 2):
        n = 2 * u
        for k in range(n):
            full = size_table[(n, k)][0]
            l1 = minimal_monomial_size(2, k % 2)[0]
            h = minimal_monomial_size(u, k % u)[0]
            assert full == lcm(l1, h), (n, k)


def test_monomial_profile_bundles_everything():
    p = monomial_profile(35, 3)
    assert (p.n_modulus, p.k, p.size, p.sign) == (35, 3, 40, 1)
    assert tuple(p.components) == (Component(5, 5, -1), Component(7, 4, -1))


@pytest.mark.parametrize("n,k", [(35, 3), (2, 1), (360, 7), (9699690, 2),
                                 (4294967291 * 4294967279, 5)])
def test_monomial_profile_descends_each_factor_once(monkeypatch, n, k):
    # the size and the components come from one class tuple: n is
    # factored once, and each prime-power factor descended once
    # (ring._class), whichever module a call goes through
    factored, descended = [], []
    factor, descend = ring.factorize, ring._descend

    def counted_factorize(m):
        factored.append(m)
        return factor(m)

    def counted_descend(q, r, exps):
        descended.append(q)
        return descend(q, r, exps)

    monkeypatch.setattr(ring, "factorize", counted_factorize)
    monkeypatch.setattr(ring, "_descend", counted_descend)
    prof = monomial_profile(n, k)
    # the other factorizations are of the (p -+ 1)/2 of ring._size_multiple
    assert factored.count(n) == 1
    assert descended == [c.modulus for c in prof.components] == \
        [p ** a for p, a in factorize(n)]
    assert (prof.size, prof.sign) == minimal_monomial_size(n, k)


def test_records_are_frozen_with_field_reprs_and_hashes():
    law = size_via_crt(35, 3)
    assert law.size == 40
    assert repr(law) == "SizeLaw(lcm_value=20, multiplier=2, sign=1)"
    prof = monomial_profile(35, 3)
    assert repr(prof) == (
        "MonomialProfile(n_modulus=35, k=3, size=40, sign=1, components=("
        "Component(modulus=5, size=5, sign=-1), "
        "Component(modulus=7, size=4, sign=-1)))")
    check = check_half_n_law(8)
    assert repr(check) == ("LawCheck(holds=True, size=4, sign=1, "
                           "detail='(size, sign) = (4, 1) vs (4, 1)')")
    for rec, fields in ((law, (20, 2, 1)),
                        (prof, (35, 3, 40, 1, prof.components)),
                        (check, (True, 4, 1, check.detail))):
        assert hash(rec) == hash(fields)
        with pytest.raises(AttributeError):
            rec.sign = 0


def test_ladder_examples():
    assert prime_power_ladder(3, 3, 3) == [2, 6, 18]
    assert prime_power_ladder(2, 4, 2) == [2, 4, 8, 16]
    assert prime_power_ladder(5, 3, 5) == [2, 10, 50]
    assert prime_power_ladder(2, 5, 6) == [2, 4, 8, 16, 32]


def test_ladder_break_raises(monkeypatch):
    # a size that neither stays nor multiplies by p breaks the law
    monkeypatch.setattr(monomial, "minimal_monomial_size",
                        lambda n, k: (n + 1, 1))
    with pytest.raises(AssertionError, match=r"ladder break at 3\*\*2: 4 -> 10"):
        prime_power_ladder(3, 2, 1)


def test_ladder_guards():
    with pytest.raises(ValueError):
        prime_power_ladder(6, 2, 1)
    with pytest.raises(ValueError):
        prime_power_ladder(3, 0, 1)


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(-30, 30))
@settings(max_examples=100, deadline=None)
def test_ladder_steps_stay_or_multiply(p, k):
    sizes = prime_power_ladder(p, 4 if p < 5 else 3, k)
    for a, b in zip(sizes, sizes[1:]):
        assert b in (a, p * a)


def test_prime_size_law_sweep():
    for p in range(3, 200):
        if not is_prime(p):
            continue
        for k in range(p):
            assert check_prime_size_law(p, k).holds, (p, k)


def test_prime_size_law_guards():
    with pytest.raises(ValueError):
        check_prime_size_law(2, 1)
    with pytest.raises(ValueError):
        check_prime_size_law(15, 1)


def test_half_n_law_sweep():
    for n in range(4, 257, 2):
        check = check_half_n_law(n)
        assert check.holds, (n, check.detail)


def test_half_n_law_guards():
    with pytest.raises(ValueError):
        check_half_n_law(7)
    with pytest.raises(ValueError):
        check_half_n_law(2)


def test_shared_factor_examples():
    assert shared_factor_size(9, 3) == 6
    assert shared_factor_size(25, 5) == 10
    assert shared_factor_size(12, 6) == 4
    assert shared_factor_size(24, 18) == 8
    assert shared_factor_size(36, 6) == 12
    assert shared_factor_size(48, 24) == 4
    assert shared_factor_size(9, 0) == 2


def test_shared_factor_guards():
    with pytest.raises(ValueError):
        shared_factor_size(12, 3)
    with pytest.raises(ValueError):
        shared_factor_size(10, 5)
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="modulus"):
            shared_factor_size(n, 5)


def test_shared_factor_mismatch_raises(monkeypatch):
    front = ring._front
    monkeypatch.setattr(ring, "_front", lambda n, k: (*front(n, k)[:3], (7, 1, 1)))
    with pytest.raises(AssertionError,
                       match="shared-factor law broke at n=9, k=3: 7 != 6"):
        shared_factor_size(9, 3)


@pytest.mark.parametrize("n,k", [(12, 6), (9, 3), (360, 30),
                                 (9 * 4294967291 * 4294967279, 0)])
def test_shared_factor_size_factors_once(monkeypatch, n, k):
    # the prediction reads the factors of the front that gives the size
    factored = []
    factor = ring.factorize

    def counted_factorize(m):
        factored.append(m)
        return factor(m)

    monkeypatch.setattr(ring, "factorize", counted_factorize)
    shared_factor_size(n, k)
    assert factored.count(n) == 1


def test_shared_factor_whole_range():
    # every k carrying all primes of n, n <= 100; the function checks its
    # prediction against the scan and raises AssertionError on a mismatch
    for n in range(2, 101):
        primes = [p for p, _ in factorize(n)]
        for k in range(n):
            if all(k % p == 0 for p in primes):
                shared_factor_size(n, k)


def test_size_divides_along_divisors(size_table):
    for n in range(2, 201):
        for d in range(2, n):
            if n % d:
                continue
            for k in range(n):
                assert size_table[(n, k)][0] % size_table[(d, k % d)][0] == 0, \
                    (n, d, k)


def test_sign_laws_on_prime_powers():
    # odd prime power, even minimal size: the product lands on -Id.
    # power of two >= 4, k nonzero, even minimal size: it lands on +Id.
    for q in range(3, 257):
        f = factorize(q)
        if len(f) != 1:
            continue
        p = f[0][0]
        for k in range(q):
            size, sign = minimal_monomial_size(q, k)
            if size % 2:
                continue
            if p != 2:
                assert sign == -1, (q, k, size, sign)
            elif q >= 4 and k != 0:
                assert sign == 1, (q, k, size, sign)


def test_size_upper_bounds(size_table):
    for n in range(2, 201):
        doubled_odd = n % 2 == 0 and (n // 2) % 2 == 1
        for k in range(n):
            size = size_table[(n, k)][0]
            assert size <= 3 * n, (n, k)
            if not doubled_odd:
                assert size <= 2 * n, (n, k)
            elif k % 2 == 0:
                assert size <= n, (n, k)
