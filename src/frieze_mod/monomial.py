"""Minimal sizes of constant solutions and their prime-power composition.

The central quantity: for k mod n, the smallest size at which the constant
tuple (k, ..., k) multiplies out to plus or minus the identity. Everything
else here relates that size across moduli (prime-power components, divisor
ladders, closed-form special cases) and reports it in named records.
Every size, at a prime power or not, comes from one front (ring._front),
the route every command takes: it checks n, factors it once, composes
the classes of k mod its prime-power factors (ring._class, one descent
each) and checks the 3N cap. The size command reads that front directly
and never loads this module, and classify and witness read it through
pair._pair_row. SizeCapExceeded, raised by the descent and the cap
check in ring, is importable from here too.
"""

from __future__ import annotations

from typing import NamedTuple

from . import ring
from .ring import SizeCapExceeded, is_prime


def minimal_monomial_size(n: int, k: int) -> tuple[int, int]:
    """Size and sign of the shortest constant-k solution mod n.

    Returns (size, sign): sign +1 when the product is the identity, -1 for
    its negative, and +1 by convention mod 2 where the two coincide.

    It is composed by the CRT size law from the class of k mod each
    prime-power factor q of n (ring._front). Per q, one descent from the
    multiple E of ring._size_multiple divides out each prime r of E while
    the power stays in the corner lemma's group H, which holds +-Id, and
    the size mod q is a known multiple of where it stops. Each power
    costs O(log E) products, so the cost is polynomial in the digits of n
    once n and the p +- 1 of its primes are factored.
    """
    m, multiplier, sign = ring._front(n, k)[3]
    return multiplier * m, sign


class Component(NamedTuple):
    """Minimal size and sign at one prime-power factor of the modulus."""

    modulus: int
    size: int
    sign: int


def component_profile(n: int, k: int) -> list[Component]:
    """Per prime-power-factor minimal sizes and signs for the constant k,
    the sign +1 mod 2, where the two signs coincide."""
    return list(monomial_profile(n, k).components)


class SizeLaw(NamedTuple):
    """How the minimal size mod n assembles from its prime-power parts.

    size = multiplier * lcm_value, with multiplier 2 exactly when the
    component signs cannot be reconciled at the bare lcm. sign is the
    common sign the full product lands on.
    """

    lcm_value: int
    multiplier: int
    sign: int

    @property
    def size(self) -> int:
        return self.multiplier * self.lcm_value


def size_via_crt(n: int, k: int) -> SizeLaw:
    """Assemble the minimal constant-solution size from the factor profile
    by the CRT size law (ring._crt_size).

    At the bare lcm m of the component sizes, the component at modulus q
    lands on sign_q ** (m / size_q). The component at modulus exactly 2
    cannot veto (Id = -Id there). If the adjusted signs agree, the minimal
    size is m with that shared sign; otherwise doubling reconciles every
    component to +1. The size is checked against the 3N cap
    (ring._front).
    """
    return SizeLaw(*ring._front(n, k)[3])


class MonomialProfile(NamedTuple):
    """Size, sign, and factor components for one (n, k) pair."""

    n_modulus: int
    k: int
    size: int
    sign: int
    components: tuple[Component, ...]


def monomial_profile(n: int, k: int) -> MonomialProfile:
    """The size and sign of k mod n (as minimal_monomial_size) and its
    prime-power components (as component_profile), both from one
    ring._front: n is factored once and each factor descended once."""
    k, factors, classes, (m, multiplier, sign) = ring._front(n, k)
    return MonomialProfile(n, k, multiplier * m, sign, tuple(
        Component(p ** a, s, e or 1)
        for (p, a), (s, e, _, _) in zip(factors, classes)))


def prime_power_ladder(p: int, n_max: int, k: int) -> list[int]:
    """Minimal sizes along p, p**2, ..., p**n_max for the constant k.

    Consecutive rungs satisfy r_next in {r, p * r}; a violation would
    falsify the ladder law and is raised as AssertionError.
    """
    if not is_prime(p):
        raise ValueError(f"need a prime base, got {p}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    sizes: list[int] = []
    for e in range(1, n_max + 1):
        r, _ = minimal_monomial_size(p ** e, k)
        if sizes and r not in (sizes[-1], p * sizes[-1]):
            raise AssertionError(
                f"ladder break at {p}**{e}: {sizes[-1]} -> {r}")
        sizes.append(r)
    return sizes


class LawCheck(NamedTuple):
    """Outcome of checking one closed-form size law instance."""

    holds: bool
    size: int
    sign: int
    detail: str


def check_prime_size_law(p: int, k: int) -> LawCheck:
    """Odd-prime law: k = +-2 mod p forces size exactly p; any other k has
    size dividing (p+1)/2 or (p-1)/2."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    size, sign = minimal_monomial_size(p, k)
    if k % p in (2 % p, (-2) % p):
        holds = size == p
        detail = f"k = +-2 mod {p}: size {size} vs required {p}"
    else:
        holds = ((p + 1) // 2) % size == 0 or ((p - 1) // 2) % size == 0
        detail = f"size {size} vs divisors of {(p + 1) // 2} or {(p - 1) // 2}"
    return LawCheck(holds, size, sign, detail)


def check_half_n_law(n: int) -> LawCheck:
    """Even-modulus midpoint law: k = n/2 has size 4 with sign +1 when
    4 | n, and size 6 with sign -1 otherwise."""
    if n < 4 or n % 2:
        raise ValueError(f"need an even modulus >= 4, got {n}")
    size, sign = minimal_monomial_size(n, n // 2)
    want = (4, 1) if n % 4 == 0 else (6, -1)
    return LawCheck((size, sign) == want, size, sign,
                    f"(size, sign) = {(size, sign)} vs {want}")


def shared_factor_size(n: int, k: int) -> int:
    """Size when k carries every prime of n.

    For k of shape a * prod(p_i ** b_i) with 1 <= b_i <= a_i and a coprime
    to n, the minimal size is 2 * prod(p_i ** (a_i - b_i)). The shape is
    read off the residue class of k (valuations at or above a_i collapse
    to a_i); a prime of n missing from k is a ValueError. The prediction
    is checked against the size of the front (ring._front), which also
    gives the factors of n, so n is factored once; a mismatch raises
    AssertionError.
    """
    k, factors, _, (m, multiplier, _) = ring._front(n, k)
    predicted = 2
    for p, a in factors:
        if k % p:
            raise ValueError(
                f"k={k} is not divisible by {p}, a prime factor of {n}")
        b, t = 0, k
        while b < a and t % p == 0:
            t //= p
            b += 1
        predicted *= p ** (a - b)
    if multiplier * m != predicted:
        raise AssertionError(
            f"shared-factor law broke at n={n}, k={k}: {multiplier * m} != {predicted}")
    return predicted
