"""Residue arithmetic helpers: factorization, primality, residues, and
the fast doubling (_lucas) of the recurrence behind the powers of M(k).

Moduli throughout the package are plain ints >= 2. Values normalize to
their canonical representative in [0, N) on construction.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd


# The first thirteen primes. As Miller-Rabin bases they decide primality
# exactly below 3317044064679887385961981 (about 3.3e24, so every 64-bit
# input); above it the test is a strong probable-prime test to these bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Trial division runs up to this divisor; every n <= _TRIAL**2 = 1e6 is
# factored by trial division alone, and a cofactor left after it goes to
# Miller-Rabin and Pollard-Brent.
_TRIAL = 1000


def is_prime(n: int) -> bool:
    """Deterministic primality test below about 3.3e24 (see _MR_BASES):
    trial division by the bases, then Miller-Rabin to each of them."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _lucas(n: int, k: int, e: int) -> tuple[int, int]:
    """(u_{e-1}, u_e) mod n for e >= 0, where u_0 = 1, u_{-1} = 0 and
    u_j = k * u_{j-1} - u_{j-2}, so that
    M(k)**e = [[u_e, -u_{e-1}], [u_{e-1}, -u_{e-2}]].

    Fast doubling in three products per bit of e: with U_m = u_{m-1},
    U_{2m} = U_m * (2 * U_{m+1} - k * U_m) and
    U_{2m+1} = (U_{m+1} - U_m) * (U_{m+1} + U_m), then one recurrence
    step for a set bit.
    """
    a, b = 0, 1
    for bit in bin(e)[2:]:
        a, b = a * (2 * b - k * a) % n, (b - a) * (b + a) % n
        if bit == "1":
            a, b = b, (k * b - a) % n
    return a, b


def _brent(n: int) -> int:
    """A nontrivial factor of an odd composite n: Pollard's rho with
    Brent's cycle finding and batched gcds, on x -> x**2 + c for
    c = 1, 2, ... until one splits n."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                done += 128
            r *= 2
        if g == n:                  # the batch overshot: replay it singly
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 2 with multiplicity, in no order."""
    if is_prime(n):
        return [n]
    d = _brent(n)
    return _prime_factors(d) + _prime_factors(n // d)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as [(p, multiplicity)], primes ascending.

    Trial division up to _TRIAL, which settles every n <= 1e6; a larger
    cofactor is finished by is_prime and Pollard-Brent (_brent).

    >>> factorize(360)
    [(2, 3), (3, 2), (5, 1)]
    """
    if n < 2:
        raise ValueError(f"nothing to factor: need n >= 2, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if d > _TRIAL:
            rest = _prime_factors(n)
            return out + sorted((p, rest.count(p)) for p in set(rest))
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            out.append((d, m))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


class Residue(namedtuple("Residue", "value modulus")):
    """An element of Z/NZ, stored as its representative in [0, N).

    A tuple record: it compares, orders and hashes as (value, modulus).
    """

    __slots__ = ()

    def __new__(cls, value: int, modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        return super().__new__(cls, value % modulus, modulus)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which must normalize as well
        return cls(*iterable)

    def _lift(self, other) -> int:
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise ValueError(f"mixed moduli {self.modulus} and {other.modulus}")
            return other.value
        return int(other)

    def __add__(self, other):
        return Residue(self.value + self._lift(other), self.modulus)

    def __sub__(self, other):
        return Residue(self.value - self._lift(other), self.modulus)

    def __mul__(self, other):
        return Residue(self.value * self._lift(other), self.modulus)

    def __rmul__(self, other):
        # not tuple repetition: 2 * r is a TypeError, as for any record
        return NotImplemented

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def __str__(self):
        return str(self.value)
