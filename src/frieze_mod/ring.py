"""Arithmetic mod N on plain ints: factorization, primality, the fast
doubling (_lucas) of the recurrence behind the powers of M(k), the
one descent (_descend) from a known multiple of the size mod a prime
power (_size_multiple), the corner class of k mod a prime power that it
gives (_class), and the two rules every size obeys: the CRT size law
(_crt_size), which composes a size from the class tuple of k mod any n,
and the proven 3N cap (_size_cap, checked by _capped). Every size and
every lone pair's class tuple come from one front (_front) that applies
them: it checks n, factors it once, takes the class tuple of k,
composes it and checks the cap. Nothing descends on a composite
modulus.

Moduli throughout the package are plain ints >= 2, and residues are
plain ints in [0, n), reduced where they enter (as _front reduces k).
"""

from __future__ import annotations

from math import gcd, lcm, prod


# The first thirteen primes. As Miller-Rabin bases they decide primality
# exactly below 3317044064679887385961981 (about 3.3e24, so every 64-bit
# input); above it the test is a strong probable-prime test to these bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Trial division runs up to this divisor; every n <= _TRIAL**2 = 1e6 is
# factored by trial division alone, and a cofactor left after it goes to
# Miller-Rabin and Pollard-Brent.
_TRIAL = 1000


# Minimal sizes never exceed 3N (worst case: twice the lcm of the
# prime-power component sizes, each at most 3 * p**a / 2), so a size past
# 3N + 1 means the implementation is broken, not the input.
_CAP_FACTOR = 3


class SizeCapExceeded(RuntimeError):
    """Internal failure: a size search broke the proven 3N bound."""


def _size_cap(n: int) -> int:
    """The largest size mod n that the 3N bound allows (_CAP_FACTOR)."""
    return _CAP_FACTOR * n + 1


def _capped(n: int, k: int, size: int) -> int:
    """size, checked against the 3N cap of n (_size_cap): a size past it
    raises SizeCapExceeded."""
    if size > _size_cap(n):
        raise SizeCapExceeded(f"size {size} > {_size_cap(n)} for n={n}, k={k}")
    return size


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


def _size_multiple(p: int, a: int, k: int) -> dict[int, int]:
    """The factorization {r: e} of a multiple E of the size of k mod
    q = p**a (0 <= k < q): E = 3 * 2**a for p = 2, and E = p**(a-1) * m_p
    for odd p, with m_p = p when p | k**2 - 4, else (p - 1) / 2 or
    (p + 1) / 2 as k**2 - 4 is a square mod p or not.

    Proof. The s with M**s = +-Id form a subgroup of Z, so the size
    divides every such s; it suffices that M**E = +-Id mod q. The kernel
    of reduction mod p, the Y = Id + p*X in SL2(Z/q), has exponent
    p**(a-1): for Y = Id + p**i * X with i >= 1, the binomial terms of
    Y**p past Id + p**(i+1) * X are (p choose t) * p**(i*t) * X**t with
    2 <= t < p, divisible by p**(1+2i), and p**(i*p) * X**p, with
    i*p >= i + 1; so Y**p = Id mod p**(i+1), and a - 1 p-th powers take
    Y = Id mod p to Id mod q. So if M**m = eps * Id mod p, then
    M**m = eps * Y mod q with Y in the kernel, and
    M**(m * p**(a-1)) = eps**(p**(a-1)) * Id mod q.
    p = 2: SL2(Z/2) has order 6 and its elements have order 1, 2 or 3,
    so M**6 = Id mod 2, and E = 6 * 2**(a-1) = 3 * 2**a.
    p odd, p | k**2 - 4: mod p the characteristic polynomial of M is
    (x - e)**2 with e = k/2 = +-1, so M = e * (Id + N), N**2 = 0, and
    M**p = e**p * (Id + p*N) = e * Id mod p: m = p.
    p odd otherwise: M has the distinct eigenvalues lam, 1/lam, roots of
    x**2 - k*x + 1, and is diagonalizable. When k**2 - 4 is a nonzero
    square mod p they lie in F_p*, and lam**((p-1)/2) = +-1 by Euler's
    criterion; otherwise lam**p = 1/lam (Frobenius swaps the roots), so
    lam**(p+1) = 1 and lam**((p+1)/2) = +-1. Then 1/lam has the same
    power, so M**m_p = +-Id mod p: m = m_p.
    factorize(m_p) needs m_p >= 2, which always holds: for p >= 5,
    (p +- 1) / 2 >= 2; at p = 3 only k = 0 mod 3 has p not dividing
    k**2 - 4, and there -4 = 2 is not a square mod 3, so m_p = 4 / 2 = 2.
    """
    if p == 2:
        return {2: a, 3: 1}
    disc = k * k - 4
    if disc % p == 0:
        return {p: a}
    m = (p - 1 if pow(disc, (p - 1) // 2, p) == 1 else p + 1) // 2
    return {p: a - 1, **dict(factorize(m))}


def _descend(q: int, k: int, exps: dict[int, int]):
    """The least D dividing E = prod r**exps[r] with M(k)**D in H mod the
    prime power q (0 <= k < q), as (D, f, v) with M**D = f * Id + v * M.

    H = {f * Id + v * M : f = +-1, v * k = v**2 = 0} is the group of the
    corner lemma (pair._verdict): mod q = p**a, v**2 = w**2 = 0 puts
    v_p(v) and v_p(w) at a/2 or more, so v * w = 0 and
    (f*Id + v*M)(g*Id + w*M) = fg * Id + (f*w + g*v) * M, with
    f*Id - v*M the inverse. By Cayley-Hamilton,
    M**e = -u_{e-2} * Id + u_{e-1} * M with u_e = k * u_{e-1} - u_{e-2}
    (_lucas). With v = u_{e-1} and v * k = 0, u_e = -u_{e-2} = f, and
    det M**e = f**2 + f*v*k + v**2 = 1 + v**2 = 1 gives v**2 = 0: M**e is
    in H exactly when u_{e-1} * k = 0 and u_e = +-1. f is returned as
    +-1 (+1 mod 2). The e with M**e in H are the multiples of D, so each
    prime r is divided out while M**(e/r) stays in H. M**E must be in H
    (E a multiple of the size: +-Id is in H), else SizeCapExceeded.
    """
    def inside(e):
        """(f, v) when M**e = f * Id + v * M is in H, else None."""
        a, b = _lucas(q, k, e)
        if k * a % q or b != 1 and b != q - 1:
            return None
        return 1 if b == 1 else -1, a

    e = prod(r ** x for r, x in exps.items())
    got = inside(e)
    if not got:
        raise SizeCapExceeded(f"M({k})**{e} is not in H mod {q}")
    for r, x in exps.items():
        while x and (lower := inside(e // r)):
            e //= r
            x -= 1
            got = lower
    return (e, *got)


def _class(p: int, a: int, k: int):
    """The corner class (S, sign, D, f) of k mod q = p**a (0 <= k < q):
    the size S and sign of M(k)**S = sign * Id, and the (D, f) of the one
    descent in H (_descend) from the multiple of _size_multiple.

    With M**D = f * Id + v * M, (v*M)**2 = v**2 * (k*M - Id) = 0, so
    M**(tD) = f**t * Id + t * f**(t-1) * v * M. That is +-Id exactly when
    t * v = 0, and +-Id lies in H, so the size is a multiple of D:
    S = D * q / gcd(v, q), with sign f**(S/D). S past the proven cap
    raises SizeCapExceeded (_capped). Mod 2 the two signs coincide, so
    q = 2 has no say on the sign of a pair (pair._verdict): its class
    carries the signs 0.
    """
    q = p ** a
    d, f, v = _descend(q, k, _size_multiple(p, a, k))
    t = q // gcd(v, q)
    say = q != 2
    return _capped(q, k, d * t), f ** t * say, d, f * say


def _crt_size(classes):
    """The CRT size law, as (m, multiplier, sign): the size of a pair is
    multiplier * m, from the (S_q, sign_q) at index 0 and 1 of each class
    of its coprime prime-power factors q, sign_q 0 at q = 2 (_class;
    proved in pair._verdict). m = lcm(S_q); mod q,
    M**m = sign_q**(m / S_q) * Id, and q = 2 has no say. When those signs
    agree, the size is m with that sign, +1 when no q has a say;
    otherwise 2 * m with sign +1.

    One pass, in any order of the classes: m is the lcm of the sizes
    met so far, and sign the common sign of M**m mod the q met so far
    that have a say (0 while none has, 2 once two disagree). When m
    grows to m2 = lcm(m, S_q), M**m2 = (M**m)**(m2 / m) mod each q met,
    so an even m2 / m turns every sign met, disagreeing ones included,
    into +1, and an odd one keeps them."""
    m, sign = 1, 0
    for s, e, _, _ in classes:
        if m % s:
            m2 = lcm(m, s)
            if sign and m2 // m % 2 == 0:
                sign = 1
            m = m2
        if e:
            if m // s % 2 == 0:
                e = 1
            if sign != e:
                sign = e if not sign else 2
    return (m, 2, 1) if sign == 2 else (m, 1, sign or 1)


def _front(n: int, k: int):
    """(k mod n, the factors of n, the class tuple of k, its CRT size law
    (m, multiplier, sign)): the one front of every size and of a lone
    pair (pair._pair_row). It checks n, factors it once (factorize), takes
    the class (_class) of k mod each prime-power factor p**a, p
    ascending, composes them (_crt_size) and checks the size,
    multiplier * m, against the 3N cap (_capped)."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    k %= n
    factors = factorize(n)
    classes = tuple(_class(p, a, k % p ** a) for p, a in factors)
    law = _crt_size(classes)
    _capped(n, k, law[0] * law[1])
    return k, factors, classes, law


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
