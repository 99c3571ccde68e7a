"""Expected answers for the benchmark, computed without the package.

Everything here works on row-major 2x2 tuples over Z/NZ. The minimal
size of k mod n is the order of M(k) = [[k, -1], [1, 0]] in SL2(Z/nZ)
modulo {Id, -Id}; it is found by descending from the group order, which
costs O(log n) matrix products instead of a scan. Witnesses for small
moduli come from the Chebyshev recurrence u_j = k u_{j-1} - u_{j-2},
with M^j = [[u_j, -u_{j-1}], [u_{j-1}, -u_{j-2}]]. Neither path shares
code with the package's scans, so agreement is evidence of correctness.
"""

from __future__ import annotations

from math import lcm


def mul(a, b, n):
    return ((a[0] * b[0] + a[1] * b[2]) % n, (a[0] * b[1] + a[1] * b[3]) % n,
            (a[2] * b[0] + a[3] * b[2]) % n, (a[2] * b[1] + a[3] * b[3]) % n)


def power(m, e, n):
    r = (1, 0, 0, 1)
    while e:
        if e & 1:
            r = mul(r, m, n)
        m = mul(m, m, n)
        e >>= 1
    return r


def elementary(k, n):
    return (k % n, n - 1, 1, 0)


def pm_sign(m, n):
    """+1 for Id, -1 for -Id, 0 otherwise; mod 2 the two coincide (+1)."""
    a, b, c, d = m
    if b or c or a != d:
        return 0
    if a == 1:
        return 1
    if a == n - 1:
        return -1
    return 0


def factor(n):
    """{prime: exponent} by trial division; n is at most a few million
    here, or a product of such factors handled one at a time."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n):
    return n >= 2 and factor(n) == {n: 1}


def next_prime(n):
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def minimal_size(n, k):
    """(size, sign) of the shortest constant-k solution mod n.

    |SL2(Z/p^a)| = p^(3a-2) (p^2 - 1), so M^E = Id for E the lcm of those
    orders over the prime powers of n; removing each prime of E while the
    power stays in {Id, -Id} leaves the order modulo the sign.
    """
    m = elementary(k, n)
    orders = []
    primes = set()
    for p, a in factor(n).items():
        orders.append(p ** (3 * a - 2) * (p * p - 1))
        primes |= {p} | factor(p - 1).keys() | factor(p + 1).keys()
    s = lcm(*orders)
    for r in primes:
        while s % r == 0 and pm_sign(power(m, s // r, n), n):
            s //= r
    return s, pm_sign(power(m, s, n), n)


def is_minimal_size(n, k, size, sign):
    """The order test: M^size = sign * Id and no M^(size/r) is +-Id for a
    prime r dividing size. Checks a claimed answer without trusting it."""
    m = elementary(k, n)
    if size < 1 or pm_sign(power(m, size, n), n) != sign:
        return False
    return all(not pm_sign(power(m, size // r, n), n) for r in factor(size))


def verdict(n, k):
    """(size, sign, kind, witness) with witness (size, x, y) or None,
    matching the package's smallest bordered witness below the minimal
    size."""
    k %= n
    size, sign = minimal_size(n, k)
    if k == 0:
        return size, sign, "zero-convention", None
    # u[j] holds u_{j-1}: u_{-1} = 0, u_0 = 1.
    u = [0, 1]
    for _ in range(size):
        u.append((k * u[-1] - u[-2]) % n)
    for length in range(3, size):
        top = u[length - 1]          # u_{l-2}, top-left of M^(l-2)
        for eps in ((1,) if n == 2 else (1, -1)):
            if top != (-eps) % n:
                continue
            x = y = (-eps * u[length - 2]) % n
            inner = (top, -u[length - 2] % n, u[length - 2], -u[length - 3] % n)
            prod = mul(elementary(y, n), mul(inner, elementary(x, n), n), n)
            if pm_sign(prod, n) == (1 if n == 2 else eps):
                return size, sign, "reducible", (length, x, y)
    return size, sign, "irreducible", None


def classify_line(n, k):
    size, _, kind, w = verdict(n, k)
    if kind == "reducible":
        return f"reducible; witness size {w[0]}: ({witness_line(n, k)})"
    if kind == "irreducible":
        return f"irreducible; size {size}"
    return f"zero-convention; size {size}: (0,0)"


def witness_line(n, k):
    _, _, _, w = verdict(n, k)
    if w is None:
        return "none"
    length, x, y = w
    return ",".join(map(str, [x] + [k % n] * (length - 2) + [y]))


def size_line(n, k):
    size, sign = minimal_size(n, k)
    return f"{size}, -Id" if sign < 0 else str(size)


def survey_csv(lo, hi):
    """The survey table as the CLI prints it, without a trailing newline."""
    lines = ["N,k,size,sign,verdict,witness_size,witness_x,witness_y"]
    for n in range(lo, hi + 1):
        for k in range(n):
            size, sign, kind, w = verdict(n, k)
            tail = ",".join(map(str, w)) if w else ",,"
            lines.append(f"{n},{k},{size},{sign},{kind},{tail}")
    return "\n".join(lines)
