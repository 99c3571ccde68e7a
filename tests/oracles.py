"""Slow reference implementations, independent of the package internals.

Everything here is the bare definition with no algebraic shortcuts:
nested-list matrix products, full rescans per size, exhaustive endpoint
search. Tests compare the fast paths against these on small ranges.
Keep these dumb on purpose.
"""


def mat_mul(a, b, n):
    return [
        [(a[0][0] * b[0][0] + a[0][1] * b[1][0]) % n,
         (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % n],
        [(a[1][0] * b[0][0] + a[1][1] * b[1][0]) % n,
         (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % n],
    ]


def elementary(k, n):
    return [[k % n, (-1) % n], [1, 0]]


def product(entries, n):
    m = [[1, 0], [0, 1]]
    for e in entries:
        m = mat_mul(elementary(e, n), m, n)
    return m


def pm_sign(m, n):
    """+1 for Id, -1 for -Id, else None. Mod 2 the two coincide and the
    convention is +1, which the branch order gives for free."""
    if m[0][1] or m[1][0] or m[0][0] != m[1][1]:
        return None
    if m[0][0] == 1:
        return 1
    if m[0][0] == n - 1:
        return -1
    return None


def direct_min_size(n, k):
    """First size whose constant product is plus or minus the identity,
    recomputing the whole product at every size."""
    for size in range(1, 3 * n + 2):
        s = pm_sign(product([k] * size, n), n)
        if s:
            return size, s
    raise AssertionError(f"no size found for n={n}, k={k}")


def bordered_scan(n, k, size):
    """Brute force both endpoints of (x, k, ..., k, y) at a fixed size."""
    inner = [k] * (size - 2)
    out = []
    for x in range(n):
        for y in range(n):
            s = pm_sign(product([x] + inner + [y], n), n)
            if s:
                out.append((x, y, s))
    return out


def naive_crt(pairs, n):
    """Smallest x in [0, n) matching every (residue, modulus) pair."""
    for x in range(n):
        if all(x % q == r % q for r, q in pairs):
            return x
    raise AssertionError(f"no solution for {pairs} mod {n}")


def walk_min_size(n, k):
    """First size whose constant product is plus or minus the identity,
    multiplying one more elementary factor onto the running power per
    size."""
    a = elementary(k, n)
    m = a
    for size in range(1, 3 * n + 2):
        s = pm_sign(m, n)
        if s:
            return size, s
        m = mat_mul(a, m, n)
    raise AssertionError(f"no size found for n={n}, k={k}")


def walk_first_corner(n, k):
    """(size, sign, j, M(k)**j) from one walk: the size and sign as
    walk_min_size gives them, and the least j in [1, size - 3] whose power
    M(k)**j has top-left entry +-1, with that power; j and the power are
    None when there is no such j."""
    a = elementary(k, n)
    m = a
    ones = (1, n - 1)
    j = mj = None
    for size in range(1, 3 * n + 2):
        s = pm_sign(m, n)
        if s:
            if j is not None and j > size - 3:
                j = mj = None
            return size, s, j, mj
        if j is None and m[0][0] in ones:
            j, mj = size, m
        m = mat_mul(a, m, n)
    raise AssertionError(f"no size found for n={n}, k={k}")


def corner_entries(n, k, limit):
    """Every (j, u) with 1 <= j <= limit where u, the top-left entry of
    M(k)**j, is 1 or n - 1, multiplying one more elementary factor onto
    the running power per j."""
    a = elementary(k, n)
    m = a
    out = []
    for j in range(1, limit + 1):
        if m[0][0] in (1, n - 1):
            out.append((j, m[0][0]))
        m = mat_mul(a, m, n)
    return out


def split_search(entries, n):
    """First split of a solution into two shorter ones, by brute force.

    Tries every rotation of the tuple and of its reversal (ascending),
    every right-part size l in [3, len - 1] ascending, and both free
    endpoints (b1, bl) of the right part ascending; the right part's
    interior is the tail of the rotated tuple, and the left part follows
    by subtraction at the seam. Returns (rotated, left, right) as tuples,
    or None.
    """
    v = tuple(e % n for e in entries)
    total = len(v)
    if total < 4:
        return None
    turns = [w[i:] + w[:i] for w in (v, v[::-1]) for i in range(total)]
    for rep in sorted(set(turns)):
        for l in range(3, total):
            m = total - l + 2
            interior = rep[m:]
            inner = product(interior, n)
            for b1 in range(n):
                start = mat_mul(inner, elementary(b1, n), n)
                for bl in range(n):
                    if pm_sign(mat_mul(elementary(bl, n), start, n), n):
                        left = (((rep[0] - bl) % n,) + rep[1:m - 1]
                                + ((rep[m - 1] - b1) % n,))
                        return rep, left, (b1,) + interior + (bl,)
    return None


def mat_pow(a, e, n):
    """a**e by square-and-multiply on nested lists."""
    m = [[1, 0], [0, 1]]
    while e:
        if e & 1:
            m = mat_mul(m, a, n)
        a = mat_mul(a, a, n)
        e >>= 1
    return m


def trial_factorize(n):
    """[(p, multiplicity)] by trial division with every d >= 2."""
    out = []
    d = 2
    while d * d <= n:
        m = 0
        while n % d == 0:
            n //= d
            m += 1
        if m:
            out.append((d, m))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(s):
    """(p, e) when s = p**e for a prime p and e >= 1, else None (by trial
    division of s)."""
    f = trial_factorize(s)
    return f[0] if len(f) == 1 else None


def order_sign(n, k, s):
    """The sign of M(k)**s when s is the least size with M(k)**s = +-Id,
    else None: M(k)**s must be +-Id and M(k)**(s/r) must not be, for
    every prime r | s (by trial division of s)."""
    a = elementary(k, n)
    sign = pm_sign(mat_pow(a, s, n), n)
    if sign is None:
        return None
    for r, _ in trial_factorize(s):
        if pm_sign(mat_pow(a, s // r, n), n):
            return None
    return sign


def bordered_census(n, k, cap):
    """Every (size, x, y, sign) with (x, k, ..., k, y) a solution of size
    in [2, cap], multiplying one more factor onto the inner power per
    size over the whole range (no period, no symmetry). With
    P = [[p, q], [r, s]] the inner power, the bottom row of the product
    is (p*x + q, -p), so only p = +-1 can close up, with sign eps = -p,
    x = eps*q and y = -eps*r; each candidate is confirmed by the
    product."""
    out = []
    inner = [[1, 0], [0, 1]]
    for size in range(2, cap + 1):
        p, q, r = inner[0][0], inner[0][1], inner[1][0]
        if p in (1, n - 1):
            eps = 1 if p == n - 1 else -1
            x, y = eps * q % n, -eps * r % n
            m = mat_mul(elementary(y, n),
                        mat_mul(inner, elementary(x, n), n), n)
            if pm_sign(m, n) == eps:
                out.append((size, x, y, eps))
        inner = mat_mul(elementary(k, n), inner, n)
    return out
