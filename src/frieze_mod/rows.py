"""The per-pair recurrence: size, sign and smallest bordered witness.

For k mod n the constant product M(k)**s, M(k) = [[k, -1], [1, 0]],
follows one scalar recurrence. A single walk along it gives the minimal
size of the constant solution, its sign and its first inner power with
a +-1 corner: a shorter bordered solution (x, k, ..., k, y) closes up
exactly at those corners, so the first one is the smallest witness. The
results come as flat lists of plain ints and words, with no dataclass
built per pair, so the commands that only print rows (classify,
witness, survey) and the law battery need no other package module than
ring, which decide_rows loads to factor its moduli.

decide_rows walks only prime-power moduli. A composite modulus takes
each size and sign from the corner classes of its prime-power factors'
rows (the CRT size law), composed once per tuple of classes, and walks
each pair only to its first corner (_first_corner). By the corner
lemma, no later pair of a tuple of corner-free classes walks when the
tuple's first pair has no corner. Both laws are proved in decide_rows.
SizeCapExceeded is defined in monomial and imported only on the two
paths that raise it, so that classify and witness still load rows
alone.
"""

from math import lcm

# Minimal sizes never exceed 3N (worst case: twice the lcm of the
# prime-power component sizes, each at most 3 * p**a / 2), so a size past
# 3N + 1 means the implementation is broken, not the input.
_CAP_FACTOR = 3


# Matrices are row-major 4-tuples of plain ints.

def _mul(a, b, n):
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (
        (a11 * b11 + a12 * b21) % n,
        (a11 * b12 + a12 * b22) % n,
        (a21 * b11 + a22 * b21) % n,
        (a21 * b12 + a22 * b22) % n,
    )


def _m1(k, n):
    return (k % n, n - 1, 1, 0)


def _sign(m, n):
    """+1 if m is Id, -1 if -Id, else 0. Mod 2 the two coincide; report +1."""
    a, b, c, d = m
    if b or c or a != d:
        return 0
    if a == 1:
        return 1
    if a == n - 1:
        return -1
    return 0


def _walk(n: int, k: int):
    """The one pass deciding when the constant product reaches +-Id.

    u_s = k * u_{s-1} - u_{s-2} mod n, from u_0 = 1 and u_{-1} = 0, gives
    M(k)**s = [[u_s, -u_{s-1}], [u_{s-1}, -u_{s-2}]], and run backwards
    u_{-s} = -u_{s-2}, so M(k)**-h = [[-u_{h-2}, u_{h-1}], [-u_{h-1}, u_h]].
    Comparing M**h with +-M**-h, and M**(h+1) with +-M**-h, at step h:
    M**(2h) = Id when 2 * u_{h-1} = 0 (u_{h-1} = 0, or u_{h-1} = n/2 with
    n and k even), M**(2h) = -Id when u_h = u_{h-2}, and
    M**(2h+1) = eps * Id when u_h = -eps * u_{h-1}. Testing 2h before
    2h + 1 and +1 before -1 gives the size S and its sign (+1 mod 2) by
    step S/2.

    A bordered solution (x, k, ..., k, y) of size j + 2 closes exactly at
    the +-1 corners u_j, and every such corner closes: with
    P = M(k)**j = [[p, q], [r, s]] and p = +-1, put eps = -p, x = eps*q and
    y = -eps*r. Then m1(y) @ P @ m1(x) has bottom row (p*x + q, -p) =
    (0, eps) and top-right entry r - p*y = 0, and determinant 1, so it is
    eps * Id. M**S = eps * Id makes M**(S-2-j) = eps * M**-2 * M**-j, so
    u_j is +-1 exactly when u_{S-2-j} is: the corners below S - 2 sit
    symmetrically about (S - 2)/2, and the first one is the smallest
    witness. Returns (size, sign, corner): corner is the first
    (j, M(k)**j) with 1 <= j <= (S - 2)/2 and u_j = +-1, or None.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    k %= n
    minus = n - 1
    # u_{h-1} % half == 0 exactly when M**(2h) = Id: u_{h-1} = 0, or
    # u_{h-1} = n/2 with n and k even
    half = n // 2 if n % 2 == 0 and k % 2 == 0 else n
    a, b = 0, 1     # u_{h-2}, u_{h-1}
    corner = None
    for h in range(1, _CAP_FACTOR * n // 2 + 2):
        c = (k * b - a) % n
        if c == a or c == b or c + b == n or not b % half:
            if not b % half:
                size, sign = 2 * h, 1
            elif c == a:
                size, sign = 2 * h, -1
            else:
                size, sign = 2 * h + 1, 1 if c + b == n else -1
            if size > _CAP_FACTOR * n + 1:
                break
            return size, sign, corner
        if (c == 1 or c == minus) and corner is None:
            corner = h, (c, -b % n, b, -a % n)
        a, b = b, c
    from .monomial import SizeCapExceeded
    raise SizeCapExceeded(f"no size <= {_CAP_FACTOR * n + 1} for n={n}, k={k}")


def _endpoints(p_mat, n):
    """The (x, y, sign) with m1(y) @ P @ m1(x) = sign * Id, or None.

    With P = [[p, q], [r, s]], the product's bottom row is (p*x + q, -p),
    so equality with (0, eps) pins eps = -p, x = eps*q and, from the top
    row, y = -eps*r: there is a solution only when p = +-1, and then
    exactly one (proved in _walk). It is checked by evaluating the full
    product, and a failed check raises RuntimeError. Mod 2 the two signs
    coincide and the sign is +1.
    """
    p, q, r, _ = p_mat
    if p not in (1, n - 1):
        return None
    eps = 1 if p == n - 1 else -1
    x, y = eps * q % n, -eps * r % n
    if _sign(_mul(_m1(y, n), _mul(p_mat, _m1(x, n), n), n), n) != eps:
        raise RuntimeError(f"the corner {p_mat} mod {n} does not close up")
    return x, y, eps


def _row(n, k, size, sign, corner):
    """The flat row of k mod n from its size, sign and first corner."""
    if corner is None:
        return [size, sign, "irreducible" if k else "zero-convention",
                None, None, None, None]
    j, p_mat = corner
    return [size, sign, "reducible", j + 2, *_endpoints(p_mat, n)]


def _pair_row(n: int, k: int) -> list:
    """The flat row of k mod n (0 <= k < n): [size, sign, kind, witness
    size, x, y, witness sign], the four witness fields None when there
    is no witness (always for k = 0, of size 2). kind is "reducible",
    "irreducible" or, for k = 0, "zero-convention"."""
    return _row(n, k, *_walk(n, k))


def decide_rows(moduli):
    """Yield (n, rows) for the distinct moduli n (a range or a set, in
    any order) ascending: the flat rows (as _pair_row) of every k mod n,
    k ascending. A modulus below 2 raises ValueError at the first next().

    Only k <= n/2 are decided. M(-k) = -D * M(k) * D with D = diag(1, -1)
    gives M(-k)**s = (-1)**s * D * M(k)**s * D, and m1(-x) = -D * m1(x) * D.
    So n - k has the size and kind of k, its sign times (-1)**size, and
    the witness (-x, -y) of the same size w, its sign times (-1)**w.

    A prime power is walked pair by pair (_pair_row). A composite
    n = prod q, over coprime prime powers q, is decided from the class of
    k mod each q (_classes): the size S_q and sign of its row, and
    whether that row has a witness. By the CRT, M**s = eps * Id mod n
    exactly when it holds mod every q. Mod q, the s with M**s = +-Id are
    the multiples of the size S_q (they form a subgroup of Z), and
    M**(t * S_q) = sign_q**t * Id. So every s with M**s = +-Id mod n is
    a multiple of m = lcm(S_q), and mod q, M**m = sign_q**(m / S_q) * Id;
    mod 2 the two signs coincide, so q = 2 has no say. When the signs
    sign_q**(m / S_q) of all q != 2 agree, the size is m and that common
    sign is the row's sign. Otherwise the size is 2 * m, with sign +1,
    since M**(2 * m) = (M**m)**2 = Id mod every q.

    The witness comes from the first +-1 corner u_j with
    1 <= j <= (S - 2)/2, as in _walk. The corner lemma: let the row of
    k mod q have no witness, with size S and sign e. Then u_j = +-1 mod q
    exactly when j = 0 or j = -2 mod S, and u_{tS} = e**t,
    u_{tS-2} = -e**t. Proof: M**S = e * Id gives u_{j+S} = e * u_j. It
    also gives u_0 = 1, u_{S-2} = -e and u_{S-1} = 0, which is not +-1.
    No j in [1, (S - 2)/2] is a corner, and by the palindrome of _walk
    (u_j = +-1 exactly when u_{S-2-j} = +-1) neither is any j in
    [(S - 2)/2, S - 3]. So the corners in [0, S - 1] are 0 and S - 2,
    and the rest follow by u_{j+S} = e * u_j. By the CRT, u_j = eps mod
    n exactly when u_j = eps mod every q. So when the row of every q is
    corner-free, the corners mod n are the j that lie on a corner class
    of every q with one common sign (q = 2 again has no say), and the
    size, sign and corners depend only on the tuple of classes.
    _compose finds size and sign once per tuple and call. The tuple's
    first pair walks to (S - 2)/2 (_first_corner); when all its classes
    are corner-free and that pair has no corner, no later pair of the
    tuple walks. Every other pair walks to its first corner, and a later
    pair of a corner-free tuple raises RuntimeError unless it stops at
    the first pair's j. The 3N size cap is checked per pair.

    A prime power q in the moduli keeps its classes for the rest of the
    call when 2 * q is at most the largest modulus; a factor walked for
    a composite keeps them for the rest of the call.
    """
    moduli = sorted(moduli)
    if moduli and moduli[0] < 2:
        raise ValueError(f"modulus must be >= 2, got {moduli[0]}")
    # loaded here, so that classify and witness load rows alone
    from .ring import factorize
    kept = {}       # prime power q -> the class of every k mod q
    composed = {}   # tuple of classes -> (size, sign, free, first pair's j)

    def walked(q):
        return _mirror([_pair_row(q, k) for k in range(q // 2 + 1)], q)

    for n in moduli:
        qs = [p ** a for p, a in factorize(n)]
        if len(qs) == 1:
            rows = walked(n)
            if 2 * n <= moduli[-1]:
                kept[n] = _classes(rows, n)
            yield n, rows
            continue
        for q in qs:
            if q not in kept:
                kept[q] = _classes(walked(q), q)
        # the tuple of the classes of k mod every q, for each k <= n/2
        keys = zip(*[kept[q] * (n // (2 * q) + 1) for q in qs])
        cap = _CAP_FACTOR * n + 1
        rows = []
        for k, key in zip(range(n // 2 + 1), keys):
            first = key not in composed
            if first:
                composed[key] = *_compose(key), all(c[2] for c in key), None
            size, sign, free, j = composed[key]
            if size > cap:
                from .monomial import SizeCapExceeded
                raise SizeCapExceeded(f"size {size} > {cap} for n={n}, k={k}")
            corner = None
            if first or not free or j is not None:
                corner = _first_corner(n, k, (size - 2) // 2)
                found = corner and corner[0]
                if first:
                    composed[key] = size, sign, free, found
                elif free and found != j:
                    raise RuntimeError(
                        f"k={k} mod {n} has its first corner at {found}, "
                        f"not at {j} as the first pair of its classes")
            rows.append(_row(n, k, size, sign, corner))
        yield n, _mirror(rows, n)


def _classes(rows, q):
    """The corner class of every k mod the prime power q, from its rows:
    (size, sign, corner-free), the sign 0 at q = 2."""
    return [(r[0], r[1] if q != 2 else 0, r[3] is None) for r in rows]


def _compose(classes):
    """(size, sign) of a composite pair from its components' classes, by
    the CRT size law (decide_rows)."""
    m = 1
    for s, _, _ in classes:
        m = lcm(m, s)
    sign = 0
    for s, e, _ in classes:
        if e:       # q = 2 (sign 0) has no say
            e = e if m // s % 2 else 1
            if sign and e != sign:
                return 2 * m, 1
            sign = e
    return m, sign


def _first_corner(n, k, last):
    """The first (j, M(k)**j) with 1 <= j <= last and u_j = +-1, or None:
    the recurrence of _walk without its size test."""
    minus = n - 1
    a, b = 0, 1     # u_{j-2}, u_{j-1}
    for j in range(1, last + 1):
        c = (k * b - a) % n
        if c == 1 or c == minus:
            return j, (c, -b % n, b, -a % n)
        a, b = b, c
    return None


def _mirror(rows, n):
    """rows, the rows of k <= n/2, extended to every k mod n by the
    mirror of decide_rows."""
    for k in range((n - 1) // 2, 0, -1):
        size, sign, kind, w, x, y, w_sign = rows[k]
        if size % 2:
            sign = -sign
        if w is None:
            rows.append([size, sign, kind, None, None, None, None])
        else:
            rows.append([size, sign, kind, w, -x % n, -y % n,
                         -w_sign if w % 2 else w_sign])
    return rows


def decide_row(n: int) -> list[list]:
    """The flat rows of every k mod n, k ascending: the one row of
    decide_rows((n,))."""
    for _, rows in decide_rows((n,)):
        return rows
