"""The per-pair recurrence: size, sign and smallest bordered witness.

For k mod n the constant product M(k)**s, M(k) = [[k, -1], [1, 0]],
follows one scalar recurrence. A single walk along it gives the minimal
size of the constant solution, its sign and its first inner power with
a +-1 corner: a shorter bordered solution (x, k, ..., k, y) closes up
exactly at those corners, so the first one is the smallest witness. The
results come as flat lists of plain ints and words, with no dataclass
built per pair, so the commands that only print rows (classify,
witness, survey) and the law battery need no other package module than
ring, which factors the moduli, descends and doubles powers.

A composite modulus takes each size, sign and first corner from the
corner classes of its prime-power factors (the CRT size law and the
corner lemma, both proved in decide_rows), composed once per tuple of
classes (_compose). A range of moduli (decide_rows) walks each prime
power's row (_walk) and keeps the classes of every k. A single pair
(_pair_row), prime power or composite, walks nothing: it takes the
class of k mod each prime-power factor from two descents
(ring._descend), as the size command takes the size. A corner is a bare
j; one row builder (_row) builds M(k)**j by fast doubling (ring._lucas),
closes and checks it, and checks every size against the 3N cap.
"""

from math import lcm

from .ring import SizeCapExceeded, _descend, _lucas, _size_multiple, factorize

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
    witness. Returns (size, sign, corner): corner is the first j with
    1 <= j <= (S - 2)/2 and u_j = +-1, or None.
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
            corner = h
        a, b = b, c
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


def _row(n, k, size, sign, j):
    """The flat row of k mod n from its size, sign and first corner j
    (or None), as _walk or _compose gives them. M(k)**j is built here by
    fast doubling and closed by _endpoints; RuntimeError unless
    u_j = +-1. A size past the 3N cap raises SizeCapExceeded."""
    if size > _CAP_FACTOR * n + 1:
        raise SizeCapExceeded(f"size {size} > {_CAP_FACTOR * n + 1} for n={n}, k={k}")
    if j is None:
        return [size, sign, "irreducible" if k else "zero-convention",
                None, None, None, None]
    a, b = _lucas(n, k, j)      # u_{j-1}, u_j
    ends = _endpoints((b, -a % n, a, (b - k * a) % n), n)
    if ends is None:
        raise RuntimeError(f"u_{j} is not +-1 for n={n}, k={k}")
    return [size, sign, "reducible", j + 2, *ends]


def _pair_row(n: int, k: int) -> list:
    """The flat row of k mod n (0 <= k < n): [size, sign, kind, witness
    size, x, y, witness sign], the four witness fields None when there
    is no witness (always for k = 0, of size 2). kind is "reducible",
    "irreducible" or, for k = 0, "zero-convention".

    No pair is walked. The class (S_q, sign_q, D_q, f_q) of k mod each
    prime-power factor q comes from two descents (ring._descend): S_q
    and sign_q in +-Id, from the multiple of ring._size_multiple, then
    D_q and f_q = u_{D_q} in the group H of the corner lemma, from S_q
    (decide_rows). The tuple of classes is composed as decide_rows
    composes it, a prime power's tuple of one class included."""
    key = []
    for p, a in factorize(n):
        q = p ** a
        r = k % q
        size, sign, exps = _descend(q, r, _size_multiple(q, r, [(p, a)]), 1)
        d, f, _ = _descend(q, r, exps, r)
        say = q != 2    # mod 2 the two signs coincide: no say
        key.append((size, sign * say, d, f * say))
    return _row(n, k, *_compose(tuple(key)))


def decide_rows(moduli):
    """Yield (n, rows) for the distinct moduli n (a range or a set, in
    any order) ascending: the flat rows (as _pair_row) of every k mod n,
    k ascending. A modulus below 2 raises ValueError at the first next().

    Only k <= n/2 are decided. M(-k) = -D * M(k) * D with D = diag(1, -1)
    gives M(-k)**s = (-1)**s * D * M(k)**s * D, and m1(-x) = -D * m1(x) * D.
    So n - k has the size and kind of k, its sign times (-1)**size, and
    the witness (-x, -y) of the same size w, its sign times (-1)**w.

    A prime power is walked pair by pair (_walk): over q <= 250 that
    takes about 5 us a pair against 20 us for the descents of _pair_row
    (Python 3.11, 2 cores). A composite n = prod q, over coprime prime
    powers q, is decided from the class of k mod each q (_classes):
    (S_q, sign_q, D_q, f_q), the size and sign of its row and the (D, f)
    of the corner lemma below. By the CRT,
    M**s = eps * Id mod n exactly when it holds mod every q. Mod q, the s
    with M**s = +-Id are the multiples of the size S_q (they form a
    subgroup of Z), and M**(t * S_q) = sign_q**t * Id. So every s with
    M**s = +-Id mod n is a multiple of m = lcm(S_q), and mod q,
    M**m = sign_q**(m / S_q) * Id; mod 2 the two signs coincide, so
    q = 2 has no say. When the signs sign_q**(m / S_q) of all q != 2
    agree, the size is m and that common sign is the row's sign.
    Otherwise the size is 2 * m, with sign +1, since
    M**(2 * m) = (M**m)**2 = Id mod every q.

    The witness comes from the first +-1 corner u_j with
    1 <= j <= (S - 2)/2, as in _walk. The corner lemma: mod a prime
    power q = p**a, let D be the least j >= 1 with M**j in
    H = {f * Id + v * M : f = +-1, v * k = v**2 = 0}, and
    M**D = f * Id + v * M. Then u_j = +-1 exactly when j = 0 or
    j = -2 mod D, and u_{tD} = f**t, u_{tD-2} = -f**t. Proof: by
    Cayley-Hamilton (M**2 = k * M - Id), M**j = -u_{j-2} * Id +
    u_{j-1} * M. H is a group: v**2 = w**2 = 0 mod p**a forces
    v * w = 0, so (f*Id + v*M)(g*Id + w*M) = fg * Id + (f*w + g*v) * M,
    and f*Id - v*M is the inverse. So the j with M**j in H are the
    multiples of D, and (f*Id + v*M)**t = f**t * Id + t * f**(t-1) * v * M
    since (v*M)**2 = v**2 * (k*M - Id) = 0; this reads u_{tD-2} = -f**t,
    u_{tD-1} = t * f**(t-1) * v and u_{tD} = k * u_{tD-1} - u_{tD-2} =
    f**t, as v * k = 0. Conversely let u_j = eps = +-1, x = u_{j-1} and
    y = u_{j+1} = eps * k - x. Then M**j = (eps - x*k) * Id + x * M,
    M**(j+2) = -eps * Id + y * M, and det M**(j+1) = eps**2 - x*y = 1
    gives x*y = 0, so x**2 = eps*x*k and y**2 = eps*y*k. If x*k = 0,
    M**j is in H and j = 0 mod D; if y*k = 0, M**(j+2) is, and
    j = -2 mod D. One of the two holds: k = 0 gives x*k = 0, and
    otherwise x*k != 0 != y*k would put v_p(x) and v_p(y) below
    a - v_p(k) while v_p(x) + v_p(y) >= a, so both would exceed v_p(k),
    against x + y = eps * k.

    D is read off the row. D >= 2, since M = 0 * Id + 1 * M is not in H.
    When D >= 3 the first corner j >= 1 is D - 2, with u = -f: the row
    has a witness exactly when D - 2 <= (S - 2)/2, and then (D, f) is
    its witness size and sign, the sign being -u_{D-2}. D = 2 means
    M**2 = -Id + k * M is in H, i.e. k**2 = 0, and f = -1: the corners
    are the even j with u_{2t} = (-1)**t, exactly those of (4, +1), and
    the first corner j = 2 gives the witness (4, +1) when S >= 6. With
    no witness, D divides S, as M**S = sign * Id is in H. D = S gives
    f = sign. D < S puts D <= S/2, and then the first corner (D - 2, or
    2 when D = 2) lies in [1, (S - 2)/2] unless D = 2 and S = 4, where
    M**4 = Id and (S, sign) = (4, +1) has the corners of (2, -1). So the
    row's witness size and sign, or its size and sign when it has none,
    give its corners; that is the (D, f) that _classes takes. A single
    pair (_pair_row) has no row to read: it descends to (D, f) itself
    (ring._descend). M**S = sign * Id is in H, so D divides S, and the
    descent in H from S divides out each prime of S while the power
    stays in H; f = u_D. Where k**2 = 0 and k != 0 that gives (2, -1)
    for the row's (4, +1), with the same corners.

    By the CRT, u_j = eps mod n exactly when u_j = eps mod every q. So
    the corners mod n are the j that lie on a corner class of every q
    with one common sign (q = 2 again has no say), and size, sign and
    first corner depend only on the tuple of classes. Each corner mod n
    is one mod the q of the largest D, so _compose scans
    j = t*D - 2, t*D for that D, once per tuple and call. _row builds
    M**j for every pair with a corner, walked or composed, by fast
    doubling (ring._lucas) and raises RuntimeError if u_j is not +-1;
    _endpoints checks the full product. _row checks the 3N size cap of
    every pair.

    A prime power q in the moduli keeps its classes for the rest of the
    call when 2 * q is at most the largest modulus; a factor walked for
    a composite keeps them for the rest of the call.
    """
    moduli = sorted(moduli)
    if moduli and moduli[0] < 2:
        raise ValueError(f"modulus must be >= 2, got {moduli[0]}")
    kept = {}       # prime power q -> the class of every k mod q
    composed = {}   # tuple of classes -> (size, sign, first corner)

    def walked(q):
        return _mirror([_row(q, k, *_walk(q, k)) for k in range(q // 2 + 1)], q)

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
        rows = []
        for k, key in zip(range(n // 2 + 1), keys):
            if key not in composed:
                composed[key] = _compose(key)
            size, sign, corner = composed[key]
            rows.append(_row(n, k, size, sign, corner))
        yield n, _mirror(rows, n)


def _classes(rows, q):
    """The corner class of every k mod the prime power q, from its rows:
    (size, sign, D, f), (D, f) the witness size and sign, or the size and
    sign when there is no witness (decide_rows); the signs 0 at q = 2."""
    say = q != 2    # mod 2 the two signs coincide: no say
    return [(r[0], r[1] * say, r[3] or r[0], (r[6] or r[1]) * say)
            for r in rows]


def _compose(classes):
    """(size, sign, corner) of a pair from the classes of its prime-power
    factors: size and sign by the CRT size law, corner the first corner
    j in [1, (size - 2)/2], or None (decide_rows)."""
    m = lcm(*(c[0] for c in classes))
    # q = 2 (sign 0) has no say; alone, its size is m with sign +1
    signs = {e if m // s % 2 else 1 for s, e, _, _ in classes if e}
    size, sign = (2 * m, 1) if len(signs) > 1 else (m, max(signs, default=1))
    # every corner mod n is one of the class with the largest D. A class
    # (D, f) has u_{tD-2} = -f**t and u_{tD} = f**t (q = 2, f = 0, gives
    # no sign): the first j in [1, (size - 2)/2] on a corner of every
    # class with one common sign
    stop = size // 2
    d = max(c[2] for c in classes)
    for top in range(d, stop + 2, d):
        for j in (top - 2, top):
            if not 0 < j < stop:
                continue
            eps = 0
            for _, _, e, f in classes:
                t, r = divmod(j + 2, e)
                u = -f ** t if r == 0 else f ** t if r == 2 else None
                if u is None or u * eps < 0:
                    break
                eps = eps or u
            else:
                return size, sign, j
    return size, sign, None


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
