"""The per-pair recurrence: size, sign and smallest bordered witness.

For k mod n the constant product M(k)**s, M(k) = [[k, -1], [1, 0]],
follows one scalar recurrence u_s. The minimal size of the constant
solution, its sign and its first inner power with a +-1 corner decide
the pair: a shorter bordered solution (x, k, ..., k, y) closes up
exactly at those corners (_endpoints), so the first one is the smallest
witness. The results are plain ints, words and tuples, with no
dataclass built per pair, so the commands that only print rows
(classify, witness, survey) and the law battery need no other package
module than ring, which factors the moduli, descends and doubles powers.

Every pair takes its verdict (_verdict: size, sign, kind and first
corner) from the corner classes (S_q, sign_q, D_q, f_q) of k mod its
prime-power factors q (the CRT size law and the corner lemma, both
proved in fill_rows). No pair is walked. The class has two sources. A
range of moduli (fill_tuples, from one class source, _class_source)
fills the row of each odd prime p from two Chebyshev orbits (_orbits):
the traces of the powers of two eigenvalues that generate the groups of
order p - 1 and p + 1 meet every k once, and the order of the power
gives the size (the orbit rule, proved in fill_rows). Every other prime
power, in a range or for a single pair (_pair_row), takes the class of k
from one descent (ring._class, gathered per pair by ring._classes), as
the size command composes the size. A corner is a bare j; one witness
step (_witness) builds M(k)**j by fast doubling (ring._lucas), closes
and checks it. Every size is checked against the 3N cap (ring._capped).

A decided pair is a (head, wit): head is its (size, sign, kind) and wit
its witness (w, x, y, eps), or None. _row gives one (for _pair_row). A
range has one fill, fill_tuples: per modulus, the grouped classes of
its prime-power factors (Part) and one head and first corner per class
tuple (Tuples), each tuple decided once per call. The law battery
(verify) reads its heads, and builds no witness; fill_rows, which
survey prints, reads it per k: the head of the tuple of every k, and
the witness of each k <= n/2 doubled at its tuple's first corner.
"""

from collections import namedtuple
from itertools import product
from math import gcd

from .ring import (_capped, _class, _classes, _crt_size, _lucas, _size_cap,
                   factorize)


# Matrices are row-major 4-tuples (a, b, c, d) of plain ints.

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


def _endpoints(p_mat, n):
    """The (x, y, sign) with m1(y) @ P @ m1(x) = sign * Id, or None.

    With P = [[p, q], [r, s]], the product's bottom row is (p*x + q, -p),
    so equality with (0, eps) pins eps = -p, x = eps*q and, from the top
    row, y = -eps*r: there is a solution only when p = +-1, and then
    exactly one. It is checked by evaluating the full product, and a
    failed check raises RuntimeError. Mod 2 the two signs coincide and
    the sign is +1.

    So a bordered solution (x, k, ..., k, y) of size j + 2 closes exactly
    at the +-1 corners u_j of M(k)**j = [[u_j, -u_{j-1}], [u_{j-1},
    -u_{j-2}]], and every such corner closes: with p = +-1, eps = -p,
    x = eps*q and y = -eps*r, m1(y) @ P @ m1(x) has bottom row
    (p*x + q, -p) = (0, eps), top-right entry r - p*y = 0 and determinant
    1, so it is eps * Id. M**S = sign * Id makes
    M**(S-2-j) = sign * M**-2 * M**-j, so u_j is +-1 exactly when
    u_{S-2-j} is: the corners below S - 2 sit symmetrically about
    (S - 2)/2, and the first one is the smallest witness.
    """
    p, q, r, s = p_mat
    if p not in (1, n - 1):
        return None
    eps = 1 if p == n - 1 else -1
    x, y = eps * q % n, -eps * r % n
    # m1(y) @ P @ m1(x) = [[y*c - r*x - s, r - p*y], [c, -p]], c = p*x + q
    c = p * x + q
    closed = ((y * c - r * x - s) % n, (r - p * y) % n, c % n, -p % n)
    if _sign(closed, n) != eps:
        raise RuntimeError(f"the corner {p_mat} mod {n} does not close up")
    return x, y, eps


def _witness(n, k, j):
    """The witness (j + 2, x, y, eps) of k mod n at its first corner j,
    as _compose gives it: M(k)**j by fast doubling (ring._lucas), closed
    by _endpoints. RuntimeError unless u_j = +-1."""
    a, b = _lucas(n, k, j)      # u_{j-1}, u_j
    ends = _endpoints((b, -a % n, a, (b - k * a) % n), n)
    if ends is None:
        raise RuntimeError(f"u_{j} is not +-1 for n={n}, k={k}")
    return (j + 2, *ends)


def _verdict(classes):
    """(head of k, head of -k, first corner j or None) for the k of one
    class tuple, from _compose; a head is (size, sign, kind), and -k has
    the sign times (-1)**size (fill_rows). The kind is "zero-convention"
    exactly at size 2, else "reducible" with a corner, "irreducible"
    without. Only k = 0 has size 2, and it has no corner in [1, 0]:
    M(k)**2 = k * M(k) - Id (Cayley-Hamilton) is +-Id only when k * M(k)
    is 0 or 2 * Id, so its bottom-left entry k is 0, and M(0)**2 = -Id;
    no size is 1, as M(k) has the off-diagonal entries -1 and 1."""
    size, sign, corner = _compose(classes)
    kind = ("zero-convention" if size == 2 else
            "irreducible" if corner is None else "reducible")
    return (size, sign, kind), (size, sign * (-1) ** size, kind), corner


def _row(n, k, classes):
    """The (head, wit) of k mod n from its class tuple: its verdict's head
    (_verdict), the 3N cap checked, and the witness at its corner, or None."""
    head, _, j = _verdict(classes)
    _capped(n, k, head[0])
    return head, None if j is None else _witness(n, k, j)


def _pair_row(n: int, k: int) -> tuple:
    """The (head, wit) of k mod n (0 <= k < n), by _row from the class of
    k mod each prime-power factor of n, one descent each (ring._classes):
    kind "reducible", "irreducible" or, for k = 0, "zero-convention", and
    wit None when there is no witness (always for k = 0, of size 2)."""
    return _row(n, k, _classes(factorize(n), k))


def _orbits(p: int) -> list:
    """The class of every k mod the odd prime p, k ascending, from the
    orbits of two generating eigenvalues; no pair is walked (the rule and
    its proof are in fill_rows)."""
    row = [None] * p
    row[2], row[p - 2] = (p, 1, p, 1), (p, -1, p, -1)
    for m in (p - 1, p + 1):
        if m == 2:      # p = 3: only +-1 have order <= 2, so no k != +-2
            continue
        tops = [m // r for r, _ in factorize(m)]
        # a k1 whose disc k1**2 - 4 is a nonzero square mod p exactly for
        # m = p - 1, and whose M(k1)**(m/r) != Id for every prime r | m
        k1 = next(k for k in range(p) if (k * k - 4) % p
                  and (pow(k * k - 4, p // 2, p) == 1) == (m < p)
                  and all(_lucas(p, k, e) != (0, 1) for e in tops))
        a, b = 2, k1    # t_{i-1}, t_i
        for i in range(1, m // 2):
            o = m // gcd(i, m)
            row[b] = (o, 1, o, 1) if o % 2 else (o // 2, -1, o // 2, -1)
            a, b = b, (k1 * b - a) % p
    return row


def fill_rows(moduli):
    """Yield (n, heads, wits) for the distinct moduli n (a range or a set,
    in any order) ascending, k ascending in both lists: heads[k] is the
    (size, sign, kind) of k mod n and wits[k] its witness (w, x, y, eps),
    or None, so (heads[k], wits[k]) is the (head, wit) _pair_row gives.
    It is a view of fill_tuples, which decides each class tuple once per
    call (_verdict) and checks every size against the 3N cap: heads[k] is
    the head of the tuple of k, found through the parts' slots, and the
    witness of each k <= n/2 is built at its tuple's first corner. A
    repeated modulus is filled once; one below 2 raises ValueError at the
    first next(). survey and verify.monomial_row read it; the law battery
    reads fill_tuples, and builds no witness.

    The tuple of -k is decided with that of k, and the witness of n - k
    is mirrored from that of k. M(-k) = -J * M(k) * J with J = diag(1, -1)
    gives M(-k)**s = (-1)**s * J * M(k)**s * J, and m1(-x) = -J * m1(x) * J.
    So n - k has the size and kind of k, its sign times (-1)**size, and
    the witness (-x, -y) of the same size w, its sign times (-1)**w.

    Every n = prod q, over coprime prime powers q, a prime power
    included, is decided from the class of k mod each q:
    (S_q, sign_q, D_q, f_q), the size and sign of k mod q and the (D, f)
    of the corner lemma below. The row of an odd prime comes from two
    orbits (the orbit rule below, _orbits). The row of q = 2 and of each
    p**a with a >= 2 is descended pair by pair for k <= q/2
    (ring._class, as _pair_row takes the class of any k), and
    mirrored: u_j(-k) = (-1)**j * u_j(k), and J maps H for k onto H for
    -k, so -k has the class (S, sign * (-1)**S, D, f * (-1)**D). By the
    CRT, M**s = eps * Id mod n exactly when it holds mod every q. Mod q,
    the s with M**s = +-Id are the multiples of the size S_q (they form a
    subgroup of Z), and M**(t * S_q) = sign_q**t * Id. So every s with
    M**s = +-Id mod n is a multiple of m = lcm(S_q), and mod q,
    M**m = sign_q**(m / S_q) * Id; mod 2 the two signs coincide, so
    q = 2 has no say (ring._class gives it the signs 0). When the signs
    sign_q**(m / S_q) of all q != 2 agree, the size is m and that common
    sign is the row's sign. Otherwise the size is 2 * m, with sign +1,
    since M**(2 * m) = (M**m)**2 = Id mod every q (ring._crt_size).

    The witness comes from the first +-1 corner u_j with
    1 <= j <= (S - 2)/2 (_endpoints). The corner lemma: mod a prime
    power q = p**a, let D be the least j >= 1 with M**j in
    H = {f * Id + v * M : f = +-1, v * k = v**2 = 0} (a group, proved in
    ring._descend), and M**D = f * Id + v * M. Then u_j = +-1 exactly
    when j = 0 or j = -2 mod D, and u_{tD} = f**t, u_{tD-2} = -f**t.
    Proof: by Cayley-Hamilton (M**2 = k * M - Id), M**j = -u_{j-2} * Id +
    u_{j-1} * M. The j with M**j in H are the multiples of D, and
    (f*Id + v*M)**t = f**t * Id + t * f**(t-1) * v * M since
    (v*M)**2 = v**2 * (k*M - Id) = 0; this reads u_{tD-2} = -f**t,
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

    The orbit rule, mod an odd prime p. Mod p, v**2 = 0 forces v = 0, so
    H = {+-Id}, D = S and f = sign: the class of every k is
    (S, sign, S, sign), and its first corner j = S - 2 lies past
    (S - 2)/2, so no k mod p has a witness. For k = 2, M = Id + N with
    N = M - Id != 0 and N**2 = 0, so M**s = Id + s*N is +-Id first at
    s = p, with sign +1; M(-2) = -J * M(2) * J gives size p, sign -1. For
    k != +-2, k**2 - 4 != 0 and M has the two distinct eigenvalues
    lam**(+-1), the roots of x**2 - k*x + 1. When k**2 - 4 is a square
    mod p they lie in F_p*, cyclic of order m = p - 1; otherwise in
    F_{p**2}, where Frobenius swaps them, lam**p = 1/lam, so lam lies in
    the norm-1 torus, cyclic of order m = p + 1. M is diagonalizable, so
    M**s = eps * Id exactly when lam**s = lam**-s = eps, that is when
    lam**s = eps = +-1. With o the order of lam: for o even,
    lam**(o/2) = -1, the one element of order 2 of a cyclic group, so
    the size is o/2 with sign -1; for o odd, -1 is not a power of lam,
    so the size is o with sign +1. k = 0 has lam**2 = -1, o = 4, and
    the class (2, -1, 2, -1). For each m > 2, take the first k1 of that
    Legendre class whose lam1 generates the group of order m, that is
    M(k1)**(m/r) != Id for every prime r | m (ring._lucas); the group is
    cyclic, so one exists. t_i = lam1**i + lam1**-i is the trace of
    M(k1)**i, so by Cayley-Hamilton t_0 = 2, t_1 = k1 and
    t_{i+1} = k1 * t_i - t_{i-1}. M(t_i) has the eigenvalues
    lam1**(+-i), of order o = m / gcd(i, m). For 1 <= i < m/2 the
    lam1**(+-i) run once through the m - 2 elements other than +-1, and
    mu + 1/mu fixes the pair {mu, 1/mu} (the roots of x**2 - t*x + 1),
    so these t_i are distinct and are every k != +-2 of that Legendre
    class. The two orbits, (p - 3)/2 and (p - 1)/2 values, and k = +-2
    give all p values of k, each once. At p = 3 the group of order
    p - 1 = 2 is {+-1}, and its orbit is empty.

    By the CRT, u_j = eps mod n exactly when u_j = eps mod every q. So
    the corners mod n are the j that lie on a corner class of every q
    with one common sign (q = 2 again has no say), and size, sign, kind
    and first corner depend only on the tuple of classes (_verdict).
    Each corner mod n is one mod the q of the largest D, so _compose
    scans j = t*D - 2, t*D for that D, once per tuple and call. _witness
    doubles to M**j for every pair k <= n/2 with a corner, and raises
    RuntimeError unless u_j = +-1 and the full product closes
    (_endpoints); the witness of n - k is mirrored. Every size is
    checked against the 3N cap, once per modulus (ring._capped).

    A prime power q keeps its classes for the rest of the call when
    2 * q is at most the largest modulus (_class_source).
    """
    for t in fill_tuples(moduli):
        (first, *rest), n = t.parts, t.n
        index = first.slot * (n // first.q)     # the tuple of each k
        for part in rest:       # the mixed-radix rule of Tuples.index
            m, slot = len(part.keys), part.slot * (n // part.q)
            index = [i * m + s for i, s in zip(index, slot)]
        # no corner is 0, so j and its witness is None when j is None
        wits = [j and _witness(n, k, j) for k, j in
                enumerate(map(t.corners.__getitem__, index[:n // 2 + 1]))]
        wits += [w and (w[0], -w[1] % n, -w[2] % n,
                        -w[3] if w[0] % 2 else w[3])
                 for w in wits[(n - 1) // 2:0:-1]]
        yield n, list(map(t.heads.__getitem__, index)), wits


class Part(namedtuple("Part", "q slot keys")):
    """The classes mod one prime power q, grouped: keys lists the distinct
    classes by their least k, and slot[k] is the index of the class of k
    in keys."""

    __slots__ = ()


def _grouped(row) -> Part:
    """The Part of a class row (the class of every k mod q, k ascending)."""
    index = {}
    return Part(len(row), [index.setdefault(c, len(index)) for c in row],
                list(index))


class Tuples(namedtuple("Tuples", "n parts heads corners")):
    """The class tuples of one modulus n and their verdicts (fill_tuples).

    parts holds the grouped classes (Part) of each prime-power factor q
    of n, p ascending; a class tuple takes one class of each, and tuple
    i is the i-th of their product, the last factor varying fastest.
    heads[i] is its (size, sign, kind) and corners[i] its first corner
    j, or None (_verdict): every k of the tuple has its smallest witness
    there, of size j + 2 (fill_rows). By the CRT its k are those with
    k mod q among the residues of its class for every q (ks); tuple 0
    is k = 0 alone."""

    __slots__ = ()

    def _cell(self, i):
        """The index of the class of tuple i in each part, p ascending."""
        cell = []
        for part in reversed(self.parts):
            i, j = divmod(i, len(part.keys))
            cell.append(j)
        return cell[::-1]

    def index(self, k):
        """The tuple of k mod n."""
        i = 0
        for part in self.parts:
            i = i * len(part.keys) + part.slot[k % part.q]
        return i

    def head(self, k):
        """The (size, sign, kind) of k mod n."""
        return self.heads[self.index(k)]

    def classes(self, i):
        """Tuple i: its class mod each q."""
        return tuple(part.keys[j] for part, j in zip(self.parts, self._cell(i)))

    def ks(self, i):
        """The k of tuple i, ascending: k = sum of r_q * e_q mod n, over
        one k mod q of its class, r_q, per q, e_q = 1 mod q and 0 mod n/q."""
        ks = [0]
        for part, j in zip(self.parts, self._cell(i)):
            c = self.n // part.q
            e = c * pow(c, -1, part.q)
            ks = [k + r * e for k in ks
                  for r, s in enumerate(part.slot) if s == j]
        return sorted(k % self.n for k in ks)


def fill_tuples(moduli):
    """Yield the Tuples of the distinct moduli n (a range or a set, in any
    order) ascending: the grouped classes of each prime-power factor q
    (_class_source) and the head and first corner of each class tuple of
    n. Size, sign, kind and first corner depend only on the tuple
    (fill_rows), so every k of a tuple shares them. By the CRT the
    tuples of n are exactly the product of the classes of its factors;
    each is decided once per call (_verdict), together with its mirror,
    the tuple of -k, whose head has the sign times (-1)**size and whose
    first corner is the same, as u_j(-k) = (-1)**j * u_j(k) (fill_rows).
    The memo of the call maps each tuple decided so far to one shared
    (head, first corner) pair. No witness is built. The class of 0 mod
    q, of size 2, is held by k = 0 mod q alone (_verdict), and it is the
    first class of q, so tuple 0 is k = 0 alone. Every size is checked
    against the 3N cap, once per modulus (ring._capped), at its least k.
    A repeated modulus is decided once; one below 2 raises ValueError at
    the first next(). The law battery (verify) reads it, and fill_rows
    reads the same fill."""
    moduli = sorted(set(moduli))
    if moduli and moduli[0] < 2:
        raise ValueError(f"modulus must be >= 2, got {moduli[0]}")
    parts = _class_source(moduli[-1] if moduli else 0)
    decided = {}    # class tuple -> its (head, first corner)
    shared = {}     # one object per distinct class, head and pair met

    def one(x):
        return shared.setdefault(x, x)

    def decide(key):
        head, mirrored, j = _verdict(key)
        twin = tuple(map(one, map(_negated, key)))
        if twin != key:
            decided[twin] = one((one(mirrored), j))
        decided[key] = pair = one((one(head), j))
        return pair

    for n in moduli:
        ps = tuple(parts(p, a) for p, a in factorize(n))
        pairs = [decided.get(key) or decide(key)
                 for key in product(*(p.keys for p in ps))]
        t = Tuples(n, ps, [h for h, _ in pairs], [j for _, j in pairs])
        if max(t.heads)[0] > _size_cap(n):     # some size past the cap
            k = min(k for i, h in enumerate(t.heads)
                    if h[0] > _size_cap(n) for k in t.ks(i))
            _capped(n, k, t.head(k)[0])     # raises SizeCapExceeded
        yield t


def _negated(c):
    """The class of -k, from the class c of k (fill_rows)."""
    s, e, d, f = c
    return s, -e if s % 2 else e, d, -f if d % 2 else f


def _class_source(top):
    """parts(p, a): the classes of every k mod q = p**a, k ascending,
    grouped (Part): from the orbits (_orbits) for an odd prime, else
    descended for k <= q/2 (ring._class) and mirrored (fill_rows). Each q
    is decided and grouped once per source and kept while 2 * q <= top,
    that is while some other modulus up to top may be a multiple of it;
    past that it is handed out and dropped."""
    kept = {}

    def parts(p, a):
        q = p ** a
        if q not in kept:
            if a == 1 and p > 2:
                row = _orbits(p)
            else:
                half = [_class(p, a, k) for k in range(q // 2 + 1)]
                row = half + [_negated(c) for c in half[(q - 1) // 2:0:-1]]
            kept[q] = _grouped(row)
        return kept[q] if 2 * q <= top else kept.pop(q)
    return parts


def _compose(classes):
    """(size, sign, corner) of a pair from the classes of its prime-power
    factors: size and sign by the CRT size law (ring._crt_size), corner
    the first corner j in [1, (size - 2)/2], or None (fill_rows)."""
    m, multiplier, sign = _crt_size(classes)
    size = multiplier * m
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
