"""The range fill: every pair of a range of moduli, one class tuple at a
time, and the survey table read from it.

A range has one fill, fill_tuples: per modulus, the grouped classes of
its prime-power factors (Part) and one verdict record (size, sign, kind,
first corner) per class tuple (Tuples), each tuple decided once per call
by the single-pair decider (pair._verdict, where the CRT size law and
the corner lemma are proved). No pair is walked. The classes come from one
class source (_class_source): the row of each odd prime p from two
Chebyshev orbits (_orbits), as the traces of the powers of two
eigenvalues that generate the groups of order p - 1 and p + 1 meet
every k once and the order of the power gives the size (the orbit rule,
proved in _orbits); every other prime power from one descent per k
(ring._class), as a single pair (pair._pair_row) takes it.

The law battery (verify) reads the verdicts of fill_tuples, and builds
no witness; fill_rows, which survey prints (_table), reads it per k: the
verdict record of the tuple of every k, that object itself, and the
witness of each k <= n/2 doubled at its first corner (pair._witness). A
witness is (w, x, y, eps), or None, as in pair.py.
"""

from collections import namedtuple
from itertools import compress, product
from math import gcd
from operator import itemgetter

from .pair import _verdict, _witness
from .ring import _capped, _class, _crt_size, _lucas, _size_cap, factorize


def _orbits(p: int) -> list:
    """The class of every k mod the odd prime p, k ascending, from the
    orbits of two generating eigenvalues; no pair is walked.

    The orbit rule, mod an odd prime p. Mod p, v**2 = 0 forces v = 0, so
    the group H of the corner lemma (pair._verdict) is {+-Id}, D = S and
    f = sign: the class of every k is (S, sign, S, sign), and its first
    corner j = S - 2 lies past (S - 2)/2, so no k mod p has a witness.
    For k = 2, M = Id + N with N = M - Id != 0 and N**2 = 0, so
    M**s = Id + s*N is +-Id first at s = p, with sign +1;
    M(-2) = -J * M(2) * J gives size p, sign -1. For k != +-2,
    k**2 - 4 != 0 and M has the two distinct eigenvalues lam**(+-1), the
    roots of x**2 - k*x + 1. When k**2 - 4 is a square mod p they lie in
    F_p*, cyclic of order m = p - 1; otherwise in F_{p**2}, where
    Frobenius swaps them, lam**p = 1/lam, so lam lies in the norm-1
    torus, cyclic of order m = p + 1. M is diagonalizable, so
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
    """
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
    """Yield (n, verdicts, wits) for the distinct moduli n (a range or a
    set, in any order) ascending, k ascending in both lists: verdicts[k]
    is the verdict record (size, sign, kind, first corner) of k mod n and
    wits[k] its witness (w, x, y, eps), or None, so
    (verdicts[k], wits[k]) is the (verdict, wit) pair._pair_row gives.
    It is a view of fill_tuples, which decides each class tuple once per
    call (_verdict) and checks every size against the 3N cap:
    verdicts[k] is the very record fill_tuples holds for the tuple of k,
    found through the parts' slots, and the witness of each k <= n/2
    with a corner (field 3 of its record) is built there, those k picked
    in one pass over the corners, and mirrored to n - k.
    A repeated modulus is filled once; one below 2 raises ValueError at
    the first next(). survey and verify.monomial_row read it; the law
    battery reads fill_tuples, and builds no witness.

    The tuple of -k is decided with that of k, and the witness of n - k
    is mirrored from that of k. M(-k) = -J * M(k) * J with J = diag(1, -1)
    gives M(-k)**s = (-1)**s * J * M(k)**s * J, and m1(-x) = -J * m1(x) * J.
    So n - k has the size and kind of k, its sign times (-1)**size, and
    the witness (-x, -y) of the same size w, its sign times (-1)**w.

    Every n = prod q, over coprime prime powers q, is decided from the
    tuple of the classes (S_q, sign_q, D_q, f_q) of k mod each q
    (pair._verdict, where the CRT size law and the corner lemma are
    proved). The row of an odd prime comes from two orbits (the
    orbit rule, _orbits). The row of q = 2 and of each p**a with a >= 2
    is descended pair by pair for k <= q/2 (ring._class, as
    pair._pair_row takes the class of any k), and mirrored:
    u_j(-k) = (-1)**j * u_j(k), and J maps H for k onto H for -k, so -k
    has the class (S, sign * (-1)**S, D, f * (-1)**D). pair._witness
    doubles to u_j for every pair k <= n/2 with a corner, and raises
    RuntimeError unless u_j = +-1 and the corner closes up
    (det M**j = 1, proved there); the witness (w, x, x, eps) of k gives
    n - k the witness (w, -x, -x, eps * (-1)**w). Every size is
    checked against the 3N cap, once per modulus (ring._capped).

    A prime power q keeps its classes for the rest of the call when
    2 * q is at most the largest modulus (_class_source).
    """
    for t in fill_tuples(moduli):
        n, verdicts = t.n, list(map(t.verdicts.__getitem__, t.indexes()))
        wits = [None] * n
        # no corner is 0, so compress picks the k <= n/2 with a corner
        for k in compress(range(n // 2 + 1), map(itemgetter(3), verdicts)):
            wits[k] = w, x, _, e = _witness(n, k, verdicts[k][3])
            if k + k != n:
                x = -x % n
                wits[n - k] = w, x, x, -e if w % 2 else e
        yield n, verdicts, wits


_CSV_HEADER = "N,k,size,sign,verdict,witness_size,witness_x,witness_y"


class _Rendered(dict):
    """The value of each key, rendered by render(key) on first use and
    kept: the text of a verdict record (_table), the verdict of a class
    tuple, the mirror of a class and the one object of each distinct
    verdict (fill_tuples)."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _table(fmt: str, rows):
    """The text of survey in fmt from rows, the (n, verdicts, wits) of
    fill_rows: the CSV header, then one string per modulus, its lines, k
    ascending, each ending in a newline. JSON lines are what json.dumps
    gives for each pair's dict: every field is an int, null or one of the
    three bare verdict words. A line reads fields 0-2 of its verdict
    record, the (size, sign, kind), and each distinct record of the
    survey, across moduli too (fill_tuples), renders that part of a line
    once, as each k is rendered once."""
    csv = fmt == "csv"
    if csv:
        yield _CSV_HEADER + "\n"
    # format reads fields 0-2 and leaves the first corner unread
    parts = _Rendered(
        (lambda v: ",{},{},{},".format(*v)) if csv else
        (lambda v: '"size": {}, "sign": {}, "verdict": "{}", '.format(*v)))
    ks = []     # str(k) for every k below the largest modulus so far
    for n, verdicts, wits in rows:
        ks += map(str, range(len(ks), n))
        lines = zip(ks, map(parts.__getitem__, verdicts), wits)
        if csv:
            p = f"{n},"
            yield "".join([f"{p}{k}{part},,\n" if w is None else
                           f"{p}{k}{part}{w[0]},{w[1]},{w[2]}\n"
                           for k, part, w in lines])
        else:
            p = f'{{"N": {n}, "k": '
            yield "".join([f'{p}{k}, {part}"witness_size": null, '
                           f'"witness_x": null, "witness_y": null}}\n' if w is None else
                           f'{p}{k}, {part}"witness_size": {w[0]}, '
                           f'"witness_x": {w[1]}, "witness_y": {w[2]}}}\n'
                           for k, part, w in lines])


class Part(namedtuple("Part", "p q slot keys")):
    """The classes mod one prime power q of the prime p, grouped: keys
    lists the distinct classes by their least k, and slot[k] is the index
    of the class of k in keys. The parts of a modulus are its
    factorization (Tuples.parts), which the law checks read."""

    __slots__ = ()


class Tuples(namedtuple("Tuples", "n parts verdicts")):
    """The class tuples of one modulus n and their verdicts (fill_tuples).

    parts holds the grouped classes (Part) of each prime-power factor
    q = p**a of n with its prime p, p ascending, so it is also the
    factorization of n, which the law checks read. A class tuple takes
    one class of each, and tuple i is the i-th of their product, the
    last factor varying fastest.
    verdicts[i] is its one (size, sign, kind, first corner) record
    (_verdict), shared by every tuple of the call with that verdict and
    handed on as the verdict of each of its k (fill_rows): field 3 is
    the first corner j, or None, where each k has its smallest witness,
    of size j + 2 (pair._witness). By the CRT its k are those
    with k mod q among the residues of its class for every q (indexes);
    tuple 0 is k = 0 alone. The tuples themselves are not kept: classes()
    yields them again, in index order."""

    __slots__ = ()

    def index(self, k):
        """The tuple of k mod n."""
        i = 0
        for part in self.parts:
            i = i * len(part.keys) + part.slot[k % part.q]
        return i

    def indexes(self):
        """The tuple of every k mod n, k ascending, by the rule of index."""
        (first, *rest), n = self.parts, self.n
        index = first.slot * (n // first.q)
        for part in rest:
            m, slot = len(part.keys), part.slot * (n // part.q)
            index = [i * m + s for i, s in zip(index, slot)]
        return index

    def classes(self):
        """Every class tuple, by index: the product of the parts' classes."""
        return product(*(part.keys for part in self.parts))


def fill_tuples(moduli):
    """Yield the Tuples of the distinct moduli n (a range or a set, in any
    order) ascending: the grouped classes of each prime-power factor q of
    n with its prime p (Part, from _class_source), n factored once, and
    the verdict (size, sign, kind, first corner) of each class tuple of
    n. The verdict depends only on the tuple (pair._verdict), so every k
    of a tuple shares it. By the CRT the tuples of n are exactly the
    product of the classes of its factors, in the order Tuples.classes
    gives them;
    each is decided once per call (_verdict, with its CRT size law
    ring._crt_size), together with its mirror, the tuple of -k, whose
    verdict is built here from that of k with the sign times (-1)**size,
    and whose first corner is the same, as u_j(-k) = (-1)**j * u_j(k)
    (the mirror rule, proved in fill_rows). The mirror of each distinct
    class (_negated) is computed once per call and shared. The memo of
    the call maps each tuple decided so far to its verdict, one object
    per distinct verdict of the call. No witness is built. The class of
    0 mod q, of size 2, is held by k = 0 mod q alone (_verdict), and it
    is the first class of q, so tuple 0 is k = 0 alone. Every size is checked
    against the 3N cap, once per modulus (ring._capped), at its least k.
    A repeated modulus is decided once; one below 2 raises ValueError at
    the first next(). The law battery (verify) reads it, and fill_rows
    reads the same fill."""
    moduli = sorted(set(moduli))
    if moduli and moduli[0] < 2:
        raise ValueError(f"modulus must be >= 2, got {moduli[0]}")
    parts = _class_source(moduli[-1] if moduli else 0)
    one = _Rendered(lambda v: v).__getitem__    # one object per verdict
    mirrors = _Rendered(lambda c: _negated(*c))     # class -> its mirror

    def decide(key):
        verdict = one(_verdict(key, _crt_size(key)))
        twin = tuple(map(mirrors.__getitem__, key))
        if twin != key:
            s, e, kind, j = verdict     # -k: the sign times (-1)**size
            decided[twin] = one((s, -e if s % 2 else e, kind, j))
        return verdict

    decided = _Rendered(decide)     # class tuple -> its verdict
    for n in moduli:
        t = Tuples(n, tuple(parts(p, a) for p, a in factorize(n)), [])
        t.verdicts.extend(map(decided.__getitem__, t.classes()))
        # the kind fixes whether j is None: max orders no None and int
        if max(t.verdicts)[0] > _size_cap(n):      # some size past the cap
            for k, i in enumerate(t.indexes()):     # the least k past it
                _capped(n, k, t.verdicts[i][0])     # raises SizeCapExceeded
        yield t


def _negated(s, e, d, f):
    """The class of -k, from the class (s, e, d, f) of k (fill_rows)."""
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
                row = half + [_negated(*c) for c in half[(q - 1) // 2:0:-1]]
            index = {}      # class -> its index, by its least k
            slot = [index.setdefault(c, len(index)) for c in row]
            kept[q] = Part(p, q, slot, list(index))
        return kept[q] if 2 * q <= top else kept.pop(q)
    return parts
