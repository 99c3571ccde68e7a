"""The single-pair decider: size, sign and smallest bordered witness.

For k mod n the constant product M(k)**s, M(k) = [[k, -1], [1, 0]],
follows one scalar recurrence u_s. The minimal size of the constant
solution, its sign and its first inner power with a +-1 corner decide
the pair: a shorter bordered solution (x, k, ..., k, y) closes up
exactly at those corners, with x = y (proved in _witness), so the first
one is the smallest witness. The results are plain ints, words and
tuples, with no dataclass built per pair.

Every pair takes its verdict (_verdict: one record of its size, sign,
kind and first corner) from the corner classes (S_q, sign_q, D_q, f_q)
of k mod its prime-power factors q and their CRT size law (the law and
the corner lemma, both proved there). No pair is walked.
A single pair (_pair_row) takes k mod n, the class of k mod each q, one
descent each, and their size law, checked against the 3N cap, from
ring._front, the front the size command reads too, so a size past the
cap raises before any corner is scanned, and the law is composed once.
A corner is a bare j; one witness step (_witness) doubles to u_j by
ring._lucas, checks that the corner closes up and closes it in closed
form.

A decided pair is a (verdict, wit): verdict is the record _verdict
gives, (size, sign, kind, first corner), and wit its witness
(w, x, y, eps), or None. The range fill (rows.fill_tuples,
rows.fill_rows) decides each class tuple with _verdict, hands on the
record itself, and builds each witness with _witness. This module
imports ring alone, so classify, witness and is_irreducible_monomial
compile no range fill.
"""

from .ring import _front, _lucas


def _witness(n, k, j):
    """The witness (j + 2, x, y, eps) of k mod n at its first corner j,
    as _verdict gives it: x = y = u_j * u_{j-1} and eps = -u_j, from the
    u_{j-1} and u_j of one fast doubling (ring._lucas). RuntimeError
    unless u_j = +-1 and u_{j-1} * (k - u_j * u_{j-1}) = 0, that is
    unless the corner closes up. Mod 2 the two signs coincide and eps is
    +1.

    A bordered solution (x, k, ..., k, y) of size j + 2 is
    m1(y) @ P @ m1(x) = eps * Id, m1(x) = [[x, -1], [1, 0]], with
    P = M(k)**j = [[p, q], [r, s]] = [[u_j, -u_{j-1}], [u_{j-1},
    -u_{j-2}]]. The product is [[y*c - r*x - s, r - p*y], [c, -p]] with
    c = p*x + q: its bottom row (c, -p) = (0, eps) pins eps = -p and
    x = eps*q, and its top-right entry r - p*y = 0 pins y = -eps*r. So
    there is a solution only when p = u_j = +-1, and then exactly one,
    x = y = u_j * u_{j-1}. Its top-left entry is then
    u_{j-2} - u_j * u_{j-1}**2 = -u_j + u_{j-1} * (k - u_j * u_{j-1}),
    by u_{j-2} = k * u_{j-1} - u_j, and it equals eps exactly when
    u_{j-1} * (k - u_j * u_{j-1}) = 0. That is det P = 1: det P =
    u_{j-1}**2 - u_j * u_{j-2} = 1 - u_j * u_{j-1} * (k - u_j * u_{j-1}).
    So the check is the full product's (its other three entries hold by
    the choice of x, y and eps), and every +-1 corner of a true M**j
    closes up: a bordered solution of size j + 2 exists exactly at the
    +-1 corners u_j. M**S = sign * Id makes
    M**(S-2-j) = sign * M**-2 * M**-j, so u_j is +-1 exactly when
    u_{S-2-j} is: the corners below S - 2 sit symmetrically about
    (S - 2)/2, and the first one is the smallest witness.
    """
    a, b = _lucas(n, k, j)      # u_{j-1}, u_j
    if b != 1 and b != n - 1:
        raise RuntimeError(f"u_{j} is not +-1 for n={n}, k={k}")
    if a * (k - b * a) % n:
        p_mat = b, -a % n, a, (b - k * a) % n
        raise RuntimeError(f"the corner {p_mat} mod {n} does not close up")
    x = b * a % n
    return j + 2, x, x, 1 if b == n - 1 else -1


def _verdict(classes, law):
    """The verdict (size, sign, kind, first corner) of the k of one class
    tuple, the classes of its prime-power factors: size and sign from
    their CRT size law, the (m, multiplier, sign) of ring._crt_size that
    the caller holds, and the first corner j in [1, (size - 2)/2], or
    None. A corner makes the kind "reducible"; without one it is
    "zero-convention" at size 2 and "irreducible" otherwise. Only k = 0
    has size 2, and it has no corner in [1, 0]: M(k)**2 = k * M(k) - Id
    (Cayley-Hamilton) is +-Id only when k * M(k) is 0 or 2 * Id, so its
    bottom-left entry k is 0, and M(0)**2 = -Id; no size is 1, as M(k)
    has the off-diagonal entries -1 and 1.

    The CRT size law. Every n = prod q, over coprime prime powers q, a
    prime power included, is decided from the class of k mod each q:
    (S_q, sign_q, D_q, f_q), the size and sign of k mod q and the (D, f)
    of the corner lemma below. By the CRT, M**s = eps * Id mod n exactly
    when it holds mod every q. Mod q, the s with M**s = +-Id are the
    multiples of the size S_q (they form a subgroup of Z), and
    M**(t * S_q) = sign_q**t * Id. So every s with M**s = +-Id mod n is a
    multiple of m = lcm(S_q), and mod q, M**m = sign_q**(m / S_q) * Id;
    mod 2 the two signs coincide, so q = 2 has no say (ring._class gives
    it the signs 0). When the signs sign_q**(m / S_q) of all q != 2
    agree, the size is m and that common sign is the row's sign.
    Otherwise the size is 2 * m, with sign +1, since
    M**(2 * m) = (M**m)**2 = Id mod every q (ring._crt_size).

    The witness comes from the first +-1 corner u_j with
    1 <= j <= (S - 2)/2 (_witness). The corner lemma: mod a prime
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

    By the CRT, u_j = eps mod n exactly when u_j = eps mod every q. So
    the corners mod n are the j that lie on a corner class of every q
    with one common sign (q = 2 again has no say), and size, sign, kind
    and first corner depend only on the tuple of classes.
    Each corner mod n is one mod the q of the largest D, so the scan
    steps j = t*D - 2, t*D for that D.
    """
    m, multiplier, sign = law
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
                return size, sign, "reducible", j
    return size, sign, "zero-convention" if size == 2 else "irreducible", None


def _pair_row(n: int, k: int) -> tuple:
    """The (verdict, wit) of k mod n: its verdict record (size, sign,
    kind, first corner), as _verdict gives it from the class tuple that
    ring._front gives, after the front has checked n and the size
    against the 3N cap, and the witness at its first corner: kind
    "reducible", "irreducible" or, for k = 0 mod n, "zero-convention",
    and wit None when there is no corner (always for k = 0, of size 2)."""
    k, _, classes, law = _front(n, k)
    verdict = _verdict(classes, law)
    # no corner is 0, so a verdict without one gives wit None
    return verdict, verdict[3] and _witness(n, k, verdict[3])
