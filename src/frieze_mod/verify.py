"""Sweep verifiers: replay the structural laws over ranges of moduli.

A law is one record in _LAWS, (check, hypothesis, range text),
registered with _law; its check is the module's verify_* function of
that law. check(n, t) reads t, the class tuples of n and their
verdicts (Tuples) through fields 0-2 of each record, its (size, sign,
kind) (no law reads a corner or a witness; only _claim unpacks all four), and
the factorization of n from t.parts, each Part the prime p and the
prime power q of one factor (rows.Part), so no check factors n again. It
yields one item (where, verdict) for each class tuple or pair of n that
the law covers.
where is the index of a class tuple, standing for every k of that
tuple, or a list of k (a single pair, or -1 for an existence claim);
verdict is True when they obey the law, else the (observed, expected)
texts of their Counterexample. So a law that reads size, sign and kind
alone decides once per class tuple, and one that reads k itself (a
single pair, or each k of a prime power) reads pairs; a claim on a
single pair is one _claim. _scope gives per id the moduli the check
reads, those of the range that meet the hypothesis (or, for
unbounded-family, six fixed moduli 3p), and the range field of its
report.

One driver, _sweep, serves run_all (every id) and run_verifier (its
own id); each verifier VERIFIERS[id] is run_verifier bound to its id. It
reads each id's record once per run, into one run record, and walks one
rows.fill_tuples over the union of the moduli the ids read, n
ascending, runs on each modulus the check of every id that reads it,
then drops its Tuples: a run holds the fill's memo and one modulus. It
expands each failed tuple to its k through Tuples.indexes, n then k
ascending, and builds each TheoremReport, whose elapsed_ms sums the
id's check calls, each on its own clock, not the fill. An internal
error of the fill (SizeCapExceeded) comes after the checks of the
moduli before it, and no report is returned, so verify prints none.
survey reads the same fill, per k, through rows.fill_rows (survey_rows,
monomial_row).

Reports are deterministic (moduli ascending, k ascending); elapsed_ms is
the one field that varies between runs.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import cache, lru_cache, partial
from math import gcd

from .ring import _crt_size, factorize
from .rows import fill_rows, fill_tuples


class Counterexample(namedtuple("Counterexample",
                                "n_modulus k observed expected")):
    """One (n, k) violating a law; k is -1 for a failed existence claim."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"n": self.n_modulus, "k": self.k,
                "observed": self.observed, "expected": self.expected}


class TheoremReport(namedtuple("TheoremReport", "theorem_id range status "
                               "counterexamples elapsed_ms")):
    """Outcome of one verifier run.

    status is "fail" exactly when counterexamples is nonempty, "vacuous"
    when nothing in range satisfied the hypothesis, and "pass" otherwise.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "counterexamples":
                [c.to_dict() for c in self.counterexamples]}


@lru_cache(maxsize=2048)
def monomial_row(n: int) -> tuple:
    """All k classifications for one modulus, as verdict objects, kept in
    an LRU across calls; built from the verdict records and witnesses of
    fill_rows((n,)), the same ones survey prints. The verifiers read the
    verdicts of class tuples instead (rows.fill_tuples)."""
    # reduce (verdict objects) is loaded here, not by the battery
    from .reduce import MonomialVerdict
    (_, verdicts, wits), = fill_rows((n,))
    return tuple(MonomialVerdict.from_row(n, k, verdict, wit)
                 for k, (verdict, wit) in enumerate(zip(verdicts, wits)))


# Hypothesis classifiers: they pick the moduli of a law (_scope) before
# the fill has factored any, so they work from n alone. Small and pure so
# they can be unit tested on their own. A check reads the factorization
# of its modulus from the fill instead: t.parts, one Part per prime power.

def is_three_m_form(n: int) -> bool:
    """n = 3m with m odd and coprime to 3 (the open bound family)."""
    return n % 3 == 0 and gcd(n // 3, 6) == 1


def odd_half(n: int) -> int | None:
    """m when n = 2m with m odd, else None."""
    return n // 2 if n % 2 == 0 and (n // 2) % 2 == 1 else None


@cache
def _power_shapes(s: int) -> tuple:
    """(p, e) when s, s / 2 or s / 4 is p**e for a prime p and e >= 1,
    else None, from one factorization of s >= 2."""
    f = factorize(s)
    twos = dict(f).get(2, 0)
    odd = [pe for pe in f if pe[0] != 2]
    shapes = []
    for j in range(3):
        parts = odd + ([(2, twos - j)] if twos > j else [])
        shapes.append(parts[0] if twos >= j and len(parts) == 1 else None)
    return tuple(shapes)


def _unit_class(p: int, size: int) -> bool:
    """Whether the k of a class of this size mod a power q of the prime p
    are units: p divides k exactly when size = 2 * p**i. Mod p, only
    k = 0 has size 2 (pair._verdict), and every other size mod p is 3
    (p = 2), p, or at most p + 1 (the orbit rule, rows._orbits), so
    never 2 * p**i. The size mod q is the size mod p times a power of p,
    since it is a multiple of it and divides it times p**(a - 1)
    (ring._size_multiple)."""
    half = _power_shapes(size)[1]
    return size != 2 and (half is None or half[0] != p)


def _crt_pair(r1, q1, r2, q2):
    """x with x = r1 mod q1 and x = r2 mod q2, for coprime q1, q2."""
    return (r1 + q1 * ((r2 - r1) * pow(q1, -1, q2) % q2)) % (q1 * q2)


VERIFIERS: dict[str, Callable[..., TheoremReport]] = {}
# theorem id -> (check, hypothesis, range text): the record of each law,
# which _sweep reads once per run, so a caller may wrap the values of
# VERIFIERS
_LAWS = {}


def run_verifier(theorem_id: str, lo: int = 2, hi: int = 150) -> TheoremReport:
    """Run one verifier by id over [lo, hi] (unbounded-family ignores the
    range), on only the tuples of the moduli its law reads. Each
    VERIFIERS[theorem_id] is this function bound to its id."""
    if theorem_id not in VERIFIERS:
        known = ", ".join(VERIFIERS)
        raise KeyError(f"unknown theorem id {theorem_id!r}; known: {known}")
    return _sweep([theorem_id], lo, hi)[0]


def _law(theorem_id, hypothesis, range_text):
    """Register a check(n, t) as the law theorem_id, in _LAWS, and as the
    verifier VERIFIERS[theorem_id], run_verifier bound to its id.
    hypothesis(n) picks the moduli of the range the law reads (_scope);
    a tuple of fixed moduli stands for a law that ignores the range, and
    then range_text is the whole range field."""
    def register(check):
        _LAWS[theorem_id] = check, hypothesis, range_text
        VERIFIERS[theorem_id] = partial(run_verifier, theorem_id)
        return check
    return register


def _scope(theorem_id, lo, hi):
    """(moduli, range field) of the law over [lo, hi]: the moduli whose
    tuples it reads, ascending, and the range field of its report."""
    _, hypothesis, text = _LAWS[theorem_id]
    if isinstance(hypothesis, tuple):
        return hypothesis, text
    return ([n for n in range(max(lo, 2), hi + 1) if hypothesis(n)],
            f"n in [{lo}, {hi}]" + (f", {text}" if text else ""))


def _claim(t, k, kind, size):
    """The item of a single-pair claim: k mod t.n is of this kind and
    size."""
    s, _, got, _ = t.verdicts[t.index(k)]
    return [k], (s == size and got == kind) or (
        f"{got} of size {s}", f"{kind} of size {size}")


@_law("size-bound", lambda n: n > 2 and not is_three_m_form(n),
      "excluding n = 2 and n = 3m with m odd coprime to 3")
def verify_size_bound(n, t):
    """Irreducible minimal constant solutions have size at most n, except
    for n = 2 and the open family n = 3m with m odd coprime to 3."""
    for i, r in enumerate(t.verdicts):
        if r[2] == "irreducible":
            yield i, r[0] <= n or (f"irreducible of size {r[0]}", f"size <= {n}")


@_law("eight-divides", lambda n: n % 8 == 0, "n divisible by 8")
def verify_eight_divides(n, t):
    """When 8 divides n, every minimal constant-solution size is <= n."""
    for i, r in enumerate(t.verdicts):
        yield i, r[0] <= n or (f"size {r[0]}", f"size <= {n}")


@_law("odd-sizes", lambda n: n > 2, "odd sizes; for n = 2m (m odd) only sizes divisible by 9")
def verify_odd_sizes(n, t):
    """Odd minimal sizes force irreducibility, except when n = 2m with m
    odd, where the claim covers odd sizes divisible by 9."""
    m = odd_half(n)
    for i, r in enumerate(t.verdicts):
        if r[0] % 2 and (m is None or r[0] % 9 == 0):
            yield i, r[2] == "irreducible" or (
                f"{r[2]} of odd size {r[0]}", "irreducible")


@_law("three-h-criterion", lambda n: odd_half(n) not in (None, 1),
      "n = 2m (m odd), sizes 3h with h > 1 odd coprime to 3")
def verify_three_h_criterion(n, t):
    """For n = 2m (m odd) and minimal size 3h with h > 1 odd coprime to 3,
    the verdict matches divisibility at the odd part: irreducible exactly
    when 3 divides the mod-m minimal size of k."""
    m = odd_half(n)
    for i, (r, classes) in enumerate(zip(t.verdicts, t.classes())):
        h = r[0] // 3
        if r[0] % 3 == 0 and h != 1 and h % 2 and h % 3:
            # the classes of k mod m: the tuple without its class mod 2
            size, multiplier, _ = _crt_size(classes[1:])
            comp = multiplier * size
            want = "irreducible" if comp % 3 == 0 else "reducible"
            yield i, r[2] == want or (r[2], f"{want} (mod-{m} size {comp})")


@_law("size-n", lambda n: n > 2, "solutions of size exactly n")
def verify_size_n(n, t):
    """Nonzero solutions of size exactly n are irreducible, unless
    n = 2 * 3**a * b (b > 1 odd coprime to 3) where a reducible one must
    exist: the k that is 1 mod 2, 2 mod 3**a and -2 mod b. k = 0 is the
    one pair of size 2 (pair._verdict), so no tuple of size n > 2 holds
    it."""
    ps = t.parts    # n = 2 * 3**a * b: the parts 2, 3**a and those of b
    if len(ps) < 3 or ps[0].q != 2 or ps[1].p != 3:
        for i, r in enumerate(t.verdicts):
            if r[0] == n:
                yield i, r[2] == "irreducible" or (
                    f"{r[2]} of size {n}", "irreducible")
        return
    c = ps[1].q
    b = n // (2 * c)
    k0 = _crt_pair(1, 2, _crt_pair(2 % c, c, -2 % b, b), c * b)
    yield _claim(t, k0, "reducible", n)


@_law("prime-powers", lambda n: _power_shapes(n)[0], "prime-power moduli")
def verify_prime_powers(n, t):
    """Prime-power moduli classify completely. For odd p: irreducible
    exactly when p does not divide k. For p = 2 (modulus 2**e):
    irreducible exactly when k is odd, or k = 2**(e-1), or e >= 2 with
    k/2 an odd integer."""
    (part,) = t.parts
    p, q = part.p, part.q
    for k, i in enumerate(part.slot):    # k by k: the law reads k itself
        r = t.verdicts[i]
        if p != 2:
            want = k % p != 0
        else:
            want = (k % 2 == 1 or k == q // 2
                    or (q >= 4 and k % 2 == 0 and (k // 2) % 2 == 1))
        yield [k], (r[2] == "irreducible") == want or (
            r[2], "irreducible" if want else "not irreducible")


@_law("reducible-constructions", lambda n: True, "")
def verify_reducible_constructions(n, t):
    """Three reducible families. p**2 | n for odd p: k = n/p has size 2p,
    reducible. 16 | n: k = n/4 has size 8, reducible. Coprime splits
    n = u * m with u, m > 1 and m odd coprime to 3: some k coprime to n
    is reducible of size 6m (u > 2) or 3m (u = 2)."""
    for part in t.parts:
        if part.p != 2 and part.q != part.p:
            yield _claim(t, n // part.p, "reducible", 2 * part.p)
    if n % 16 == 0:
        yield _claim(t, n // 4, "reducible", 8)
    # m coprime to u = n/m is a product of whole parts, and odd and
    # coprime to 3 when those parts all have p > 3
    ms = [1]
    for part in t.parts:
        if part.p > 3:
            ms += [m * part.q for m in ms]
    for m in sorted(m for m in ms if 1 < m < n):
        u = n // m
        want = 6 * m if u > 2 else 3 * m
        # by the CRT, the k of a tuple are units exactly when those of
        # each of its classes are units mod its q (_unit_class)
        found = any(r[2] == "reducible" and r[0] == want and all(
            _unit_class(part.p, c[0]) for part, c in zip(t.parts, classes))
            for r, classes in zip(t.verdicts, t.classes()))
        yield [-1], found or (
            f"no unit k reducible of size {want}",
            f"some unit k reducible of size {want} (split {u} * {m})")


def _special_reason(n: int, s: int) -> str | None:
    """The first reason size s forces irreducibility mod n, else None."""
    pp, half, quarter = _power_shapes(s)
    if pp and s != 2:
        p, e = pp
        if n % 2 == 1 or p != 2:
            return f"prime-power size {s}"
        if e == 2 or n % 2 ** (e + 1):      # e >= the 2-adic valuation of n
            return f"size 2**{e} vs 2-adic valuation of n"
    if s == 6 and n % 3:
        return "size 6 with 3 not dividing n"
    if half and half[0] != 2 and n % half[0]:
        return f"size 2 * {half[0]}**{half[1]}, prime coprime to n"
    if quarter and n % 2 == 1 and quarter[0] != 2 and n % quarter[0]:
        return f"size 4 * {quarter[0]}**{quarter[1]} on an odd modulus"
    return None


@_law("special-sizes", lambda n: n > 2, "nonzero k, shaped sizes")
def verify_special_sizes(n, t):
    """Irreducibility forced by the size's arithmetic shape (nonzero k).

    Prime-power sizes > 2 on odd moduli, or with the prime odd; on even
    moduli, sizes 2**e need e = 2 or e at least the 2-adic valuation of
    n (so any 2**e >= 4 suffices when 16 does not divide n). Size 6 when
    3 does not divide n. Sizes 2 * p**e for odd p coprime to n. Sizes
    4 * p**e for odd n and odd p coprime to n. k = 0 is the one pair of
    size 2 (pair._verdict), and no shape names size 2."""
    reasons = {s: _special_reason(n, s) for s in {r[0] for r in t.verdicts}}
    for i, r in enumerate(t.verdicts):
        if reasons[r[0]]:
            yield i, r[2] == "irreducible" or (
                f"{r[2]} of size {r[0]}", f"irreducible ({reasons[r[0]]})")


@_law("overshoot-3m", is_three_m_form,
      "n = 3m (m odd coprime to 3), sizes > n except n + n/3")
def verify_overshoot_3m(n, t):
    """For n = 3m with m odd coprime to 3, minimal constant solutions of
    size above n are reducible; the size n + n/3 regime is open and the
    sweep skips it."""
    for i, r in enumerate(t.verdicts):
        if n < r[0] != n + n // 3:
            yield i, r[2] == "reducible" or (f"{r[2]} of size {r[0]}", "reducible")


DEFAULT_FAMILY_PRIMES = (5, 7, 11, 13, 17, 19)


@_law("unbounded-family", tuple(3 * p for p in DEFAULT_FAMILY_PRIMES),
      f"p in {list(DEFAULT_FAMILY_PRIMES)}")
def verify_unbounded_family(n, t):
    """The family witnessing that no additive gap bounds irreducible sizes:
    for an odd prime p >= 5, modulus 3p with k = p + 2 (p = 1 mod 3) or
    k = p - 2 (p = 2 mod 3) is irreducible of size 4p. The range is
    ignored."""
    p = n // 3
    yield _claim(t, p + 2 if p % 3 == 1 else p - 2, "irreducible", 4 * p)


def run_all(lo: int = 2, hi: int = 150) -> list[TheoremReport]:
    """Every verifier in registry order, from one walk of the fill
    (_sweep)."""
    return _sweep(VERIFIERS, lo, hi)


def _sweep(ids, lo, hi):
    """The TheoremReport of each id over [lo, hi], in the order of ids,
    from one walk of the fill (module docstring). Each id's record is
    read once, into its run record [range field, counterexamples, hit,
    seconds], which the checks of that id add to. An id fails on every
    pair of an item whose verdict is not True: a list of k in the order
    the check gives them, the k of the failed class tuples of a modulus
    merged ascending. It passes when some item came back, and is vacuous
    otherwise."""
    readers, runs = {}, []    # modulus -> its (check, run record) pairs
    for i in ids:
        moduli, field = _scope(i, lo, hi)
        check, run = _LAWS[i][0], [field, [], False, 0.0]
        runs.append(run)
        for n in moduli:
            readers.setdefault(n, []).append((check, run))
    for t in fill_tuples(readers):
        n = t.n
        for check, run in readers[n]:
            t0 = time.perf_counter()
            failed, seen = {}, False    # failed: tuple -> its verdict
            for where, verdict in check(n, t):
                seen = True
                if verdict is True:
                    continue
                if isinstance(where, list):
                    run[1] += [Counterexample(n, k, *verdict) for k in where]
                else:
                    failed[where] = verdict
            if failed:
                run[1] += [Counterexample(n, k, *failed[j])
                           for k, j in enumerate(t.indexes()) if j in failed]
            run[2] = run[2] or seen
            run[3] += time.perf_counter() - t0
    return [TheoremReport(i, field, "fail" if bad else "pass" if hit else "vacuous",
                          tuple(bad), seconds * 1000.0)
            for i, (field, bad, hit, seconds) in zip(ids, runs)]


class SurveyRow(namedtuple("SurveyRow", "n_modulus k size sign verdict "
                           "witness_size witness_x witness_y")):
    """One (n, k) line of the survey table."""

    __slots__ = ()


def survey_rows(lo: int, hi: int) -> Iterator[SurveyRow]:
    """One row per (n, k), n ascending then k ascending, from fields 0-2
    of the verdict records (size, sign, kind) and the witnesses of
    fill_rows over [lo, hi], each modulus decided as it is reached. An
    empty range yields nothing; lo below 2 raises ValueError at the
    call."""
    if lo < 2:
        raise ValueError(f"moduli start at 2, got {lo}")
    return (SurveyRow(n, k, *verdict[:3], *(wit or (None,) * 3)[:3])
            for n, verdicts, wits in fill_rows(range(lo, hi + 1))
            for k, (verdict, wit) in enumerate(zip(verdicts, wits)))
