import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from frieze_mod import cli, pair as pair_mod, ring, rows as rows_mod
from frieze_mod.cycles import Cycle, equivalence_class, oplus
from frieze_mod.modmat import solution_sign
from frieze_mod.monomial import (SizeCapExceeded, minimal_monomial_size,
                                 size_via_crt)
from frieze_mod.reduce import (ReductionWitness, is_irreducible_monomial,
                               monomial_reduction_witness)
from frieze_mod.ring import _class, factorize
from frieze_mod.pair import _pair_row
from frieze_mod.rows import fill_rows, fill_tuples
from frieze_mod.verify import monomial_row, run_all, run_verifier
from oracles import (bordered_census, bordered_scan, corner_entries,
                     elementary, mat_mul, pm_sign, prime_power, product,
                     split_search, walk_first_corner, walk_min_size)
from routes import (_endpoints, _walk, bordered_solutions, corner_power,
                    crt_size_reference, is_reducible_general, walked_verdict,
                    walked_row, witness_structure_check)

# smallest witnesses, pinned from the direct definitional scan
SMALLEST_WITNESSES = {
    (9, 3): (4, 6, 6, 1),
    (14, 3): (6, 7, 7, 1),
    (25, 5): (4, 20, 20, 1),
    (35, 4): (6, 14, 14, 1),
    (35, 23): (7, 30, 30, 1),
    (38, 11): (12, 19, 19, 1),
    (70, 3): (12, 45, 45, -1),
    (75, 7): (27, 25, 25, -1),
    (77, 3): (12, 66, 66, -1),
    (80, 20): (4, 60, 60, 1),
    (90, 83): (27, 65, 65, 1),
    (100, 17): (27, 25, 25, -1),
    (175, 38): (52, 150, 150, -1),
}


def test_bordered_matches_brute_force():
    # the closed-form endpoint solve against every (x, y), for every pair
    # with n <= 16 (so 12 = 4 * 3 and a modulus divisible by 16 are in)
    # and every size up to 12; budget about 2 s
    for n in range(2, 17):
        for k in range(n):
            for size in range(2, 13):
                got = sorted(bordered_solutions(n, k, size))
                assert got == sorted(bordered_scan(n, k, size)), (n, k, size)


def test_rejects_bad_modulus():
    for n in (1, 0, -3):
        for fn in (is_irreducible_monomial, monomial_reduction_witness,
                   witness_structure_check):
            for k in (0, 5):
                with pytest.raises(ValueError):
                    fn(n, k)
        with pytest.raises(ValueError):
            _filled(n)
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            _pair_row(n, 0)


def test_at_most_one_bordered_solution_per_size():
    # the top-left product entry pins the sign, the rest is forced
    for n in range(2, 30):
        for k in range(n):
            for size in (2, 3, 5, 8):
                assert len(bordered_solutions(n, k, size)) <= 1


def test_size_two_bordered_solution_is_the_zero_pair():
    for n in range(2, 30):
        sols = bordered_solutions(n, 7, 2)
        assert sols and sols[0][:2] == (0, 0)


@pytest.mark.parametrize("nk,want", sorted(SMALLEST_WITNESSES.items()))
def test_smallest_witnesses(nk, want):
    w = monomial_reduction_witness(*nk)
    assert w is not None
    assert (w.size, w.x, w.y, w.sign) == want
    assert solution_sign(w.cycle()) == w.sign


@pytest.mark.parametrize("nk", [(62, 3), (80, 50), (51, 6), (52, 5), (2, 1)])
def test_no_witness_for_irreducibles(nk):
    assert monomial_reduction_witness(*nk) is None


def test_witness_is_minimal_and_valid():
    for n in range(2, 41):
        for k in range(1, n):
            w = monomial_reduction_witness(n, k)
            size, _ = minimal_monomial_size(n, k)
            if w is None:
                for l in range(3, size):
                    assert not bordered_solutions(n, k, l), (n, k, l)
            else:
                assert 3 <= w.size < size
                assert solution_sign(w.cycle()) == w.sign
                for l in range(3, w.size):
                    assert not bordered_solutions(n, k, l), (n, k, l)


def test_witnesses_are_solutions_below_the_size():
    # every emitted witness, rechecked by the nested-list product
    for n in range(2, 151):
        for v in monomial_row(n):
            w = v.witness
            if w is None:
                continue
            entries = w.cycle().entries
            assert pm_sign(product(entries, n), n) == w.sign, (n, v.k)
            assert w.size < v.size, (n, v.k)


def test_verdicts():
    v = is_irreducible_monomial(9, 3)
    assert (v.kind, v.size, v.sign) == ("reducible", 6, -1)
    assert v.witness == ReductionWitness(9, 3, 4, 6, 6, 1)

    v = is_irreducible_monomial(62, 3)
    assert (v.kind, v.size, v.witness) == ("irreducible", 15, None)

    v = is_irreducible_monomial(7, 0)
    assert (v.kind, v.size, v.witness) == ("zero-convention", 2, None)

    assert is_irreducible_monomial(9, 12) == is_irreducible_monomial(9, 3)


def test_verdict_records_are_frozen_with_field_reprs():
    v = is_irreducible_monomial(9, 3)
    w = v.witness
    assert repr(w) == ("ReductionWitness(n_modulus=9, k=3, size=4, x=6, y=6, "
                       "sign=1)")
    assert repr(v) == ("MonomialVerdict(n_modulus=9, k=3, size=6, sign=-1, "
                       f"kind='reducible', witness={w!r})")
    assert hash(w) == hash((9, 3, 4, 6, 6, 1))
    assert hash(v) == hash((9, 3, 6, -1, "reducible", w))
    assert v == is_irreducible_monomial(9, 12) and v != is_irreducible_monomial(9, 6)
    assert (v.size, v.witness.size, v.witness.cycle().entries) == (6, 4, (6, 3, 3, 6))
    for rec in (v, w):
        with pytest.raises(AttributeError):
            rec.k = 0


def test_zero_bucket_and_short_size_laws():
    # k = 0 is exactly the zero-convention bucket and exactly size 2;
    # size-4 minimal solutions never reduce
    for n in range(2, 201):
        for v in monomial_row(n):
            assert (v.kind == "zero-convention") == (v.k == 0), (n, v.k)
            assert (v.size == 2) == (v.k == 0), (n, v.k)
            if v.size == 4:
                assert v.kind == "irreducible", (n, v.k)


def test_general_search_rejects_non_solution():
    with pytest.raises(ValueError):
        is_reducible_general(Cycle.of(5, 1, 0))


def test_general_search_skips_short_solutions():
    assert is_reducible_general(Cycle.of(3, 1, 1, 1)) is None
    assert is_reducible_general(Cycle.of(7, 0, 0)) is None


def _split(dec):
    if dec is None:
        return None
    return dec.rotated.entries, dec.left.entries, dec.right.entries


def test_general_search_agrees_with_witness_search():
    for n in range(2, 21):
        for k in range(1, n):
            size, _ = minimal_monomial_size(n, k)
            dec = is_reducible_general(Cycle.constant(n, k, size))
            w = monomial_reduction_witness(n, k)
            assert (dec is None) == (w is None), (n, k)
            assert _split(dec) == split_search((k,) * size, n), (n, k)


def test_general_search_decompositions_are_sound():
    found = 0
    for n in range(2, 13):
        for k in range(1, n):
            size, _ = minimal_monomial_size(n, k)
            c = Cycle.constant(n, k, size)
            dec = is_reducible_general(c)
            if dec is None:
                continue
            found += 1
            assert dec.rotated in equivalence_class(c)
            assert len(dec.left) >= 3 and len(dec.right) >= 3
            assert len(dec.left) + len(dec.right) == size + 2
            assert solution_sign(dec.left) is not None
            assert solution_sign(dec.right) is not None
            assert oplus(dec.left, dec.right) == dec.rotated
    assert found


def test_general_search_on_a_non_constant_solution():
    dec = is_reducible_general(Cycle.of(9, 6, 3, 3, 6))
    if dec is not None:
        assert oplus(dec.left, dec.right) == dec.rotated
        assert solution_sign(dec.left) is not None
    # sums of two constant minimal solutions are solutions too, mostly
    # neither constant nor palindromic
    for n in range(3, 10):
        for k1 in range(1, n):
            for k2 in range(1, n):
                a = Cycle.constant(n, k1, minimal_monomial_size(n, k1)[0])
                b = Cycle.constant(n, k2, minimal_monomial_size(n, k2)[0])
                c = oplus(a, b)
                if len(c) <= 12:
                    assert _split(is_reducible_general(c)) == \
                        split_search(c.entries, n), c


def test_structure_census_irreducible_is_exact():
    """For an irreducible k the bordered sizes follow the minimal size s
    exactly: 0 mod s with endpoints (k, k), 2 mod s with endpoints (0, 0),
    nothing else."""
    rep = witness_structure_check(62, 3)
    assert (rep.minimal_size, rep.cap) == (15, 47)
    assert rep.ok, rep.violations
    assert [(e[0], e[1], e[2]) for e in rep.entries] == [
        (2, 0, 0), (15, 3, 3), (17, 0, 0), (30, 3, 3),
        (32, 0, 0), (45, 3, 3), (47, 0, 0)]


def test_structure_census_reducible_and_zero():
    rep = witness_structure_check(9, 3)
    assert rep.ok, rep.violations
    assert (4, 6, 6, 1) in rep.entries

    rep = witness_structure_check(5, 0, cap=9)
    assert rep.ok, rep.violations
    assert [e[0] for e in rep.entries] == [2, 4, 6, 8]
    assert all(e[1] == e[2] == 0 for e in rep.entries)


def test_structure_census_sweep():
    for n in range(2, 31):
        for k in range(n):
            rep = witness_structure_check(n, k)
            assert rep.ok, (n, k, rep.violations)
            # every entry, sign included, as the square-and-multiply path
            # finds it size by size
            want = [(l, *sol) for l in range(2, rep.cap + 1)
                    for sol in bordered_solutions(n, k, l)]
            assert list(rep.entries) == want, (n, k)


def _filled(n):
    """The (n, verdicts, wits) of the modulus n filled alone."""
    return next(fill_rows((n,)))


def _pair(v):
    """The (verdict, wit) of a MonomialVerdict, as _pair_row gives it:
    the first corner is the witness size - 2, or None without one."""
    w = v.witness
    return ((v.size, v.sign, v.kind, w and w.size - 2),
            w and (w.size, w.x, w.y, w.sign))


def _check_witness(n, k, verdict, wit):
    """The pair's witness, if any, multiplied out by the nested-list
    product: a solution of its sign, shorter than the size."""
    if wit is not None:
        w, x, y, w_sign = wit
        entries = [x] + [k] * (w - 2) + [y]
        assert pm_sign(product(entries, n), n) == w_sign, (n, k)
        assert w < verdict[0], (n, k)


def test_decide_row_matches_the_reference_walk():
    # half of each row of fill_rows is composed from the classes of its
    # prime-power factors (orbits or descent), and half mirrored; every
    # pair (verdicts[k], wits[k]) against one nested-list walk (its size,
    # sign and first +-1 corner), against its own single pair (_pair_row)
    # and the walk's one class composed (walked_row), and by its witness
    # closed around the walked corner power. Budget 15 s; measured 4.9 s
    # alone (2 cores, Python 3.11.7, shared host): 3.1 s in the nested-list
    # walk, 0.9 s in _pair_row, 0.5 s in walked_row and 0.05 s in the fill
    last = 1
    for n, verdicts, wits in fill_rows(range(2, 401)):
        assert n == last + 1
        last = n
        assert len(verdicts) == len(wits) == n
        for k, pair in enumerate(zip(verdicts, wits)):
            size, sign, j, mj = walk_first_corner(n, k)
            assert pair[0][:2] == (size, sign), (n, k)
            assert pair == _pair_row(n, k) == walked_row(n, k), (n, k)
            wit = pair[1]
            assert (wit and wit[0]) == (None if j is None else j + 2), (n, k)
            if j is not None:
                w, x, y, w_sign = wit
                closed = mat_mul(elementary(y, n),
                                 mat_mul(mj, elementary(x, n), n), n)
                assert pm_sign(closed, n) == w_sign, (n, k)
    assert last == 400


def test_higher_prime_power_rows_match_the_reference_walk():
    # fill_rows descends the rows of every p**a with a >= 2 (and of
    # q = 2); past the range above, every such q in (400, 1100], filled
    # in one call, against the walk's one class of (q, k) composed, pair
    # by pair. Budget 3 s; measured 0.3 s alone (2 cores, Python 3.11.7),
    # nearly all of it in the reference walk
    powers = [q for q in range(401, 1101)
              if len(factorize(q)) == 1 and factorize(q)[0][1] >= 2]
    assert powers == [512, 529, 625, 729, 841, 961, 1024]
    for q, verdicts, wits in fill_rows(powers):
        assert list(zip(verdicts, wits)) == [walked_row(q, k) for k in range(q)], q


def test_corner_lemma_on_prime_powers():
    # fill_rows and _pair_row compose witnesses by this lemma: mod a
    # prime power q, the +-1 corners of k are exactly j = t*D, where
    # u_j = f**t, and j = t*D - 2, where u_j = -f**t. The reference walk
    # (routes._walk) reaches the class (S, sign, D, f), and fill_rows
    # and _pair_row descend to it in H (ring._class): the two agree on
    # every k mod every q <= 250, the descent's signs 0 at q = 2, and the
    # corners agree with the nested-list walk over j <= 2S. Budget 4 s;
    # measured 1.0 s alone (2 cores, Python 3.11.7)
    rows = witnessed = 0
    for q in filter(prime_power, range(2, 251)):
        (p, a), = factorize(q)
        say = q != 2
        for k in range(q):
            walked = _walk(q, k)
            size, sign, d, f = walked
            assert (size, sign * say, d, f * say) == _class(p, a, k), (q, k)
            corners = corner_entries(q, k, 2 * size)
            want = [(j, (f ** (j // d) if j % d == 0
                         else -f ** ((j + 2) // d)) % q)
                    for j in range(1, 2 * size + 1)
                    if j % d in (0, d - 2)]
            assert corners == want, (q, k, d, f)
            rows += 1
            witnessed += walked_verdict(walked)[3] is not None
    assert (rows, witnessed) == (6931, 224)


def test_orbit_classes_equal_the_walk_on_odd_primes():
    # fill_rows fills the row of an odd prime p from two Chebyshev
    # orbits (rows._orbits) instead of walking it: the class of every k
    # mod every odd prime p < 400 equals the walk's. Budget 2 s; measured
    # 0.2 s alone (2 cores, Python 3.11.7)
    primes = [p for p in range(3, 400) if factorize(p) == [(p, 1)]]
    for p in primes:
        assert rows_mod._orbits(p) == [_walk(p, k) for k in range(p)], p
    assert len(primes) == 77


def test_decide_rows_shares_class_tuples_across_moduli(monkeypatch):
    # composite rows whose factors' classes repeat across moduli with
    # other factors, among them 2m against 4m (q = 2 has no say on the
    # sign, q = 4 has): one call decides each tuple of classes once, and
    # its rows equal one call per modulus and the walk of every pair.
    # Within one call, fill_tuples holds one object per distinct verdict,
    # and fill_rows hands on, for each k, the very record fill_tuples
    # holds for the tuple of k, over these moduli and over n <= 250
    moduli = {6, 10, 12, 15, 20, 21, 35, 60, 105, 1155, 2310}
    verdict, decided = rows_mod._verdict, []

    def counted(classes, law):
        decided.append(classes)
        return verdict(classes, law)

    monkeypatch.setattr(rows_mod, "_verdict", counted)
    fills = list(fill_rows(moduli))
    shared = len(decided)
    assert fills == [_filled(n) for n in sorted(moduli)]
    assert len(set(decided)) == shared < len(decided) - shared
    for n, verdicts, wits in fills:
        assert list(zip(verdicts, wits)) == [walked_row(n, k) for k in range(n)], n
    records = {id(v) for _, vs, _ in fills for v in vs[1:]}
    assert len(records) <= 2 * shared < sum(n - 1 for n in moduli)
    tuples, filled = rows_mod.fill_tuples, []

    def kept(ms):
        for t in tuples(ms):
            filled.append(t)
            yield t

    for ms in (moduli, range(2, 251)):
        verdicts = [v for t in fill_tuples(ms) for v in t.verdicts]
        assert len({id(v) for v in verdicts}) == len(set(verdicts)), ms
        records = []
        with monkeypatch.context() as m:
            m.setattr(rows_mod, "fill_tuples", kept)
            for n, vs, _ in fill_rows(ms):
                t = filled[-1]
                assert t.n == n and all(
                    v is t.verdicts[i] for v, i in zip(vs, t.indexes())), n
                records += vs
        assert len({id(v) for v in records}) == len(set(records)), ms


def test_no_row_walks_and_witnessed_pairs_double(monkeypatch, tmp_path):
    # no row walks: rows and pair define no _walk. Over n <= 250, fill_rows
    # descends (ring._class) to the class of each pair k <= q/2 of q = 2
    # and of each prime power q = p**a with a >= 2 once, fills the row of
    # each odd prime p from two orbits, and builds M**j by fast doubling
    # once per pair with a witness, at j = witness size - 2; no other pair
    # descends or doubles. The only other doublings test the generators
    # of the orbits: M(k1)**(m/r) at a prime r | m, with m = p - 1 or
    # p + 1 as k1**2 - 4 is a square mod p or not. A single pair
    # (_pair_row), prime power or composite, descends once per
    # prime-power factor, and doubles once exactly when it has a witness.
    # A size (minimal_monomial_size) descends once per prime-power factor
    # too, and never on a composite modulus. The calls against prime
    # powers from factorize and witnesses from the reference walk of
    # (n, k). survey reads the same fill: the same descents and
    # doublings, every witness included. The law battery (run_all, which
    # reads only sizes and kinds) takes the same classes from the same
    # source (the same descents) and builds no witness: its only
    # doublings test the orbits' generators
    assert not hasattr(rows_mod, "_walk") and not hasattr(pair_mod, "_walk")
    klass, descend, lucas = ring._class, ring._descend, ring._lucas
    descents, moduli, doubled = [], [], []

    def counted_class(p, a, k):
        descents.append((p ** a, k))
        return klass(p, a, k)

    def counted_descend(q, k, exps):
        moduli.append(q)
        return descend(q, k, exps)

    def counted_lucas(n, k, e):
        doubled.append((n, k, e))
        return lucas(n, k, e)

    def corner(n, k):
        j = walked_verdict(_walk(n, k))[3]
        return [] if j is None else [(n, k, j)]

    monkeypatch.setattr(rows_mod, "_class", counted_class)
    monkeypatch.setattr(ring, "_class", counted_class)
    monkeypatch.setattr(ring, "_descend", counted_descend)
    # the orbits' generator tests (rows) and the witnesses (pair)
    monkeypatch.setattr(rows_mod, "_lucas", counted_lucas)
    monkeypatch.setattr(pair_mod, "_lucas", counted_lucas)
    for _ in fill_rows(range(2, 251)):
        pass
    odd_primes = {n for n in range(3, 251) if factorize(n) == [(n, 1)]}
    assert descents == [(n, k) for n in range(2, 251)
                        if len(factorize(n)) == 1 and n not in odd_primes
                        for k in range(n // 2 + 1)]
    tests = [d for d in doubled if d[0] in odd_primes]
    assert {p for p, _, _ in tests} == odd_primes
    for p, k, e in tests:
        m = p - 1 if pow(k * k - 4, p // 2, p) == 1 else p + 1
        assert m % e == 0 and factorize(m // e) == [(m // e, 1)], (p, k, e)
    assert [d for d in doubled if d[0] not in odd_primes] == \
        [pair for n in range(2, 251) for k in range(n // 2 + 1)
         for pair in corner(n, k)]
    assert (len(descents), len(doubled) - len(tests)) == (563, 3765)
    filled = descents[:], doubled[:]
    out = str(tmp_path / "survey.csv")
    for replay, want in ((lambda: run_all(2, 250), (filled[0], tests)),
                         (lambda: cli.main(["survey", "--max", "250", "--out", out]),
                          filled)):
        del descents[:], doubled[:]
        replay()
        assert (descents, doubled) == want
    for n in range(2, 251):
        for k in range(n // 2 + 1):
            factors = [(p ** a, k % p ** a) for p, a in factorize(n)]
            del descents[:], doubled[:]
            _pair_row(n, k)
            assert descents == factors, (n, k)
            assert doubled == corner(n, k), (n, k)
            del descents[:], moduli[:]
            minimal_monomial_size(n, k)
            assert descents == factors, (n, k)
            assert moduli == [q for q, _ in factors], (n, k)


def test_a_first_corner_that_is_not_a_corner_raises(monkeypatch):
    # each pair with a corner checks u_j = +-1 at the j its class tuple
    # gives; shifting the j decided for the classes of k = 4 mod 21
    # (from 4 to 5, where u_5 = 3) is caught at that pair, whether its
    # row is decided with the others of 21 or alone. The law battery
    # reads size and kind alone and builds no witness: it decides the
    # tuple once per run and still finds the pair reducible. The fill
    # (rows) imports _verdict by name, so both names are shifted
    key = tuple(_walk(q, 4 % q) for q in (3, 7))
    verdict, shifted = pair_mod._verdict, []

    def shift(classes, law):
        size, sign, kind, j = verdict(classes, law)
        if classes != key:
            return size, sign, kind, j
        shifted.append(j)
        return size, sign, kind, j + 1

    monkeypatch.setattr(pair_mod, "_verdict", shift)
    monkeypatch.setattr(rows_mod, "_verdict", shift)
    for call, arg in ((_filled, (21,)), (_pair_row, (21, 4)),
                      (is_irreducible_monomial, (21, 4))):
        with pytest.raises(RuntimeError,
                           match=r"u_5 is not \+-1 for n=21, k=4"):
            call(*arg)
    assert run_verifier("odd-sizes", 21, 21).status == "pass"
    assert {r.status for r in run_all(2, 21)} == {"pass"}
    assert shifted == [4] * 5


@pytest.mark.parametrize("n,k", [
    (4003997, 5),               # 1999 * 2003, irreducible, size 667332
    (212837625, 83203698),      # five prime powers, witness size 56000
    (72576000, 6516561),        # 2**10 * 3**4 * 5**3 * 7, witness 100800
    (6469693230, 6294801371),   # the ten primes up to 29, witness 1010
])
def test_large_composite_pairs_compose(n, k):
    # a single composite pair is composed from its factors' descended
    # classes, not walked: its size and sign equal the descent's, its
    # witness, if any, multiplied out is a solution of its sign, and the
    # row equals the walk of (n, k). Budget 2 s each; measured at most
    # 0.11 s, nearly all of it in the walk and the product (2 cores,
    # Python 3.11.7)
    row = _pair_row(n, k)
    assert row[0][:2] == minimal_monomial_size(n, k)
    w = is_irreducible_monomial(n, k).witness
    if w is not None:
        assert solution_sign(w.cycle()) == w.sign
        assert w.size < row[0][0]
    assert row == walked_row(n, k)


@pytest.mark.parametrize("n,k", [
    (1999993, 2),       # prime, irreducible, size 1999993
    (1048576, 12),      # 2**20, witness size 262144
])
def test_large_prime_power_pairs_descend(n, k):
    # a lone prime power descends too: the row equals the walk of
    # (n, k), which takes 40-150 ms here, while the descent stays
    # within 0.1 s (measured 0.14 ms each). Budget 1 s each, nearly all
    # of it in the walk (2 cores, Python 3.11.7)
    t0 = time.perf_counter()
    row = _pair_row(n, k)
    assert time.perf_counter() - t0 < 0.1
    assert row == walked_row(n, k)


def test_a_64_bit_prime_pair_descends():
    # past any walk: the size and sign equal minimal_monomial_size, and
    # p does not divide k, so H = {+-Id}, D = S and the pair is
    # irreducible
    p, k = 18446744073709551557, 3
    head, wit = _pair_row(p, k)
    assert head[:2] == minimal_monomial_size(p, k)
    assert (head[2], wit) == ("irreducible", None)


def test_an_unverified_corner_raises(monkeypatch):
    # every +-1 corner of a true M**j closes up (proved in pair._witness),
    # so a corner that fails the check is an internal error, not a later
    # witness: a doubling that keeps u_j = +-1 but shifts u_{j-1} by one
    # breaks det M**j = 1 at each pair below, and the pair raises
    lucas, faulty = pair_mod._lucas, []

    def shifted(n, k, e):
        a, b = lucas(n, k, e)
        assert b in (1, n - 1) and (a + 1) * (k - b * (a + 1)) % n
        faulty.append((n, k, e))
        return (a + 1) % n, b

    monkeypatch.setattr(pair_mod, "_lucas", shifted)
    for call, arg in ((_pair_row, (9, 3)), (is_irreducible_monomial, (9, 3)),
                      (_filled, (15,))):
        with pytest.raises(RuntimeError, match="does not close up"):
            call(*arg)
    assert faulty == [(9, 3, 2)] * 2 + [(15, 7, 3)]


def test_witnesses_equal_the_general_endpoint_solve():
    # pair._witness closes a corner in closed form, x = y = u_j * u_{j-1}
    # and eps = -u_j: for every pair with a corner at n <= 300, k > n/2
    # included, it equals the general endpoint solve (routes._endpoints)
    # on M(k)**j from the recurrence, with x == y. About 0.1 s
    pairs = 0
    for t in fill_tuples(range(2, 301)):
        n = t.n
        for k, i in enumerate(t.indexes()):
            j = t.verdicts[i][3]
            if j is None:
                continue
            w, x, y, eps = pair_mod._witness(n, k, j)
            assert (w, x, y, eps) == (j + 2, *_endpoints(corner_power(n, k, j), n)), (n, k)
            assert x == y, (n, k)
            pairs += 1
    assert pairs == sum(wit is not None for _, _, wits in fill_rows(range(2, 301))
                        for wit in wits)


def test_the_one_pass_crt_size_law_equals_its_statement(monkeypatch):
    # ring._crt_size keeps a running lcm and one common sign; against
    # the law as stated (routes.crt_size_reference), over every class
    # tuple the fill decides at n <= 400, and over hand-built tuples in
    # every order: q = 2's sign 0, all signs 0, two disagreeing signs,
    # a sign -1 kept by an odd m / S_q and one turned +1 by an even one,
    # and two signs that disagree until a later size doubles m
    verdict, laws = rows_mod._verdict, []

    def seen(classes, law):
        laws.append((classes, law))
        return verdict(classes, law)

    monkeypatch.setattr(rows_mod, "_verdict", seen)
    for _ in fill_tuples(range(2, 401)):
        pass
    assert len(laws) == len(dict(laws)) == 2765
    for classes, law in laws:
        assert law == crt_size_reference(classes), classes
    built = [((3, 0, 3, 0), (3, -1, 3, -1)), ((3, 0, 3, 0),), (),
             ((3, 0, 3, 0), (2, 0, 2, 0)), ((3, 1, 3, 1), (3, -1, 3, -1)),
             ((6, -1, 6, -1), (2, -1, 2, -1)),
             ((4, -1, 4, -1), (2, -1, 2, -1)),
             ((3, -1, 3, -1), (3, 1, 3, 1), (2, -1, 2, -1)),
             ((3, -1, 3, -1), (3, 1, 3, 1), (4, 1, 4, 1))]
    got = {}
    for classes in built:
        for order in itertools.permutations(classes):
            assert ring._crt_size(order) == crt_size_reference(order), order
        got[classes] = ring._crt_size(classes)
    assert list(got.values()) == [(3, 1, -1), (3, 1, 1), (1, 1, 1),
                                  (6, 1, 1), (3, 2, 1), (6, 1, -1),
                                  (4, 2, 1), (6, 2, 1), (12, 1, 1)]


def test_class_tuples_expand_to_the_heads_of_the_rows():
    # fill_tuples decides one verdict (size, sign, kind, first corner)
    # per class tuple, and a tuple with its mirror. For each n <= 300,
    # the parts are the factorization of n, each the prime p and the
    # power q = p**a of one factor, p ascending (the law checks read it
    # there); the tuple of every k (indexes) is its class mod each q,
    # read from the parts' slots; every tuple holds some k (tuple 0
    # k = 0 alone), and each k has that verdict, which fill_rows gives
    # it, sign and first corner included (no law reads either). Each
    # tuple's verdict is the one its classes decide, and each k <= n/2
    # has a witness exactly when its tuple has a corner, of size that
    # corner + 2. About 0.3 s
    tuples = fill_tuples(range(2, 301))
    for (n, verdicts, wits), t in zip(fill_rows(range(2, 301)), tuples):
        index, classes = t.indexes(), list(t.classes())
        assert t.n == n and len(index) == n
        assert [(p.p, p.q) for p in t.parts] == [
            (p, p ** a) for p, a in factorize(n)], n
        assert len(classes) == len(t.verdicts)
        assert sorted(set(index)) == list(range(len(t.verdicts)))
        assert [k for k, i in enumerate(index) if i == 0] == [0]
        for k, i in enumerate(index):
            assert classes[i] == tuple(p.keys[p.slot[k % p.q]]
                                       for p in t.parts), (n, k)
            assert t.index(k) == i, (n, k)
        assert [t.verdicts[i] for i in index] == verdicts, n
        for i, key in enumerate(classes):
            assert t.verdicts[i] == rows_mod._verdict(key, ring._crt_size(key)), (n, i)
        for k in range(n // 2 + 1):
            j = t.verdicts[index[k]][3]
            assert (wits[k] is None) == (j is None), (n, k)
            assert j is None or wits[k][0] == j + 2, (n, k)
    assert next(tuples, None) is None


def test_both_fills_decide_each_class_tuple_once(monkeypatch):
    # survey's fill_rows is a per-k view of the one class-tuple fill that
    # the law battery reads: over n <= 250 each decides the same 1,507
    # distinct tuples, each once (a tuple's mirror is decided with it),
    # where a fill with its own per-k memo decided 2,308
    verdict, decided = rows_mod._verdict, []

    def counted(classes, law):
        decided.append(classes)
        return verdict(classes, law)

    monkeypatch.setattr(rows_mod, "_verdict", counted)
    counts = []
    for fill in (fill_rows, fill_tuples):
        del decided[:]
        for _ in fill(range(2, 251)):
            pass
        counts.append((len(decided), len(set(decided))))
    assert counts == [(1507, 1507)] * 2


def test_row_size_cap_raises(monkeypatch):
    # the reference walk of a pair (routes._walk), the size a composite
    # row takes from its factors' classes, and the descended class all
    # check the proven 3N bound, read from ring
    monkeypatch.setattr(ring, "_CAP_FACTOR", 0)
    with pytest.raises(SizeCapExceeded, match="no size <= 1 for n=7"):
        _walk(7, 3)
    with pytest.raises(SizeCapExceeded, match="size 4 > 1 for n=7, k=3"):
        _class(7, 1, 3)
    monkeypatch.undo()
    rows = fill_rows(range(2, 16))
    assert [next(rows)[0] for _ in range(2, 15)] == list(range(2, 15))
    # the classes of 3 and 5 are kept; only the composite 15 remains
    monkeypatch.setattr(ring, "_CAP_FACTOR", 0)
    with pytest.raises(SizeCapExceeded, match="size 2 > 1 for n=15, k=0"):
        next(rows)


def test_class_tuples_check_the_size_cap(monkeypatch):
    # fill_tuples checks every size of a modulus against the 3N cap, at
    # its least k past the cap, as fill_rows does; a modulus below 2
    # raises at the first next(). A lone pair past the cap raises from
    # its front (ring._front) before any corner scan (pair._verdict)
    tuples = fill_tuples(range(2, 16))
    assert [next(tuples).n for _ in range(2, 15)] == list(range(2, 15))
    monkeypatch.setattr(ring, "_CAP_FACTOR", 0)
    with pytest.raises(SizeCapExceeded, match="size 2 > 1 for n=15, k=0"):
        next(tuples)
    # with a cap of n + 1, 15 has sizes past it (20 for k = 3): both
    # fills name the same least k, and the lone pair (15, 3) raises the
    # same before it decides anything
    monkeypatch.setattr(ring, "_CAP_FACTOR", 1)
    raised = []
    for fill in (fill_rows, fill_tuples):
        with pytest.raises(SizeCapExceeded) as e:
            next(fill([15]))
        raised.append(str(e.value))
    verdict, decided = pair_mod._verdict, []

    def counted(classes, law):
        decided.append(classes)
        return verdict(classes, law)

    monkeypatch.setattr(pair_mod, "_verdict", counted)
    for call in (_pair_row, is_irreducible_monomial):
        with pytest.raises(SizeCapExceeded) as e:
            call(15, 3)
        raised.append(str(e.value))
    assert raised == ["size 20 > 16 for n=15, k=3"] * 4
    assert decided == []
    with pytest.raises(ValueError, match="got 1"):
        next(fill_tuples({45, 1, 9}))


@pytest.mark.parametrize("lo,hi", [(97, 181), (2, 2), (5, 4)])
def test_decide_rows_equals_decide_row(lo, hi):
    # a range filled at once equals its moduli filled one by one; on
    # [97, 181] the factor rows of many moduli lie below lo
    assert list(fill_rows(range(lo, hi + 1))) == \
        [_filled(n) for n in range(lo, hi + 1)]


def test_decide_rows_of_a_set_equals_decide_row():
    # moduli out of order and far apart: 45 and 242 are composites whose
    # factor rows (9, 5; 2, 121) are not all asked for, and 9 and 121
    # are prime powers that a later modulus is a multiple of. A list
    # that repeats moduli yields each distinct modulus once
    for moduli in ({242, 9, 181, 45, 121, 97}, [5, 15, 5, 3, 15]):
        assert list(fill_rows(moduli)) == \
            [_filled(n) for n in sorted(set(moduli))]


@pytest.mark.parametrize("lo,hi", [(1, 5), (0, -1), (-3, 10)])
def test_decide_rows_below_two_raises(lo, hi):
    # the check comes at the first next(); an empty range has no modulus
    # below 2, so it yields nothing
    rows = fill_rows(range(lo, hi + 1))
    if lo > hi:
        assert list(rows) == []
        return
    with pytest.raises(ValueError, match=f"got {lo}"):
        next(rows)


def test_decide_rows_of_a_set_below_two_raises():
    rows = fill_rows({45, 1, 9})
    with pytest.raises(ValueError, match="got 1"):
        next(rows)


def _mirrored(pair, n):
    (size, sign, kind, j), wit = pair
    verdict = size, sign * (-1) ** size, kind, j
    if wit is None:
        return verdict, None
    w, x, y, w_sign = wit
    return verdict, (w, -x % n, -y % n, w_sign * (-1) ** w)


@given(st.integers(401, 5000), st.lists(st.integers(0, 10 ** 6), min_size=1,
                                        max_size=12))
@settings(max_examples=25, deadline=None)
def test_decide_row_beyond_400(n, ks):
    # the k <-> -k mirror, and agreement with the descent and with the
    # CRT assembly from the prime-power components
    _, verdicts, wits = _filled(n)
    for k in (k % n for k in ks):
        pair = verdicts[k], wits[k]
        mirror = verdicts[-k % n], wits[-k % n]
        assert mirror == (pair if k in (0, n - k) else _mirrored(pair, n))
        assert pair == _pair(is_irreducible_monomial(n, k)), (n, k)
        assert pair[0][:2] == minimal_monomial_size(n, k), (n, k)
        law = size_via_crt(n, k)
        assert (law.size, law.sign) == pair[0][:2], (n, k)
        _check_witness(n, k, *pair)


@pytest.mark.parametrize("half_cap", [False, True])
def test_structure_census_matches_the_full_scan(half_cap):
    # the census reads the second half of each period off the first;
    # the oracle multiplies out every size up to the cap
    for n in range(2, 61):
        for k in range(n):
            rep = witness_structure_check(n, k, n // 2 if half_cap else None)
            assert rep.minimal_size == walk_min_size(n, k)[0], (n, k)
            assert rep.ok, (n, k, rep.violations)
            assert list(rep.entries) == bordered_census(n, k, rep.cap), (n, k)
