import io
import json
import time
from contextlib import redirect_stdout
from math import gcd

import pytest

import frieze_mod.rows as rows_module
import frieze_mod.verify as verify_module
from frieze_mod.cli import main
from frieze_mod.verify import (_LAWS, DEFAULT_FAMILY_PRIMES, VERIFIERS,
                               Counterexample, _crt_pair, _scope,
                               _power_shapes, _unit_class, fill_tuples,
                               is_three_m_form, monomial_row, odd_half,
                               run_all, run_verifier, survey_rows)
from oracles import naive_crt, prime_power
from routes import (REFERENCE, _walk, law_items, law_mismatches,
                    reference_heads, two_three_split)


def test_classifier_three_m_form():
    assert is_three_m_form(15) and is_three_m_form(21) and is_three_m_form(33)
    assert not is_three_m_form(9)    # quotient 3 shares a factor with 6
    assert not is_three_m_form(45)   # quotient 15 divisible by 3
    assert not is_three_m_form(6)    # quotient 2 even
    assert not is_three_m_form(10)


def test_classifier_odd_half():
    assert odd_half(6) == 3
    assert odd_half(2) == 1
    assert odd_half(12) is None
    assert odd_half(7) is None


def test_classifier_two_three_split():
    # the size-n reference splits n = 2 * 3**a * b with this helper of
    # its own (the battery reads the split off the parts)
    assert two_three_split(30) == (1, 5)
    assert two_three_split(90) == (2, 5)
    assert two_three_split(18) is None    # cofactor collapses to 1
    assert two_three_split(12) is None
    assert two_three_split(70) is None    # no factor of three
    assert two_three_split(7) is None


def test_crt_pair_matches_the_naive_scan():
    # size-n builds its reducible k with _crt_pair: every coprime pair of
    # moduli in [2, 12], every pair of residues (3,294 cases, well under
    # a second)
    cases = 0
    for q1 in range(2, 13):
        for q2 in range(2, 13):
            if gcd(q1, q2) != 1:
                continue
            for r1 in range(q1):
                for r2 in range(q2):
                    want = naive_crt([(r1, q1), (r2, q2)], q1 * q2)
                    assert _crt_pair(r1, q1, r2, q2) == want, (r1, q1, r2, q2)
                    cases += 1
    assert cases == 3294


def test_power_shapes_match_prime_power_shape():
    # prime-powers and special-sizes read these shapes; checked against
    # the trial-division oracle for every s in [2, 3000), well under a
    # second
    assert prime_power(8) == (2, 3) and prime_power(12) is None
    for s in range(2, 3000):
        want = tuple(prime_power(s // d) if s % d == 0 else None
                     for d in (1, 2, 4))
        assert _power_shapes(s) == want, s


def test_power_shapes_keep_every_size_asked():
    # the checks ask about sizes up to 3n, so a cache bounded at 4,096
    # sizes thrashed past n = 3000 (18,528 misses for run_all(2, 6000),
    # against 8,175 distinct sizes): a second pass over every s <= 6000
    # makes no miss. A few milliseconds
    for s in range(2, 6001):
        _power_shapes(s)
    misses = _power_shapes.cache_info().misses
    for s in range(2, 6001):
        _power_shapes(s)
    assert _power_shapes.cache_info().misses == misses


def test_unit_class_matches_the_gcd():
    # reducible-constructions reads whether the k of a class mod a prime
    # power q are units from the class's size alone: checked against
    # gcd(k, q) for every k mod every prime power q <= 1000 (about 0.2 s)
    powers = [q for q in range(2, 1001) if prime_power(q)]
    pairs = 0
    for t in fill_tuples(powers):
        p, _ = prime_power(t.n)
        part, = t.parts
        for k, j in enumerate(part.slot):
            assert _unit_class(p, part.keys[j][0]) == (gcd(k, t.n) == 1), (t.n, k)
        pairs += t.n
    assert pairs == sum(powers)


def test_classifier_prime_power_shape():
    # the first slot is the shape of s itself; a quotient of 1 is no
    # prime power
    assert _power_shapes(8)[0] == (2, 3)
    assert _power_shapes(7)[0] == (7, 1)
    assert _power_shapes(2)[0] == (2, 1)
    assert _power_shapes(12)[0] is None
    assert _power_shapes(2)[1] is None and _power_shapes(4)[2] is None
    assert _power_shapes(12) == (None, None, (3, 1))


def test_registry_lists_the_ten_laws_in_report_order():
    assert list(VERIFIERS) == [
        "size-bound", "eight-divides", "odd-sizes", "three-h-criterion",
        "size-n", "prime-powers", "reducible-constructions",
        "special-sizes", "overshoot-3m", "unbounded-family"]
    assert list(_LAWS) == list(VERIFIERS)
    # the fixed moduli of unbounded-family ignore the range
    assert _scope("unbounded-family", 100, 200)[0] == (15, 21, 33, 39, 51, 57)
    assert _scope("eight-divides", 0, 20)[0] == [8, 16]


@pytest.mark.parametrize("theorem_id", sorted(VERIFIERS))
def test_each_verifier_passes_on_a_medium_range(theorem_id):
    report = run_verifier(theorem_id, 2, 60)
    assert report.theorem_id == theorem_id
    assert report.status == "pass", report.to_dict()
    assert report.counterexamples == ()


def test_each_verifier_is_run_verifier_bound_to_its_id():
    # a verifier called with a range reports what run_verifier reports
    # for its id, elapsed_ms apart
    def masked(report):
        return report._replace(elapsed_ms=0)
    for theorem_id, verifier in VERIFIERS.items():
        assert masked(verifier(97, 181)) == \
            masked(run_verifier(theorem_id, 97, 181)), theorem_id


def test_unbounded_family_passes():
    report = VERIFIERS["unbounded-family"]()
    assert report.status == "pass"
    assert report.counterexamples == ()


def test_vacuous_ranges_are_reported():
    report = run_verifier("eight-divides", 9, 15)
    assert report.status == "vacuous"
    assert not report.counterexamples


def test_report_json_shape():
    report = run_verifier("size-bound", 2, 20)
    d = report.to_dict()
    assert list(d) == ["theorem_id", "range", "status",
                       "counterexamples", "elapsed_ms"]
    assert isinstance(d["elapsed_ms"], float)
    json.dumps(d)

    ce = Counterexample(9, 3, "observed", "expected").to_dict()
    assert list(ce) == ["n", "k", "observed", "expected"]


def test_report_records_are_frozen_with_field_reprs():
    ce = Counterexample(9, 3, "observed", "expected")
    assert repr(ce) == ("Counterexample(n_modulus=9, k=3, "
                        "observed='observed', expected='expected')")
    assert hash(ce) == hash((9, 3, "observed", "expected"))
    report = run_verifier("eight-divides", 2, 20)
    assert report.to_dict() == {
        "theorem_id": "eight-divides", "range": report.range,
        "status": "pass", "counterexamples": [],
        "elapsed_ms": report.elapsed_ms}
    assert repr(report).startswith(
        "TheoremReport(theorem_id='eight-divides', range='n in [2, 20], "
        "n divisible by 8', status='pass', counterexamples=(), elapsed_ms=")
    row = list(survey_rows(9, 9))[3]
    assert repr(row) == ("SurveyRow(n_modulus=9, k=3, size=6, sign=-1, "
                         "verdict='reducible', witness_size=4, witness_x=6, "
                         "witness_y=6)")
    for rec in (ce, report, row):
        with pytest.raises(AttributeError):
            rec.k = 0


def test_run_verifier_unknown_id_lists_the_known_ones():
    for theorem_id in ("no-such-law", "all"):
        with pytest.raises(KeyError) as e:
            run_verifier(theorem_id, 2, 10)
        message = e.value.args[0]
        assert message.startswith(
            f"unknown theorem id {theorem_id!r}; known: ")
        # only the ids run_verifier accepts: "all" belongs to the CLI
        assert message.split("; known: ")[1].split(", ") == list(VERIFIERS)


def _record(size, kind):
    """A verdict record (size, sign, kind, first corner) with this size
    and kind; no law reads its corner."""
    return size, 1, kind, None


def _tampered(monkeypatch, n0, k0, fake):
    """Patch the fill the battery walks (verify.fill_tuples) so that the
    class tuple of k0 mod n0 has the verdict record fake: a failure
    planted on k0 and the other k of its tuple, if any."""
    def tampered(moduli):
        for t in fill_tuples(moduli):
            if t.n == n0:
                t.verdicts[t.index(k0)] = fake
            yield t
    monkeypatch.setattr(verify_module, "fill_tuples", tampered)


# One verdict per law, tampered to break it: (id, n, k, fake record). The
# fake is planted on the class tuple of k; each k of special-sizes (and
# the size-n pair (7, 2)) is alone in its tuple.
TAMPERED = [
    ("size-bound", 10, 1, _record(11, "irreducible")),
    ("eight-divides", 16, 3, _record(17, "irreducible")),
    ("odd-sizes", 7, 1, _record(7, "reducible")),
    ("three-h-criterion", 10, 3, _record(15, "irreducible")),   # mod-5 size 5
    ("size-n", 7, 2, _record(7, "reducible")),
    ("size-n", 30, 23, _record(30, "irreducible")),     # the forced reducible k
    ("prime-powers", 9, 1, _record(9, "reducible")),
    ("reducible-constructions", 9, 3, _record(6, "irreducible")),
    ("special-sizes", 7, 1, _record(5, "reducible")),
    ("overshoot-3m", 15, 1, _record(16, "irreducible")),
    ("unbounded-family", 15, 3, _record(20, "reducible")),     # p = 5
]


def test_every_range_verifier_has_a_tampered_row():
    assert {t[0] for t in TAMPERED} == set(VERIFIERS)


@pytest.mark.parametrize("theorem_id,n,k,fake", TAMPERED)
def test_each_verifier_fails_on_a_tampered_row(monkeypatch, theorem_id, n, k, fake):
    _tampered(monkeypatch, n, k, fake)
    report = VERIFIERS[theorem_id](2, 40)
    assert report.status == "fail", report.to_dict()
    assert (n, k) in [(c.n_modulus, c.k) for c in report.counterexamples]


# The single-pair claims (verify._claim), each tampered at its one k:
# (id, n, k, fake record, observed, expected). The family pair of 21 is
# k = 9 (p = 7), of size 28; the split of 30 forces k = 23 reducible of
# size 30.
CLAIMS = [
    ("size-n", 30, 23, _record(30, "irreducible"),
     "irreducible of size 30", "reducible of size 30"),
    ("reducible-constructions", 9, 3, _record(6, "irreducible"),
     "irreducible of size 6", "reducible of size 6"),
    ("reducible-constructions", 16, 4, _record(6, "reducible"),
     "reducible of size 6", "reducible of size 8"),
    ("unbounded-family", 21, 9, _record(28, "reducible"),
     "reducible of size 28", "irreducible of size 28"),
]


@pytest.mark.parametrize("theorem_id,n,k,fake,observed,expected", CLAIMS)
def test_single_pair_claims_give_their_texts(monkeypatch, theorem_id, n, k,
                                             fake, observed, expected):
    _tampered(monkeypatch, n, k, fake)
    report = VERIFIERS[theorem_id](n, n)
    assert report.counterexamples == (Counterexample(n, k, observed, expected),)


# special-sizes reports the first reason that applies to a size: one
# tampered row per reason, marked reducible, and the expected text it
# must give (None: no reason applies, so the row passes). The check
# reads k = 0 too: its size 2 has no reason.
SPECIAL_REASONS = [
    (7, 1, 5, "prime-power size 5"),
    (10, 1, 4, "size 2**2 vs 2-adic valuation of n"),
    (10, 3, 8, "size 2**3 vs 2-adic valuation of n"),
    (10, 1, 6, "size 6 with 3 not dividing n"),
    (7, 1, 10, "size 2 * 5**1, prime coprime to n"),
    (7, 1, 12, "size 4 * 3**1 on an odd modulus"),
    (48, 5, 8, None),
    (7, 0, 2, None),
    (10, 0, 2, None),
]


@pytest.mark.parametrize("n,k,size,reason", SPECIAL_REASONS)
def test_special_sizes_reports_the_first_reason(monkeypatch, n, k, size, reason):
    _tampered(monkeypatch, n, k, _record(size, "reducible"))
    report = VERIFIERS["special-sizes"](n, n)
    if reason is None:
        assert report.status == "pass", report.to_dict()
        return
    assert report.counterexamples == (Counterexample(
        n, k, f"reducible of size {size}", f"irreducible ({reason})"),)


def _facts(report):
    d = report.to_dict()
    del d["elapsed_ms"]
    return d


@pytest.mark.parametrize("lo,hi", [(97, 181), (2, 150), (2, 250)])
def test_run_all_matches_the_single_runs(lo, hi):
    # on [97, 181] three-h-criterion reads rows of moduli below lo
    assert [_facts(r) for r in run_all(lo, hi)] == \
        [_facts(run_verifier(i, lo, hi)) for i in VERIFIERS]


def test_run_all_decides_each_row_once_and_times_only_the_checks(monkeypatch):
    # the fill sleeps after deciding each modulus: a report whose clock
    # ran over the fill would count every sleep of its moduli
    pause = 0.005
    events = []

    def slow_fill(moduli):
        for t in fill_tuples(moduli):
            events.append(t.n)
            time.sleep(pause)
            yield t

    def marked(check):
        def run(n, t):
            events.append("check")
            return check(n, t)
        return run

    monkeypatch.setattr(verify_module, "fill_tuples", slow_fill)
    for vid, (check, hypothesis, text) in _LAWS.items():
        monkeypatch.setitem(_LAWS, vid, (marked(check), hypothesis, text))
    reports = run_all(40, 60)
    decided = [e for e in events if e != "check"]
    # three-h-criterion reads the mod-m size from the tuple of n = 2m,
    # so no odd half m below 40 is decided
    family = [3 * p for p in DEFAULT_FAMILY_PRIMES]     # 15 lies below both
    assert sorted(decided) == sorted({*range(40, 61), *family})
    # streamed: the first modulus (15, read by unbounded-family alone)
    # is checked before the next is decided
    assert events[:3] == [15, "check", 21]
    slept_ms = pause * len(decided) * 1000.0
    assert [r.theorem_id for r in reports] == list(VERIFIERS)
    assert all(r.elapsed_ms < slept_ms for r in reports), \
        [(r.theorem_id, r.elapsed_ms) for r in reports]


def test_a_single_run_decides_only_the_rows_its_law_reads(monkeypatch):
    calls = []

    def recording(moduli):
        calls.append(sorted(moduli))
        return fill_tuples(moduli)

    monkeypatch.setattr(verify_module, "fill_tuples", recording)
    reads = {"eight-divides": list(range(8, 251, 8)),
             "unbounded-family": [15, 21, 33, 39, 51, 57],
             # n = 2m with m odd; the mod-m size comes from its tuple
             "three-h-criterion": [n for n in range(6, 251) if odd_half(n)]}
    for theorem_id, moduli in reads.items():
        calls.clear()
        assert run_verifier(theorem_id, 2, 250).status == "pass"
        assert calls == [moduli], theorem_id


def test_every_law_has_a_per_pair_reference():
    assert list(REFERENCE) == list(VERIFIERS)


@pytest.fixture(scope="module")
def heads_to_250():
    return reference_heads(2, 250)


@pytest.mark.parametrize("theorem_id", list(VERIFIERS))
def test_each_law_matches_its_per_pair_reference(theorem_id, heads_to_250):
    # the battery decides each law once per class tuple: over every
    # n <= 250, its tuples expanded to their k cover the same pairs as
    # the law checked pair by pair over the records of fill_rows, with the
    # same verdicts and texts (under a second, about 0.5 s for all ten)
    reference, battery = law_items(theorem_id, 2, 250, heads_to_250)
    assert reference, theorem_id
    assert battery == reference
    # n <= 250 has no split with two factors p > 3, nor a size-n split
    # n = 2 * 3**a * b whose b has three: the first moduli with three
    # prime-power factors above 3, alone (about 0.2 s)
    if theorem_id in ("reducible-constructions", "size-n"):
        for n in (385, 770, 1155, 2310):
            reference, battery = law_items(theorem_id, n, n)
            assert reference and battery == reference, (theorem_id, n)


def test_law_mismatches_counts_every_pair(heads_to_250):
    # the comparison CI runs over n <= 1000, here over n <= 250
    assert law_mismatches(2, 250, heads_to_250) == ([], 51014)


# Two class tuples, each shared by several k mod an odd prime p: M(k) of
# order 16 (four k, when 16 divides p - 1 or p + 1) and of order 8 (two
# k, when 8 does), so size 8 and size 4, sign -1, irreducible at a
# prime; 49 has the second too. Each is its own mirror (S and D even),
# so the tampered verdicts below are consistent under k -> -k.
SHARED = {((8, -1, 8, -1),): (8, -1, "reducible"),
          ((4, -1, 4, -1),): (4, -1, "reducible")}


@pytest.mark.parametrize("theorem_id", ["prime-powers", "special-sizes"])
def test_tampered_tuples_fail_at_every_pair_they_hold(theorem_id, monkeypatch):
    # the verdicts of the shared tuples, tampered to reducible, plant a
    # failure on every k of those tuples at every modulus they occur at
    # (12 prime powers below 100, both tuples at 17): the report lists
    # exactly those pairs, n ascending then k ascending, as the walk
    # finds them, and as the reference finds them over the fill_rows
    # records decided from the same tampered verdicts
    verdict = rows_module._verdict

    def tampered(classes, law):
        head = SHARED.get(classes)
        # no corner: fill_rows builds no witness for it
        return (*head, None) if head else verdict(classes, law)

    monkeypatch.setattr(rows_module, "_verdict", tampered)
    report = run_verifier(theorem_id, 2, 100)
    reference, _ = law_items(theorem_id, 2, 100)
    assert report.counterexamples == tuple(
        Counterexample(n, k, *v) for n, k, v in reference if v is not True)
    planted = [(q, k) for q in filter(prime_power, range(2, 101))
               for k in range(q) if (_walk(q, k),) in SHARED]
    assert [(c.n_modulus, c.k) for c in report.counterexamples] == planted
    assert len({q for q, _ in planted}) == 12
    assert len(planted) == 44 and sum(q == 17 for q, _ in planted) == 6


def test_ranges_below_two_start_at_two():
    def facts(r):
        return r.theorem_id, r.status, r.counterexamples
    assert [facts(r) for r in run_all(0, 20)] == \
        [facts(r) for r in run_all(2, 20)]
    assert facts(run_verifier("eight-divides", -16, 20)) == \
        facts(run_verifier("eight-divides", 2, 20))


def test_run_all_order_and_contents():
    reports = run_all(2, 40)
    assert [r.theorem_id for r in reports] == list(VERIFIERS)
    assert all(r.status in ("pass", "vacuous") for r in reports)


def test_survey_rows_order_and_content():
    rows = list(survey_rows(2, 3))
    assert [(r.n_modulus, r.k, r.size, r.sign, r.verdict) for r in rows] == [
        (2, 0, 2, 1, "zero-convention"),
        (2, 1, 3, 1, "irreducible"),
        (3, 0, 2, -1, "zero-convention"),
        (3, 1, 3, -1, "irreducible"),
        (3, 2, 3, 1, "irreducible"),
    ]
    assert all(r.witness_size is None for r in rows)


def test_survey_rows_empty_range_and_guard():
    assert list(survey_rows(5, 4)) == []
    # the guard runs at the call, not at the first row
    with pytest.raises(ValueError):
        survey_rows(1, 5)


def test_survey_rows_are_the_survey_lines():
    # the library's rows read the same fill as the command: each field
    # printed as str, None as empty, joined by commas, is the survey
    # line of its pair, for every pair with n <= 250 (31,374 lines)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["survey", "--max", "250"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == rows_module._CSV_HEADER
    rows = [",".join("" if f is None else str(f) for f in r)
            for r in survey_rows(2, 250)]
    assert len(rows) == 31374
    assert rows == lines[1:]


def test_survey_row_carries_the_witness():
    row = list(survey_rows(9, 9))[3]
    assert (row.n_modulus, row.k, row.verdict) == (9, 3, "reducible")
    assert (row.witness_size, row.witness_x, row.witness_y) == (4, 6, 6)


def test_survey_rows_match_the_verdicts():
    rows = list(survey_rows(2, 60))
    verdicts = [v for n in range(2, 61) for v in monomial_row(n)]
    assert len(rows) == len(verdicts)
    for row, v in zip(rows, verdicts):
        w = v.witness
        assert row == (v.n_modulus, v.k, v.size, v.sign, v.kind,
                       *((w.size, w.x, w.y) if w else (None,) * 3))


def test_monomial_row_is_cached():
    assert monomial_row(50) is monomial_row(50)


def test_family_prime_list_default():
    assert DEFAULT_FAMILY_PRIMES == (5, 7, 11, 13, 17, 19)
