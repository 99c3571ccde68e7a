import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from frieze_mod.cycles import (Cycle, canonical_form, equivalence_class,
                               equivalent, oplus, reversal)
from frieze_mod.modmat import solution_sign


def test_oplus_examples():
    assert oplus(Cycle.of(10, 1, 1, 3),
                 Cycle.of(10, -2, 0, 2)) == Cycle.of(10, 3, 1, 1, 0)
    assert oplus(Cycle.of(7, 2, 2, 1, 0),
                 Cycle.of(7, 1, -1, 1)) == Cycle.of(7, 3, 2, 1, 1, 6)
    assert oplus(Cycle.of(11, 1, 0, 2, 3),
                 Cycle.of(11, 2, 4, 1, -1, 5)) == Cycle.of(11, 6, 0, 2, 5, 4, 1, -1)


def test_oplus_sizes_add_minus_two():
    a, b = Cycle.of(13, 1, 2, 3, 4), Cycle.of(13, 5, 6, 7)
    assert len(oplus(a, b)) == len(a) + len(b) - 2


@given(st.integers(2, 9), st.data())
@settings(max_examples=200, deadline=None)
def test_zero_pair_is_the_identity(n, data):
    """Exact on the right; a rotation (same class) on the left."""
    size = data.draw(st.integers(2, 6))
    c = Cycle(tuple(data.draw(st.integers(0, n - 1)) for _ in range(size)), n)
    zero = Cycle.of(n, 0, 0)
    assert oplus(c, zero) == c
    assert equivalent(oplus(zero, c), c)
    assert canonical_form(oplus(zero, c)) == canonical_form(c)


def test_oplus_is_not_commutative_or_associative():
    n = 10
    a, b = Cycle.of(n, 1, 1, 3), Cycle.of(n, 2, 0, 2)
    c = Cycle.of(n, 1, 4)
    assert oplus(a, b) != oplus(b, a)
    assert oplus(oplus(a, b), c) != oplus(a, oplus(b, c))


def test_oplus_guards():
    with pytest.raises(ValueError):
        oplus(Cycle.of(5, 1), Cycle.of(5, 1, 2))
    with pytest.raises(ValueError):
        oplus(Cycle.of(5, 1, 2), Cycle.of(5, 3))
    with pytest.raises(ValueError):
        oplus(Cycle.of(5, 1, 2), Cycle.of(7, 1, 2))


def test_parse():
    assert Cycle.parse("6,3,3,6", 9) == Cycle.of(9, 6, 3, 3, 6)
    assert Cycle.parse(" 1 , -1 , 1 ", 7) == Cycle.of(7, 1, 6, 1)


def test_parse_names_the_bad_position():
    with pytest.raises(ValueError) as e:
        Cycle.parse("1,x,3", 7)
    assert "entry 2" in str(e.value)
    with pytest.raises(ValueError):
        Cycle.parse("", 7)


def test_str_roundtrip():
    c = Cycle.of(9, 6, 3, 3, 6)
    assert str(c) == "6,3,3,6"
    assert Cycle.parse(str(c), 9) == c


def test_construction_guards():
    with pytest.raises(ValueError):
        Cycle((), 5)
    with pytest.raises(ValueError):
        Cycle((1, 2), 1)
    assert Cycle.constant(7, 9, 3) == Cycle.of(7, 2, 2, 2)
    with pytest.raises(ValueError):
        Cycle.constant(7, 1, 0)
    # size-1 cycles are valid values, just rejected by oplus
    assert len(Cycle.of(5, 3)) == 1


def test_cycle_is_an_immutable_value():
    # equality, ordering and hashing go by (entries, modulus), in that
    # order; a Cycle compares with no other type and accepts no writes
    a, b = Cycle.of(7, 1, 2), Cycle.of(7, 1, 3)
    assert a == Cycle((8, 9), 7) and a != b
    assert a != (1, 2) and a != ((1, 2), 7)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not a < a and not a > a
    assert Cycle.of(5, 1, 2) < a < Cycle.of(5, 2, 0)
    assert sorted([b, Cycle.of(5, 1, 2), a]) == [Cycle.of(5, 1, 2), a, b]
    with pytest.raises(TypeError):
        a < (1, 2)
    assert hash(a) == hash(Cycle((8, 9), 7)) == hash(((1, 2), 7))
    assert len({a, Cycle((8, 9), 7), b}) == 2
    assert repr(a) == "Cycle(entries=(1, 2), modulus=7)"
    for name in ("entries", "modulus", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, (3,))
    for name in ("entries", "modulus"):
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == Cycle.of(7, 1, 2)
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a


def test_canonical_form_example():
    assert canonical_form(Cycle.of(3, 2, 0, 1)) == Cycle.of(3, 0, 1, 2)


def test_equivalence_basics():
    c = Cycle.of(7, 1, 2, 3)
    cls = equivalence_class(c)
    assert c in cls and reversal(c) in cls
    assert len(cls) <= 2 * len(c)
    assert all(equivalent(c, d) for d in cls)
    assert not equivalent(Cycle.of(7, 1, 1, 2), Cycle.of(7, 1, 2, 2))
    assert not equivalent(Cycle.of(7, 1, 2), Cycle.of(5, 1, 2))


CYC = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), min_size=1, max_size=6)))


@given(CYC)
@settings(max_examples=200, deadline=None)
def test_canonical_form_is_class_invariant(case):
    n, entries = case
    c = Cycle(tuple(entries), n)
    canon = canonical_form(c)
    for d in equivalence_class(c):
        assert canonical_form(d) == canon
        assert equivalent(c, d) and equivalent(d, c)


@given(CYC)
@settings(max_examples=200, deadline=None)
def test_solution_sign_is_class_invariant(case):
    n, entries = case
    c = Cycle(tuple(entries), n)
    s = solution_sign(c)
    for d in equivalence_class(c):
        assert solution_sign(d) == s


def _all_solutions(n, max_size):
    out = []
    for size in range(2, max_size + 1):
        for entries in itertools.product(range(n), repeat=size):
            if solution_sign(entries, n) is not None:
                out.append(Cycle(entries, n))
    return out


_POOLS = {}


def _pool(n):
    if n not in _POOLS:
        _POOLS[n] = _all_solutions(n, 5)
    return _POOLS[n]


def test_solution_transfer_exhaustive_small():
    """With b a solution, a oplus b is a solution exactly when a is."""
    for n in (2, 3):
        for b in _pool(n):
            for size_a in range(2, 6):
                for a_entries in itertools.product(range(n), repeat=size_a):
                    a = Cycle(a_entries, n)
                    left = solution_sign(a) is not None
                    merged = solution_sign(oplus(a, b)) is not None
                    assert left == merged, (n, a_entries, b.entries)


@given(st.integers(4, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 10 ** 9),
    st.lists(st.integers(0, n - 1), min_size=2, max_size=5))))
@settings(max_examples=300, deadline=None)
def test_solution_transfer_sampled(case):
    n, pick, a_entries = case
    pool = _pool(n)
    b = pool[pick % len(pool)]
    a = Cycle(tuple(a_entries), n)
    assert (solution_sign(a) is not None) == \
        (solution_sign(oplus(a, b)) is not None)
