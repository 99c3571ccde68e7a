import pytest
from hypothesis import given, settings, strategies as st

from frieze_mod.cycles import Cycle
from frieze_mod.modmat import m_n, solution_sign
from frieze_mod.ring import _lucas
from oracles import direct_min_size, mat_mul, product

MOD = st.integers(2, 40)
ENTRIES = st.lists(st.integers(-50, 50), min_size=1, max_size=8)
# moduli up to 2**64 - 1, and tuples of up to 40 entries of any size
WIDE_MOD = st.integers(2, 2 ** 64 - 1)
LONG_ENTRIES = st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=40)


@given(st.one_of(MOD, WIDE_MOD), st.one_of(ENTRIES, LONG_ENTRIES))
@settings(max_examples=400, deadline=None)
def test_product_matches_reference(n, entries):
    a, b, c, d = m_n(entries, n)
    assert [[a, b], [c, d]] == product(entries, n)


@given(MOD, ENTRIES, ENTRIES)
@settings(max_examples=200, deadline=None)
def test_concatenation_multiplies_on_the_left(n, c1, c2):
    def nested(m):
        return [list(m[:2]), list(m[2:])]
    assert nested(m_n(c1 + c2, n)) == mat_mul(nested(m_n(c2, n)),
                                              nested(m_n(c1, n)), n)


@given(MOD, ENTRIES)
@settings(max_examples=200, deadline=None)
def test_determinant_is_one(n, entries):
    a, b, c, d = m_n(entries, n)
    assert (a * d - b * c) % n == 1


def test_empty_product_rejected():
    with pytest.raises(ValueError):
        m_n([], 5)
    with pytest.raises(ValueError):
        solution_sign([], 5)


@pytest.mark.parametrize("n", [3, 5, 11])
def test_known_solutions(n):
    assert solution_sign([1, 1, 1], n) == -1
    assert solution_sign([1, 2, 1, 2], n) == -1
    assert solution_sign([0, 0], n) == -1
    assert solution_sign([2] * n, n) == 1


def test_known_solutions_mod_2():
    # Id and -Id coincide mod 2; the reported sign is +1
    assert solution_sign([1, 1, 1], 2) == 1
    assert solution_sign([0, 0], 2) == 1
    assert solution_sign([2, 2], 2) == 1


def test_non_solutions():
    assert solution_sign([1, 0], 5) is None
    assert solution_sign((1,), 5) is None
    # a scalar matrix other than +-Id is no solution
    assert m_n((5, 5, 5), 8) == (3, 0, 0, 3)
    assert solution_sign((5, 5, 5), 8) is None


def test_cycle_input_carries_modulus():
    c = Cycle.of(9, 6, 3, 3, 6)
    assert solution_sign(c) == 1
    assert m_n(c) == m_n([6, 3, 3, 6], 9)
    assert m_n(c, 9) == m_n(c)
    with pytest.raises(TypeError):
        m_n([6, 3, 3, 6])


def test_a_modulus_that_conflicts_with_the_cycle_is_rejected():
    # (6, 3, 3, 6) is a solution mod 9 but not mod 5: no silent choice
    c = Cycle.of(9, 6, 3, 3, 6)
    assert solution_sign([6, 3, 3, 6], 5) is None
    for fn in (solution_sign, m_n):
        with pytest.raises(ValueError):
            fn(c, 5)


def test_rejects_bad_modulus():
    for n in (1, 0, -3):
        for fn in (solution_sign, m_n):
            with pytest.raises(ValueError):
                fn([1, 1, 1], n)


def test_sign_matches_reference_at_minimal_size():
    for n in range(2, 12):
        for k in range(n):
            size, sign = direct_min_size(n, k)
            assert solution_sign([k] * size, n) == sign
    # a constant product is ring._lucas's power of M(k):
    # [[u_e, -u_{e-1}], [u_{e-1}, -u_{e-2}]], with u_{e-2} = k*u_{e-1} - u_e
    for n, k, e in [(2, 1, 3), (7, 3, 1), (12, 6, 1000), (1000003, -5, 999),
                    (2 ** 64 - 59, 12345, 1000), (2 ** 64 - 1, 2 ** 63, 777)]:
        u1, u = _lucas(n, k % n, e)
        assert m_n((k,) * e, n) == (u, -u1 % n, u1, (u - k * u1) % n), (n, k, e)
