"""2x2 matrices over Z/NZ and the right-to-left entry product.

The product convention applies entries last first: appending an entry
multiplies on the LEFT, so the product over a concatenation satisfies
m_n(c1 ++ c2) = m_n(c2) @ m_n(c1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .cycles import Cycle
from .ring import Residue
from .rows import _m1, _mul, _sign

Entries = Union[Cycle, Iterable[int]]


# Hot paths work on row-major 4-tuples of plain ints; Mat2 wraps them for
# the public surface.

_ID = (1, 0, 0, 1)


def _pow(a, e, n):
    r = _ID
    while e:
        if e & 1:
            r = _mul(a, r, n)
        a = _mul(a, a, n)
        e >>= 1
    return r


def _prod(vals, n):
    m = _ID
    for v in vals:
        m = _mul(_m1(v, n), m, n)
    return m


@dataclass(frozen=True)
class Mat2:
    """Row-major 2x2 matrix [[a, b], [c, d]] over Z/NZ."""

    a: int
    b: int
    c: int
    d: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, getattr(self, f) % self.modulus)

    @classmethod
    def identity(cls, modulus: int) -> "Mat2":
        return cls(1, 0, 0, 1, modulus)

    @classmethod
    def _from_tuple(cls, t, modulus: int) -> "Mat2":
        return cls(t[0], t[1], t[2], t[3], modulus)

    def _tuple(self):
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        if self.modulus != other.modulus:
            raise ValueError(f"mixed moduli {self.modulus} and {other.modulus}")
        return Mat2._from_tuple(
            _mul(self._tuple(), other._tuple(), self.modulus), self.modulus)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.modulus

    def trace(self) -> int:
        return (self.a + self.d) % self.modulus

    def pm_identity_sign(self) -> Optional[int]:
        """+1 for Id, -1 for -Id, None for anything else (mod 2: +1)."""
        s = _sign(self._tuple(), self.modulus)
        return s if s else None

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]] mod {self.modulus}"


def m1(k, modulus: Optional[int] = None) -> Mat2:
    """The elementary factor [[k, -1], [1, 0]].

    k may be a plain int (modulus required) or a Residue.
    """
    if isinstance(k, Residue):
        modulus = k.modulus
        k = k.value
    if modulus is None:
        raise TypeError("modulus required when k is a plain int")
    return Mat2(k, -1, 1, 0, modulus)


def _coerce(entries: Entries, modulus: Optional[int]):
    if isinstance(entries, Cycle):
        return entries.entries, entries.modulus
    vals = tuple(int(v) for v in entries)
    if modulus is None:
        raise TypeError("modulus required unless entries is a Cycle")
    return vals, modulus


def m_n(entries: Entries, modulus: Optional[int] = None) -> Mat2:
    """Product of the elementary factors of an entry tuple, applied last
    first: (a1, ..., an) maps to m1(an) @ ... @ m1(a1).

    The empty tuple is rejected rather than defaulting to the identity.
    """
    vals, n = _coerce(entries, modulus)
    if not vals:
        raise ValueError("empty entry sequence has no product")
    return Mat2._from_tuple(_prod(vals, n), n)


def mat_pow(m: Mat2, e: int) -> Mat2:
    """m**e for e >= 0, by square and multiply."""
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    return Mat2._from_tuple(_pow(m._tuple(), e, m.modulus), m.modulus)


def solution_sign(entries: Entries, modulus: Optional[int] = None) -> Optional[int]:
    """The sign eps with m_n(entries) = eps * Id, or None if neither.

    An entry tuple is a solution exactly when this is not None. Mod 2 the
    identity and its negative coincide; the reported sign is +1 there.
    """
    vals, n = _coerce(entries, modulus)
    if not vals:
        raise ValueError("empty entry sequence has no product")
    s = _sign(_prod(vals, n), n)
    return s if s else None
