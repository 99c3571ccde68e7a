"""Entry tuples over Z/NZ, their endpoint-merging sum, and equivalence.

Two tuples are equivalent when one is a rotation of the other or of its
reversal; being a solution of the matrix congruence is invariant under
both moves, which is what makes the quotient worth working in.
"""

from __future__ import annotations

import operator


def _by_value(op):
    """The comparison op of two Cycles by (entries, modulus); against any
    other type it returns NotImplemented."""
    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op((self.entries, self.modulus), (other.entries, other.modulus))
    return compare


class Cycle:
    """A nonempty tuple of residues sharing one modulus.

    Entries normalize to [0, N) on construction. A Cycle is an immutable
    value: equality, hashing and ordering go by (entries, modulus), so
    ordering is lexicographic on the entry tuple, which is what
    canonical_form relies on.
    """

    __slots__ = ("entries", "modulus")

    def __init__(self, entries: tuple[int, ...], modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if not entries:
            raise ValueError("a cycle needs at least one entry")
        object.__setattr__(self, "entries", tuple(v % modulus for v in entries))
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, (self.entries, self.modulus)

    __eq__ = _by_value(operator.eq)
    __lt__ = _by_value(operator.lt)
    __le__ = _by_value(operator.le)
    __gt__ = _by_value(operator.gt)
    __ge__ = _by_value(operator.ge)

    def __hash__(self):
        return hash((self.entries, self.modulus))

    def __repr__(self):
        return f"Cycle(entries={self.entries!r}, modulus={self.modulus!r})"

    @classmethod
    def of(cls, modulus: int, *entries: int) -> "Cycle":
        return cls(tuple(entries), modulus)

    @classmethod
    def constant(cls, modulus: int, k: int, size: int) -> "Cycle":
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        return cls((k,) * size, modulus)

    @classmethod
    def parse(cls, text: str, modulus: int) -> "Cycle":
        """Parse a comma-separated entry list like "6,3,3,6" or "1,-1,1".

        Raises ValueError naming the offending position on bad input.
        """
        vals = []
        for i, part in enumerate(text.split(","), start=1):
            try:
                vals.append(int(part.strip()))
            except ValueError:
                raise ValueError(
                    f"entry {i} ({part.strip()!r}) is not an integer") from None
        return cls(tuple(vals), modulus)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        return ",".join(str(v) for v in self.entries)


def oplus(a: Cycle, b: Cycle) -> Cycle:
    """Endpoint-merging sum of two cycles over the same modulus.

    (a1,...,an) oplus (b1,...,bm) = (a1+bm, a2,...,a_{n-1}, an+b1,
    b2,...,b_{m-1}), of size n + m - 2. Both operands need size >= 2.
    Summing (0, 0) on the right returns the cycle unchanged; on the left
    it returns a rotation, so the zero pair is an identity on equivalence
    classes only. The operation is neither commutative nor associative.
    """
    if a.modulus != b.modulus:
        raise ValueError(f"mixed moduli {a.modulus} and {b.modulus}")
    if len(a) < 2 or len(b) < 2:
        raise ValueError("oplus needs both operands of size >= 2")
    av, bv = a.entries, b.entries
    merged = (av[0] + bv[-1],) + av[1:-1] + (av[-1] + bv[0],) + bv[1:-1]
    return Cycle(merged, a.modulus)


def rotations(c: Cycle) -> list[Cycle]:
    v = c.entries
    return [Cycle(v[i:] + v[:i], c.modulus) for i in range(len(v))]


def reversal(c: Cycle) -> Cycle:
    return Cycle(tuple(reversed(c.entries)), c.modulus)


def equivalence_class(c: Cycle) -> frozenset[Cycle]:
    """All rotations of c and of its reversal (at most 2 * len(c) cycles)."""
    return frozenset(rotations(c) + rotations(reversal(c)))


def equivalent(a: Cycle, b: Cycle) -> bool:
    return a.modulus == b.modulus and b in equivalence_class(a)


def canonical_form(c: Cycle) -> Cycle:
    """Lexicographically smallest member of the equivalence class."""
    return min(equivalence_class(c))
