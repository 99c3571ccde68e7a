"""The right-to-left entry product over Z/NZ and solution signs.

The product convention applies entries last first: appending an entry
multiplies on the LEFT, so the product over a concatenation satisfies
m_n(c1 ++ c2) = m_n(c2) @ m_n(c1). Matrices are row-major 4-tuples
(a, b, c, d) of plain ints. The product is the continuant recurrence on
its rows (_prod), the one scalar recurrence of the package; no general
2x2 product is formed. This module imports cycles alone, so
solution_sign compiles no decider.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .cycles import Cycle

Entries = Union[Cycle, Iterable[int]]


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


def _prod(vals, n):
    """The product of the factors M(v) = [[v, -1], [1, 0]] of vals mod n,
    applied last first, by the recurrence on its rows.

    M(v) @ [[a, b], [c, d]] = [[v*a - c, v*b - d], [a, b]]: each column
    follows u_j = v_j * u_{j-1} - u_{j-2} and the new bottom row is the
    old top row. So the top-left entry is the continuant of the entries,
    a constant tuple (k,) * e gives ring._lucas's
    [[u_e, -u_{e-1}], [u_{e-1}, -u_{e-2}]], and every entry stays in
    [0, n).
    """
    a, b, c, d = 1, 0, 0, 1
    for v in vals:
        a, b, c, d = (v * a - c) % n, (v * b - d) % n, a, b
    return a, b, c, d


def _coerce(entries: Entries, modulus: Optional[int]):
    if isinstance(entries, Cycle):
        if modulus is not None and modulus != entries.modulus:
            raise ValueError(f"modulus {modulus} conflicts with the cycle's "
                             f"modulus {entries.modulus}")
        return entries.entries, entries.modulus
    vals = tuple(int(v) for v in entries)
    if modulus is None:
        raise TypeError("modulus required unless entries is a Cycle")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if not vals:
        raise ValueError("empty entry sequence has no product")
    return vals, modulus


def m_n(entries: Entries, modulus: Optional[int] = None) -> tuple[int, int, int, int]:
    """Product of the elementary factors [[a, -1], [1, 0]] of an entry
    tuple, applied last first, as the row-major 4-tuple (a, b, c, d) with
    entries in [0, N).

    The empty tuple is rejected rather than defaulting to the identity.
    """
    return _prod(*_coerce(entries, modulus))


def solution_sign(entries: Entries, modulus: Optional[int] = None) -> Optional[int]:
    """The sign eps with m_n(entries) = eps * Id, or None if neither.

    An entry tuple is a solution exactly when this is not None. Mod 2 the
    identity and its negative coincide; the reported sign is +1 there.
    """
    vals, n = _coerce(entries, modulus)
    s = _sign(_prod(vals, n), n)
    return s if s else None
