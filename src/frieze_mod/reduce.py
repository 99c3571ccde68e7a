"""Reducibility of minimal constant solutions, as verdict objects.

The (verdict, wit) pairs of pair.py become MonomialVerdict and
ReductionWitness records here.

A solution of size l reduces when some member of its rotation/reversal
class splits as the endpoint-merging sum of two strictly shorter
solutions (both of size >= 3). For a constant solution the right summand
can always be steered into bordered shape (x, k, ..., k, y), which closes
up exactly where the inner power M(k)**j has a +-1 corner, and there in
one way (proved in pair._witness). So the smallest witness is the bordered
solution at the first such corner, of size j + 2.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .pair import _pair_row


class ReductionWitness(NamedTuple):
    """A bordered solution (x, k, ..., k, y) shorter than the minimal size.

    Carries its modulus and k so it can be rechecked standalone via
    cycle() and solution_sign.
    """

    n_modulus: int
    k: int
    size: int
    x: int
    y: int
    sign: int

    def cycle(self) -> Cycle:
        from .cycles import Cycle   # loaded here: a verdict needs no cycles
        inner = (self.k,) * (self.size - 2)
        return Cycle((self.x,) + inner + (self.y,), self.n_modulus)


def monomial_reduction_witness(n: int, k: int) -> Optional[ReductionWitness]:
    """Smallest bordered witness strictly below the minimal size, if any.

    Size 2 is excluded: a reduction needs both summands of size >= 3.
    """
    return is_irreducible_monomial(n, k).witness


class MonomialVerdict(NamedTuple):
    """Classification of the minimal constant-k solution mod n."""

    n_modulus: int
    k: int
    size: int
    sign: int
    kind: str  # "irreducible" | "reducible" | "zero-convention"
    witness: Optional[ReductionWitness]

    @classmethod
    def from_row(cls, n: int, k: int, head: tuple,
                 wit: Optional[tuple]) -> "MonomialVerdict":
        """The verdict of k mod n (0 <= k < n) from its (verdict, wit), as
        pair._pair_row and rows.fill_rows give them: head is the verdict
        record (size, sign, kind, first corner), or its first three
        fields, and only those three are read."""
        return cls(n, k, *head[:3], wit and ReductionWitness(n, k, *wit))


def is_irreducible_monomial(n: int, k: int) -> MonomialVerdict:
    """Classify the minimal constant-k solution.

    k = 0 is its own bucket: the pair (0, 0) is by convention not
    irreducible, and there is nothing shorter to reduce it with. For any
    other k, reducibility is decided by the bordered witness search,
    which for constant solutions is equivalent to the general
    decomposition search (cross-checked in the tests).
    """
    verdict, wit = _pair_row(n, k)      # checks n (ring._front)
    return MonomialVerdict.from_row(n, k % n, verdict, wit)
