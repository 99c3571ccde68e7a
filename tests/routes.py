"""Second routes to the reduction verdict, built on the package internals.

The package decides reducibility by the bordered witness search of
pair.py alone. The routes here reach the same questions another way:
the walk along the recurrence that gives the reference class of every
pair, the reference witness closed by the general endpoint solve
(_endpoints) on the recurrence's own corner power, the general
decomposition search over a whole equivalence class, the census of
bordered solutions up to a size cap, and the bordered solutions of one
size from the endpoint solve. The tests cross-check the fast path
against them. They take their matrix products from oracles.py
(product, mat_mul), so they share no product with modmat, and the
reference row decides each verdict from its own walk (walked_verdict),
but they use the package's sign rule (modmat._sign, solution_sign), so
unlike oracles.py they are not independent of it. The command
line has a second route too: the argparse parse of each command
(usage._parse, as cli.main reads a line it declines), against which
argv_sweep checks, in one pass, the parse of well-formed lines
(cli._well_formed) and the parse of lines with a second --. So does
the law battery, which decides each law once per class tuple (verify):
REFERENCE holds each law's check pair by pair over the per-k verdict
records of rows.fill_rows, where the battery reads the records of
rows.fill_tuples per class tuple, both through fields 0-2 (size, sign,
kind), and law_items gives both sides' verdicts pair by pair
(law_mismatches compares them). The
battery reads each modulus's factorization from the fill's parts; the
references factor n, and split it by helpers of their own
(two_three_split, _divisors), so the two sides share no split.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from frieze_mod import cli
from frieze_mod.cli import _SPECS, UsageError, _well_formed
from frieze_mod.cycles import Cycle, equivalence_class
from frieze_mod.modmat import _sign, solution_sign
from frieze_mod.ring import SizeCapExceeded, _size_cap, factorize
from frieze_mod.rows import fill_rows
from frieze_mod.usage import _parse
from frieze_mod.verify import (_LAWS, _crt_pair, _scope, _special_reason,
                               fill_tuples, odd_half)
from oracles import mat_mul, product


def _flat(m):
    """The nested-list matrix m of oracles.py as a row-major 4-tuple."""
    (a, b), (c, d) = m
    return a, b, c, d


def _walk(n: int, k: int):
    """The reference class of k mod n: one pass along the recurrence
    deciding when the constant product reaches +-Id, and the corner class
    (S, sign, D, f) of k mod n that it gives. No command walks; the
    package takes every class from the orbits or the descent (rows.py),
    and the tests compare both against this walk, pair by pair.

    u_s = k * u_{s-1} - u_{s-2} mod n, from u_0 = 1 and u_{-1} = 0, gives
    M(k)**s = [[u_s, -u_{s-1}], [u_{s-1}, -u_{s-2}]], and run backwards
    u_{-s} = -u_{s-2}, so M(k)**-h = [[-u_{h-2}, u_{h-1}], [-u_{h-1}, u_h]].
    Comparing M**h with +-M**-h, and M**(h+1) with +-M**-h, at step h:
    M**(2h) = Id when 2 * u_{h-1} = 0 (u_{h-1} = 0, or u_{h-1} = n/2 with
    n and k even), M**(2h) = -Id when u_h = u_{h-2}, and
    M**(2h+1) = eps * Id when u_h = -eps * u_{h-1}. Testing 2h before
    2h + 1 and +1 before -1 gives the size S and its sign (+1 mod 2) by
    step S/2.

    The class: when k**2 = 0 it is (S, sign, 2, -1); else, when the walk
    meets a first corner j with 1 <= j <= (S - 2)/2 (the smallest
    witness, pair._witness), (S, sign, j + 2, -u_j); else
    (S, sign, S, sign); f is +1 mod 2. Mod a prime power q = p**a this
    is the class of the corner lemma (pair._verdict), that is
    ring._class(p, a, k) but for q = 2, whose class there carries the
    signs 0: D >= 2, since M = 0 * Id + 1 * M is not in H.
    k**2 = 0 exactly when M**2 = -Id + k * M is in H, so D = 2 and f = -1.
    Otherwise D >= 3 and the first corner j >= 1 is D - 2, with
    u_{D-2} = -f; the walk meets it when it lies in [1, (S - 2)/2]. With
    no corner there, D divides S (M**S = sign * Id is in H), and D < S
    would put D - 2 <= S/2 - 2 in that range, so D = S and f = u_S = sign.
    For any n, the one class (S, sign, D, f) gives S, sign and the first
    corner (walked_verdict): D - 2 when the walk met one (u_{D-2} = -f),
    and for k**2 = 0 the first corner j = 2 (u_1 = k != +-1,
    u_2 = k**2 - 1 = -1) when S >= 6. So the walk is the reference row of
    every pair.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    k %= n
    minus = n - 1
    cap = _size_cap(n)
    # u_{h-1} % half == 0 exactly when M**(2h) = Id: u_{h-1} = 0, or
    # u_{h-1} = n/2 with n and k even
    half = n // 2 if n % 2 == 0 and k % 2 == 0 else n
    a, b = 0, 1     # u_{h-2}, u_{h-1}
    d = f = None    # the first corner's j + 2 and -u_j
    for h in range(1, cap // 2 + 2):
        c = (k * b - a) % n
        if c == a or c == b or c + b == n or not b % half:
            if not b % half:
                size, sign = 2 * h, 1
            elif c == a:
                size, sign = 2 * h, -1
            else:
                size, sign = 2 * h + 1, 1 if c + b == n else -1
            if size > cap:
                break
            if k * k % n == 0:
                return size, sign, 2, -1 if n > 2 else 1
            return (size, sign, d, f) if d else (size, sign, size, sign)
        if (c == 1 or c == minus) and d is None:
            d, f = h + 2, 1 if c == minus else -1
        a, b = b, c
    raise SizeCapExceeded(f"no size <= {cap} for n={n}, k={k}")


def crt_size_reference(classes):
    """The CRT size law (ring._crt_size) as its statement reads, from
    the whole tuple at once: m = lcm(S_q), the set of the signs
    sign_q**(m / S_q) of the q with a say, and (m, 2, 1) when that set
    holds both signs, else (m, 1, its sign or +1)."""
    m = lcm(*(c[0] for c in classes))
    signs = {c[1] if m // c[0] % 2 else 1 for c in classes if c[1]}
    return (m, 2, 1) if len(signs) > 1 else (m, 1, max(signs, default=1))


def walked_verdict(walked):
    """The (size, sign, kind, first corner) of the pair whose walked
    class (_walk) is walked = (S, sign, D, f), by the corner lemma alone:
    its first corner is j = D - 2 when D > 2, and j = 2 when D = 2
    (k**2 = 0, where u_2 = k**2 - 1 = -1), kept when j < S // 2, that is
    1 <= j <= (S - 2)/2. A corner makes the kind "reducible"; without one
    it is "zero-convention" at size 2 and "irreducible" otherwise. So the
    reference decides each pair from its own walk, not by pair._verdict
    and ring._crt_size."""
    size, sign, d, _ = walked
    j = d - 2 if d > 2 else 2
    if j < size // 2:
        return size, sign, "reducible", j
    return size, sign, "zero-convention" if size == 2 else "irreducible", None


def corner_power(n: int, k: int, j: int):
    """M(k)**j = [[u_j, -u_{j-1}], [u_{j-1}, -u_{j-2}]] mod n for j >= 0,
    from j steps of the scalar recurrence u_i = k * u_{i-1} - u_{i-2},
    u_0 = 1, u_{-1} = 0 (so u_{-2} = -1), with no fast doubling."""
    a, b, c = n - 1, 0, 1       # u_{i-2}, u_{i-1}, u_i at i = 0
    for _ in range(j):
        a, b, c = b, c, (k * c - b) % n
    return c, -b % n, b, -a % n


def walked_row(n: int, k: int) -> tuple:
    """The reference (verdict, wit) of k mod n, in the shape of
    pair._pair_row: the verdict record (size, sign, kind, first corner)
    of the walk's one class (walked_verdict), in place of the package's
    verdict (pair._verdict) over the class tuple of n's prime-power
    factors (the walk checks the 3N cap itself), and the witness at its
    first corner j closed by the general endpoint solve (_endpoints) on
    M(k)**j from the recurrence (corner_power). So the record shares
    neither pair._verdict nor ring._crt_size, and the witness neither
    ring._lucas nor the closed form of pair._witness."""
    verdict = walked_verdict(_walk(n, k))
    j = verdict[3]
    if j is None:
        return verdict, None
    ends = _endpoints(corner_power(n, k, j), n)
    return verdict, ends and (j + 2, *ends)


def _endpoints(p_mat, n):
    """The (x, y, sign) with m1(y) @ P @ m1(x) = sign * Id, or None.

    With P = [[p, q], [r, s]], the product's bottom row is (p*x + q, -p),
    so equality with (0, eps) pins eps = -p, x = eps*q and, from the top
    row, y = -eps*r: there is a solution only when p = +-1, and then
    exactly one. It is checked by evaluating the full product, and a
    failed check raises RuntimeError. Mod 2 the two signs coincide and
    the sign is +1. The package closes its witnesses in closed form
    (pair._witness, which proves that every +-1 corner of M(k)**j
    closes up, with x = y); this is the general solve, for any P.
    """
    p, q, r, s = p_mat
    if p not in (1, n - 1):
        return None
    eps = 1 if p == n - 1 else -1
    x, y = eps * q % n, -eps * r % n
    # m1(y) @ P @ m1(x) = [[y*c - r*x - s, r - p*y], [c, -p]], c = p*x + q
    c = p * x + q
    closed = ((y * c - r * x - s) % n, (r - p * y) % n, c % n, -p % n)
    if _sign(closed, n) != eps:
        raise RuntimeError(f"the corner {p_mat} mod {n} does not close up")
    return x, y, eps


def bordered_solutions(n: int, k: int, size: int) -> list[tuple[int, int, int]]:
    """All (x, y, sign) with (x, k, ..., k, y) of this size a solution mod n.

    size >= 2; size 2 means the bare pair (x, y). The list has at most
    one element (see _endpoints).
    """
    sol = _endpoints(_flat(product((k,) * (size - 2), n)), n)
    return [sol] if sol else []


@dataclass(frozen=True)
class Decomposition:
    """A successful split rotated = left oplus right, both parts solutions.

    rotated is the equivalence-class member that actually split; left and
    right have sizes >= 3 summing to len(rotated) + 2.
    """

    rotated: Cycle
    left: Cycle
    right: Cycle


def is_reducible_general(c: Cycle) -> Optional[Decomposition]:
    """Search every equivalence-class member of a solution for a split.

    For each representative c' of length n and each right-part size l in
    [3, n-1], the right part's interior is pinned to the tail entries of
    c' (the left part keeps size m = n - l + 2 >= 3); its endpoints
    (b1, bl), solved in closed form by _endpoints, force the left part by
    subtraction at the seam. The first hit in scan order (representative
    lex ascending, then l ascending) is returned; None means no member
    splits. Input must be a solution.
    """
    if solution_sign(c) is None:
        raise ValueError("input cycle is not a solution")
    total = len(c)
    n = c.modulus
    if total < 4:
        return None
    for rep in sorted(equivalence_class(c)):
        v = rep.entries
        for l in range(3, total):
            m = total - l + 2
            interior = v[m:]
            sol = _endpoints(_flat(product(interior, n)), n)
            if sol is None:
                continue
            b1, bl, _ = sol
            right = Cycle((b1,) + interior + (bl,), n)
            left = Cycle((v[0] - bl,) + v[1:m - 1] + (v[m - 1] - b1,), n)
            # right a solution + the sum a solution forces left to be one
            # too; cheap to confirm on the way out.
            if solution_sign(left) is None:
                raise RuntimeError(
                    f"split of {rep} leaves the non-solution {left}")
            return Decomposition(rep, left, right)
    return None


@dataclass(frozen=True)
class StructureReport:
    """Census of bordered solutions (x, k, ..., k, y) up to a size cap.

    entries lists every (size, x, y, sign) found. violations records
    departures from the endpoint pattern that minimal-size arithmetic
    forces, and, for an irreducible k, from the exact existence pattern.
    """

    n_modulus: int
    k: int
    minimal_size: int
    cap: int
    entries: tuple[tuple[int, int, int, int], ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def witness_structure_check(n: int, k: int,
                            cap: Optional[int] = None) -> StructureReport:
    """Enumerate bordered solutions up to cap and check the size pattern.

    With minimal size s, a bordered solution of size l forces its
    endpoints: l = 0 mod s means x = y = k; l = 1 mod s cannot happen;
    l = 2 mod s means x = y = 0. When the minimal solution is irreducible,
    the pattern is exact: those sizes all occur and no others do. Default
    cap is 3s + 2 (three full periods), and M(k)**s = sign * Id repeats
    the inner powers of the first period in every later one. Within the
    period, only the powers with a +-1 corner can close up; those with
    j <= (s - 2)/2 are walked here, and M(k)**(s-2-j) =
    sign * M(k)**-2 * adj(M(k)**j) gives the ones past (s - 2)/2.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    k %= n
    s, sign, _, first = walked_verdict(_walk(n, k))
    if cap is None:
        cap = 3 * s + 2
    irreducible = k != 0 and first is None
    inv2 = [[n - 1, k], [-k % n, (k * k - 1) % n]]     # M(k)**-2
    period = {}
    u2, u1 = n - 1, 0       # u_{j-2}, u_{j-1} at j = 0
    for j in range(s // 2):
        u = (k * u1 - u2) % n
        if u == 1 or u == n - 1:
            a, b, c, d = period[j] = (u, -u1 % n, u1, -u2 % n)
            m = mat_mul(inv2, [[d, -b % n], [-c % n, a]], n)
            period[s - 2 - j] = tuple(sign * e % n for row in m for e in row)
        u2, u1 = u1, u
    found = []
    violations = []
    for l in range(2, cap + 1):
        q, j = divmod(l - 2, s)
        p_mat = tuple(sign ** q * e % n for e in period.get(j, ()))
        sol = _endpoints(p_mat, n) if p_mat else None
        sols = [sol] if sol else []
        r = l % s
        for x, y, sg in sols:
            found.append((l, x, y, sg))
            if r == 0 and not (x == k and y == k):
                violations.append(
                    f"size {l} = 0 mod {s}: endpoints ({x},{y}) != ({k},{k})")
            elif r == 1:
                violations.append(
                    f"size {l} = 1 mod {s}: no bordered solution may exist")
            elif r == 2 % s and not (x == 0 and y == 0):
                violations.append(
                    f"size {l} = 2 mod {s}: endpoints ({x},{y}) != (0,0)")
        if irreducible:
            if r == 0:
                expected = [(k, k)]
            elif r == 2 % s:
                expected = [(0, 0)]
            else:
                expected = []
            got = sorted((x, y) for x, y, _ in sols)
            if got != expected:
                violations.append(
                    f"size {l}: bordered solutions {got} != {expected} "
                    f"required for an irreducible minimal solution")
    return StructureReport(n, k, s, cap, tuple(found), tuple(violations))


# The tokens argv_sweep draws command lines from, besides each
# command's own options: small, negative and 2**64-sized integers,
# strings int() rejects, dash tokens that are no option, an
# --opt=value, both --format values and one it rejects, and --help.
ARGV_TOKENS = ("5", "0", "-3", "18446744073709551616", "x", "", "-", "--",
               "-2.5", "--max=5", "csv", "json", "xml", "--help")


def parsed_by_argparse(name: str, argv: list):
    """The arguments of the line argv of the command name as cli.main
    reads them through argparse (usage._parse), or None when the parser
    rejects the line or prints its help."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return _parse(cli, name, argv)
        except (UsageError, SystemExit):
            return None


def typed(opts):
    """opts with the type of each value, so that True differs from 1."""
    return None if opts is None else {k: (type(v), v) for k, v in opts.items()}


def _declared(name: str, opts: dict) -> bool:
    """Whether opts holds the arguments of the command name, each of the
    type its _SPECS entry declares: N and K int, the other positionals
    str; an int option int, a FILE option str or None, a choice one of
    its choices, a switch bool."""
    args, options = _SPECS[name]
    kinds = {m.lower(): int if m in ("N", "K") else str for m in args.split()}
    kinds.update((dest, kind) for _, dest, kind, _, _ in options)
    return opts.keys() == kinds.keys() and all(
        type(v) is bool if kind is None else
        v in kind if isinstance(kind, tuple) else
        v is None or type(v) is str if kind == "FILE" else type(v) is kind
        for v, kind in ((opts[dest], kind) for dest, kind in kinds.items()))


def argv_sweep(max_tokens: int):
    """((mismatches, lines tried, lines accepted), (failures, lines
    tried)) over every command and every line of up to max_tokens tokens
    drawn from ARGV_TOKENS and the command's options, in one pass.

    The first result checks the parse without argparse: a mismatch is a
    line that cli._well_formed accepts but parses other than the
    command's argparse parser (parsed_by_argparse). The second checks
    the lines that hold two or more --: a failure is one whose argparse
    parse (usage._parse) neither raises UsageError, nor prints the
    command's help, nor gives the arguments of the types _SPECS declares
    (_declared)."""
    bad, tried, accepted, failures, dashed = [], 0, 0, [], 0
    for name, (_, options) in _SPECS.items():
        alphabet = ARGV_TOKENS + tuple(flag for flag, *_ in options)
        for size in range(max_tokens + 1):
            for argv in itertools.product(alphabet, repeat=size):
                tried += 1
                line = list(argv)
                got = _well_formed(name, line)
                dashes = argv.count("--") > 1
                if got is None and not dashes:
                    continue
                parsed = parsed_by_argparse(name, line)
                if got is not None:
                    accepted += 1
                    if typed(got) != typed(parsed):
                        bad.append((name, argv))
                if dashes:
                    dashed += 1
                    if parsed is not None and not _declared(name, parsed):
                        failures.append((name, argv))
    return (bad, tried, accepted), (failures, dashed)


# The reference of each law of the battery: its hypothesis on n (or its
# fixed moduli) and its check over heads(n), the verdict record of
# every k mod n from rows.fill_rows, of which it reads fields 0-2 (size,
# sign, kind), yielding (k, verdict) pair by pair
# (k = -1 for an existence claim): verdict True, or the (observed,
# expected) texts of the Counterexample. The shapes of sizes and moduli
# (_special_reason, odd_half, _crt_pair) come from verify, whose tests
# check them on their own; the battery reads the factorization of each
# modulus from its parts (rows.Part), and the references work it out
# from n alone (factorize, two_three_split, _divisors).
REFERENCE = {}


def two_three_split(n: int) -> tuple[int, int] | None:
    """(a, b) when n = 2 * 3**a * b with a >= 1 and b > 1 odd coprime to 3."""
    if n % 6:
        return None
    m = n // 2
    a = 0
    while m % 3 == 0:
        m //= 3
        a += 1
    if m > 1 and m % 2 == 1:
        return (a, m)
    return None


def _divisors(n: int) -> list[int]:
    """The divisors of n, ascending, by trial division up to sqrt(n)."""
    small = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _reference(theorem_id, hypothesis):
    def register(check):
        REFERENCE[theorem_id] = hypothesis, check
        return check
    return register


def _three_m(n):
    return n % 3 == 0 and gcd(n // 3, 6) == 1


@_reference("size-bound", lambda n: n > 2 and not _three_m(n))
def _size_bound(n, heads):
    for k, r in enumerate(heads(n)):
        if r[2] == "irreducible":
            yield k, r[0] <= n or (f"irreducible of size {r[0]}", f"size <= {n}")


@_reference("eight-divides", lambda n: n % 8 == 0)
def _eight_divides(n, heads):
    for k, r in enumerate(heads(n)):
        yield k, r[0] <= n or (f"size {r[0]}", f"size <= {n}")


@_reference("odd-sizes", lambda n: n > 2)
def _odd_sizes(n, heads):
    m = odd_half(n)
    for k, r in enumerate(heads(n)):
        if r[0] % 2 and (m is None or r[0] % 9 == 0):
            yield k, r[2] == "irreducible" or (
                f"{r[2]} of odd size {r[0]}", "irreducible")


@_reference("three-h-criterion", lambda n: odd_half(n) not in (None, 1))
def _three_h_criterion(n, heads):
    m = odd_half(n)
    rows_m = heads(m)
    for k, r in enumerate(heads(n)):
        h = r[0] // 3
        if r[0] % 3 == 0 and h != 1 and h % 2 and h % 3:
            comp = rows_m[k % m][0]
            want = "irreducible" if comp % 3 == 0 else "reducible"
            yield k, r[2] == want or (r[2], f"{want} (mod-{m} size {comp})")


@_reference("size-n", lambda n: n > 2)
def _size_n(n, heads):
    split = two_three_split(n)
    rows = heads(n)
    if split is None:
        for k, r in enumerate(rows):
            if k and r[0] == n:
                yield k, r[2] == "irreducible" or (
                    f"{r[2]} of size {n}", "irreducible")
        return
    a, b = split
    t = 3 ** a
    k0 = _crt_pair(1, 2, _crt_pair(2 % t, t, -2 % b, b), t * b)
    r = rows[k0]
    yield k0, (r[0] == n and r[2] == "reducible") or (
        f"{r[2]} of size {r[0]}", f"reducible of size {n}")


@_reference("prime-powers", lambda n: len(factorize(n)) == 1)
def _prime_powers(n, heads):
    (p, e), = factorize(n)
    for k, r in enumerate(heads(n)):
        if p != 2:
            want = k % p != 0
        else:
            want = (k % 2 == 1 or k == 2 ** (e - 1)
                    or (e >= 2 and k % 2 == 0 and (k // 2) % 2 == 1))
        yield k, (r[2] == "irreducible") == want or (
            r[2], "irreducible" if want else "not irreducible")


@_reference("reducible-constructions", lambda n: True)
def _reducible_constructions(n, heads):
    rows = heads(n)
    for p, mult in factorize(n):
        if p != 2 and mult >= 2:
            r = rows[n // p]
            yield n // p, (r[0] == 2 * p and r[2] == "reducible") or (
                f"{r[2]} of size {r[0]}", f"reducible of size {2 * p}")
    if n % 16 == 0:
        r = rows[n // 4]
        yield n // 4, (r[0] == 8 and r[2] == "reducible") or (
            f"{r[2]} of size {r[0]}", "reducible of size 8")
    for m in _divisors(n):
        u = n // m
        if m <= 1 or u <= 1 or gcd(m, u) != 1 or m % 2 == 0 or m % 3 == 0:
            continue
        want = 6 * m if u > 2 else 3 * m
        found = any(r[2] == "reducible" and r[0] == want and gcd(k, n) == 1
                    for k, r in enumerate(rows))
        yield -1, found or (
            f"no unit k reducible of size {want}",
            f"some unit k reducible of size {want} (split {u} * {m})")


@_reference("special-sizes", lambda n: n > 2)
def _special_sizes(n, heads):
    rows = heads(n)[1:]
    reasons = {s: _special_reason(n, s) for s in {r[0] for r in rows}}
    for k, r in enumerate(rows, 1):
        if reasons[r[0]]:
            yield k, r[2] == "irreducible" or (
                f"{r[2]} of size {r[0]}", f"irreducible ({reasons[r[0]]})")


@_reference("overshoot-3m", _three_m)
def _overshoot_3m(n, heads):
    for k, r in enumerate(heads(n)):
        if n < r[0] != n + n // 3:
            yield k, r[2] == "reducible" or (f"{r[2]} of size {r[0]}", "reducible")


@_reference("unbounded-family", [3 * p for p in (5, 7, 11, 13, 17, 19)])
def _unbounded_family(n, heads):
    p = n // 3
    k = p + 2 if p % 3 == 1 else p - 2
    r = heads(n)[k]
    yield k, (r[0] == 4 * p and r[2] == "irreducible") or (
        f"{r[2]} of size {r[0]}", f"irreducible of size {4 * p}")


def reference_moduli(theorem_id, lo, hi):
    """The moduli the reference of the law runs on over [lo, hi]."""
    hypothesis, _ = REFERENCE[theorem_id]
    if not callable(hypothesis):
        return hypothesis
    return [n for n in range(max(lo, 2), hi + 1) if hypothesis(n)]


def reference_heads(lo, hi):
    """heads(n): the fill_rows verdict records of every modulus the
    references read over [lo, hi], the odd halves that three-h-criterion
    reads included."""
    moduli = {n for i in REFERENCE for n in reference_moduli(i, lo, hi)}
    moduli |= {n // 2 for n in reference_moduli("three-h-criterion", lo, hi)}
    return {n: heads for n, heads, _ in fill_rows(moduli)}.__getitem__


def law_items(theorem_id, lo, hi, heads=None, tuples=None):
    """(reference, battery): the (n, k, verdict) of every pair the law
    covers over [lo, hi], as the reference yields them over heads
    (reference_heads by default) and as the battery's check yields them
    over the Tuples of the source tuples (a fill_tuples of the moduli
    verify._scope gives the law, by default), each class tuple expanded
    to its k (Tuples.indexes). Both are n ascending, the reference in its
    own order and the battery's tuples expanded and merged by k (an
    existence claim, k = -1, keeps its place among the items of its
    modulus)."""
    heads = heads or reference_heads(lo, hi)
    moduli = _scope(theorem_id, lo, hi)[0]
    if tuples is None:
        tuples = {t.n: t for t in fill_tuples(moduli)}.__getitem__
    check = REFERENCE[theorem_id][1]
    reference = [(n, k, verdict)
                 for n in reference_moduli(theorem_id, lo, hi)
                 for k, verdict in check(n, heads)]
    battery = []
    for n in moduli:
        t, expanded, ks = tuples(n), [], {}     # ks: tuple -> its k
        for k, i in enumerate(t.indexes()):
            ks.setdefault(i, []).append(k)
        for where, verdict in _LAWS[theorem_id][0](n, t):
            if isinstance(where, list):
                battery += [(n, k, verdict) for k in where]
            else:
                expanded += [(k, verdict) for k in ks[where]]
        battery += [(n, k, verdict) for k, verdict in sorted(expanded, key=lambda e: e[0])]
    return reference, battery


def law_mismatches(lo, hi, heads=None):
    """(theorem id, first differing item) for every law whose battery
    covers other pairs over [lo, hi] than its reference, or reports
    other verdicts for them; and the number of pairs compared."""
    heads = heads or reference_heads(lo, hi)
    bad, pairs = [], 0
    for theorem_id in REFERENCE:
        reference, battery = law_items(theorem_id, lo, hi, heads)
        pairs += len(reference)
        if reference != battery:
            first = next((a, b) for a, b in itertools.zip_longest(reference, battery)
                         if a != b)
            bad.append((theorem_id, first))
    return bad, pairs
