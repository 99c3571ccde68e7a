"""Command line front end.

Subcommands: size, classify, oplus, witness, verify, survey. Exit codes:
0 on success, 1 on verification failure or unwritable output, 2 on usage
errors. All stdout output ends with exactly one trailing newline.

The classify/witness/survey commands keep a result cache with one small
JSON file per modulus, v2/<n>.json, mapping k to the survey row of
(n, k). It is purely an accelerator: runs with and without it produce
identical output. Its location is $FRIEZE_MOD_CACHE_DIR when set, else
the user cache directory. The single classify-cache.json of schema 1 is
ignored and safe to delete.

Each command imports the package modules (and json) it runs, so that
`size` loads only monomial and ring. No import runs per (n, k) pair.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import click

if TYPE_CHECKING:
    from .reduce import MonomialVerdict, ReductionWitness

SCHEMA_VERSION = 2

# Witness searches above this modulus need --force. They are still fast,
# but the guard keeps accidental huge sweeps from running unannounced.
FORCE_LIMIT = 2000

# size factors the modulus and the p +- 1 of its primes; Pollard-Brent
# keeps that to milliseconds below this bound.
SIZE_LIMIT = 2 ** 64


def _check_modulus(n: int) -> None:
    if n < 2:
        raise click.UsageError(f"modulus must be >= 2, got {n}")


def _check_force(n: int, force: bool) -> None:
    if n > FORCE_LIMIT and not force:
        raise click.UsageError(
            f"witness search at modulus {n} exceeds {FORCE_LIMIT}; "
            f"pass --force to run it")


def _cache_dir() -> Path:
    root = os.environ.get("FRIEZE_MOD_CACHE_DIR")
    if not root:
        xdg = os.environ.get("XDG_CACHE_HOME")
        root = (Path(xdg) if xdg else Path.home() / ".cache") / "frieze-mod"
    return Path(root) / f"v{SCHEMA_VERSION}"


def _row(v: MonomialVerdict) -> list:
    """The cache row of a verdict: its survey line without n and k, plus
    the witness sign; [size, sign, kind, w size, w x, w y, w sign]."""
    w = v.witness
    return [v.size, v.sign, v.kind,
            *((w.size, w.x, w.y, w.sign) if w else (None,) * 4)]


def _valid(r, n: int, k: int) -> bool:
    """Whether r is shaped like the row of (n, k): ints (never bools) in
    range, the kind k allows, and witness fields all present exactly when
    the kind is reducible."""
    if type(r) is not list or len(r) != 7:
        return False
    size, sign, kind, *w = r
    if not (type(size) is int and size >= 2
            and type(sign) is int and sign in (1, -1)):
        return False
    if kind == "reducible":
        ws, x, y, ws_sign = w
        return (k != 0 and all(type(e) is int for e in w) and 3 <= ws < size
                and 0 <= x < n and 0 <= y < n and ws_sign in (1, -1))
    return (kind == ("irreducible" if k else "zero-convention")
            and w == [None] * 4)


class _Cache:
    """On-disk row memo, one file per modulus, each read at most once
    and only when a row of its modulus is asked for. Advisory only: any
    read or write problem degrades to recomputing, never to failing the
    command, and a row that fails _valid is recomputed, never served."""

    def __init__(self, enabled: bool):
        import json
        from .reduce import decide_row, is_irreducible_monomial
        self._json = json
        self._decide = is_irreducible_monomial
        self._decide_row = decide_row
        self.enabled = enabled
        self.dir = _cache_dir()
        self.files: dict[int, dict] = {}
        self.dirty: set[int] = set()

    def _entries(self, n: int) -> dict:
        if n not in self.files:
            entries = None
            if self.enabled:
                try:
                    entries = self._json.loads((self.dir / f"{n}.json").read_text())
                except (OSError, ValueError):
                    pass
            self.files[n] = entries if isinstance(entries, dict) else {}
        return self.files[n]

    def row(self, n: int, k: int) -> list:
        """The row of (n, k), 0 <= k < n, from the cache or computed."""
        entries = self._entries(n)
        r = entries.get(str(k))
        if not _valid(r, n, k):
            r = entries[str(k)] = _row(self._decide(n, k))
            self.dirty.add(n)
        return r

    def rows(self, n: int) -> list:
        """Every row of n, k ascending, each stored row checked once. If
        any is missing or invalid, the whole modulus is decided and only
        those rows are replaced, in ascending k."""
        entries = self._entries(n)
        rows = [entries.get(str(k)) for k in range(n)]
        bad = [k for k, r in enumerate(rows) if not _valid(r, n, k)]
        if bad:
            fresh = self._decide_row(n)
            for k in bad:
                rows[k] = entries[str(k)] = fresh[k]
            self.dirty.add(n)
        return rows

    def save(self) -> None:
        if not self.enabled:
            return
        import tempfile
        for n in sorted(self.dirty):
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=str(self.dir), prefix=".cache-")
                with os.fdopen(fd, "w") as fh:
                    fh.write(self._json.dumps(self.files[n], separators=(",", ":")))
                os.replace(tmp, self.dir / f"{n}.json")
            except OSError:
                pass


def _cached_row(n: int, k: int,
                no_cache: bool) -> tuple[list, Optional[ReductionWitness]]:
    """The row of (n, k mod n) and its witness, if any; classify and
    witness rebuild no other object from the cache."""
    from .reduce import ReductionWitness
    k %= n
    cache = _Cache(not no_cache)
    try:
        r = cache.row(n, k)
    finally:
        cache.save()
    return r, (ReductionWitness(n, k, *r[3:]) if r[3] is not None else None)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        click.echo(text)
        return
    try:
        Path(out).write_text(text + "\n")
    except OSError as e:
        click.echo(f"cannot write {out}: {e}", err=True)
        sys.exit(1)


@click.group()
def cli():
    """Minimal constant solutions of the 2x2 plus/minus identity congruence."""


@cli.command()
@click.argument("n", type=int)
@click.argument("k", type=int)
def size(n: int, k: int):
    """Minimal constant-solution size for K mod N, for 2 <= N < 2**64.

    Prints the size alone when the product is the identity, and with an
    ", -Id" suffix when it is the negated identity.
    """
    _check_modulus(n)
    if n >= SIZE_LIMIT:
        raise click.UsageError(f"size needs a modulus below 2**64, got {n}")
    from .monomial import minimal_monomial_size
    s, sign = minimal_monomial_size(n, k)
    click.echo(f"{s}, -Id" if sign < 0 else str(s))


@cli.command()
@click.argument("n", type=int)
@click.argument("k", type=int)
@click.option("--no-cache", is_flag=True, help="Bypass the result cache.")
@click.option("--force", is_flag=True,
              help=f"Allow witness searches above modulus {FORCE_LIMIT}.")
def classify(n: int, k: int, no_cache: bool, force: bool):
    """Verdict for the minimal constant-K solution mod N."""
    _check_modulus(n)
    _check_force(n, force)
    r, w = _cached_row(n, k, no_cache)
    if w:
        click.echo(f"reducible; witness size {w.size}: ({w.cycle()})")
    elif r[2] == "irreducible":
        click.echo(f"irreducible; size {r[0]}")
    else:
        click.echo(f"zero-convention; size {r[0]}: (0,0)")


@cli.command()
@click.argument("n", type=int)
@click.argument("k", type=int)
@click.option("--no-cache", is_flag=True, help="Bypass the result cache.")
@click.option("--force", is_flag=True,
              help=f"Allow witness searches above modulus {FORCE_LIMIT}.")
def witness(n: int, k: int, no_cache: bool, force: bool):
    """Smallest reduction witness for K mod N as a bare entry list.

    Prints "none" when the minimal solution has no witness (it is
    irreducible or the zero pair).
    """
    _check_modulus(n)
    _check_force(n, force)
    _, w = _cached_row(n, k, no_cache)
    click.echo(str(w.cycle()) if w else "none")


# entry lists may start with a negative number; keep click from reading
# them as options
@cli.command(name="oplus", context_settings={"ignore_unknown_options": True})
@click.argument("n", type=int)
@click.argument("a")
@click.argument("b")
def oplus_cmd(n: int, a: str, b: str):
    """Endpoint-merging sum of two entry lists mod N.

    Entry lists are comma separated, e.g. "1,1,3". Both need size >= 2.
    """
    _check_modulus(n)
    from .cycles import Cycle, oplus as cycle_oplus
    try:
        out = cycle_oplus(Cycle.parse(a, n), Cycle.parse(b, n))
    except ValueError as e:
        raise click.UsageError(str(e)) from None
    click.echo(str(out))


@cli.command()
@click.argument("theorem_id")
@click.option("--min", "lo", type=int, default=2, show_default=True,
              help="Smallest modulus in the sweep.")
@click.option("--max", "hi", type=int, default=150, show_default=True,
              help="Largest modulus in the sweep.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report to this file instead of stdout.")
def verify(theorem_id: str, lo: int, hi: int, out: Optional[str]):
    """Replay one structural law (or "all") over a modulus range.

    Emits a JSON report per verifier; exits 1 if any run fails.
    """
    if lo < 2:
        raise click.UsageError(f"--min must be >= 2, got {lo}")
    if hi < lo:
        raise click.UsageError(f"--max ({hi}) is below --min ({lo})")
    import json
    from .verify import run_all, run_verifier
    if theorem_id == "all":
        reports = run_all(lo, hi)
    else:
        try:
            reports = [run_verifier(theorem_id, lo, hi)]
        except KeyError as e:
            raise click.UsageError(f"{e.args[0]}, all") from None
    payload = [r.to_dict() for r in reports]
    text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    _emit(text, out)
    if any(r.status == "fail" for r in reports):
        sys.exit(1)


_FIELDS = ("N", "k", "size", "sign", "verdict",
           "witness_size", "witness_x", "witness_y")
_CSV_HEADER = ",".join(_FIELDS)


def _csv_line(n: int, k: int, r: list) -> str:
    size, sign, kind, ws, x, y, _ = r
    if ws is None:
        return f"{n},{k},{size},{sign},{kind},,,"
    return f"{n},{k},{size},{sign},{kind},{ws},{x},{y}"


def _json_line(n: int, k: int, r: list) -> str:
    """The line json.dumps gives for the row's dict: every field is an
    int, null or one of the three bare verdict words (_valid)."""
    size, sign, kind, ws, x, y, _ = r
    if ws is None:
        return (f'{{"N": {n}, "k": {k}, "size": {size}, "sign": {sign}, '
                f'"verdict": "{kind}", "witness_size": null, '
                f'"witness_x": null, "witness_y": null}}')
    return (f'{{"N": {n}, "k": {k}, "size": {size}, "sign": {sign}, '
            f'"verdict": "{kind}", "witness_size": {ws}, '
            f'"witness_x": {x}, "witness_y": {y}}}')


@cli.command()
@click.option("--min", "lo", type=int, default=2, show_default=True,
              help="Smallest modulus surveyed.")
@click.option("--max", "hi", type=int, required=True,
              help="Largest modulus surveyed.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the table to this file instead of stdout.")
@click.option("--no-cache", is_flag=True, help="Bypass the result cache.")
@click.option("--force", is_flag=True,
              help=f"Allow witness searches above modulus {FORCE_LIMIT}.")
def survey(lo: int, hi: int, fmt: str, out: Optional[str],
           no_cache: bool, force: bool):
    """Classification table for every k over a range of moduli.

    CSV has a fixed header and no quoting (all fields numeric or bare
    words); JSON is one object per line with the same field names. An
    empty range produces just the header (or nothing for JSON).
    """
    if lo < 2:
        raise click.UsageError(f"--min must be >= 2, got {lo}")
    _check_force(hi, force)
    cache = _Cache(not no_cache)
    line = _csv_line if fmt == "csv" else _json_line
    lines = [_CSV_HEADER] if fmt == "csv" else []
    try:
        for n in range(lo, hi + 1):
            lines += [line(n, k, r) for k, r in enumerate(cache.rows(n))]
    finally:
        cache.save()
    _emit("\n".join(lines), out)


def main():
    cli(prog_name="frieze-mod")


if __name__ == "__main__":
    main()
