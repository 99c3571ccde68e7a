"""Command line front end.

Subcommands: size, classify, oplus, witness, verify, survey. Exit codes:
0 on success, 1 on verification failure or unwritable output, 2 on usage
errors. All stdout output ends with exactly one trailing newline.

classify and witness decide their one pair, and survey each modulus as a
whole row, afresh on every run, and print straight from the flat rows of
rows.py. --no-cache is accepted for compatibility and does nothing; no
command reads or writes a file besides --out. N and K are plain integers;
K is taken mod N and may be negative.

Each command imports the package modules (and json) it runs: size loads
monomial and ring, classify, witness and survey only rows, verify
verify, rows and ring, and oplus cycles. No import runs per (n, k) pair.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional

import click

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


# Arguments may be negative numbers (K, entry lists); keep click from
# reading them as options.
_NEGATIVE_ARGS = {"ignore_unknown_options": True}

# Scripts written while the commands kept a result cache still pass this.
_no_cache = click.option("--no-cache", is_flag=True, expose_value=False,
                         help="Accepted for compatibility; there is no cache.")


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


@cli.command(context_settings=_NEGATIVE_ARGS)
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


def _bordered(k: int, w: int, x: int, y: int) -> str:
    """The entry list x,k,...,k,y of a witness of size w."""
    return ",".join(map(str, (x, *(k,) * (w - 2), y)))


@cli.command(context_settings=_NEGATIVE_ARGS)
@click.argument("n", type=int)
@click.argument("k", type=int)
@_no_cache
@click.option("--force", is_flag=True,
              help=f"Allow witness searches above modulus {FORCE_LIMIT}.")
def classify(n: int, k: int, force: bool):
    """Verdict for the minimal constant-K solution mod N."""
    _check_modulus(n)
    _check_force(n, force)
    from .rows import _pair_row
    k %= n
    size, _, kind, w, x, y, _ = _pair_row(n, k)
    if w:
        click.echo(f"reducible; witness size {w}: ({_bordered(k, w, x, y)})")
    elif kind == "irreducible":
        click.echo(f"irreducible; size {size}")
    else:
        click.echo(f"zero-convention; size {size}: (0,0)")


@cli.command(context_settings=_NEGATIVE_ARGS)
@click.argument("n", type=int)
@click.argument("k", type=int)
@_no_cache
@click.option("--force", is_flag=True,
              help=f"Allow witness searches above modulus {FORCE_LIMIT}.")
def witness(n: int, k: int, force: bool):
    """Smallest reduction witness for K mod N as a bare entry list.

    Prints "none" when the minimal solution has no witness (it is
    irreducible or the zero pair).
    """
    _check_modulus(n)
    _check_force(n, force)
    from .rows import _pair_row
    k %= n
    w, x, y = _pair_row(n, k)[3:6]
    click.echo(_bordered(k, w, x, y) if w else "none")


@cli.command(name="oplus", context_settings=_NEGATIVE_ARGS)
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


def _csv_lines(n: int, rows: list) -> list[str]:
    """The lines of modulus n, one per row of decide_row(n)."""
    return [f"{n},{k},{size},{sign},{kind},,," if ws is None else
            f"{n},{k},{size},{sign},{kind},{ws},{x},{y}"
            for k, (size, sign, kind, ws, x, y, _) in enumerate(rows)]


def _json_lines(n: int, rows: list) -> list[str]:
    """The lines json.dumps gives for each row's dict: every field is an
    int, null or one of the three bare verdict words."""
    return [f'{{"N": {n}, "k": {k}, "size": {size}, "sign": {sign}, '
            f'"verdict": "{kind}", "witness_size": null, '
            f'"witness_x": null, "witness_y": null}}' if ws is None else
            f'{{"N": {n}, "k": {k}, "size": {size}, "sign": {sign}, '
            f'"verdict": "{kind}", "witness_size": {ws}, '
            f'"witness_x": {x}, "witness_y": {y}}}'
            for k, (size, sign, kind, ws, x, y, _) in enumerate(rows)]


@cli.command()
@click.option("--min", "lo", type=int, default=2, show_default=True,
              help="Smallest modulus surveyed.")
@click.option("--max", "hi", type=int, required=True,
              help="Largest modulus surveyed.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the table to this file instead of stdout.")
@_no_cache
@click.option("--force", is_flag=True,
              help=f"Allow witness searches above modulus {FORCE_LIMIT}.")
def survey(lo: int, hi: int, fmt: str, out: Optional[str], force: bool):
    """Classification table for every k over a range of moduli.

    CSV has a fixed header and no quoting (all fields numeric or bare
    words); JSON is one object per line with the same field names. An
    empty range produces just the header (or nothing for JSON).
    """
    if lo < 2:
        raise click.UsageError(f"--min must be >= 2, got {lo}")
    _check_force(hi, force)
    from .rows import decide_row
    format_lines = _csv_lines if fmt == "csv" else _json_lines
    lines = [_CSV_HEADER] if fmt == "csv" else []
    for n in range(lo, hi + 1):
        lines += format_lines(n, decide_row(n))
    _emit("\n".join(lines), out)


def main():
    cli(prog_name="frieze-mod")


if __name__ == "__main__":
    main()
