"""Command line front end, on the standard library alone.

Subcommands: size, classify, oplus, witness, verify, survey. Exit codes:
0 on success, 1 on verification failure or unwritable output (stdout,
help text included, or --out, reported in one stderr line), 2 on usage
errors. All stdout output ends with exactly one trailing newline; only
an empty JSON survey prints nothing, to stdout or --out. A usage error
prints the shape click gave to stderr: the line "Usage: frieze-mod CMD
[OPTIONS] ARGS", the hint "Try 'frieze-mod CMD --help' for help.", a
blank line and "Error: <message>". --help lists the commands, and after
a command its options.

main(argv) parses one command line and returns the exit code; cli is
the handle click.testing.CliRunner drives (a name and a main that raises
SystemExit). Run on the process's own command line (no argv), main
also registers an exit handler (_end) that ends the process with that
code once stdout and stderr are flushed, without the interpreter's
finalization. Each command is a plain function of its parsed arguments
that prints its answer and returns 1 on failure. One table (_SPECS)
declares each command's arguments and options. A well-formed line is
read from it directly (_well_formed); argparse builds a parser from the
same table (usage._parse) only for --help, for a line it declines
(--out, --opt=value, --, a repeated option) and for a usage error, so
it stays the one source of help text and parse errors.

classify and witness share one front (_pair): the modulus, size-limit
and --force gates, then their one pair by descent (pair._pair_row,
through ring._front, the size command's front).
survey opens its destination (stdout or --out), then writes its range a
modulus at a time (rows._table) as rows.fill_rows reads each from the
one class-tuple fill that the law battery reads too (rows.fill_tuples),
so its memory does not grow with its table, and an internal error comes
after the lines of the moduli before it. Each decides afresh on every
run and prints straight from fields 0-2 of a pair's verdict record,
its (size, sign, kind), and its witness. --no-cache is accepted for
compatibility and does nothing: main drops it after either parse. No
command reads or writes a file besides --out. N and K are plain
integers; K is taken mod N and may be negative.

This module imports only sys at load time. Each command imports the
package modules (and json) it runs: size loads ring alone (its size
front, ring._front), classify and witness pair and ring, survey rows,
pair and ring, verify verify, rows, pair and ring, and oplus cycles.
The help texts and the argparse parser (usage) load only for --help and
for a line the direct parse declines. No import runs per (n, k) pair.
"""

import sys

# classify and witness above this modulus, and survey ranges reaching
# past it, need --force. For classify and witness the gate bounds what
# they print, not how long they search. Below SIZE_LIMIT a pair's size
# and prime-power classes take milliseconds, but nothing bounds the
# first-corner scan of pair._verdict, about S / (2 * max D_q) steps: at
# N = 2**64 - 1, k = 3 needs about 2.3e8 of them. A witness prints all
# its entries, and of 200 random pairs with 2**20 <= N < 2**64, 76 were
# reducible, with witnesses of 5.3e11 to 1.7e18 entries.
FORCE_LIMIT = 2000

# size, classify and witness factor the modulus and the p +- 1 of its
# primes; Pollard-Brent keeps that to milliseconds below this bound.
SIZE_LIMIT = 2 ** 64


class UsageError(Exception):
    """A bad command line; main prints it under the command's usage and
    exits 2."""


def _check_modulus(n: int) -> None:
    if n < 2:
        raise UsageError(f"modulus must be >= 2, got {n}")


def _check_size_limit(command: str, n: int) -> None:
    if n >= SIZE_LIMIT:
        raise UsageError(f"{command} needs a modulus below 2**64, got {n}")


def _check_force(n: int, force: bool) -> None:
    if n > FORCE_LIMIT and not force:
        raise UsageError(
            f"modulus {n} is above {FORCE_LIMIT}; pass --force to allow it")


def _emit(chunks, out: str | None) -> int:
    """Write each string of chunks as it comes, to stdout or to the file
    out, which is opened before the first chunk is made; 1 if the file
    cannot be written."""
    if out is None:
        sys.stdout.writelines(chunks)
        return 0
    try:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    except OSError as e:
        print(f"cannot write {out}: {e}", file=sys.stderr)
        return 1
    return 0


def size(n: int, k: int):
    """Minimal constant-solution size for K mod N, for 2 <= N < 2**64.

    Prints the size alone when the product is the identity, and with an
    ", -Id" suffix when it is the negated identity.
    """
    _check_modulus(n)
    _check_size_limit("size", n)
    from .ring import _front
    lcm_value, multiplier, sign = _front(n, k)[3]
    s = multiplier * lcm_value
    print(f"{s}, -Id" if sign < 0 else s)


def _bordered(k: int, w: int, x: int, y: int) -> str:
    """The entry list x,k,...,k,y of a witness of size w."""
    return ",".join(map(str, (x, *(k,) * (w - 2), y)))


def _pair(command: str, n: int, k: int, force: bool):
    """The front of classify and witness: the modulus, size-limit and
    --force gates, then (k mod n, its (verdict, wit) from pair._pair_row),
    which reads ring._front: n factored once, one descent per
    prime-power factor and the 3N cap checked before any corner scan."""
    _check_modulus(n)
    _check_size_limit(command, n)
    _check_force(n, force)
    from .pair import _pair_row
    return k % n, _pair_row(n, k)


def classify(n: int, k: int, force: bool):
    """Verdict for the minimal constant-K solution mod N."""
    k, ((size, _, kind, _), wit) = _pair("classify", n, k, force)
    if wit:
        print(f"reducible; witness size {wit[0]}: ({_bordered(k, *wit[:3])})")
    elif kind == "irreducible":
        print(f"irreducible; size {size}")
    else:
        print(f"zero-convention; size {size}: (0,0)")


def witness(n: int, k: int, force: bool):
    """Smallest reduction witness for K mod N as a bare entry list.

    Prints "none" when the minimal solution has no witness (it is
    irreducible or the zero pair).
    """
    k, (_, wit) = _pair("witness", n, k, force)
    print(_bordered(k, *wit[:3]) if wit else "none")


def oplus_cmd(n: int, a: str, b: str):
    """Endpoint-merging sum of two entry lists mod N.

    Entry lists are comma separated, e.g. "1,1,3". Both need size >= 2.
    """
    _check_modulus(n)
    from .cycles import Cycle, oplus as cycle_oplus
    try:
        out = cycle_oplus(Cycle.parse(a, n), Cycle.parse(b, n))
    except ValueError as e:
        raise UsageError(str(e)) from None
    print(out)


def verify(theorem_id: str, lo: int, hi: int, out: str | None):
    """Replay one structural law (or "all") over a modulus range.

    Emits a JSON report per verifier; exits 1 if any run fails.
    """
    if lo < 2:
        raise UsageError(f"--min must be >= 2, got {lo}")
    if hi < lo:
        raise UsageError(f"--max ({hi}) is below --min ({lo})")
    import json
    from .verify import run_all, run_verifier
    if theorem_id == "all":
        reports = run_all(lo, hi)
    else:
        try:
            reports = [run_verifier(theorem_id, lo, hi)]
        except KeyError as e:
            raise UsageError(f"{e.args[0]}, all") from None
    payload = [r.to_dict() for r in reports]
    text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    return _emit([text + "\n"], out) or int(any(r.status == "fail" for r in reports))


def survey(lo: int, hi: int, fmt: str, out: str | None, force: bool):
    """Classification table for every k over a range of moduli.

    CSV has a fixed header and no quoting (all fields numeric or bare
    words); JSON is one object per line with the same field names. An
    empty range produces just the header (or nothing for JSON).
    """
    if lo < 2:
        raise UsageError(f"--min must be >= 2, got {lo}")
    if lo <= hi:
        _check_force(hi, force)
    from .rows import _table, fill_rows
    # lazy: _emit opens the destination, then each modulus is decided and
    # written in one write (not one per line: stdout may be unbuffered)
    return _emit(_table(fmt, fill_rows(range(lo, hi + 1))), out)


# Command name -> its function. main calls the module global of that
# function's name, so a function rebound in this module (a tracer's
# wrapper) is the one that runs; the help texts come from these.
_COMMANDS = {"classify": classify, "oplus": oplus_cmd, "size": size,
             "survey": survey, "verify": verify, "witness": witness}

# Each command's declaration, which both the argparse parser (usage._parser)
# and the parse of a well-formed command line (_well_formed) read: its
# positional arguments (N and K are integers, the others strings), then
# its options in the order --help lists them, each as (flag, dest, kind,
# default, help). kind is int, "FILE" (a path that is not a directory),
# a tuple of choices, or None for a switch; the default ... marks a
# required option.
_SWITCHES = (
    # scripts written while the commands kept a result cache still pass it
    ("--no-cache", "no_cache", None, False,
     "Accepted for compatibility; there is no cache."),
    ("--force", "force", None, False, f"Allow moduli above {FORCE_LIMIT}."))
_SPECS = {
    "size": ("N K", ()),
    "classify": ("N K", _SWITCHES),
    "witness": ("N K", _SWITCHES),
    "oplus": ("N A B", ()),
    "verify": ("THEOREM_ID", (
        ("--min", "lo", int, 2, "Smallest modulus in the sweep. [default: 2]"),
        ("--max", "hi", int, 150, "Largest modulus in the sweep. [default: 150]"),
        ("--out", "out", "FILE", None,
         "Write the JSON report to this file instead of stdout."))),
    "survey": ("", (
        ("--min", "lo", int, 2, "Smallest modulus surveyed. [default: 2]"),
        ("--max", "hi", int, ..., "Largest modulus surveyed. [required]"),
        ("--format", "fmt", ("csv", "json"), "csv", "[default: csv]"),
        ("--out", "out", "FILE", None,
         "Write the table to this file instead of stdout."),
        *_SWITCHES)),
}

_USAGE = "frieze-mod [OPTIONS] COMMAND [ARGS]..."


def _usage(name: str) -> str:
    """The usage line of one command, after "Usage: "."""
    return f"frieze-mod {name} [OPTIONS] {_SPECS[name][0]}".rstrip()


def _operand(token: str) -> bool:
    """Whether argparse takes token as an argument, not an option, by
    the rule _well_formed keeps to: it does not start with a dash, or it
    is a dash and ASCII digits (a negative integer)."""
    return token[:1] != "-" or token[1:].isdigit() and token[1:].isascii()


def _well_formed(name: str, rest: list):
    """The arguments of a well-formed command line as a dict, exactly
    what usage._parse(cli, name, rest) gives, read from the command's
    _SPECS entry without argparse; None for any other line, which the
    argparse parser then reads (and reports): --help, --out, --opt=value,
    --, a repeated or unknown option, a dash token that is not a negative
    integer, a value int() or the choices reject, and a wrong count of
    arguments. Every token of an oplus line but -- is an operand, as
    usage._parse reads it (entry lists such as -2,0,2 are no options)."""
    oplus = name == "oplus"
    if oplus:
        if "--help" in rest:
            return None
        rest = [token for token in rest if token != "--"]
    args, options = _SPECS[name]
    flags = {flag: (dest, kind) for flag, dest, kind, _, _ in options
             if kind != "FILE"}
    opts = {dest: default for _, dest, _, default, _ in options}
    values, operands = [], []       # (dest, kind, token); tokens
    tokens = iter(rest)
    for token in tokens:
        if oplus or _operand(token):
            operands.append(token)
        elif token not in flags:
            return None
        else:
            dest, kind = flags.pop(token)     # so a repeat is unknown
            if kind is None:
                opts[dest] = True
            elif _operand(value := next(tokens, "-")):
                values.append((dest, kind, value))
            else:
                return None
    metavars = args.split()
    if len(operands) != len(metavars):
        return None
    values += [(m.lower(), int if m in ("N", "K") else str, token)
               for m, token in zip(metavars, operands)]
    for dest, kind, token in values:
        if isinstance(kind, tuple):
            if token not in kind:
                return None
            opts[dest] = token
            continue
        try:
            opts[dest] = kind(token)
        except ValueError:
            return None
    if ... in opts.values():
        return None
    return opts


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default); returns the exit
    code: 0, 1 when the command fails or stdout cannot be written, 2 on a
    usage error.

    Run on the process's own command line (argv None: the frieze-mod
    script, python -m frieze_mod.cli, sys.exit(main())), main registers
    _end with this code as its last act, so the process ends without the
    interpreter's finalization. An exception that escapes main registers
    nothing."""
    if argv is not None:
        return _run(list(argv))
    code = _run(sys.argv[1:])
    import atexit
    atexit.register(_end, code)
    return code


def _end(code: int) -> None:
    """The exit handler main registers last, so it runs first: flush
    stdout and stderr, then end the process with code (os._exit). The
    interpreter's module teardown, with its garbage collections, and
    every exit handler registered before main returned are skipped;
    handlers registered after it still run. The exit is left to the
    interpreter, which reports it as it would have, when an exception
    escaped after main returned (sys.last_value) or a flush fails (a
    stream closed or set to None, a reader gone)."""
    if hasattr(sys, "last_value"):
        return
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        return
    import os
    os._exit(code)


def _run(args: list) -> int:
    """Run the command line args; the exit code main returns."""
    usage, prog = _USAGE, "frieze-mod"
    try:
        if args[:1] == ["--help"]:
            from .usage import _help
            print(_help(sys.modules[__name__]), end="")
            sys.stdout.flush()
            return 0
        if not args or args[0] not in _COMMANDS:
            raise UsageError(
                "Missing command." if not args else
                f"No such option: {args[0]}" if args[0].startswith("-") else
                f"No such command '{args[0]}'.")
        name, rest = args[0], args[1:]
        usage, prog = _usage(name), f"frieze-mod {name}"
        opts = _well_formed(name, rest)
        if opts is None:
            from .usage import _parse
            try:
                opts = _parse(sys.modules[__name__], name, rest)
            except SystemExit as e:     # --help printed the command's help
                sys.stdout.flush()
                return e.code
        opts.pop("no_cache", None)      # a switch that changes nothing
        code = globals()[_COMMANDS[name].__name__](**opts) or 0
        sys.stdout.flush()
        return code
    except UsageError as e:
        sys.stderr.write(f"Usage: {usage}\nTry '{prog} --help' for help.\n"
                         f"\nError: {e}\n")
        return 2
    except OSError as e:
        # a reader that went away (say, | head) stops quietly; any other
        # failed write to stdout (a full disk) says so. Either way the
        # unflushed rest of stdout goes nowhere
        if not isinstance(e, BrokenPipeError):
            sys.stderr.write(f"cannot write stdout: {e}\n")
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


class _Handle:
    """The command line as click.testing.CliRunner drives it: a name and
    a main that exits with the code of main()."""

    name = "frieze-mod"

    @staticmethod
    def main(args=None, prog_name=None):
        raise SystemExit(main(args))


cli = _Handle()


if __name__ == "__main__":
    sys.exit(main())
