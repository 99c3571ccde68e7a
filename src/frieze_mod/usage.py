"""The help texts and the argparse parser of the command line.

cli.main imports this module only for --help, for a line that its
direct parse (cli._well_formed) declines, and for the usage error the
parse then finds, so a well-formed line compiles none of it; main reads
such a line with _parse. Each function reads the tables of the cli
module it is handed (_SPECS, _COMMANDS): python -m frieze_mod.cli runs
cli as __main__, and an import of frieze_mod.cli from here would load a
second copy of it, whose UsageError that main does not catch.
"""

import argparse
import os


def _doc(fn) -> str:
    return "\n".join(line.strip() for line in (fn.__doc__ or "").splitlines())


def _help(cli) -> str:
    lines = [f"Usage: {cli._USAGE}", "",
             "  Minimal constant solutions of the 2x2 plus/minus identity "
             "congruence.", "",
             "Options:", "  --help  Show this message and exit.", "", "Commands:"]
    for name, fn in cli._COMMANDS.items():
        summary = _doc(fn).partition("\n")[0]
        lines.append(f"  {name:<9} {summary}")
    return "\n".join(lines) + "\n"


class _Formatter(argparse.RawDescriptionHelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


def _out_file(path: str) -> str:
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File '{path}' is a directory.")
    return path


def _parser(cli, name: str):
    """The argparse parser of one command of cli, built from its _SPECS
    entry (only for the one that runs, and only when _well_formed
    declines the line). It raises cli.UsageError instead of exiting, and,
    like click, knows only --help, no abbreviations."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise cli.UsageError(message)

        def _print_message(self, message, file=None):
            # argparse's own swallows an OSError: a help text that cannot
            # be written must reach cli.main's stdout handler
            file.write(message)

    args, options = cli._SPECS[name]
    p = Parser(prog=f"frieze-mod {name}", usage=cli._usage(name),
               description=_doc(cli._COMMANDS[name]),
               formatter_class=_Formatter, add_help=False, allow_abbrev=False)
    p.add_argument("--help", action="help", help="Show this message and exit.")
    for metavar in args.split():
        p.add_argument(metavar.lower(), metavar=metavar,
                       type=int if metavar in ("N", "K") else str)
    for flag, dest, kind, default, text in options:
        if kind is None:
            p.add_argument(flag, dest=dest, action="store_true", help=text)
        elif isinstance(kind, tuple):
            p.add_argument(flag, dest=dest, choices=kind, default=default,
                           help=text)
        else:
            p.add_argument(flag, dest=dest,
                           type=int if kind is int else _out_file,
                           default=None if default is ... else default,
                           required=default is ..., help=text,
                           metavar="INTEGER" if kind is int else kind)
    return p


def _parse(cli, name: str, rest: list) -> dict:
    """The arguments of the command line rest of one command of cli, as
    its parser (_parser) reads them, no_cache included (cli.main drops
    it). Every token of an oplus line but -- is an operand (entry lists
    such as -2,0,2 are no options), unless the line asks for --help.
    Raises cli.UsageError, or SystemExit once --help has printed the
    command's help."""
    if name == "oplus" and "--help" not in rest:
        rest = ["--", *(a for a in rest if a != "--")]
    opts = vars(_parser(cli, name).parse_args(rest))
    # argparse drops a second -- that is a positional's operand and
    # hands that positional an empty list: the -- is its operand
    for m in cli._SPECS[name][0].split():
        if opts[m.lower()] == []:
            if m in ("N", "K"):
                raise cli.UsageError(f"argument {m}: invalid int value: '--'")
            opts[m.lower()] = "--"
    return opts
