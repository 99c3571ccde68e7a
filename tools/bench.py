"""Write a BENCH_<pr>.json: the figures of this checkout that no other
tool measures.

    python3 tools/bench.py --out BENCH_31.json        # about 100 s
    python3 tools/bench.py --base HEAD~1 --out paired.json   # about 3 minutes
    python3 tools/bench.py --smoke --out bench.json   # a few seconds

Each of RUNS rounds runs, as children of this process:
  - each command of COMMANDS as a child of its own, right after a child
    of the interpreter floor python -c pass: each one's spawn-to-exit
    wall time, and its peak RSS from os.wait4;
  - each command of REACH the same way, with no floor run before it,
    reported in its own section.
  - each run of LAYERS in a child of its own, in process: the own time
    and call count of each phase of PHASES (layer_child), the time of
    each law's check from its report's elapsed_ms, and the rest of the
    run, reported in the layers section.
The code_lines section counts the lines of each module of
src/frieze_mod/ that hold code (not blank, not comment-only, not inside
a docstring), and their total.
The order rotates from round to round, so that a host whose speed drifts
spreads the drift over every figure rather than over the last ones.
Each figure is the median and quartiles (inclusive method) of its runs.
The floor's figure holds every floor run, one per command and round.
Each command's wall time also has an above_floor figure: the median and
quartiles of its per-round differences to the floor run just before it,
since the floor drifts with the host within one file, and a difference
of adjacent runs is what the package's own start-up and work cost.
The floor includes the interpreter's finalization, which a command
line skips (cli.main ends the process from an exit handler), so a
quick command's above_floor may read below zero.
A BENCH file holds the figures of one checkout, unless --base REV names
a second tree: two trees are compared by alternated runs, not across
files, whose hosts may have been loaded otherwise. --base unpacks REV's
committed files from this repository (git archive, no network) into the
temporary directory of the run (below). The run then has PAIRED_RUNS
rounds, recorded as paired_runs, and each round runs the floor and
each command of COMMANDS on both trees, the floor right before each
command as above, and swaps which tree goes first from one round to
the next. The base section holds the base tree's commit and
figures; each command's vs_base is the figure of its per-round ratios,
this tree's wall time over the base's (the floor's too: the same
program on both sides, so its ratio shows the pairing's noise), and
won counts the rounds this tree was faster. loadavg holds
os.getloadavg() at the start of each round. Reach and layer runs stay
unpaired: they run on this tree alone, in the first RUNS rounds only.
Every child runs on a copy in a temporary directory, removed when the
run ends: of this checkout's src (uncommitted edits included) and of
REV's. Both copies are compiled before the first round, so neither
side's first run compiles them, and no run writes bytecode into the
checkout. (A PYTHONPYCACHEPREFIX would keep bytecode out of it too, but
it moves the standard library's bytecode as well: where
PYTHONDONTWRITEBYTECODE is set, each child then compiles its start-up
modules, and python -c pass took 173 ms against 37 ms on 2 cores,
Python 3.11.7.)
No perfbench workload runs here: perfbench/run.py measures
them itself, and the tests and CI check the commands' outputs. The
Python version, the commit and the CPUs this process may run on (nproc)
are read here.
--smoke runs the two quickest commands and the reach commands and layer
runs over small ranges only, in RUNS rounds with --base too; it checks
the file's shape, and its figures are no measurement.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "import sys; from frieze_mod.cli import main; sys.exit(main())"
RUNS = 3
# The rounds of a full --base run's floor and headline commands: three
# left classify 9699690 2 --force's ratio at 0.987 [0.945, 1.272] in
# BENCH_51.json, too wide to tell a few percent apart.
PAIRED_RUNS = 10
FLOOR = "python -c pass"
# The headline commands of ROADMAP.md's table, which no workload runs,
# and one oplus line, whose time is start-up and the parse of its line.
COMMANDS = ("verify all --max 600", "verify all --max 2000",
            "survey --max 1000 --force", "survey --max 2000 --force",
            "classify 1999 77", "witness 1234 617", "oplus 10 1,1,3 -2,0,2",
            "classify 9699690 2 --force",
            "classify 18446744073709551557 3 --force",
            "size 18446744073709551615 3")
SMOKE_COMMANDS = ("size 18446744073709551615 3",)
# Ranges past the headline commands, where the range fill's memo, not
# start-up, sets the time and the peak RSS.
REACH = ("verify all --max 10000", "survey --max 5000 --force")
SMOKE_REACH = ("verify all --max 100", "survey --max 100 --force")
# In-process runs split into phases: a survey command line, or run_all
# over [lo, hi], as the sweep workload's verify all runs it.
LAYERS = ("survey --max 250", "run_all 2 250",
          "survey --max 1000 --force", "run_all 2 2000")
SMOKE_LAYERS = ("survey --max 60", "run_all 2 60")
# Each phase a layer run times: its name, whether it is a generator
# function (timed per next()), and the modules that hold it, the
# importers by name included. A phase's own time leaves out the phases
# it calls (rows.fill_rows pulls rows.fill_tuples, and survey's
# rows._table pulls rows.fill_rows).
PHASES = (("rows.fill_tuples", True, ("rows", "verify")),
          ("rows.fill_rows", True, ("rows", "verify")),
          ("rows._orbits", False, ("rows",)),
          ("ring._class", False, ("ring", "rows")),
          ("pair._verdict", False, ("pair", "rows")),
          ("pair._witness", False, ("pair", "rows")),
          ("rows._table", True, ("rows",)))
PACKAGE = ROOT / "src" / "frieze_mod"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def child(argv: list[str], root: Path) -> tuple[float, float]:
    """Run python with argv from the root of a tree to exit, on that
    tree's src, stdout discarded: (wall ms, peak RSS in MB). A nonzero
    exit raises RuntimeError."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = (time.perf_counter() - t0) * 1000
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: "
                               f"{err.read()[-300:].decode(errors='replace')}")
    return wall, usage.ru_maxrss / 1024


def figure(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values)}


def code_lines(source: str) -> int:
    """The lines of a Python source that hold code: not blank, not
    comment-only and not inside a docstring (the first statement of a
    module, class or function body, when it is a bare string)."""
    tree = ast.parse(source)
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def layer_child(run: str) -> None:
    """Print, as one JSON line, the layers of one run of LAYERS in this
    process: its total ms, the own ms and call count of each phase of
    PHASES, each law's check ms (run_all only, from its report's
    elapsed_ms) and the other ms, the rest of the total. Each phase is
    wrapped where its module and the modules that import it by name
    hold it; the wrappers' own cost falls in the phases: survey --max
    1000 --force took 393 ms wrapped against 359 ms bare, about 0.4 us
    per call (2 cores, Python 3.11.7)."""
    from frieze_mod import cli, pair, ring, rows, verify

    modules = {"cli": cli, "pair": pair, "ring": ring, "rows": rows,
               "verify": verify}
    own, calls, stack = {}, {}, []     # stack: the nested time of each open phase

    def leave(name, t0):
        spent = time.perf_counter() - t0
        own[name] += spent - stack.pop()
        if stack:
            stack[-1] += spent

    def timed(name, fn):
        def call(*args):
            calls[name] += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                leave(name, t0)
        return call

    def timed_gen(name, fn):
        def call(*args):
            calls[name] += 1
            items = fn(*args)
            while True:
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    leave(name, t0)
                yield item
        return call

    for name, gen, holders in PHASES:
        own[name], calls[name] = 0.0, 0
        home, attr = name.split(".")
        wrapped = (timed_gen if gen else timed)(name, getattr(modules[home], attr))
        for module in holders:
            setattr(modules[module], attr, wrapped)
    argv = run.split()
    t0 = time.perf_counter()
    if argv[0] == "run_all":
        checks = {r.theorem_id: r.elapsed_ms
                  for r in verify.run_all(int(argv[1]), int(argv[2]))}
    else:
        checks = {}
        with tempfile.TemporaryDirectory() as tmp:
            if cli.main([*argv, "--out", os.path.join(tmp, "out")]):
                raise RuntimeError(f"{run} failed")
    total = (time.perf_counter() - t0) * 1000
    phases = {name: {"own_ms": own[name] * 1000, "calls": calls[name]}
              for name, _, _ in PHASES}
    other = total - sum(p["own_ms"] for p in phases.values()) - sum(checks.values())
    print(json.dumps({"total_ms": total, "other_ms": other, "phases": phases,
                      "checks_ms": checks}))


def layers(run: str, root: Path) -> dict:
    """One layer run (layer_child) in a child python on the tree at
    root: its figures. The child writes no bytecode of this tool."""
    code = ("import sys; sys.dont_write_bytecode = True; "
            "sys.path.insert(0, sys.argv[1]); "
            "from bench import layer_child; layer_child(sys.argv[2])")
    res = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools"), run],
                         cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, into: Path) -> Path:
    """The src directory of commit rev of this repository, unpacked from
    git archive under into: the root of a tree child() can run."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev, "src"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def tree_runs(commands: list[str], reach: list[str]) -> dict:
    """Empty run lists of one tree: the wall ms and peak RSS of each
    command and reach command, and (above) each command's wall ms less
    the floor run just before it, commands[0] being the floor."""
    return {"walls": {c: [] for c in commands + reach},
            "rss": {c: [] for c in commands + reach},
            "above": {c: [] for c in commands[1:]}}


def floor_then(c: str, root: Path, runs: dict) -> tuple[float, float]:
    """A floor run, then command c, on the tree at root, into its runs:
    (the floor's wall ms, c's wall ms)."""
    floor, peak = child(["-c", "pass"], root)
    runs["walls"][FLOOR].append(floor)
    runs["rss"][FLOOR].append(peak)
    wall, peak = child(["-c", ENTRY, *c.split()], root)
    runs["walls"][c].append(wall)
    runs["rss"][c].append(peak)
    runs["above"][c].append(wall - floor)
    return floor, wall


def command_figures(runs: dict, commands: list[str]) -> tuple[dict, dict]:
    """(commands_ms, commands_rss_mb) of one tree's runs."""
    ms = {c: figure(runs["walls"][c]) for c in commands}
    for c, diffs in runs["above"].items():
        ms[c]["above_floor"] = figure(diffs)
    return ms, {c: figure(runs["rss"][c]) for c in commands}


def measure(smoke: bool, head: Path, base: Path | None) -> dict:
    """Every round of the runs of the tree at head, this checkout's copy,
    and of the base tree's commands when base is the root of one: the
    report, less its provenance."""
    commands = [FLOOR, *(SMOKE_COMMANDS if smoke else COMMANDS)]
    reach = list(SMOKE_REACH if smoke else REACH)
    runs = list(SMOKE_LAYERS if smoke else LAYERS)
    trees = [head] if base is None else [head, base]
    rounds = RUNS if base is None or smoke else PAIRED_RUNS
    for root in trees:
        compileall.compile_dir(str(root / "src"), quiet=1)

    mine, theirs = tree_runs(commands, reach), tree_runs(commands, [])
    ratios = {c: [] for c in commands}     # this tree's wall ms over the base's
    loadavg = []
    split = {run: [] for run in runs}
    for r in range(rounds):
        loadavg.append(os.getloadavg())
        sides = list(zip(trees, (mine, theirs)))
        if r % 2:
            sides.reverse()
        # reach and layer runs take the first RUNS rounds only
        children = commands[1:] + (reach if r < RUNS else [])
        for c in children[r % len(children):] + children[:r % len(children)]:
            if c in reach:
                wall, peak = child(["-c", ENTRY, *c.split()], head)
                mine["walls"][c].append(wall)
                mine["rss"][c].append(peak)
                continue
            walls = {root: floor_then(c, root, side) for root, side in sides}
            if base is not None:
                for name, ours, its in zip((FLOOR, c), walls[head], walls[base]):
                    ratios[name].append(ours / its)
        if r >= RUNS:
            continue
        for run in runs[r % len(runs):] + runs[:r % len(runs)]:
            split[run].append(layers(run, head))

    commands_ms, commands_rss = command_figures(mine, commands)
    report = {
        "commands_ms": commands_ms,
        "commands_rss_mb": commands_rss,
        "reach": {c: {"ms": figure(mine["walls"][c]), "rss_mb": figure(mine["rss"][c])}
                  for c in reach},
        "layers": {run: {
            "total_ms": figure([f["total_ms"] for f in figs]),
            "other_ms": figure([f["other_ms"] for f in figs]),
            "phases": {name: {
                "own_ms": figure([f["phases"][name]["own_ms"] for f in figs]),
                "calls": figs[-1]["phases"][name]["calls"]}
                for name, _, _ in PHASES},
            "checks_ms": {i: figure([f["checks_ms"][i] for f in figs])
                          for i in figs[-1]["checks_ms"]}}
            for run, figs in split.items()},
    }
    if base is not None:
        for c, values in ratios.items():
            commands_ms[c]["vs_base"] = {**figure(values),
                                         "won": sum(v < 1 for v in values)}
        base_ms, base_rss = command_figures(theirs, commands)
        report["base"] = {"commands_ms": base_ms, "commands_rss_mb": base_rss}
        report["paired_runs"] = rounds
        report["loadavg"] = loadavg
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="the BENCH file to write")
    parser.add_argument("--smoke", action="store_true",
                        help="the smallest setting: checks the file's shape only")
    parser.add_argument("--base", metavar="REV",
                        help="a commit of this repository whose commands run "
                             "in alternated pairs with this checkout's")
    args = parser.parse_args()
    base_commit = None
    if args.base is not None:
        base_commit = git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
        if not base_commit:
            parser.error(f"--base: no commit {args.base!r} in {ROOT}")
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        head = Path(tmp, "head")
        shutil.copytree(ROOT / "src", head / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = None if base_commit is None else unpack(base_commit, Path(tmp, "base"))
        figures = measure(args.smoke, head, base)
    modules = {p.name: code_lines(p.read_text())
               for p in sorted(PACKAGE.glob("*.py"))}
    paired = base_commit is not None
    report = {
        "description": "Medians and quartiles of child process wall times "
                       "and peak RSS of the headline and reach commands, "
                       "and of the phases of in-process layer runs, at one "
                       "checkout" + (", with the headline commands run in "
                       "alternated pairs against a base commit" if paired
                       else "") + ", written by tools/bench.py.",
        "setting": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git("rev-parse", "HEAD") or None,
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "runs": RUNS,
        **figures,
        "code_lines": {"modules": modules, "total": sum(modules.values())},
    }
    if paired:
        report["base"] = {"commit": base_commit, **report["base"]}
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
