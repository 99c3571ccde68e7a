"""The BENCH file driver (tools/bench.py) at its smallest setting: the
shape of the file it writes, not its timings."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIGURE = {"median", "q1", "q3", "runs"}
FLOOR = "python -c pass"


def test_smoke_run_writes_a_bench_file(tmp_path):
    out = tmp_path / "BENCH_0.json"
    res = subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"),
                          "--smoke", "--out", str(out)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    bench = json.loads(out.read_text())
    assert set(bench) == {"description", "setting", "python", "nproc", "commit",
                          "dirty", "runs", "commands_ms", "commands_rss_mb",
                          "reach", "layers", "code_lines"}
    assert bench["setting"] == "smoke" and bench["runs"] >= 3
    assert bench["python"] == sys.version.split()[0]
    assert isinstance(bench["nproc"], int) and bench["nproc"] >= 1
    assert bench["commit"] is None or len(bench["commit"]) == 40
    assert set(bench["commands_ms"]) == set(bench["commands_rss_mb"]) > {FLOOR}
    # each command's wall time less that of the floor run just before it,
    # round by round: the figure of those paired differences. The smoke
    # setting runs one command, so the floor runs once per round, before
    # it. Of 3 runs, the inclusive quartiles are the means of the lower
    # two and of the upper two, so a figure gives back the sum of its
    # runs, and the differences sum to the command's runs less the
    # floor's (the difference of the medians, 3 times over, would not)
    def total(fig):
        return 2 * (fig["q1"] + fig["q3"]) - fig["median"]

    floor = bench["commands_ms"].pop(FLOOR)
    assert len(bench["commands_ms"]) == 1 and bench["runs"] == 3
    for fig in bench["commands_ms"].values():
        extra = fig.pop("above_floor")
        assert set(extra) == {"median", "q1", "q3", "runs"}
        assert extra["runs"] == bench["runs"]
        assert extra["q1"] <= extra["median"] <= extra["q3"]
        assert total(extra) == pytest.approx(total(fig) - total(floor), abs=1e-6)
    bench["commands_ms"][FLOOR] = floor
    assert set(bench["reach"]) == {"verify all --max 100",
                                   "survey --max 100 --force"}
    assert all(set(fig) == {"ms", "rss_mb"} for fig in bench["reach"].values())
    # the layer runs: each phase's own time and calls, each law's check
    # time (run_all only) and the rest of the run. survey fills its rows
    # once and builds witnesses; run_all reads the tuples alone
    layers = bench["layers"]
    assert set(layers) == {"survey --max 60", "run_all 2 60"}
    phases = {"rows.fill_tuples", "rows.fill_rows", "rows._orbits", "ring._class",
              "pair._verdict", "pair._witness", "rows._table"}
    layer_figures = []
    for run, layer in layers.items():
        assert set(layer) == {"total_ms", "other_ms", "phases", "checks_ms"}
        assert set(layer["phases"]) == phases
        calls = {name: p["calls"] for name, p in layer["phases"].items()}
        assert calls["rows.fill_tuples"] == 1
        assert calls["pair._verdict"] > 0 and calls["ring._class"] > 0
        survey = run.startswith("survey")
        assert (calls["rows.fill_rows"], calls["rows._table"]) == (survey, survey)
        assert (calls["pair._witness"] > 0) == survey
        assert (len(layer["checks_ms"]) == 10) != survey
        layer_figures += [layer["total_ms"], layer["other_ms"],
                          *(p["own_ms"] for p in layer["phases"].values()),
                          *layer["checks_ms"].values()]
    # the package's code lines, per module and in total
    lines = bench["code_lines"]
    assert set(lines) == {"modules", "total"}
    assert "cli.py" in lines["modules"] and "__init__.py" in lines["modules"]
    assert lines["total"] == sum(lines["modules"].values()) > 0
    figures = [*bench["commands_ms"].values(), *bench["commands_rss_mb"].values(),
               *(f for fig in bench["reach"].values() for f in fig.values()),
               *layer_figures]
    for fig in figures:
        assert set(fig) == FIGURE, fig
        assert fig["runs"] == bench["runs"]
        assert fig["q1"] <= fig["median"] <= fig["q3"]


@pytest.mark.skipif(shutil.which("git") is None, reason="no git")
def test_smoke_run_against_a_base_commit(tmp_path):
    # a scratch repository of two commits, holding tools/bench.py and the
    # package: bench.py runs the floor and each command on its own tree
    # and on HEAD~1's, in alternated pairs
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "bench.py", repo / "tools")

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=bench",
                               "-c", "user.email=bench@example.org",
                               "-c", "commit.gpgsign=false", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    with open(repo / "src" / "frieze_mod" / "cli.py", "a") as fh:
        fh.write("# the second commit\n")
    git("commit", "-q", "-am", "change")
    out, tmp = tmp_path / "BENCH_0.json", tmp_path / "tmp"
    tmp.mkdir()
    res = subprocess.run([sys.executable, str(repo / "tools" / "bench.py"),
                          "--smoke", "--base", "HEAD~1", "--out", str(out)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "TMPDIR": str(tmp)})
    assert res.returncode == 0, res.stderr
    # both trees ran from copies, removed with their bytecode; none was
    # written into the repository
    assert list(tmp.iterdir()) == []
    assert list(repo.rglob("__pycache__")) == []
    bench = json.loads(out.read_text())
    assert bench["commit"] == git("rev-parse", "HEAD")
    assert not bench["dirty"]
    base = bench["base"]
    assert set(base) == {"commit", "commands_ms", "commands_rss_mb"}
    assert base["commit"] == git("rev-parse", "HEAD~1") != bench["commit"]
    assert set(base["commands_ms"]) == set(bench["commands_ms"]) == {
        FLOOR, "size 18446744073709551615 3"}
    assert set(base["commands_rss_mb"]) == set(base["commands_ms"])
    # the paired commands' rounds: --smoke keeps RUNS of them
    runs = bench["paired_runs"]
    assert runs == bench["runs"] == 3
    assert len(bench["loadavg"]) == runs
    assert all(len(load) == 3 for load in bench["loadavg"])
    for c, fig in bench["commands_ms"].items():
        mine, its = fig, base["commands_ms"][c]
        ratio = mine.pop("vs_base")
        assert set(ratio) == FIGURE | {"won"}
        # the floor runs before each command, on each side
        assert ratio["runs"] == runs * (len(bench["commands_ms"]) - 1 if c == FLOOR else 1)
        assert 0 <= ratio["won"] <= ratio["runs"]
        assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
        assert set(mine) == set(its) == FIGURE | ({"above_floor"} if c != FLOOR else set())
        for key in ("median", "q1", "q3"):
            assert its[key] > 0
        assert its["runs"] == mine["runs"]
    # reach and layer runs stay this tree's alone
    assert set(bench["reach"]) == {"verify all --max 100",
                                   "survey --max 100 --force"}
    assert set(bench["layers"]) == {"survey --max 60", "run_all 2 60"}


def _bench():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return bench


def test_a_full_paired_run_gives_the_commands_ten_rounds(monkeypatch, tmp_path):
    # every child stubbed: a full --base run times the floor and each
    # headline command in PAIRED_RUNS rounds, the reach and layer runs in
    # RUNS; a full run on its own tree keeps RUNS for all of them
    bench = _bench()
    layer = {"total_ms": 1.0, "other_ms": 1.0, "checks_ms": {},
             "phases": {name: {"own_ms": 0.0, "calls": 1}
                        for name, _, _ in bench.PHASES}}
    monkeypatch.setattr(bench.compileall, "compile_dir", lambda *args, **kw: True)
    monkeypatch.setattr(bench, "child", lambda argv, root: (1.0, 1.0))
    monkeypatch.setattr(bench, "layers", lambda run, root: layer)
    head = tmp_path / "head"
    for base, rounds in ((tmp_path / "base", bench.PAIRED_RUNS), (None, bench.RUNS)):
        report = bench.measure(False, head, base)
        commands = report["commands_ms"]
        assert commands.pop(FLOOR)["runs"] == rounds * len(bench.COMMANDS)
        assert {fig["runs"] for fig in commands.values()} == {rounds}
        assert {fig["ms"]["runs"] for fig in report["reach"].values()} == {bench.RUNS}
        assert {fig["total_ms"]["runs"]
                for fig in report["layers"].values()} == {bench.RUNS}
        if base is not None:
            assert report["paired_runs"] == len(report["loadavg"]) == rounds
    assert bench.PAIRED_RUNS == 10 > bench.RUNS


def test_code_lines_skip_blanks_comments_and_docstrings():
    code_lines = _bench().code_lines
    source = ('"""Module\n    docstring."""\n\n# a comment\nimport sys\n\n'
              'def f(x):\n    """Doc."""\n    return (x +  # trailing\n'
              '            1)\n\n\nclass C:\n    """Doc\n    two."""\n'
              '    y = """not a\n    docstring"""\n')
    assert code_lines(source) == 7
