import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import frieze_mod
import frieze_mod.cli as cli_mod
from frieze_mod.cli import _SPECS, _well_formed, classify, cli, witness
from frieze_mod.pair import _pair_row
from frieze_mod.reduce import is_irreducible_monomial
from frieze_mod.rows import _CSV_HEADER
from frieze_mod.usage import _parser
from routes import ARGV_TOKENS, argv_sweep, parsed_by_argparse, typed


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


@pytest.fixture()
def runner(cache_dir):
    return CliRunner(env={"FRIEZE_MOD_CACHE_DIR": str(cache_dir)})


_PINNED = [
    (["size", "35", "23"], "70\n"),
    (["size", "5", "0"], "2, -Id\n"),
    (["size", "12", "4"], "12\n"),
    (["size", "2", "1"], "3\n"),
    (["classify", "9", "3"], "reducible; witness size 4: (6,3,3,6)\n"),
    (["classify", "62", "3"], "irreducible; size 15\n"),
    (["classify", "80", "50"], "irreducible; size 16\n"),
    (["classify", "5", "0"], "zero-convention; size 2: (0,0)\n"),
    (["witness", "9", "3"], "6,3,3,6\n"),
    (["witness", "62", "3"], "none\n"),
    (["oplus", "10", "1,1,3", "-2,0,2"], "3,1,1,0\n"),
    (["oplus", "7", "2,2,1,0", "1,-1,1"], "3,2,1,1,6\n"),
    (["oplus", "5", "1,2", "0,0"], "1,2\n"),
    # K is taken mod N and may be negative
    (["size", "35", "-12"], "70\n"),
    (["classify", "9", "-6"], "reducible; witness size 4: (6,3,3,6)\n"),
    (["witness", "9", "-6"], "6,3,3,6\n"),
    # a literal -- before the arguments changes nothing
    (["oplus", "10", "--", "1,1,3", "-2,0,2"], "3,1,1,0\n"),
    (["classify", "--", "9", "-6"], "reducible; witness size 4: (6,3,3,6)\n"),
]


@pytest.mark.parametrize("args,want", _PINNED)
def test_pinned_outputs(runner, args, want):
    res = runner.invoke(cli, args)
    assert res.exit_code == 0, res.output + res.stderr
    assert res.output == want


@pytest.mark.parametrize("args", [
    ["size", "5"],
    ["size", "abc", "3"],
    ["size", "1", "0"],
    ["classify", "0", "1"],
    ["oplus", "10", "1,x,3", "0,0"],
    ["oplus", "10", "3", "0,0"],
    ["oplus", "10", "1,2", "0,0", "--bogus"],
    ["verify", "no-such-law"],
    ["verify", "size-bound", "--min", "50", "--max", "10"],
    ["verify", "size-bound", "--min", "1", "--max", "10"],
    ["survey", "--min", "1", "--max", "3"],
    ["survey"],
    ["nonsense"],
    ["size", "5", "--bogus"],
    ["classify", "9", "3", "--bogus"],
])
def test_usage_errors_exit_2(runner, args):
    res = runner.invoke(cli, args)
    assert res.exit_code == 2, (args, res.output, res.stderr)


def test_oplus_error_names_the_position(runner):
    res = runner.invoke(cli, ["oplus", "10", "1,x,3", "0,0"])
    assert res.exit_code == 2
    assert "entry 2" in res.stderr


def test_verify_unknown_id_lists_all_among_the_known(runner):
    from frieze_mod.verify import VERIFIERS
    res = runner.invoke(cli, ["verify", "no-such-law"])
    assert res.exit_code == 2
    known = ", ".join([*VERIFIERS, "all"])
    assert res.stderr.endswith(
        f"Error: unknown theorem id 'no-such-law'; known: {known}\n")


# A usage error prints click's shape to stderr: the usage line, the
# hint, a blank line and one Error line that names the bad argument.
@pytest.mark.parametrize("args,prog,names", [
    (["size", "5"], "frieze-mod size", ["K"]),
    (["classify", "9", "x"], "frieze-mod classify", ["K", "'x'"]),
    (["classify", "9", "3", "--bogus"], "frieze-mod classify", ["--bogus"]),
    (["nonsense"], "frieze-mod", ["'nonsense'"]),
    (["survey", "--max", "3", "--format", "xml"], "frieze-mod survey",
     ["--format", "'xml'"]),
    (["survey", "--max", "3", "--out", "DIR"], "frieze-mod survey", ["--out"]),
])
def test_usage_errors_keep_the_click_shape(runner, tmp_path, args, prog, names):
    res = runner.invoke(cli, [str(tmp_path) if a == "DIR" else a for a in args],
                        prog_name="frieze-mod")
    assert res.exit_code == 2 and res.stdout == ""
    lines = res.stderr.split("\n")
    assert lines[0].startswith(f"Usage: {prog} "), res.stderr
    assert lines[1:3] == [f"Try '{prog} --help' for help.", ""], res.stderr
    assert lines[3].startswith("Error: ") and lines[4:] == [""], res.stderr
    assert all(name in lines[3] for name in names), res.stderr


def test_no_arguments_is_a_usage_error(runner):
    res = runner.invoke(cli, [], prog_name="frieze-mod")
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.startswith("Usage: frieze-mod [OPTIONS] COMMAND [ARGS]...\n")


# The Error lines the package writes itself, byte for byte.
@pytest.mark.parametrize("args,usage,error", [
    (["classify", "0", "1"], "N K", "modulus must be >= 2, got 0"),
    (["size", "1", "0"], "N K", "modulus must be >= 2, got 1"),
    (["witness", "2001", "5"], "N K",
     "modulus 2001 is above 2000; pass --force to allow it"),
    (["survey", "--max", "2500"], "",
     "modulus 2500 is above 2000; pass --force to allow it"),
    (["size", "18446744073709551616", "3"], "N K",
     "size needs a modulus below 2**64, got 18446744073709551616"),
    (["verify", "size-bound", "--min", "1"], "THEOREM_ID",
     "--min must be >= 2, got 1"),
    (["survey", "--min", "1", "--max", "3"], "", "--min must be >= 2, got 1"),
    (["verify", "size-bound", "--min", "50", "--max", "10"], "THEOREM_ID",
     "--max (10) is below --min (50)"),
    (["oplus", "10", "1,x,3", "0,0"], "N A B", "entry 2 ('x') is not an integer"),
    (["oplus", "10", "3", "0,0"], "N A B", "oplus needs both operands of size >= 2"),
    # the size limit comes before the --force gate
    (["classify", "18446744073709551616", "3"], "N K",
     "classify needs a modulus below 2**64, got 18446744073709551616"),
    (["witness", "18446744073709551629", "3", "--force"], "N K",
     "witness needs a modulus below 2**64, got 18446744073709551629"),
    # argparse drops a second --, the operand of K (usage._parse)
    (["size", "5", "--", "--"], "N K", "argument K: invalid int value: '--'"),
])
def test_package_usage_errors_are_byte_identical(runner, args, usage, error):
    res = runner.invoke(cli, args, prog_name="frieze-mod")
    cmd = args[0]
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == (
        f"Usage: frieze-mod {cmd} [OPTIONS]{' ' * bool(usage)}{usage}\n"
        f"Try 'frieze-mod {cmd} --help' for help.\n\nError: {error}\n")


@pytest.mark.parametrize("args,options", [
    ([], ["--help", "classify", "oplus", "size", "survey", "verify", "witness"]),
    (["size"], ["--help"]),
    (["classify"], ["--no-cache", "--force", "--help"]),
    (["witness"], ["--no-cache", "--force", "--help"]),
    (["oplus"], ["--help"]),
    (["verify"], ["--min", "--max", "--out", "--help"]),
    (["survey"], ["--min", "--max", "--format", "--out", "--no-cache",
                  "--force", "--help"]),
])
def test_help_lists_the_options(runner, args, options):
    res = runner.invoke(cli, [*args, "--help"], prog_name="frieze-mod")
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout.startswith(f"Usage: {' '.join(['frieze-mod', *args])} ")
    missing = [o for o in options if o not in res.stdout]
    assert not missing, res.stdout


def test_force_help_is_one_string(runner):
    # the gate is on the modulus (classify, witness) or the largest
    # modulus of the range (survey), and its help says so for all three
    for cmd in ("classify", "witness", "survey"):
        res = runner.invoke(cli, [cmd, "--help"], prog_name="frieze-mod")
        assert "--force" in res.stdout
        assert " ".join(res.stdout.split("--force")[1].split()).startswith(
            "Allow moduli above 2000."), res.stdout


def test_verify_single_report_is_a_json_object(runner):
    res = runner.invoke(cli, ["verify", "size-bound", "--max", "40"])
    assert res.exit_code == 0, res.stderr
    report = json.loads(res.output)
    assert report["theorem_id"] == "size-bound"
    assert report["status"] == "pass"
    assert report["counterexamples"] == []
    assert res.output.endswith("\n") and not res.output.endswith("\n\n")


def test_verify_all_writes_an_array(runner, tmp_path):
    out = tmp_path / "reports.json"
    res = runner.invoke(cli, ["verify", "all", "--max", "25",
                              "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    reports = json.loads(out.read_text())
    assert len(reports) == 10
    assert {r["status"] for r in reports} <= {"pass", "vacuous"}
    assert out.read_text().endswith("\n")


def _watched_fill(monkeypatch, stop=None):
    """Patch the fill_rows that survey reads: the real one over its
    moduli, or over 2..stop and then RuntimeError. Returns the list of
    the moduli it has yielded."""
    from frieze_mod import rows
    real, yielded = rows.fill_rows, []

    def fill(moduli):
        for row in real(moduli if stop is None else range(2, stop + 1)):
            yielded.append(row[0])
            yield row
        if stop is not None:
            raise RuntimeError("planted")
    monkeypatch.setattr(rows, "fill_rows", fill)
    return yielded


def test_unwritable_out_exits_1(runner, tmp_path, monkeypatch):
    # survey opens --out before it decides a row: the fill never advances
    yielded = _watched_fill(monkeypatch)
    unwritable = str(tmp_path / "no-dir" / "x.json")
    for args in (["verify", "size-bound", "--max", "20"],
                 ["survey", "--max", "20"],
                 ["survey", "--max", "20", "--format", "json"]):
        yielded.clear()
        res = runner.invoke(cli, [*args, "--out", unwritable])
        assert res.exit_code == 1, args
        assert res.stderr.startswith(f"cannot write {unwritable}: "), args
        assert args[0] == "verify" or yielded == [], args


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_survey_writes_each_modulus_as_it_is_decided(runner, tmp_path,
                                                     monkeypatch, fmt):
    # the fill fails after modulus 5: the header and the lines of 2..5
    # are already out, on stdout or in --out, when the error surfaces
    want = runner.invoke(cli, ["survey", "--max", "5", "--format", fmt]).stdout
    _watched_fill(monkeypatch, stop=5)
    res = runner.invoke(cli, ["survey", "--max", "9", "--format", fmt])
    assert isinstance(res.exception, RuntimeError)
    assert res.stdout == want
    out = tmp_path / "table"
    res = runner.invoke(cli, ["survey", "--max", "9", "--format", fmt,
                              "--out", str(out)])
    assert isinstance(res.exception, RuntimeError)
    assert (res.stdout, out.read_text()) == ("", want)


def test_a_survey_write_that_fails_exits_1(runner, tmp_path, monkeypatch):
    # --out takes the header and modulus 2, then its disk is full: exit 1
    # with the message of an unwritable --out, and no further modulus is
    # decided
    lines = runner.invoke(cli, ["survey", "--max", "2"]).stdout.splitlines(True)
    written = []

    class Full(io.StringIO):
        def write(self, text):
            if len(written) == 2:
                raise OSError(28, "No space left on device")
            written.append(text)
            return len(text)

    monkeypatch.setattr(importlib.import_module("frieze_mod.cli"), "open",
                        lambda path, mode: Full(), raising=False)
    yielded = _watched_fill(monkeypatch)
    out = str(tmp_path / "table.csv")
    res = runner.invoke(cli, ["survey", "--max", "30", "--out", out])
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == f"cannot write {out}: [Errno 28] No space left on device\n"
    assert written == [lines[0], "".join(lines[1:])]
    assert yielded == [2, 3]


def test_survey_memory_does_not_grow_with_its_table(tmp_path):
    # survey --max 600 prints 180,000 lines (5.3 MB); written a modulus
    # at a time, the traced peak stays near the fill's own memory (about
    # 3.6 MB), where the whole table held until the end peaked at 26 MB
    code = ("import sys, tracemalloc\n"
            "tracemalloc.start()\n"
            "from frieze_mod.cli import main\n"
            "code = main(['survey', '--max', '600'])\n"
            "sys.stderr.write(f'{code} {tracemalloc.get_traced_memory()[1]}')\n")
    with open(tmp_path / "table.csv", "w") as out:
        res = subprocess.run([sys.executable, "-c", code], stdout=out,
                             stderr=subprocess.PIPE, text=True,
                             env=_env_with_src(), timeout=120)
    code, peak = map(int, res.stderr.split())
    assert code == 0 and (tmp_path / "table.csv").stat().st_size > 5_000_000
    assert peak < 8 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


def _object_lines(n, k):
    """The classify and witness lines built from the verdict objects."""
    v = is_irreducible_monomial(n, k)
    w = v.witness
    if w:
        verdict = f"reducible; witness size {w.size}: ({w.cycle()})"
    elif v.kind == "irreducible":
        verdict = f"irreducible; size {v.size}"
    else:
        verdict = f"zero-convention; size {v.size}: (0,0)"
    return verdict + "\n", (str(w.cycle()) if w else "none") + "\n"


def test_row_printing_matches_the_verdict_objects():
    # every pair with n <= 40, K given as k, k - n and k + n: 4,914 calls
    # of the two command functions, under 1 s (the parsing of a negative
    # K is pinned in test_pinned_outputs)
    got, want = io.StringIO(), []
    with redirect_stdout(got):
        for n in range(2, 41):
            for k in range(n):
                want += _object_lines(n, k) * 3
                for key in (k, k - n, k + n):
                    classify(n, key, False)
                    witness(n, key, False)
    lines = got.getvalue().splitlines(keepends=True)
    bad = [(i, a, b) for i, (a, b) in enumerate(zip(lines, want)) if a != b]
    assert len(lines) == len(want) and not bad, bad[:5]


def test_survey_csv(runner):
    res = runner.invoke(cli, ["survey", "--max", "3"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == _CSV_HEADER
    assert lines[1] == "2,0,2,1,zero-convention,,,"
    assert lines[-1] == "3,2,3,1,irreducible,,,"
    assert len(lines) == 6
    assert res.output.endswith("\n") and not res.output.endswith("\n\n")


def test_survey_lines_are_each_pairs_own(runner):
    # survey renders the text of each distinct verdict record once and
    # reuses it, across moduli too; every line must still be the one its
    # own pair gives when decided alone (pair._pair_row)
    for fmt in ("csv", "json"):
        want = [_CSV_HEADER] if fmt == "csv" else []
        for n in range(2, 61):
            for k in range(n):
                (size, sign, kind, _), wit = _pair_row(n, k)
                row = {"N": n, "k": k, "size": size, "sign": sign,
                       "verdict": kind, "witness_size": wit and wit[0],
                       "witness_x": wit and wit[1], "witness_y": wit and wit[2]}
                want.append(json.dumps(row) if fmt == "json" else ",".join(
                    "" if v is None else str(v) for v in row.values()))
        res = runner.invoke(cli, ["survey", "--max", "60", "--format", fmt])
        assert res.stdout.splitlines() == want, fmt


def test_survey_row_with_witness(runner):
    res = runner.invoke(cli, ["survey", "--min", "9", "--max", "9"])
    rows = [line for line in res.output.splitlines()
            if line.startswith("9,3,")]
    assert rows == ["9,3,6,-1,reducible,4,6,6"]


def test_survey_empty_range_is_header_only(runner, tmp_path):
    res = runner.invoke(cli, ["survey", "--min", "5", "--max", "4"])
    assert res.exit_code == 0
    assert res.output == _CSV_HEADER + "\n"
    # the range walks no modulus, so the witness-search gate does not apply
    res = runner.invoke(cli, ["survey", "--min", "3000", "--max", "2500"])
    assert res.exit_code == 0
    assert res.stdout == _CSV_HEADER + "\n"
    # JSON has no header: nothing at all, not a blank line that a
    # JSON-lines reader would fail on, to stdout or to --out
    res = runner.invoke(cli, ["survey", "--min", "5", "--max", "4",
                              "--format", "json"])
    assert (res.exit_code, res.stdout) == (0, "")
    out = tmp_path / "empty.json"
    res = runner.invoke(cli, ["survey", "--min", "5", "--max", "4",
                              "--format", "json", "--out", str(out)])
    assert (res.exit_code, res.stdout, out.read_text()) == (0, "", "")


def test_survey_json_lines(runner):
    res = runner.invoke(cli, ["survey", "--max", "2", "--format", "json"])
    rows = [json.loads(line) for line in res.output.splitlines()]
    assert rows == [
        {"N": 2, "k": 0, "size": 2, "sign": 1, "verdict": "zero-convention",
         "witness_size": None, "witness_x": None, "witness_y": None},
        {"N": 2, "k": 1, "size": 3, "sign": 1, "verdict": "irreducible",
         "witness_size": None, "witness_x": None, "witness_y": None},
    ]
    assert list(rows[0]) == ["N", "k", "size", "sign", "verdict",
                             "witness_size", "witness_x", "witness_y"]


def test_a_planted_cache_row_is_never_served(runner, cache_dir):
    # a well-shaped but wrong row where the retired cache kept (9, 3)
    planted = cache_dir / "v2" / "9.json"
    planted.parent.mkdir(parents=True)
    planted.write_text(json.dumps(
        {"3": [7, 1, "irreducible", None, None, None, None]}))
    before = planted.read_bytes(), planted.stat().st_mtime_ns
    assert runner.invoke(cli, ["classify", "9", "3"]).output == \
        "reducible; witness size 4: (6,3,3,6)\n"
    assert runner.invoke(cli, ["witness", "9", "3"]).output == "6,3,3,6\n"
    res = runner.invoke(cli, ["survey", "--min", "9", "--max", "9"])
    assert "9,3,6,-1,reducible,4,6,6" in res.output.splitlines()
    assert (planted.read_bytes(), planted.stat().st_mtime_ns) == before
    assert sorted(cache_dir.rglob("*")) == [planted.parent, planted]


_READERS = [["classify", "9", "3"], ["witness", "9", "3"],
            ["survey", "--max", "12"],
            ["survey", "--max", "12", "--format", "json"]]


@pytest.mark.parametrize("args", _READERS)
def test_no_cache_is_accepted_and_changes_nothing(runner, args):
    plain = runner.invoke(cli, args)
    bypass = runner.invoke(cli, args + ["--no-cache"])
    assert plain.exit_code == bypass.exit_code == 0
    assert plain.output == bypass.output


def test_size_and_verify_leave_the_cache_empty(tmp_path):
    # and so does every other command: there is no cache to write
    cache_dir, xdg = tmp_path / "cache", tmp_path / "xdg"
    runner = CliRunner(env={"FRIEZE_MOD_CACHE_DIR": str(cache_dir),
                            "XDG_CACHE_HOME": str(xdg)})
    for args in (["size", "35", "23"],
                 ["verify", "size-bound", "--max", "20"],
                 ["verify", "all", "--max", "12"],
                 *_READERS, *(a + ["--no-cache"] for a in _READERS)):
        assert runner.invoke(cli, args).exit_code == 0, args
    assert not cache_dir.exists() and not xdg.exists()


def test_force_gate_on_large_moduli(runner):
    res = runner.invoke(cli, ["classify", "2001", "5"])
    assert res.exit_code == 2
    assert "--force" in res.stderr

    res = runner.invoke(cli, ["survey", "--max", "2500"])
    assert res.exit_code == 2

    res = runner.invoke(cli, ["classify", "2001", "5", "--force"])
    assert res.exit_code == 0
    assert res.output.strip()

    # size never searches for witnesses, so no gate
    res = runner.invoke(cli, ["size", "2001", "5"])
    assert res.exit_code == 0
    assert res.output == "120\n"


def test_classify_a_large_composite_pair(runner):
    # ten prime factors: the pair is composed from its factors' rows
    # (test_large_composite_pairs_compose checks this row against the
    # walk); budget 2 s, measured under 0.1 s
    n, k, x = 6469693230, 6294801371, 5448162720
    res = runner.invoke(cli, ["classify", str(n), str(k), "--force"])
    assert res.exit_code == 0
    entries = ",".join(map(str, [x, *[k] * 1008, x]))
    assert res.output == f"reducible; witness size 1010: ({entries})\n"


def test_classify_a_64_bit_prime(runner):
    # a lone prime power descends: no walk, so any N < 2**64 answers in
    # milliseconds (measured 1 ms in process); p does not divide 3, so
    # the pair is irreducible, of the size the size command gives
    p = 18446744073709551557
    res = runner.invoke(cli, ["classify", str(p), "3", "--force"])
    assert res.exit_code == 0
    assert res.output == "irreducible; size 1317624576693539397\n"
    assert runner.invoke(cli, ["size", str(p), "3"]).output == \
        "1317624576693539397, -Id\n"


def test_survey_json_lines_are_json_dumps(runner):
    # the JSON lines are formatted directly; they must stay what
    # json.dumps gives for each row's dict, witness or not
    res = runner.invoke(cli, ["survey", "--max", "30", "--format", "json"])
    lines = res.output.splitlines()
    assert len(lines) == sum(range(2, 31))
    assert any('"reducible"' in line for line in lines)
    for line in lines:
        assert json.dumps(json.loads(line)) == line


def test_size_at_the_largest_64_bit_prime():
    p = "18446744073709551557"
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "frieze_mod.cli", "size", p, "2"],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=60)
    assert (res.returncode, res.stdout, res.stderr) == (0, p + "\n", "")
    assert time.perf_counter() - t0 < 10


def test_size_rejects_moduli_from_2_64(runner):
    res = runner.invoke(cli, ["size", "18446744073709551616", "3"])
    assert res.exit_code == 2
    assert "2**64" in res.stderr
    # M(2)**s = [[s + 1, -s], [s, 1 - s]] is +-Id first at s = n
    res = runner.invoke(cli, ["size", "18446744073709551615", "2"])
    assert res.exit_code == 0, res.stderr
    assert res.output == "18446744073709551615\n"


def _env_with_src():
    src = str(Path(frieze_mod.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


_LOADED = ("import sys; print(' '.join(sorted(m for m in sys.modules "
           "if m.startswith('frieze_mod'))))")


def _loaded_after(code):
    res = subprocess.run([sys.executable, "-c", f"{code}\n{_LOADED}"],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


@pytest.mark.parametrize("args,extra", [
    ([], []),
    (["size", "35", "23"], ["frieze_mod.ring"]),
    (["oplus", "10", "1,1,3", "-2,0,2"], ["frieze_mod.cycles"]),
    (["classify", "9", "3", "--no-cache"], ["frieze_mod.pair", "frieze_mod.ring"]),
    (["witness", "9", "3"], ["frieze_mod.pair", "frieze_mod.ring"]),
    (["survey", "--max", "5"],
     ["frieze_mod.pair", "frieze_mod.ring", "frieze_mod.rows"]),
    (["verify", "all", "--max", "5"],
     ["frieze_mod.pair", "frieze_mod.ring", "frieze_mod.rows", "frieze_mod.verify"]),
    (["classify", "--force", "2001", "-5"], ["frieze_mod.pair", "frieze_mod.ring"]),
    (["survey", "--format", "json", "--min", "3", "--max", "5", "--force",
      "--no-cache"], ["frieze_mod.pair", "frieze_mod.ring", "frieze_mod.rows"]),
    (["verify", "size-bound", "--min", "3", "--max", "5"],
     ["frieze_mod.pair", "frieze_mod.ring", "frieze_mod.rows", "frieze_mod.verify"]),
])
def test_commands_load_only_what_they_run(args, extra):
    # nor click, nor dataclasses and inspect (about 13 ms of start-up);
    # and a well-formed line, an oplus line with a negative entry list
    # included, is parsed without argparse, which with gettext and locale
    # costs about 3 ms. classify and witness compile no range fill (rows)
    heavy = ["click", "dataclasses", "inspect", "argparse", "gettext", "locale"]
    code = ("import contextlib, io, sys\n"
            f"heavy = set({heavy!r}) - set(sys.modules)\n"
            "import frieze_mod.cli")
    if args:
        code += ("\nwith contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert frieze_mod.cli.main({args!r}) == 0")
    code += ("\nloaded = sorted(heavy & set(sys.modules))"
             "\nassert not loaded, f'{loaded} imported'")
    assert _loaded_after(code) == sorted(["frieze_mod", "frieze_mod.cli", *extra])


@pytest.mark.parametrize("call,want", [
    ("frieze_mod.is_irreducible_monomial(9, 3)",
     ["pair", "reduce", "ring"]),
    ("frieze_mod.solution_sign((6, 3, 3, 6), 9)",
     ["cycles", "modmat"]),
])
def test_single_pair_library_calls_load_no_range_fill(call, want):
    # one pair is decided by pair.py (reduce), with no cycles, or
    # multiplied out by modmat, with no decider (pair, ring): neither
    # compiles rows, the range fill
    got = _loaded_after(f"import frieze_mod\n{call}")
    assert got == sorted(["frieze_mod", *(f"frieze_mod.{m}" for m in want)])


# The single-pair commands in a child started with python -S, where no
# site module preloads collections: they decide on plain ints (ring,
# pair) and import nothing from it. stdout is swapped by hand, since
# contextlib imports collections itself.
_NO_COLLECTIONS = """
import io, sys
from frieze_mod.cli import main
for line in sys.argv[1:]:
    sys.stdout = io.StringIO()
    code = main(line.split())
    out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
    print(code, out, end="")
print("collections" in sys.modules)
"""


def test_single_pair_commands_import_no_collections():
    lines = ["size 35 23", "classify 9 3", "witness 1234 617"]
    res = subprocess.run([sys.executable, "-S", "-c", _NO_COLLECTIONS, *lines],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=60)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == ("0 70\n"
                          "0 reducible; witness size 4: (6,3,3,6)\n"
                          "0 none\n"
                          "False\n")


# A usage error that a command raises on a well-formed line still names
# the command's usage, from its _SPECS entry, with no parser built and
# no usage module loaded; one that the parse finds, and --help, come
# from the argparse parser (usage._parser).
@pytest.mark.parametrize("args,parser", [
    (["size", "0", "3"], False),
    (["classify", "3000", "2"], False),
    (["survey", "--min", "1", "--max", "3"], False),
    (["verify", "size-bound", "--max", "1"], False),
    (["size", "5"], True),
    (["survey", "--max", "3", "--format", "xml"], True),
    (["classify", "9", "3", "--bogus"], True),
    (["verify", "--help"], True),
])
def test_usage_errors_build_a_parser_only_when_the_parse_fails(runner, args, parser):
    code = ("import contextlib, io, json, sys\n"
            "import frieze_mod.cli\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            f"    code = frieze_mod.cli.main({args!r})\n"
            "print(json.dumps([code, out.getvalue(), err.getvalue(),"
            " 'argparse' in sys.modules, 'frieze_mod.usage' in sys.modules]))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env_with_src(), timeout=60)
    assert res.returncode == 0, res.stderr
    clicked = runner.invoke(cli, args, prog_name="frieze-mod")
    assert json.loads(res.stdout) == [clicked.exit_code, clicked.stdout,
                                      clicked.stderr, parser, parser]
    assert clicked.exit_code == (0 if args[-1] == "--help" else 2)
    assert (clicked.stdout + clicked.stderr).startswith(
        f"Usage: {_parser(cli_mod, args[0]).usage}\n")


@pytest.fixture(scope="module")
def swept_argv():
    # every line of up to three tokens from a fixed alphabet, one pass
    # for both tests below; the ci test after them runs up to four
    return argv_sweep(3)


def _well_formed_lines_agree(swept, tried, accepted):
    """Assert that every line of the sweep (routes.argv_sweep), tried of
    them, that the parse without argparse accepts (accepted of them)
    parses as argparse parses it."""
    bad, *counts = swept[0]
    assert not bad, bad[:5]
    assert counts == [tried, accepted]


def _dashed_lines_agree(swept, tried):
    """Assert that every line of the sweep with a second --, tried of
    them, parses to the types _SPECS declares, or is a usage error or a
    help text."""
    bad, count = swept[1]
    assert not bad, bad[:5]
    assert count == tried


def test_well_formed_lines_parse_as_argparse_parses_them(swept_argv):
    _well_formed_lines_agree(swept_argv, 28289, 989)


def test_lines_with_a_second_double_dash_parse_to_their_types(swept_argv):
    # argparse hands a positional whose operand is a second -- an empty
    # list; usage._parse gives it the -- (N and K reject it), so every
    # such line is a usage error, a help text or arguments of the
    # declared types
    _dashed_lines_agree(swept_argv, 285)


@pytest.mark.ci
def test_argv_lines_of_four_tokens_parse_as_argparse_parses_them():
    # both tests above over every line of up to four tokens, in one
    # pass. Budget 60 s; measured 5 s alone (2 cores, Python 3.11.7)
    t0 = time.perf_counter()
    swept = argv_sweep(4)
    took = time.perf_counter() - t0
    _well_formed_lines_agree(swept, 479714, 3749)
    _dashed_lines_agree(swept, 9085)
    assert took < 60


@pytest.mark.parametrize("args", [
    ["size", "5", "0"], ["size", "-7", "-12"], ["classify", "9", "-6"],
    ["witness", "--no-cache", "9", "3", "--force"],
    ["verify", "all"], ["verify", "--max", "-5", "size-n", "--min", "3"],
    ["survey", "--max", "12", "--format", "json", "--no-cache", "--force"],
    ["size", "18446744073709551616", "3"], ["verify", ""],
    ["oplus", "10", "1,1,3", "-2,0,2"], ["oplus", "--", "-3", "--", "x", "-"],
])
def test_well_formed_lines_skip_argparse(args):
    name, rest = args[0], args[1:]
    got = _well_formed(name, rest)
    assert got is not None
    assert typed(got) == typed(parsed_by_argparse(name, rest))


@pytest.mark.parametrize("args", [
    ["size", "5"], ["size", "5", "0", "1"], ["size", "x", "0"],
    ["size", "-", "0"], ["size", "-2.5", "0"], ["size", "5", "0", "--help"],
    ["size", "--", "5", "0"], ["size", "-٣", "0"], ["size", "-3\n", "0"],
    ["classify", "9", "3", "--force", "--force"], ["classify", "9", "3", "-f"],
    ["verify", "all", "--max=5"], ["verify", "all", "--out", "x"],
    ["verify", "all", "--max"], ["verify", "all", "--max", "--min"],
    ["verify", "all", "--max", ""], ["survey"], ["survey", "--format", "xml", "--max", "3"],
    ["oplus", "10", "1,1,3", "0,0", "--help"], ["oplus", "10", "1,1,3"],
])
def test_other_lines_go_to_argparse(args):
    assert _well_formed(args[0], args[1:]) is None


_ARGV = st.lists(st.one_of(st.sampled_from(ARGV_TOKENS + (
    "--min", "--max", "--format", "--out", "--no-cache", "--force")),
    st.integers(-10 ** 20, 10 ** 20).map(str), st.text(max_size=4)),
    max_size=7)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(_SPECS)), argv=_ARGV)
def test_any_line_the_fast_parse_accepts_parses_as_argparse_does(name, argv):
    got = _well_formed(name, argv)
    if got is not None:
        assert typed(got) == typed(parsed_by_argparse(name, argv))


# Every command through main() in a process where importing click fails.
_NO_CLICK = """
import contextlib, io, json, sys
sys.modules["click"] = None
from frieze_mod.cli import main
results = []
for args in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_every_command_runs_without_click(runner, tmp_path):
    unwritable = str(tmp_path / "no-dir" / "x.json")
    cases = [args for args, _ in _PINNED] + [
        ["verify", "size-bound", "--max", "40"],
        ["verify", "all", "--max", "12"],
        ["survey", "--max", "12"],
        ["survey", "--max=12", "--format", "json", "--no-cache"],
        ["--help"], ["survey", "--help"],
        ["size", "5"],
        ["verify", "size-bound", "--max", "20", "--out", unwritable],
    ]
    res = subprocess.run([sys.executable, "-c", _NO_CLICK, json.dumps(cases)],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=60)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    for (code, out, _), (_, want) in zip(got, _PINNED):
        assert (code, out) == (0, want)
    elapsed = re.compile(r'"elapsed_ms": [0-9.e-]+')     # differs run to run
    for args, (code, out, _) in zip(cases, got):
        clicked = runner.invoke(cli, args)
        assert (code, elapsed.sub("", out)) == (
            clicked.exit_code, elapsed.sub("", clicked.stdout)), args
    assert [code for code, _, _ in got[-2:]] == [2, 1]
    assert got[-2][2].startswith("Usage: frieze-mod size [OPTIONS] N K\n")
    assert got[-1][2].startswith(f"cannot write {unwritable}: ")


def test_module_entry_point_exits_2_on_a_usage_error():
    res = subprocess.run([sys.executable, "-m", "frieze_mod.cli", "classify", "0", "1"],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=60)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.endswith("\nError: modulus must be >= 2, got 0\n")


@pytest.mark.parametrize("args", [
    ["--help"], ["classify", "--help"], ["size", "5"],
    ["oplus", "10", "1,1,3", "-2,0,2"],
    ["survey", "--max", "5", "--out", "FILE"],
])
def test_module_entry_point_prints_what_main_prints(args, tmp_path, monkeypatch):
    # python -m frieze_mod.cli runs cli as __main__, a second copy beside
    # frieze_mod.cli, and usage builds its help and parser from the copy
    # it is handed: its help, a parse error and lines the direct parse
    # declines (every oplus line, --out) give the exit code, stdout,
    # stderr and --out file of main() in process, byte for byte. COLUMNS
    # fixes the width argparse wraps help to
    monkeypatch.setenv("COLUMNS", "80")

    def run(in_process):
        path = tmp_path / ("main.csv" if in_process else "module.csv")
        argv = [str(path) if a == "FILE" else a for a in args]
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_mod.main(argv)
            got = code, out.getvalue().encode(), err.getvalue().encode()
        else:
            res = subprocess.run([sys.executable, "-m", "frieze_mod.cli", *argv],
                                 capture_output=True, env=_env_with_src(),
                                 timeout=60)
            got = res.returncode, res.stdout, res.stderr
        return got, path.read_bytes() if path.exists() else None

    got = run(True)
    assert got == run(False)
    assert (got[1] is not None) == ("FILE" in args)


_ENTRY = "import sys; from frieze_mod.cli import main; sys.exit(main())"


def test_main_entry_point_answers():
    res = subprocess.run([sys.executable, "-c", _ENTRY, "classify", "9", "3"],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=60)
    assert (res.returncode, res.stdout, res.stderr) == (
        0, "reducible; witness size 4: (6,3,3,6)\n", "")


def test_a_reader_that_stops_early_gets_no_traceback():
    # survey --max 250 prints about 1 MB; the reader takes ten bytes, from
    # a buffered stdout and from an unbuffered one
    for unbuffered in ("", "1"):
        child = subprocess.Popen([sys.executable, "-m", "frieze_mod.cli", "survey", "--max", "250"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env={**_env_with_src(), "PYTHONUNBUFFERED": unbuffered})
        assert child.stdout.read(10) == b"N,k,size,s"
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) in (0, 1) and err == b"", unbuffered


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args", [["survey", "--max", "3"],
                                  ["verify", "all", "--max", "5"],
                                  ["classify", "9", "3"], ["size", "35", "23"],
                                  ["--help"], ["survey", "--help"],
                                  ["classify", "--help"], ["oplus", "--help"]])
def test_a_full_stdout_exits_1_with_one_line(args):
    # stdout on a device that takes no byte, buffered or not: exit 1 and
    # one line on stderr, as for an unwritable --out, and no traceback;
    # a help text too
    for unbuffered in ("", "1"):
        with open("/dev/full", "w") as full:
            res = subprocess.run([sys.executable, "-m", "frieze_mod.cli", *args],
                                 stdout=full, stderr=subprocess.PIPE, text=True,
                                 env={**_env_with_src(), "PYTHONUNBUFFERED": unbuffered},
                                 timeout=60)
        assert (res.returncode, res.stderr) == (
            1, "cannot write stdout: [Errno 28] No space left on device\n"), unbuffered


def test_a_failing_verify_exits_1():
    # no real range breaks a law, so the driver is handed a broken check
    # for one law: k = 0 of every modulus it reads fails
    broken = ("from frieze_mod import verify\n"
              "_, hypothesis, text = verify._LAWS['size-bound']\n"
              "verify._LAWS['size-bound'] = (\n"
              "    lambda n, t: [([0], ('x', 'y'))], hypothesis, text)\n")
    for args in (["verify", "size-bound", "--max", "20"], ["verify", "all", "--max", "12"]):
        res = subprocess.run([sys.executable, "-c", broken + _ENTRY, *args],
                             capture_output=True, text=True, env=_env_with_src(),
                             timeout=60)
        assert (res.returncode, res.stderr) == (1, ""), args
        assert '"status": "fail"' in res.stdout


# An object made before main runs, which says so on stderr when it is
# finalized: the interpreter's module teardown would finalize it
_FINALIZED = ("import sys\n"
              "class Loud:\n"
              "    def __del__(self, write=sys.stderr.write):\n"
              "        write('finalized\\n')\n"
              "loud = Loud()\n")


def test_the_process_command_line_ends_without_finalization():
    # main() on the process's own command line ends the process from its
    # exit handler, so the object is never finalized; main(argv), as any
    # in-process caller runs it, leaves the interpreter's exit as it was
    for entry, err in ((_ENTRY, ""),
                       (_ENTRY.replace("main()", "main(sys.argv[1:])"),
                        "finalized\n")):
        res = subprocess.run([sys.executable, "-c", _FINALIZED + entry,
                              "size", "5", "0"],
                             capture_output=True, text=True, env=_env_with_src(),
                             timeout=60)
        assert (res.returncode, res.stdout, res.stderr) == (0, "2, -Id\n", err)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_profiler_around_the_command_line_still_prints_its_report(unbuffered):
    # cProfile catches the command's SystemExit and prints its report,
    # before the exit handlers run; the report ends in two blank lines
    res = subprocess.run([sys.executable, "-m", "cProfile", "-m", "frieze_mod.cli",
                          "size", "5", "0"],
                         capture_output=True, text=True, timeout=60,
                         env={**_env_with_src(), "PYTHONUNBUFFERED": unbuffered})
    assert (res.returncode, res.stderr) == (0, "")
    answer, report = res.stdout.split("\n", 1)
    assert answer == "2, -Id"
    assert " function calls " in report and report.endswith("\n\n\n")


def test_an_internal_error_exits_1_with_its_traceback():
    # an exception that escapes main registers no exit handler: the
    # interpreter prints its traceback and exits 1
    broken = ("from frieze_mod import pair\n"
              "def _verdict(classes, law):\n"
              "    raise RuntimeError('no verdict')\n"
              "pair._verdict = _verdict\n")
    res = subprocess.run([sys.executable, "-c", broken + _ENTRY, "classify", "9", "3"],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=60)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.startswith("Traceback (most recent call last):\n")
    assert res.stderr.endswith("\nRuntimeError: no verdict\n")


@pytest.mark.parametrize("after,code,err", [
    ("raise RuntimeError('after main')", 1, "\nRuntimeError: after main\n"),
    ("sys.stdout = None; sys.exit(3)", 3, ""),
])
def test_what_follows_main_keeps_the_interpreters_exit(after, code, err):
    # main() has registered its exit handler, but the caller raises, or
    # leaves stdout unflushable: the handler leaves the exit to the
    # interpreter, which reports it as it would have
    entry = f"import sys; from frieze_mod.cli import main; main(); {after}"
    res = subprocess.run([sys.executable, "-c", entry, "size", "5", "0"],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=60)
    assert (res.returncode, res.stdout) == (code, "2, -Id\n")
    assert res.stderr.endswith(err) and bool(res.stderr) == bool(err)


def test_survey_from_the_command_line_is_mains_byte_for_byte(tmp_path):
    # about 1 MB, one write per modulus, to a pipe or to --out: the
    # process that ends from its exit handler has written all of it
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_mod.main(["survey", "--max", "250"]) == 0
    want = out.getvalue().encode()
    path = tmp_path / "survey.csv"
    for extra, stdout in (([], want), (["--out", str(path)], b"")):
        for unbuffered in ("", "1"):
            res = subprocess.run([sys.executable, "-c", _ENTRY, "survey", "--max",
                                  "250", *extra],
                                 capture_output=True, timeout=60,
                                 env={**_env_with_src(), "PYTHONUNBUFFERED": unbuffered})
            assert (res.returncode, res.stdout, res.stderr) == (0, stdout, b""), (
                extra, unbuffered)
            if extra:
                assert path.read_bytes() == want
                path.unlink()


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from frieze_mod import *", namespace)
    missing = [name for name in frieze_mod.__all__ if name not in namespace]
    assert not missing
    assert namespace["minimal_monomial_size"](35, 23) == (70, 1)
    with pytest.raises(AttributeError):
        frieze_mod.no_such_name


# The ci tests below run the command line past tier-1's ranges: the
# survey table and the classify and witness lines against
# perfbench/oracle.py, which computes them without the package, the
# memory of the range commands, and verify

@pytest.fixture(scope="module")
def oracle():
    """perfbench/oracle.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _command(*args):
    """The stdout of python -m frieze_mod.cli args, which must exit 0."""
    res = subprocess.run([sys.executable, "-m", "frieze_mod.cli", *args],
                         capture_output=True, env=_env_with_src(), timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.ci
def test_survey_to_200_equals_the_oracle(oracle):
    # the range reaches three odd primes in one modulus (105, 165, 195)
    # and the prime powers 81, 121, 125, 128 and 169, from whose rows
    # composite rows are built
    assert _command("survey", "--max", "200") == \
        (oracle.survey_csv(2, 200) + "\n").encode()


# A small parent that runs one command line as its child, with the
# child's stdout in a file, not in memory, and prints the child's wait
# status, the sha256 of its stdout and its peak RSS in KB. A child's
# ru_maxrss counts its parent's resident size at the fork, so the
# parent is not the test process
_DIGESTED = """\
import hashlib, os, subprocess, sys, tempfile
with tempfile.TemporaryFile() as out:
    child = subprocess.Popen([sys.executable, "-m", "frieze_mod.cli", *sys.argv[1:]],
                             stdout=out)
    _, status, usage = os.wait4(child.pid, 0)
    out.seek(0)
    digest = hashlib.sha256()
    for block in iter(lambda: out.read(1 << 20), b""):
        digest.update(block)
print(status, digest.hexdigest(), usage.ru_maxrss)
"""


_SURVEY_2000_SHA256 = {
    "csv": "9854740881102aaed56b51ce732ef9fdb911356105167fc3037a6d6d95dbafd4",
    "json": "371d416b310226cbabe128609dd97639ae0f98a2d1866d4badde049823e0482c",
}


@pytest.mark.ci
@pytest.mark.parametrize("fmt", list(_SURVEY_2000_SHA256))
def test_survey_to_2000_keeps_its_table_in_80_mb(fmt):
    # survey --max 2000 --force gives its pinned table, byte for byte,
    # in at most 80 MB: written a modulus at a time it
    # peaks at 22-25 MB, where the table held until the end took 332 MB
    # (CSV) and 907 MB (JSON). Measured 3 s each (2 cores, Python 3.11.7)
    res = subprocess.run([sys.executable, "-c", _DIGESTED, "survey", "--max",
                          "2000", "--force", "--format", fmt],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=300)
    assert res.returncode == 0, res.stderr
    status, digest, rss_kb = res.stdout.split()
    assert (status, digest) == ("0", _SURVEY_2000_SHA256[fmt])
    assert int(rss_kb) / 1024 <= 80, f"{int(rss_kb) / 1024:.0f} MB"


def _traced(code):
    """The json.loads of what code prints in a fresh child that traces
    its memory from before it imports the package (tracemalloc)."""
    code = "import json, tracemalloc\ntracemalloc.start()\n" + code
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env_with_src(), timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.mark.ci
def test_survey_to_1000_peaks_at_5_5_mb_traced():
    # the one class-tuple fill keeps one memo, each distinct tuple to one
    # shared verdict record (3.48 MB), where a second per-k verdict memo
    # took 7.2 MB. Measured 8 s alone (2 cores, Python 3.11.7)
    code, peak = _traced(
        "import contextlib, os\n"
        "from frieze_mod.cli import main\n"
        "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
        "    code = main(['survey', '--max', '1000', '--force'])\n"
        "print(json.dumps([code, tracemalloc.get_traced_memory()[1]]))\n")
    assert code == 0
    assert peak <= 5.5 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


@pytest.mark.ci
def test_the_battery_to_1000_passes_and_peaks_at_4_3_mb_traced():
    # run_all(2, 1000), imports included, walks the fill a modulus at a
    # time, running each modulus's checks on its tuples and then
    # dropping them (3.57 MB). Holding the tuples of every modulus until
    # the last check took 4.94 MB, and a second dict of first corners
    # beside the memo 3.65 MB. Measured 3 s alone (2 cores, Python 3.11.7)
    statuses, peak = _traced(
        "from frieze_mod.verify import run_all\n"
        "statuses = sorted({r.status for r in run_all(2, 1000)})\n"
        "print(json.dumps([statuses, tracemalloc.get_traced_memory()[1]]))\n")
    assert statuses == ["pass"]
    assert peak <= 4.3 * 2 ** 20, f"{peak / 2 ** 20:.2f} MB"


@pytest.mark.ci
def test_classify_and_witness_lines_equal_the_oracle(runner, oracle):
    # every pair with n <= 40, 500 seeded pairs with 41 <= n <= 2000 (the
    # range of the queries workload) and, with --force, 200 seeded pairs
    # with 2000 < n <= 20000. Measured 1 s alone (2 cores, Python 3.11.7)
    rng = random.Random(1)
    pairs = [(n, k) for n in range(2, 41) for k in range(n)]
    pairs += [(n, rng.randrange(n))
              for n in (rng.randint(41, 2000) for _ in range(500))]
    pairs += [(n, rng.randrange(n))
              for n in (rng.randint(2001, 20000) for _ in range(200))]
    assert len(pairs) == 1519
    bad = [(cmd, n, k) for n, k in pairs
           for cmd, line in (("classify", oracle.classify_line),
                             ("witness", oracle.witness_line))
           if runner.invoke(cli, [cmd, str(n), str(k), *["--force"] * (n > 2000)]).output
           != line(n, k) + "\n"]
    assert not bad, bad[:5]


@pytest.mark.ci
def test_verify_all_to_120_passes():
    _command("verify", "all", "--max", "120")


@pytest.mark.ci
def test_a_single_id_reports_what_verify_all_reports():
    # a single-id verify decides only the rows its law reads, and must
    # report what verify all reports for that id, elapsed_ms apart
    one = json.loads(_command("verify", "three-h-criterion", "--max", "250"))
    entry, = (r for r in json.loads(_command("verify", "all", "--max", "250"))
              if r["theorem_id"] == one["theorem_id"])
    assert {**entry, "elapsed_ms": 0} == {**one, "elapsed_ms": 0}
