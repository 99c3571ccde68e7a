import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import frieze_mod
from frieze_mod import reduce as reduce_module
from frieze_mod.cli import _CSV_HEADER, SCHEMA_VERSION, cli


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


@pytest.fixture()
def runner(cache_dir):
    return CliRunner(env={"FRIEZE_MOD_CACHE_DIR": str(cache_dir)})


@pytest.mark.parametrize("args,want", [
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
])
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
    known = ", ".join([*VERIFIERS, "unbounded-family", "all"])
    assert res.stderr.endswith(
        f"Error: unknown theorem id 'no-such-law'; known: {known}\n")


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


def test_unwritable_out_exits_1(runner, tmp_path):
    res = runner.invoke(cli, ["verify", "size-bound", "--max", "20",
                              "--out", str(tmp_path / "no-dir" / "x.json")])
    assert res.exit_code == 1


def test_survey_csv(runner):
    res = runner.invoke(cli, ["survey", "--max", "3"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == _CSV_HEADER
    assert lines[1] == "2,0,2,1,zero-convention,,,"
    assert lines[-1] == "3,2,3,1,irreducible,,,"
    assert len(lines) == 6
    assert res.output.endswith("\n") and not res.output.endswith("\n\n")


def test_survey_row_with_witness(runner):
    res = runner.invoke(cli, ["survey", "--min", "9", "--max", "9"])
    rows = [line for line in res.output.splitlines()
            if line.startswith("9,3,")]
    assert rows == ["9,3,6,-1,reducible,4,6,6"]


def test_survey_empty_range_is_header_only(runner):
    res = runner.invoke(cli, ["survey", "--min", "5", "--max", "4"])
    assert res.exit_code == 0
    assert res.output == _CSV_HEADER + "\n"


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


def _rows_dir(cache_dir):
    return cache_dir / f"v{SCHEMA_VERSION}"


def _count_verdicts(monkeypatch):
    """Record every (n, k) the CLI computes rather than reads, whether
    by a whole row (decide_row) or a single pair. Each command looks both
    functions up in reduce when it starts."""
    calls = []
    pair, row = reduce_module.is_irreducible_monomial, reduce_module.decide_row
    monkeypatch.setattr(reduce_module, "is_irreducible_monomial",
                        lambda n, k: calls.append((n, k)) or pair(n, k))
    monkeypatch.setattr(reduce_module, "decide_row",
                        lambda n: calls.extend((n, k) for k in range(n)) or row(n))
    return calls


def test_cache_round_trip_and_bypass(runner, cache_dir, monkeypatch):
    cold = runner.invoke(cli, ["survey", "--max", "8"])
    rows = _rows_dir(cache_dir)
    assert sorted(f.name for f in rows.iterdir()) == \
        [f"{n}.json" for n in range(2, 9)]
    assert sorted(json.loads((rows / "8.json").read_text()), key=int) == \
        [str(k) for k in range(8)]

    calls = _count_verdicts(monkeypatch)
    warm = runner.invoke(cli, ["survey", "--max", "8"])
    assert calls == []                  # every row read from the cache
    bypass = runner.invoke(cli, ["survey", "--max", "8", "--no-cache"])
    assert len(calls) == sum(range(2, 9))
    assert cold.output == warm.output == bypass.output

    first = runner.invoke(cli, ["classify", "9", "3"])
    second = runner.invoke(cli, ["classify", "9", "3"])
    assert first.output == second.output == \
        "reducible; witness size 4: (6,3,3,6)\n"
    assert calls[-1] == (9, 3) and len(calls) == sum(range(2, 9)) + 1


def test_corrupt_cache_file_is_tolerated(runner, cache_dir):
    cache_file = _rows_dir(cache_dir) / "9.json"
    cache_file.parent.mkdir(parents=True)
    for junk in ("{not json", "[1, 2]", '"text"', "\xff\xfe"):
        cache_file.write_text(junk, encoding="latin-1")
        res = runner.invoke(cli, ["classify", "9", "3"])
        assert res.exit_code == 0, junk
        assert res.output == "reducible; witness size 4: (6,3,3,6)\n"
        assert json.loads(cache_file.read_text()) == \
            {"3": [6, -1, "reducible", 4, 6, 6, 1]}     # rebuilt valid


def test_tampered_cache_entry_is_ignored(runner, cache_dir):
    runner.invoke(cli, ["classify", "9", "3"])
    cache_file = _rows_dir(cache_dir) / "9.json"
    good = json.loads(cache_file.read_text())
    for tampered in ([6, -1, "bogus", 4, 6, 6, 1],
                     [6, -1, "bogus", None, None, None, None],
                     [6, -1, "irreducible", 4, 6, 6, 1]):
        cache_file.write_text(json.dumps({"3": tampered}))
        res = runner.invoke(cli, ["classify", "9", "3"])
        assert res.output == "reducible; witness size 4: (6,3,3,6)\n"
        assert json.loads(cache_file.read_text()) == good   # rewritten
        cache_file.write_text(json.dumps({"3": tampered}))
        res = runner.invoke(cli, ["survey", "--min", "9", "--max", "9"])
        assert res.output.splitlines()[4] == "9,3,6,-1,reducible,4,6,6"


def test_classify_reads_and_writes_only_its_modulus(runner, cache_dir,
                                                    monkeypatch):
    runner.invoke(cli, ["survey", "--max", "12"])
    rows = _rows_dir(cache_dir)
    (rows / "10.json").write_text("{corrupt")
    def files():     # the inode changes when a file is replaced
        return {f.name: (f.read_bytes(), f.stat().st_ino)
                for f in rows.iterdir()}

    before = files()
    reads = []
    real_read = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **kw:
                        reads.append(self.name) or real_read(self, *a, **kw))

    res = runner.invoke(cli, ["classify", "9", "3"])          # a hit
    assert res.output == "reducible; witness size 4: (6,3,3,6)\n"
    assert reads == ["9.json"]
    assert files() == before

    reads.clear()
    res = runner.invoke(cli, ["witness", "250", "7"])          # a miss
    assert res.exit_code == 0
    assert reads == ["250.json"]
    after = files()
    assert after.pop("250.json")
    assert after == before


def test_partial_file_completed_by_survey(runner, cache_dir):
    runner.invoke(cli, ["classify", "9", "3"])
    for fmt in ("csv", "json"):
        args = ["survey", "--max", "12", "--format", fmt]
        cached = runner.invoke(cli, args)
        assert cached.output == runner.invoke(cli, args + ["--no-cache"]).output
    entries = json.loads((_rows_dir(cache_dir) / "9.json").read_text())
    assert sorted(entries, key=int) == [str(k) for k in range(9)]


def test_survey_replaces_only_bad_rows_in_place(runner, cache_dir):
    # a row decided for a whole modulus fills only the missing or bad
    # keys: bad ones where they stand, missing ones appended by k
    runner.invoke(cli, ["classify", "9", "5"])
    runner.invoke(cli, ["classify", "9", "3"])
    cache_file = _rows_dir(cache_dir) / "9.json"
    stored = json.loads(cache_file.read_text())
    stored["5"][0] = "junk"
    cache_file.write_text(json.dumps(stored))
    res = runner.invoke(cli, ["survey", "--min", "9", "--max", "9"])
    assert res.output == runner.invoke(
        cli, ["survey", "--min", "9", "--max", "9", "--no-cache"]).output
    entries = json.loads(cache_file.read_text())
    assert list(entries) == ["5", "3", "0", "1", "2", "4", "6", "7", "8"]
    assert entries["5"] == [9, 1, "irreducible", None, None, None, None]


# One pair of each kind: (n, k, row as the cache stores it).
_PAIRS = [(9, 3, [6, -1, "reducible", 4, 6, 6, 1]),
          (62, 3, [15, 1, "irreducible", None, None, None, None]),
          (5, 0, [2, -1, "zero-convention", None, None, None, None])]


@st.composite
def _tampered(draw):
    n, k, row = draw(st.sampled_from(_PAIRS))
    row = list(row)
    how = draw(st.sampled_from(["size", "length", "kind", "witness"]))
    if how == "size":
        row[0] = draw(st.booleans() | st.text(max_size=3) | st.just(str(row[0])))
    elif how == "length":
        cut = draw(st.integers(0, 6))
        row = row[:cut] if draw(st.booleans()) else row + [None] * (7 - cut)
    elif how == "kind":
        row[2] = draw(st.text(max_size=20).filter(
            lambda s: s not in ("irreducible", "reducible", "zero-convention")))
    else:
        # a nonempty proper subset of the four witness fields flips
        # between null and an int
        flip = draw(st.lists(st.integers(3, 6), min_size=1, max_size=3,
                             unique=True))
        for i in flip:
            row[i] = None if row[i] is not None else draw(st.integers(0, n - 1))
    return n, k, row


@given(_tampered(), st.sampled_from(["classify", "witness", "survey"]))
@settings(max_examples=80, deadline=None)
def test_tampered_entries_never_change_a_served_line(case, command):
    n, k, row = case
    args = ([command, str(n), str(k)] if command != "survey"
            else ["survey", "--min", str(n), "--max", str(n)])
    with tempfile.TemporaryDirectory() as tmp:
        runner = CliRunner(env={"FRIEZE_MOD_CACHE_DIR": tmp})
        want = runner.invoke(cli, args + ["--no-cache"]).output
        cache_file = _rows_dir(Path(tmp)) / f"{n}.json"
        cache_file.parent.mkdir()
        cache_file.write_text(json.dumps({str(k): row}))
        assert runner.invoke(cli, args).output == want
        assert json.loads(cache_file.read_text())[str(k)] == \
            next(r for m, j, r in _PAIRS if (m, j) == (n, k))


def test_size_and_verify_leave_the_cache_empty(runner, cache_dir):
    for args in (["size", "35", "23"],
                 ["verify", "size-bound", "--max", "20"],
                 ["verify", "all", "--max", "12"]):
        assert runner.invoke(cli, args).exit_code == 0
    assert not cache_dir.exists()


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
    (["size", "35", "23"], ["frieze_mod.monomial", "frieze_mod.ring"]),
    (["oplus", "10", "1,1,3", "-2,0,2"], ["frieze_mod.cycles"]),
    (["classify", "9", "3", "--no-cache"],
     ["frieze_mod.cycles", "frieze_mod.modmat", "frieze_mod.monomial",
      "frieze_mod.reduce", "frieze_mod.ring"]),
])
def test_commands_load_only_what_they_run(args, extra):
    code = "import frieze_mod.cli"
    if args:
        code += ("\nfrom click.testing import CliRunner\n"
                 f"assert CliRunner().invoke(frieze_mod.cli.cli, {args!r}).exit_code == 0")
    assert _loaded_after(code) == sorted(["frieze_mod", "frieze_mod.cli", *extra])


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from frieze_mod import *", namespace)
    missing = [name for name in frieze_mod.__all__ if name not in namespace]
    assert not missing
    assert namespace["minimal_monomial_size"](35, 23) == (70, 1)
    with pytest.raises(AttributeError):
        frieze_mod.no_such_name
