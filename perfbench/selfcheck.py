"""Checks that the benchmark harness catches what it claims to catch.

    python3 perfbench/selfcheck.py

1. The oracle reproduces the stored survey digest, so the stored
   expectation does not merely echo the program.
2. A stored answer with one digit flipped makes its command count as
   failed, and its time is not kept as a sample.
3. A per-layer metric whose function is gone is reported as missing,
   with the reason, and not as 0.
4. Without the package sources the benchmark exits nonzero and prints
   no result.
Prints one line per check and exits nonzero if any check fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import subprocess
import sys

import oracle
import run
import traced
import workloads


def flip_digit(text: str) -> str:
    i = next(i for i, c in enumerate(text) if c.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def oracle_matches_digest() -> bool:
    table = oracle.survey_csv(2, workloads.SURVEY_MAX) + "\n"
    return hashlib.sha256(table.encode()).hexdigest() == workloads.FIXED["survey_csv_sha256"]


def corrupted_answer_fails(r: run.Run) -> bool:
    qs = workloads.queries(1)
    size_q = next(q for q in qs if q.kind == "size" and q.n < 20000)
    other = next(q for q in qs if q.kind != "size" and any(c.isdigit() for c in q.expected))
    bad = dataclasses.replace(other, expected=flip_digit(other.expected))
    cache_dir = r.fresh_dir()
    before = r.failed
    good = r.command(size_q.args, "core", cache_dir, workloads.query_check(size_q))
    wrong = r.command(bad.args, "light", cache_dir, workloads.query_check(bad))
    return (good.ok and not wrong.ok and r.failed == before + 1
            and len(r.samples["core"]) == 1 and not r.samples["light"])


def missing_metric_reported(r: run.Run) -> bool:
    pkg = traced.Package(run.SRC)
    tr = traced.TracedRun(r, pkg, traced.Tracer())
    row = pkg.verify.monomial_row
    del pkg.verify.monomial_row
    try:
        tr.battery([2, 3])
    finally:
        pkg.verify.monomial_row = row
    names = ("verify.row_fill_ms", "verify.row_hits", "verify.check_ms")
    return (all(n in tr.missing and n not in tr.metrics for n in names)
            and "monomial.size_ms" in tr.metrics)


def bare_directory_refused(r: run.Run) -> bool:
    bare = r.fresh_dir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=170)
    return p.returncode != 0 and '"correct"' not in p.stdout


def main() -> int:
    work = run.OUT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ok = True
    try:
        for label, check in (("oracle reproduces the stored survey digest", oracle_matches_digest),
                             ("a flipped digit in an expected answer fails", corrupted_answer_fails),
                             ("a vanished layer function is reported missing",
                              missing_metric_reported),
                             ("a directory without sources is refused", bare_directory_refused)):
            r = run.Run(work / label.split()[1])
            r.work.mkdir()
            passed = check(r) if check is not oracle_matches_digest else check()
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {label}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
