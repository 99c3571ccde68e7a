"""Benchmark of the frieze-mod command line, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

Workloads (see BENCHMARK.json and layer_map.json):
  sweep         verify all --max 250 and --max 100; never touches the cache
  survey-cache  survey --max 250, once cold and then warm, per fresh cache
  queries       size / classify / witness commands drawn from the seed

--trace 0 runs every command as its own child process, one at a time
(a closed loop from one client), and prints the end-to-end metrics.
The speed of a shared host drifts by up to 2x within minutes, so each
command's time is scaled to a reference speed: a fixed pure-Python loop
is timed in this process after every timed command, and the command's
time is multiplied by REF_LOOP_MS over the mean of the loop times just
before and just after it. The unscaled figures are on the detail line.
--trace 1 replays the same inputs in-process with spans and prints the
per-layer metrics (traced.py). Every output is checked; a mismatch, a
nonzero exit or a timeout counts as failed and is never timed.

The program is run from the checkout's src directory with a private
cache directory under .perfbench/, which is removed at exit. The last
line of stdout is the result; the line before it holds the details:
work counts, tail percentile, provenance and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
ENTRY = "import sys; from frieze_mod.cli import main; sys.exit(main())"
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 60.0
# Work still pending at this point fails as timed out, so that a run
# ends well inside three minutes however slow the program gets.
DEADLINE_S = 150.0
MAX_ERRORS_SHOWN = 5
# The reference loop: REF_LOOP_N steps of integer products mod a prime,
# the kind of work the program's core does. REF_LOOP_MS is its median
# time on the reference machine (2 cores, Python 3.11.7). After a command
# the loop runs once, plus once per whole second the command took, at
# most REF_LOOP_MAX_REPS times, and its mean time is used.
REF_LOOP_N = 500_000
REF_LOOP_MS = 110.0
REF_LOOP_MAX_REPS = 3


@dataclass
class Child:
    wall_s: float
    ok: bool
    stdout: str
    why: str
    scaled_s: float = 0.0


def ref_loop_ms(reps: int = 1) -> float:
    """Mean time of the reference loop in this process, in ms."""
    t0 = time.perf_counter()
    for _ in range(reps):
        x = 1
        for i in range(REF_LOOP_N):
            x = (x * 48271 + i) % 2147483647
    return (time.perf_counter() - t0) * 1000 / reps


class Run:
    """Work directory, command accounting and samples of one run."""

    def __init__(self, work: Path):
        self.work = work
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {"setup": [], "core": [], "light": []}
        self.raw: dict[str, list[float]] = {k: [] for k in self.samples}
        self.ref_ms: list[float] = []
        self.pass_walls: list[float] = []
        self.raw_pass_walls: list[float] = []
        self._ref_fresh = False     # ref_ms[-1] was timed right after the last command
        self.rss_mb = 0.0
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"d{self._dirs}"
        path.mkdir(parents=True)
        return path

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def check(self, label: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(label)
        return ok

    def spawn(self, argv: list[str], cache_dir: Path) -> Child:
        """Run one child to exit; spawn-to-exit wall time and its peak RSS."""
        left = self.time_left()
        if left <= 0:
            return Child(0.0, False, "", "run deadline passed before start")
        env = dict(os.environ, PYTHONPATH=str(SRC), FRIEZE_MOD_CACHE_DIR=str(cache_dir),
                   XDG_CACHE_HOME=str(cache_dir))
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=env, cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], min(CHILD_TIMEOUT_S, left))[0]
            except BaseException:
                timed_out = True
                raise
            finally:
                if timed_out:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                os.close(pidfd)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024)
        if timed_out:
            return Child(wall, False, "", "timed out")
        if proc.returncode:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            return Child(wall, False, "", f"exit {proc.returncode} {tail}")
        return Child(wall, True, out_path.read_text(), "")

    def command(self, args: list[str], kind: str, cache_dir: Path, check) -> Child:
        """One CLI command, checked; only a correct answer is a sample.
        A timed command is bracketed by reference loops and scaled."""
        timed = kind in self.samples
        if timed and not self._ref_fresh:
            self.ref_ms.append(ref_loop_ms())
        before = self.ref_ms[-1] if timed else 0.0
        child = self.spawn(["-c", ENTRY, *args], cache_dir)
        self._ref_fresh = timed
        if timed:
            self.ref_ms.append(ref_loop_ms(min(REF_LOOP_MAX_REPS, 1 + int(child.wall_s))))
            child.scaled_s = child.wall_s * REF_LOOP_MS / ((before + self.ref_ms[-1]) / 2)
        ok = child.ok and check(child.stdout)
        self.check(f"{' '.join(args)}: {child.why or 'wrong output'}", ok)
        if ok and timed:
            self.samples[kind].append(child.scaled_s)
            self.raw[kind].append(child.wall_s)
        child.ok = ok
        return child


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are ten or fewer): (value, percentile, count)."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], round(100 * (n - 10) / n, 1), n


def end_to_end(run: Run, units: dict[str, str], raw: bool = False) -> tuple[dict, dict]:
    """The end-to-end metrics from the scaled samples, or with raw from
    the unscaled wall times."""
    samples = run.raw if raw else run.samples
    pass_walls = run.raw_pass_walls if raw else run.pass_walls
    core, light = samples["core"], samples["light"]
    values = {}
    if samples["setup"]:
        values["setup_s"] = statistics.median(samples["setup"])
    if pass_walls:
        values["wall_s"] = statistics.median(pass_walls)
    info = {}
    if core:
        values["core_p50_ms"] = statistics.median(core) * 1000
        value, pct, n = tail(core)
        values["tail_ms"] = value * 1000
        info["tail"] = {"percentile": pct, "samples": n}
    if light:
        values["light_p50_ms"] = statistics.median(light) * 1000
    if core or light:
        values["cmds_per_s"] = (len(core) + len(light)) / (sum(core) + sum(light))
    values["peak_rss_mb"] = run.rss_mb
    return {k: v for k, v in values.items() if k in units}, info


# The generic metrics under the names they have on one workload (cold_s
# is the cold survey); layer_map.json has the full table.
ALIASES = {
    "sweep": {"wall_s": ("wall_s", 1)},
    "survey-cache": {"core_p50_ms": ("cold_s", 1e-3), "light_p50_ms": ("warm_s", 1e-3)},
    "queries": {"core_p50_ms": ("size_p50_ms", 1), "light_p50_ms": ("classify_p50_ms", 1),
                "tail_ms": ("query_tail_ms", 1), "cmds_per_s": ("queries_per_s", 1)},
}


def measure(run: Run, wl, seconds: int) -> dict:
    """The untraced run: whole passes of the workload, with the setup
    probes spread evenly between its commands so that they see the same
    machine as the rest of the run."""
    setup_ok = workloads.line_check(workloads.SETUP_ANSWER)
    probe_dir = run.fresh_dir()
    run.command(workloads.SETUP_PROBE, "untimed", probe_dir, setup_ok)   # writes bytecode
    for args, kind, check in wl.once:
        run.command(args, kind, run.fresh_dir(), check)
    seeded = None
    if wl.seeded:
        seeded = run.fresh_dir()
        run.command(workloads.SURVEY, "seed", seeded,
                    workloads.digest_check(workloads.FIXED["survey_csv_sha256"]))
    passes = max(1, round(seconds / wl.pass_seconds))
    total = passes * len(wl.commands)
    probe_at = {total * i // SETUP_PROBES for i in range(SETUP_PROBES)}
    issued = 0
    after_pass = []
    for _ in range(passes):
        cache_dir = run.fresh_dir()
        if seeded is not None:
            shutil.copytree(seeded, cache_dir, dirs_exist_ok=True)
        children = []
        for args, kind, check in wl.commands:
            if issued in probe_at:
                run.command(workloads.SETUP_PROBE, "setup", probe_dir, setup_ok)
            issued += 1
            children.append(run.command(args, kind, cache_dir, check))
        if all(c.ok for c in children):
            run.pass_walls.append(sum(c.scaled_s for c in children))
            run.raw_pass_walls.append(sum(c.wall_s for c in children))
        after_pass.append(workloads.cache_bytes(cache_dir))
        if wl.name == "sweep":
            run.check("sweep leaves its cache directory empty", not any(cache_dir.iterdir()))
    return {"passes": passes, **wl.counts,
            "seeded_cache_bytes": workloads.cache_bytes(seeded) if seeded else 0,
            "cache_bytes_after_pass": sorted(set(after_pass))}


def provenance(args) -> dict:
    src = hashlib.sha256()
    for f in sorted((SRC / "frieze_mod").rglob("*.py")):
        src.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": src.hexdigest(), "loadavg_start": os.getloadavg()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "survey-cache", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Stopped from outside, still kill and reap the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for this process and its children, so that the reference
    # loop runs where the commands it scales run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "frieze_mod" / "cli.py").is_file():
        print(f"no frieze_mod sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    detail = provenance(args)
    wl = workloads.build(args.workload, args.seed)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work)
    try:
        if args.trace:
            import traced
            values, missing = traced.run(run, wl, SRC, OUT / f"spans-{args.workload}.csv.gz")
        else:
            detail["counts"] = measure(run, wl, args.seconds)
            values, info = end_to_end(run, units)
            detail.update(info)
            raw, _ = end_to_end(run, units, raw=True)
            detail["unscaled"] = {k: round(v, 6) for k, v in raw.items()}
            detail["ref_loop_ms"] = {"median": round(statistics.median(run.ref_ms), 3),
                                     "min": round(min(run.ref_ms), 3),
                                     "max": round(max(run.ref_ms), 3),
                                     "count": len(run.ref_ms), "reference": REF_LOOP_MS}
            detail["workload_names"] = {
                alias: round(values[name] * scale, 6)
                for name, (alias, scale) in ALIASES[args.workload].items() if name in values}
            missing = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["missing"] = {k: missing.get(k, "no sample") for k in units if k not in values}
    detail["loadavg_end"] = os.getloadavg()
    detail["fail_ratio"] = run.failed / max(run.attempted, 1)
    detail["errors"] = run.errors[:MAX_ERRORS_SHOWN]
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
