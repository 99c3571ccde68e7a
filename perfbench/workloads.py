"""Inputs and expected outputs of the three workloads.

Every command is a list of CLI arguments. sweep and survey-cache run the
same fixed commands for every seed; queries draws its pairs from the
seed. Expected outputs come from expected/fixed.json (recorded from the
package when the benchmark was added; the survey digest equals the
oracle's table) or from oracle.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

FIXED = json.loads((Path(__file__).parent / "expected" / "fixed.json").read_text())

SURVEY_MAX = FIXED["survey_max"]
SWEEP_CORE = ["verify", "all", "--min", "2", "--max", "250"]
SWEEP_LIGHT = ["verify", "all", "--min", "2", "--max", "100"]
SURVEY = ["survey", "--max", str(SURVEY_MAX), "--format", "csv"]
SURVEY_JSON = ["survey", "--max", str(SURVEY_MAX), "--format", "json"]
SETUP_PROBE = ["size", "5", "0"]
SETUP_ANSWER = "2, -Id"
# survey-cache: one pass is a cold survey into an empty cache directory
# followed by WARM_RUNS warm ones against it.
WARM_RUNS = 2

# queries: one pass is SIZE_QUERIES size commands and CLASSIFY_QUERIES
# classify/witness commands, shuffled together.
SIZE_QUERIES = 48
CLASSIFY_QUERIES = 32
# Hits outnumber misses, so the classify median sits inside the hit
# cluster (about 0.19 s) rather than in the gap before the misses
# (about 0.33 s, each one rewrites the cache file).
CLASSIFY_HITS = 22
SIZE_LOG_RANGE = (math.log(1e4), math.log(1e6))
# Every WORST_EVERY-th size query is k = +-2 at a prime, where the size
# equals the modulus.
WORST_EVERY = 8
# Other size queries take a random k whose size is at least n / 3. That
# keeps the work of one run close to that of another seed (the size of
# a random k ranges over every divisor of (p +- 1) / 2), while each
# query still costs a full scan of the modulus' order.
MIN_SIZE_SHARE = 3
HIT_MAX_N = SURVEY_MAX       # the cache is seeded with every n <= 250
MISS_MAX_N = 2000            # the largest modulus classify takes without --force


@dataclass(frozen=True)
class Query:
    kind: str                # "size", "classify" or "witness"
    n: int
    k: int
    expected: str            # stdout without the trailing newline
    hit: bool                # answered from the seeded cache

    @property
    def args(self) -> list[str]:
        return [self.kind, str(self.n), str(self.k)]


def _size_modulus(rng: random.Random, i: int, n0: int) -> int:
    shape = i % 3
    if shape == 0:
        return oracle.next_prime(n0)
    if shape == 1:
        a = rng.choice((2, 3))
        return oracle.next_prime(round(n0 ** (1 / a))) ** a
    c = rng.choice((2, 3, 4, 6, 10, 12))
    return c * oracle.next_prime(n0 // c)


def _size_query(rng: random.Random, i: int) -> Query:
    lo, hi = SIZE_LOG_RANGE
    n0 = int(math.exp(lo + (i + rng.random()) / SIZE_QUERIES * (hi - lo)))
    if i % WORST_EVERY == WORST_EVERY // 2:
        n = oracle.next_prime(n0)
        k = rng.choice((2, n - 2))
    else:
        n = _size_modulus(rng, i, n0)
        best = None
        for _ in range(64):
            k = rng.randrange(n)
            size = oracle.minimal_size(n, k)[0]
            if best is None or size > best[0]:
                best = (size, k)
            if size * MIN_SIZE_SHARE >= n:
                break
        k = best[1]
    return Query("size", n, k, oracle.size_line(n, k), False)


def queries(seed: int) -> list[Query]:
    """One pass of the queries workload, the same list for the same seed."""
    rng = random.Random(seed)
    out = [_size_query(rng, i) for i in range(SIZE_QUERIES)]
    seen = set()
    for i in range(CLASSIFY_QUERIES):
        hit = i < CLASSIFY_HITS
        while True:
            n = rng.randint(2, HIT_MAX_N) if hit else rng.randint(HIT_MAX_N + 1, MISS_MAX_N)
            k = rng.randrange(n)
            if hit or (n, k) not in seen:
                break
        seen.add((n, k))
        kind = rng.choice(("classify", "witness"))
        line = oracle.classify_line(n, k) if kind == "classify" else oracle.witness_line(n, k)
        out.append(Query(kind, n, k, line, hit))
    rng.shuffle(out)
    return out


def cache_bytes(cache_dir: Path) -> int:
    """Size of the result cache file in cache_dir; 0 when there is none."""
    f = Path(cache_dir) / "classify-cache.json"
    return f.stat().st_size if f.exists() else 0


def line_check(line: str) -> Callable[[str], bool]:
    return lambda out: out == line + "\n"


def digest_check(digest: str) -> Callable[[str], bool]:
    return lambda out: hashlib.sha256(out.encode()).hexdigest() == digest


def verify_check(args: list[str]) -> Callable[[str], bool]:
    """The reports, minus elapsed_ms, equal the stored ones, and each is
    pass or vacuous."""
    want = FIXED["verify"][" ".join(args)]

    def check(out: str) -> bool:
        try:
            got = json.loads(out)
            for r in got:
                r.pop("elapsed_ms")
        except (ValueError, TypeError, AttributeError, KeyError):
            return False
        return got == want and all(r["status"] in ("pass", "vacuous") for r in got)
    return check


def query_check(q: Query) -> Callable[[str], bool]:
    """The stored answer; a size is also re-derived by the order test."""
    def check(out: str) -> bool:
        if out != q.expected + "\n":
            return False
        if q.kind != "size":
            return True
        text = out.strip()
        sign = -1 if text.endswith(", -Id") else 1
        return oracle.is_minimal_size(q.n, q.k, int(text.split(",")[0]), sign)
    return check


Command = tuple[list[str], str, Callable[[str], bool]]   # args, class, output check


@dataclass
class Workload:
    """One pass of commands, run with a fresh cache directory per pass."""

    name: str
    commands: list[Command]
    seeded: bool            # each pass starts from the n <= 250 survey cache
    once: list[Command]     # untimed checks made once per run
    pass_seconds: float     # one pass on the reference machine
    moduli: list[int]       # the moduli the workload factors
    counts: dict            # exact work per pass


def build(name: str, seed: int) -> Workload:
    survey_ok = digest_check(FIXED["survey_csv_sha256"])
    small = list(range(2, SURVEY_MAX + 1))
    if name == "sweep":
        return Workload(name, [(SWEEP_CORE, "core", verify_check(SWEEP_CORE)),
                               (SWEEP_LIGHT, "light", verify_check(SWEEP_LIGHT))],
                        False, [], 4.4, small,
                        {"pairs_decided": sum(range(2, 251)) + sum(range(2, 101)),
                         "commands": 2})
    if name == "survey-cache":
        return Workload(name, [(SURVEY, "core", survey_ok)]
                        + [(SURVEY, "light", survey_ok)] * WARM_RUNS,
                        False, [(SURVEY + ["--no-cache"], "check", survey_ok)], 4.6, small,
                        {"pairs_decided": FIXED["counts"]["pairs"], "rows_per_survey":
                         FIXED["counts"]["pairs"], "commands": 1 + WARM_RUNS})
    if name == "queries":
        qs = queries(seed)
        kinds = [q.kind for q in qs]
        return Workload(name, [(q.args, "core" if q.kind == "size" else "light",
                                query_check(q)) for q in qs],
                        True, [], 22.0, sorted({q.n for q in qs}),
                        {"commands": len(qs), "size": kinds.count("size"),
                         "classify": kinds.count("classify"),
                         "witness": kinds.count("witness"),
                         "expected_hits": sum(q.hit for q in qs),
                         "expected_misses": sum(not q.hit for q in qs if q.kind != "size"),
                         "size_steps": sum(int(q.expected.split(",")[0])
                                           for q in qs if q.kind == "size")})
    raise ValueError(f"unknown workload {name!r}")
