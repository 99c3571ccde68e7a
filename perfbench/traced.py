"""The traced run: per-layer metrics from in-process calls into the package.

The layers are the package modules: ring, modmat, cycles, monomial,
reduce, verify and cli. Nothing inside the package is changed. While
instrumented, every public function of those modules (and the methods
in METHODS) is rebound, wherever a module holds a reference to it, to a
wrapper that records a span: name, start, end, parent span and trace id.
Spans stay in memory and are written out when the run ends; a layer's
self time is its spans' durations minus the parts covered by their
child spans.

The run has three parts:
  1. the CLI probes (cli.* metrics), timed without instrumentation;
     cli.import_ms comes from fresh interpreters;
  2. one pass of the workload's inputs replayed in-process through
     click's CliRunner, each command once plain and once instrumented;
     the ratio of the two wall times is the tracing overhead;
  3. the layer battery over every pair with n <= 250, instrumented.
Every metric a part cannot produce, because a function it calls no
longer exists, is reported as missing with the reason, never as 0.
"""

from __future__ import annotations

import gzip
import importlib
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path

from click.testing import CliRunner

import oracle
import workloads

LAYERS = ("ring", "modmat", "cycles", "monomial", "reduce", "verify", "cli")
METHODS = {
    ("cycles", "Cycle", "__str__"): "cycles.Cycle.__str__",
    ("reduce", "ReductionWitness", "cycle"): "reduce.ReductionWitness.cycle",
    ("cli", "_Cache", "__init__"): "cli.cache_load",
    ("cli", "_Cache", "save"): "cli.cache_save",
}
VERIFIER_IDS = ("size-bound", "eight-divides", "odd-sizes", "three-h-criterion",
                "size-n", "prime-powers", "reducible-constructions",
                "special-sizes", "overshoot-3m", "unbounded-family")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import frieze_mod.cli; "
                "print(time.perf_counter() - t)")
IMPORT_PROBES = 5
CHECK_ROUNDS = 3
WARM_PROBES = 3
CLASSIFY_PROBES = 5
# m_n over the constant cycle (5, ..., 5) mod 1000003.
M_N_CASE = (1000003, 5, 20000, 3)
# classify probes: hits lie inside the seeded n <= 250 cache, misses
# outside it, each pair new to the cache.
HIT_PAIRS = [(250 - 7 * i, 3 + 11 * i) for i in range(CLASSIFY_PROBES)]
MISS_PAIRS = [(1999 - 13 * i, 17 + 5 * i) for i in range(CLASSIFY_PROBES)]


class Tracer:
    """Spans in parallel arrays: name id, start and end (ns), parent
    index (-1 for a root) and trace id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.stack: list[int] = []
        self.trace_id = 0
        self.first = [0]            # index of the first span of each trace

    def new_trace(self) -> int:
        """Start the next trace; its spans are contiguous from here."""
        self.trace_id += 1
        self.first.append(len(self.start))
        return self.trace_id

    def wrap(self, label: str, fn):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        name_id = self._ids[label]
        names, starts, ends = self.name, self.start, self.end
        parents, traces, stack = self.parent, self.trace, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            traces.append(tracer.trace_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def spans(self, label: str, trace_id: int) -> list[int]:
        """Indices of the spans with this name in one trace."""
        name_id = self._ids.get(label)
        end = self.first[trace_id + 1] if trace_id + 1 < len(self.first) else len(self.start)
        return [i for i in range(self.first[trace_id], end) if self.name[i] == name_id]

    def total_ms(self, label: str, trace_id: int) -> float:
        return sum(self.end[i] - self.start[i] for i in self.spans(label, trace_id)) / 1e6

    def self_ms_by_layer(self) -> dict[str, float]:
        covered = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {layer: 0 for layer in LAYERS}
        for i, n in enumerate(self.name):
            layer = self.names[n].split(".", 1)[0]
            out[layer] = out.get(layer, 0) + self.end[i] - self.start[i] - covered[i]
        return {layer: ns / 1e6 for layer, ns in out.items()}

    def write(self, path: Path) -> None:
        """One CSV line per span: name,start_ns,end_ns,parent,trace."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,trace\n")
            fh.writelines(f"{names[n]},{s},{e},{p},{t}\n" for n, s, e, p, t in zip(
                self.name, self.start, self.end, self.parent, self.trace))


class Package:
    """The package modules loaded from the checkout's src directory."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        self.root = importlib.import_module("frieze_mod")
        if not Path(self.root.__file__).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"frieze_mod imported from {self.root.__file__}, not {src}")
        self.mods = {}
        for layer in LAYERS:
            try:
                self.mods[layer] = importlib.import_module(f"frieze_mod.{layer}")
            except ModuleNotFoundError:
                pass

    def __getattr__(self, layer):
        try:
            return self.__dict__["mods"][layer]
        except KeyError:
            raise AttributeError(f"module frieze_mod.{layer} is missing") from None

    def instrument(self, tracer: Tracer) -> list:
        """Rebind public functions to traced wrappers; returns the undo log."""
        wrapped = {}
        for layer, mod in self.mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
        undo = []
        for mod in [self.root, *self.mods.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit and hit[0] is obj:
                    undo.append((vars(mod), attr, obj))
                    setattr(mod, attr, hit[1])
        registry = getattr(self.mods.get("verify"), "VERIFIERS", {})
        for key, fn in list(registry.items()):
            hit = wrapped.get(id(fn))
            if hit:
                undo.append((registry, key, fn))
                registry[key] = hit[1]
        for (layer, cls_name, meth), label in METHODS.items():
            cls = getattr(self.mods.get(layer), cls_name, None)
            if cls is not None and meth in vars(cls):
                fn = vars(cls)[meth]
                undo.append((cls, meth, fn))
                setattr(cls, meth, tracer.wrap(label, fn))
        return undo

    @staticmethod
    def restore(undo: list) -> None:
        for target, attr, obj in reversed(undo):
            if isinstance(target, dict):
                target[attr] = obj
            else:
                setattr(target, attr, obj)


class TracedRun:
    def __init__(self, ctx, pkg: Package, tracer: Tracer):
        self.ctx = ctx              # run.Run: work dirs, checks, counts
        self.pkg = pkg
        self.tracer = tracer
        self.metrics: dict[str, float] = {}
        self.missing: dict[str, str] = {}
        self.runner = CliRunner()

    # -- helpers --------------------------------------------------------

    def measure(self, names, fn) -> None:
        """Run one part of the battery. A vanished function or module
        marks its metrics missing; any other error also fails the run."""
        reason = "not produced"
        try:
            if self.ctx.time_left() <= 0:
                raise TimeoutError("run deadline passed before start")
            values = fn()
        except (AttributeError, ImportError) as e:
            values, reason = {}, f"{type(e).__name__}: {e}"
        except Exception as e:  # a failing part must not stop the others
            values, reason = {}, f"{type(e).__name__}: {e}"
            self.ctx.check(f"battery {names[0]}: {reason}", False)
        for name in names:
            if values.get(name) is None:
                self.missing.setdefault(name, reason)
            else:
                self.metrics[name] = values[name]

    def invoke(self, args, cache_dir):
        """One CLI command in-process, as from a fresh process: the row
        cache starts empty. Returns (exit code 0, stdout)."""
        self._clear_rows()
        env = {"FRIEZE_MOD_CACHE_DIR": str(cache_dir), "XDG_CACHE_HOME": str(cache_dir)}
        result = self.runner.invoke(self.pkg.cli.cli, args, env=env)
        return result.exit_code == 0, result.stdout

    def _row_cache(self):
        """The monomial_row LRU under any traced wrapper, or None."""
        row = getattr(self.pkg.mods.get("verify"), "monomial_row", None)
        while row is not None and not hasattr(row, "cache_clear"):
            row = getattr(row, "__wrapped__", None)
        return row

    def _clear_rows(self):
        row = self._row_cache()
        if row is not None:
            row.cache_clear()

    def timed(self, args, cache_dir, check) -> float:
        t0 = time.perf_counter()
        ok, out = self.invoke(args, cache_dir)
        wall = time.perf_counter() - t0
        self.ctx.check(f"in-process {' '.join(args)}", ok and check(out))
        return wall * 1000

    # -- part 1: CLI probes ----------------------------------------------

    def cli_probes(self, seeded: Path) -> None:
        survey_ok = workloads.digest_check(workloads.FIXED["survey_csv_sha256"])
        json_ok = workloads.digest_check(workloads.FIXED["survey_json_sha256"])

        def probes():
            m = {"cli.survey_cold_ms": self.timed(workloads.SURVEY, seeded, survey_ok)}
            m["cli.cache_bytes"] = workloads.cache_bytes(seeded)
            m["cli.survey_warm_ms"] = statistics.median(
                self.timed(workloads.SURVEY, seeded, survey_ok) for _ in range(WARM_PROBES))
            m["cli.survey_json_warm_ms"] = statistics.median(
                self.timed(workloads.SURVEY_JSON, seeded, json_ok) for _ in range(WARM_PROBES))
            m["cli.survey_nocache_ms"] = self.timed(
                workloads.SURVEY + ["--no-cache"], self.ctx.fresh_dir(), survey_ok)
            probe = self.ctx.fresh_dir()
            shutil.copytree(seeded, probe, dirs_exist_ok=True)
            for name, pairs, extra in (("cli.classify_hit_ms", HIT_PAIRS, []),
                                       ("cli.classify_miss_ms", MISS_PAIRS, []),
                                       ("cli.classify_nocache_ms", MISS_PAIRS, ["--no-cache"])):
                m[name] = statistics.median(
                    self.timed(["classify", str(n), str(k), *extra], probe,
                               workloads.line_check(oracle.classify_line(n, k)))
                    for n, k in pairs)
            return m

        self.measure(["cli.survey_cold_ms", "cli.cache_bytes", "cli.survey_warm_ms",
                      "cli.survey_json_warm_ms", "cli.survey_nocache_ms",
                      "cli.classify_hit_ms", "cli.classify_miss_ms",
                      "cli.classify_nocache_ms"], probes)

    def import_ms(self) -> None:
        def probes():
            walls = []
            for _ in range(IMPORT_PROBES):
                child = self.ctx.spawn(["-c", IMPORT_PROBE], self.ctx.work)
                if self.ctx.check(f"import frieze_mod.cli: {child.why}", child.ok):
                    walls.append(float(child.stdout) * 1000)
            return {"cli.import_ms": statistics.median(walls) if walls else None}

        self.measure(["cli.import_ms"], probes)

    # -- part 2: replay ------------------------------------------------------

    def replay(self, wl, seeded: Path) -> tuple[float, float]:
        """One pass of the workload in-process, each command run plain
        and then instrumented, back to back, so that the host's drifting
        speed cancels out of their ratio. Each side keeps its own cache
        directory. Returns the summed (plain, traced) wall times in ms.
        Traced, each command is a trace with a root span cli.<command>."""
        dirs = [self.ctx.fresh_dir(), self.ctx.fresh_dir()]
        if wl.seeded:
            for d in dirs:
                shutil.copytree(seeded, d, dirs_exist_ok=True)
        walls = [0.0, 0.0]
        for args, _, check in wl.commands:
            for traced in (False, True):
                label = f"replayed{' traced' if traced else ''} {' '.join(args)}"
                if self.ctx.time_left() <= 0:
                    self.ctx.check(f"{label}: run deadline passed", False)
                    continue
                call, undo = self.invoke, []
                if traced:
                    undo = self.pkg.instrument(self.tracer)
                    self.tracer.new_trace()
                    call = self.tracer.wrap(f"cli.{args[0]}", self.invoke)
                try:
                    t0 = time.perf_counter()
                    ok, out = call(args, dirs[traced])
                    walls[traced] += (time.perf_counter() - t0) * 1000
                finally:
                    self.pkg.restore(undo)
                self.ctx.check(label, ok and check(out))
        return walls[0], walls[1]

    # -- part 3: layer battery -------------------------------------------------

    def battery(self, moduli) -> None:
        fixed = workloads.FIXED["counts"]
        pairs = [(n, k) for n in range(2, workloads.SURVEY_MAX + 1) for k in range(n)]
        t = self.tracer
        sizes = {}

        def size():
            trace = t.new_trace()
            fn = self.pkg.monomial.minimal_monomial_size
            for n, k in pairs:
                sizes[n, k] = fn(n, k)[0]
            steps = sum(sizes.values())
            self.ctx.check("size steps equal the stored count", steps == fixed["size_steps"])
            ms = t.total_ms("monomial.minimal_monomial_size", trace)
            return {"monomial.size_ms": ms, "monomial.size_steps": steps,
                    "monomial.ns_per_step": ms * 1e6 / steps}

        def crt():
            trace = t.new_trace()
            fn = self.pkg.monomial.size_via_crt
            same = all(fn(n, k).size == sizes[n, k] for n, k in pairs)
            self.ctx.check("size_via_crt agrees with the scan", same)
            return {"monomial.crt_ms": t.total_ms("monomial.size_via_crt", trace)}

        def witness():
            trace = t.new_trace()
            fn = self.pkg.reduce.monomial_reduction_witness
            steps = 0
            for n, k in pairs:
                w = fn(n, k)
                steps += w.size - 2 if w else max(sizes[n, k] - 3, 0)
            self.ctx.check("witness steps equal the stored count",
                           steps == fixed["witness_steps"])
            return {"reduce.witness_ms": t.total_ms("reduce.monomial_reduction_witness", trace),
                    "reduce.witness_steps": steps}

        rows = {}

        def row_fill():
            self._clear_rows()
            trace = t.new_trace()
            fn = self.pkg.verify.monomial_row
            for n in range(2, workloads.SURVEY_MAX + 1):
                rows[n] = fn(n)
            reducible = sum(v.kind == "reducible" for r in rows.values() for v in r)
            self.ctx.check("reducible pairs equal the stored count",
                           reducible == fixed["reducible"])
            return {"verify.row_fill_ms": t.total_ms("verify.monomial_row", trace),
                    "reduce.classify_ms": t.total_ms("reduce.is_irreducible_monomial", trace),
                    "monomial.size_calls": len(t.spans("monomial.minimal_monomial_size", trace)),
                    "reduce.reducible_share": reducible / fixed["nonzero_pairs"]}

        def checks():
            run_verifier = self.pkg.verify.run_verifier
            per_id = {v: [] for v in VERIFIER_IDS}
            for round_ in range(CHECK_ROUNDS):
                for vid in VERIFIER_IDS:
                    trace = t.new_trace()
                    report = run_verifier(vid, 2, workloads.SURVEY_MAX)
                    self.ctx.check(f"verifier {vid} passes", report.status in ("pass", "vacuous"))
                    per_id[vid].append(t.total_ms("verify.run_verifier", trace))
                if round_ == 0:
                    info = self._row_cache().cache_info()
            m = {f"verify.check_ms.{v}": statistics.median(x) for v, x in per_id.items()}
            m["verify.check_ms"] = sum(m.values())
            m["verify.row_hits"], m["verify.row_misses"] = info.hits, info.misses
            return m

        def factorize():
            trace = t.new_trace()
            fn = self.pkg.ring.factorize
            for n in moduli:
                fn(n)
            return {"ring.factorize_ms": t.total_ms("ring.factorize", trace),
                    "ring.factorize_calls": len(t.spans("ring.factorize", trace))}

        def m_n():
            n, k, length, reps = M_N_CASE
            trace = t.new_trace()
            cycle = self.pkg.cycles.Cycle.constant(n, k, length)
            for _ in range(reps):
                self.pkg.modmat.m_n(cycle)
            return {"modmat.m_n_ns_per_entry":
                    t.total_ms("modmat.m_n", trace) * 1e6 / (length * reps)}

        def render():
            if not rows:
                return {}
            trace = t.new_trace()
            for r in rows.values():
                for v in r:
                    if v.witness is not None:
                        str(v.witness.cycle())
            return {"cycles.render_ms": t.total_ms("reduce.ReductionWitness.cycle", trace)
                    + t.total_ms("cycles.Cycle.__str__", trace)}

        self.measure(["monomial.size_ms", "monomial.size_steps", "monomial.ns_per_step"], size)
        self.measure(["monomial.crt_ms"], crt)
        self.measure(["reduce.witness_ms", "reduce.witness_steps"], witness)
        self.measure(["verify.row_fill_ms", "reduce.classify_ms", "monomial.size_calls",
                      "reduce.reducible_share"], row_fill)
        self.measure([f"verify.check_ms.{v}" for v in VERIFIER_IDS]
                     + ["verify.check_ms", "verify.row_hits", "verify.row_misses"], checks)
        self.measure(["ring.factorize_ms", "ring.factorize_calls"], factorize)
        self.measure(["modmat.m_n_ns_per_entry"], m_n)
        self.measure(["cycles.render_ms"], render)


def run(ctx, wl, src: Path, spans_path: Path) -> tuple[dict, dict]:
    """The traced run of one workload: (metrics, missing metrics)."""
    pkg = Package(src)
    tracer = Tracer()
    tr = TracedRun(ctx, pkg, tracer)
    tr.import_ms()
    seeded = ctx.fresh_dir()
    tr.cli_probes(seeded)          # its cold survey seeds the cache
    plain_ms, traced_ms = tr.replay(wl, seeded)
    undo = pkg.instrument(tracer)
    try:
        tr.battery(wl.moduli)
    finally:
        pkg.restore(undo)
    tr.metrics["trace.replay_ms"] = plain_ms
    tr.metrics["trace.overhead_ratio"] = traced_ms / plain_ms
    tr.metrics["trace.spans"] = len(tracer.start)
    for layer, ms in tracer.self_ms_by_layer().items():
        tr.metrics[f"{layer}.self_ms"] = ms
    tracer.write(spans_path)
    return tr.metrics, tr.missing
