"""urmatch benchmark: decide seeded workloads through the CLI and the library.

Run from the repository root:

    python3 perfbench/run.py --workload sparse_random --seed 1 --seconds 20 --trace 0

The workload's graphs are generated from the seed (see ``gen.py``).  Set-up
imports urmatch afresh and builds every graph as a ``Graph`` value; it is
timed several times and reported as ``setup_s``.  The graph files are then
written once, untimed, because the program has no part in writing them.
The run makes passes over the graphs until ``--seconds`` is used up.  A pass
decides every graph three ways and sums the time of each:
``urmatch check FILE --property both --json`` in-process with its output
captured (``check_s``), library ``some_ur(g)`` (``some_s``) and library
``every_ur(g)`` (``every_s``); on ``small_exhaustive`` it also runs
``urmatch selftest`` (``selftest_s``).  Times are scaled to the speed of a
reference computation measured alongside them (see ``clock.py``), and each
timing reported is the median over the passes.  ``peak_rss_mb`` is the
process's peak resident set size after the passes.  Every answer is checked
after the timed passes, and a wrong answer counts as a failed operation.

With ``--trace 1`` the run spends half its time on untraced ``check`` passes
and half on traced passes (``spans.py``), and reports per-layer metrics
instead.  The spans are written to ``.perfbench/spans-<workload>-<seed>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark runs
the library from ``src/`` next to this directory and exits with code 2,
without a result, when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import gen
import spans
from clock import REF_NOMINAL_S, SpeedClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 9
E2E_UNITS = {
    "setup_s": "s",
    "check_s": "s",
    "some_s": "s",
    "every_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed by name but not in the result line: selftest_s exists on
# small_exhaustive only, and error_rate is zero whenever the program is correct.
EXTRA_UNITS = {"selftest_s": "s", "error_rate": "ratio"}


class CliRun(NamedTuple):
    """Exit code (or the repr of the exception raised) and captured output."""

    code: int | str
    stdout: str
    stderr: str


class Decision(NamedTuple):
    """A library report reduced to what is checked, or the exception raised."""

    answer: bool | None
    failure: str | None
    witness: frozenset | None
    error: str | None = None


@dataclass
class Pass:
    """Timings and outputs of one pass over the workload."""

    times: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    check_times: list[float] = field(default_factory=list)
    check: list[CliRun] = field(default_factory=list)
    some: list[Decision] = field(default_factory=list)
    every: list[Decision] = field(default_factory=list)
    selftest: list[CliRun] = field(default_factory=list)


def _urmatch_modules() -> list[str]:
    return [k for k in sys.modules if k == "urmatch" or k.startswith("urmatch.")]


def _import_urmatch():
    """Import urmatch afresh from ``src/`` and return its ``cli`` module."""
    for name in _urmatch_modules():
        del sys.modules[name]
    importlib.import_module("urmatch")
    return importlib.import_module("urmatch.cli")


def render(inst: gen.Instance) -> str:
    """The graph file of one instance."""
    return f"n {inst.n}\n" + "".join(f"{u} {v}\n" for u, v in inst.edges)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, clock: SpeedClock):
        self.workload = workload
        self.seed = seed
        self.clock = clock
        self.instances = gen.WORKLOADS[workload](seed)
        self.paths = [str(work / f"g{i}.txt") for i in range(len(self.instances))]
        self.graphs: list = []
        # equal outputs of different passes share one object, so that memory
        # does not grow with the number of passes
        self._kept: dict = {}

    def setup(self) -> tuple[float, float]:
        """Import urmatch and build the Graph values; returns the scaled and
        the raw time taken."""
        self.clock.flush()
        t0 = time.perf_counter()
        self.cli = _import_urmatch()
        graph_cls = sys.modules["urmatch.graph_core"].Graph
        self.graphs = [graph_cls.from_edges(inst.n, inst.edges) for inst in self.instances]
        self.clock.add("setup_s", time.perf_counter() - t0)
        self.recognition = sys.modules["urmatch.recognition"]
        scaled, raw = self.clock.take()
        return scaled["setup_s"], raw["setup_s"]

    def write_files(self) -> None:
        for path, inst in zip(self.paths, self.instances):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render(inst))

    def _keep(self, value):
        return self._kept.setdefault(value, value)

    def _cli(self, argv, tracer, span) -> tuple[float, CliRun]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(span, self.cli.main, argv)
        except Exception as exc:  # recorded and counted as a failed operation
            code = repr(exc)
        t = time.perf_counter() - t0
        return t, self._keep(CliRun(code, out.getvalue(), err.getvalue()))

    def _lib(self, fn, g) -> tuple[float, Decision]:
        t0 = time.perf_counter()
        try:
            rep = fn(g)
        except Exception as exc:  # recorded and counted as a failed operation
            return time.perf_counter() - t0, Decision(None, None, None, repr(exc))
        t = time.perf_counter() - t0
        witness = None if rep.witness is None else frozenset(rep.witness.edges)
        return t, self._keep(Decision(rep.answer, rep.failure, witness))

    def run_pass(self, *, library: bool, tracer=None) -> Pass:
        p = Pass()
        clock = self.clock
        clock.flush()
        for i, (g, path) in enumerate(zip(self.graphs, self.paths)):
            if tracer is not None:
                tracer.graph_id = i
            t, out = self._cli(["check", path, "--property", "both", "--json"], tracer, spans.CHECK)
            clock.add("check_s", t)
            p.check_times.append(t)
            p.check.append(out)
            if library:
                t, dec = self._lib(self.recognition.some_ur, g)
                clock.add("some_s", t)
                p.some.append(dec)
                t, dec = self._lib(self.recognition.every_ur, g)
                clock.add("every_s", t)
                p.every.append(dec)
        if library and self.workload == "small_exhaustive":
            if tracer is not None:
                tracer.graph_id = -1
            argv = ["selftest", "--nmax", str(gen.SMALL_NMAX),
                    "--random", str(gen.SMALL_RANDOM), "--seed", str(self.seed)]
            t, out = self._cli(argv, tracer, spans.SELFTEST)
            clock.add("selftest_s", t)
            p.selftest.append(out)
        p.times, p.raw = clock.take()
        return p


def run_passes(bench: Bench, seconds: float, **kwargs) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; at least one."""
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(bench.run_pass(**kwargs))
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            return passes


class Checker:
    """Checks every answer of every pass, outside the timed regions.

    The expected (answer, failure tag) pair comes from the oracle on
    small_exhaustive (answers only), from theory on rigid_chains (both
    true), and from the library on the other workloads, where the CLI must
    agree with it.  Every ``some`` witness must be a uniquely restricted
    matching as large as a maximum matching found by networkx.
    """

    def __init__(self, bench: Bench):
        self.bench = bench
        self.answers_only = bench.workload == "small_exhaustive"
        self.matching_cls = sys.modules["urmatch.matching"].Matching
        self.is_ur = sys.modules["urmatch.ur_core"].is_uniquely_restricted
        self._nu: dict[int, int] = {}
        self._good: dict[int, set] = {}
        self._expected: dict[int, tuple] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def expected(self, i: int):
        """Expected (answer, tag) for some and for every, or None where the
        library answer is the reference."""
        if self.bench.workload == "rigid_chains":
            return (True, None), (True, None)
        if self.bench.workload != "small_exhaustive":
            return None
        if i not in self._expected:
            oracle = sys.modules["urmatch.oracle"]
            g = self.bench.graphs[i]
            limits = {"max_n": g.n, "max_m": g.m}
            self._expected[i] = ((oracle.oracle_some_ur(g, **limits), None),
                                 (oracle.oracle_every_ur(g, **limits), None))
        return self._expected[i]

    def nu(self, i: int) -> int:
        """Maximum matching size from networkx, independent of urmatch."""
        if i not in self._nu:
            import networkx as nx

            inst = self.bench.instances[i]
            h = nx.Graph()
            h.add_nodes_from(range(inst.n))
            h.add_edges_from(inst.edges)
            try:
                color = nx.bipartite.color(h)
            except nx.NetworkXError:  # not bipartite
                self._nu[i] = len(nx.max_weight_matching(h, maxcardinality=True))
            else:
                top = [v for v, c in color.items() if c == 0]
                self._nu[i] = len(nx.bipartite.hopcroft_karp_matching(h, top)) // 2
        return self._nu[i]

    def witness_problem(self, i: int, edges) -> str | None:
        key = frozenset(tuple(e) for e in edges)
        good = self._good.setdefault(i, set())
        if key in good:
            return None
        g = self.bench.graphs[i]
        try:
            m = self.matching_cls.from_edges(g, key)
        except ValueError as exc:
            return f"witness is not a matching: {exc}"
        if not self.is_ur(g, m):
            return "witness is not uniquely restricted"
        if len(m.edges) != self.nu(i):
            return f"witness has {len(m.edges)} edges, a maximum matching {self.nu(i)}"
        good.add(key)
        return None

    def _compare(self, what: str, got: tuple, want: tuple | None) -> list[str]:
        if want is None:
            return []
        if got[0] != want[0] or (not self.answers_only and got[1] != want[1]):
            return [f"{what}: got {got}, expected {want}"]
        return []

    def _decision_problems(self, i: int, prop: str, d: Decision, want) -> list[str]:
        if d.error is not None:
            return [f"library {prop} raised {d.error}"]
        probs = self._compare(f"library {prop}", (d.answer, d.failure), want)
        if prop == "some" and d.answer:
            p = "yes without a witness" if d.witness is None else self.witness_problem(i, d.witness)
            if p:
                probs.append(f"library some: {p}")
        return probs

    def _check_problems(self, i: int, run: CliRun, want) -> list[str]:
        if run.code != 0:
            return [f"check exited with {run.code}: {run.stderr.strip()[:200]}"]
        try:
            by_prop = {r["property"]: r for r in json.loads(run.stdout)}
            some, every = by_prop["some_ur"], by_prop["every_ur"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"check output unreadable ({exc!r}): {run.stdout[:200]!r}"]
        inst = self.bench.instances[i]
        probs = []
        if (some["n"], some["m"]) != (inst.n, len(inst.edges)):
            probs.append(f"check read n={some['n']} m={some['m']}")
        if want is None:
            probs.append("no library answer to compare with")
            want = (None, None)
        probs += self._compare("check some", (some["answer"], some["failure"]), want[0])
        probs += self._compare("check every", (every["answer"], every["failure"]), want[1])
        if some["answer"]:
            p = self.witness_problem(i, some["witness"] or ())
            if p:
                probs.append(f"check some: {p}")
        return probs

    def _tally(self, label: str, probs: list[str]) -> None:
        self.attempted += 1
        if probs:
            self.problems.append(f"{label}: " + "; ".join(probs))

    def check(self, passes: list[Pass]) -> None:
        library: dict[int, tuple] = {}
        for p in passes:
            for i, (s, e) in enumerate(zip(p.some, p.every)):
                if s.error is None and e.error is None:
                    library.setdefault(i, ((s.answer, s.failure), (e.answer, e.failure)))
        for p in passes:
            for i, inst in enumerate(self.bench.instances):
                label = f"graph {i} ({inst.label})"
                ref = self.expected(i)
                self._tally(label, self._check_problems(i, p.check[i], ref or library.get(i)))
                if p.some:
                    self._tally(label, self._decision_problems(i, "some", p.some[i], ref and ref[0]))
                    self._tally(label, self._decision_problems(i, "every", p.every[i], ref and ref[1]))
            for run in p.selftest:
                ok = run.code == 0 and ", 0 disagreements" in run.stdout
                self._tally("selftest", [] if ok else [
                    f"selftest exited with {run.code}: {(run.stdout + run.stderr).strip()[-300:]}"])

    @property
    def failed(self) -> int:
        return len(self.problems)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    k = len(values)
    if k < 11:
        return None
    return 100.0 * (k - 10) / k, sorted(values)[k - 11]


def describe(name: str, values: list[float], unit: str) -> str:
    t = tail(values)
    spread = f"p{t[0]:.0f} {t[1]:.6g} {unit}" if t else "no tail percentile"
    return (f"{name:<14} median {statistics.median(values):.6g} {unit}  "
            f"{spread}  ({len(values)} samples)")


def exponent(instances: list[gen.Instance], passes: list[Pass]) -> float:
    """Least-squares slope of log(per-graph check time) against log(n)."""
    xs, ys = [], []
    for i, inst in enumerate(instances):
        t = statistics.median(p.check_times[i] for p in passes)
        if inst.n >= 2 and t > 0:
            xs.append(math.log(inst.n))
            ys.append(math.log(t))
    if len(set(xs)) < 2:
        return 0.0
    return statistics.linear_regression(xs, ys).slope


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "urmatch" / "__init__.py").is_file():
        print(f"benchmark: no urmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return measure(args, Bench(args.workload, args.seed, work, SpeedClock()))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, bench: Bench) -> int:
    setup = [bench.setup() for _ in range(1 if args.trace else SETUP_REPS)]
    loaded = Path(sys.modules["urmatch"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"benchmark: urmatch was imported from {loaded}, not {SRC}", file=sys.stderr)
        return 2
    bench.write_files()
    print(f"workload {bench.workload}, seed {bench.seed}: {len(bench.instances)} graphs, "
          f"{sum(i.n for i in bench.instances)} vertices, "
          f"{sum(len(i.edges) for i in bench.instances)} edges")

    if args.trace:
        untraced = run_passes(bench, args.seconds / 2, library=False)
        tracer = spans.Tracer()
        with tracer:
            traced = run_passes(bench, args.seconds / 2, library=True, tracer=tracer)
        passes = untraced + traced
        check_plain = statistics.median(p.times["check_s"] for p in untraced)
        check_traced = statistics.median(p.times["check_s"] for p in traced)
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_frac"] = check_traced / check_plain - 1
        metrics["check.exponent"] = exponent(bench.instances, untraced)
        units = spans.LAYER_UNITS
        span_file = OUT / f"spans-{bench.workload}-{bench.seed}.tsv"
        tracer.write(span_file)
        print(f"{len(untraced)} untraced check passes, {len(traced)} traced passes, "
              f"{len(tracer.name)} spans written to {span_file}; amounts per traced pass")
        for name in units:
            print(f"{name:<46} {metrics[name]:.6g} {units[name]}")
    else:
        passes = run_passes(bench, args.seconds, library=True)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = {"setup_s": [scaled for scaled, _ in setup]}
        raw = {"setup_s": [r for _, r in setup]}
        for name in ("check_s", "some_s", "every_s", "selftest_s"):
            if name in passes[0].times:
                samples[name] = [p.times[name] for p in passes]
                raw[name] = [p.raw[name] for p in passes]
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["peak_rss_mb"] = peak
        units = E2E_UNITS
        refs = bench.clock.reference_samples
        print(f"times in seconds at reference speed; reference median "
              f"{statistics.median(refs) * 1e3:.3g} ms over {len(refs)} samples, "
              f"nominal {REF_NOMINAL_S * 1e3:.3g} ms")
        for name, values in samples.items():
            print(describe(name, values, {**E2E_UNITS, **EXTRA_UNITS}[name])
                  + f"  wall {statistics.median(raw[name]):.6g} s")
        print(f"{'peak_rss_mb':<14} {peak:.6g} MiB")

    checker = Checker(bench)
    checker.check(passes)
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{'error_rate':<14} {checker.failed / checker.attempted:.6g} ratio  "
          f"({checker.failed} of {checker.attempted} operations failed)")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
