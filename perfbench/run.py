"""Benchmark command for btangent.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload closed-loop, one operation at a time, in whole
rounds of a fixed operation set, until --seconds have passed and at least
three rounds and forty operations are done (a traced run stops on time
alone, after at least one round). Every output is checked against an
expectation computed apart from the program. Every time it reports is
scaled to a machine of fixed speed (see speed.py). The last line of stdout is one
JSON object: correct, attempted, failed and the metrics. --trace 0 prints the
end-to-end metrics; --trace 1 records spans around every call into the
program, writes them to perfbench/out/, and prints the per-layer metrics.

--smoke runs one small traced round of every workload and prints one JSON
line per workload; it exits 1 if any output is wrong.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
MIN_OPS = 40  # op_tail_s needs ten operations beyond a percentile that is no median
TAIL_BEYOND = 10
SETUP_REPEATS = 3

# per-layer metrics: total self time per round of these spans (median over rounds)
PER_ROUND_S = (
    "manifold_io.load_manifold",
    "bgraph.surface_euler",
    "bgraph.surface_orientable",
    "bgraph.build_graph_from_surface",
    "obstructions.two_color",
    "obstructions.gauge_solvable",
    "obstructions.equivalence_report",
    "obstructions.edge_obstruction",
    "euler.euler_report",
    "spheremap.degree_integral",
    "spheremap.degree_preimage",
    "spheremap.homotopy_endpoints",
    "windex.winding_index",
    "windex.verify_poincare_hopf",
)
# ... and the median wall time of one cold invocation per subcommand
CLI_SUBCOMMANDS = ("analyze", "euler", "color", "index", "sphere", "edge", "ph_verify")
# ... and tallies kept per round (median over rounds)
PER_ROUND_COUNT = (
    ("bgraph.triangles", "count"),
    ("bgraph.regions", "count"),
    ("bgraph.z_components", "count"),
    ("obstructions.gf2_matrix_bytes", "B"),
    ("windex.samples_used", "count"),
    ("cli.import_btangent_s", "s"),
    ("cli.import_numpy_s", "s"),
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: str
    round: int
    name: str
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Spans around calls into the program, kept in memory until the run ends."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.op = ""
        self.round = 0

    def call(self, name, fn, *args):
        span = Span(len(self.spans), self._open[-1] if self._open else None,
                    self.op, self.round, name)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._open.pop()


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Duration minus the time covered by child spans (they never overlap)."""
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: s.end - s.start - covered[s.id] for s in spans}


@dataclass
class Run:
    latencies: List[List[float]] = field(default_factory=list)  # per op, scaled, one per round
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)  # problems outside the known faults
    tallies: List[Counter] = field(default_factory=list)
    scale: List[float] = field(default_factory=list)  # per round, see speed.py


def run_rounds(wl, ops, seconds: float, min_rounds: int, min_ops: int,
               tracer: Optional[Tracer] = None) -> Run:
    call = tracer.call if tracer else workloads.plain_call
    run = Run(latencies=[[] for _ in ops])
    start = time.perf_counter()
    while True:
        tally: Counter = Counter()
        probe = speed.Probe()
        timed = []
        if tracer:
            tracer.round = len(run.tallies)
            wl.split_round(tracer.call, tally)
        for op, latencies in zip(ops, run.latencies):
            if tracer:
                tracer.op = op.label
            probe.sample()
            t = time.perf_counter()
            try:
                out = call(f"op.{wl.name}", wl.run, op, call)
                timed.append((latencies, time.perf_counter() - t))
                problems = wl.check(op, out)
                if tracer and not problems:
                    call(f"split.{wl.name}", wl.split, op, out, call, tally)
            except Exception as exc:  # a crash fails this operation; the run goes on
                problems = [f"raised {type(exc).__name__}: {exc}"]
            run.attempted += 1
            if problems:
                run.failed += 1
                if not op.known_fault:
                    run.wrong.append(f"{wl.name} {op.label}: {'; '.join(problems)}")
        run.tallies.append(tally)
        run.scale.append(probe.scale())
        for latencies, seconds in timed:
            latencies.append(seconds * run.scale[-1])
        if (time.perf_counter() - start >= seconds and len(run.tallies) >= min_rounds
                and run.attempted >= min_ops):
            return run


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_s: float, children: bool) -> Dict:
    """ops_per_s is one round's operations over the sum, across operations, of
    each operation's median time over the rounds: a slow spell that hits an
    operation in fewer than half of the rounds does not move it."""
    lat = sorted(x for op in run.latencies for x in op)
    typical_round = sum(statistics.median(op) for op in run.latencies if op)
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    m = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(run.latencies) / typical_round, "1/s"),
        "op_p50_s": _metric(statistics.median(lat), "s"),
        "peak_rss_mb": _metric(resource.getrusage(who).ru_maxrss * 1024 / 1e6, "MB"),
    }
    if len(lat) >= 4 * TAIL_BEYOND:
        m["op_tail_s"] = _metric(lat[-TAIL_BEYOND - 1], "s")
    return m


def per_layer(tracer: Tracer, run: Run) -> Dict:
    """Layer metrics from one traced run; a layer never called is left out."""
    selfs = self_times(tracer.spans)
    rounds: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    calls: Dict[str, List[float]] = defaultdict(list)

    def took(s: Span) -> float:
        return (s.end - s.start) * run.scale[s.round]

    for s in tracer.spans:
        rounds[s.name][s.round] += selfs[s.id] * run.scale[s.round]
        calls[s.name].append(took(s))

    def med_rounds(name):
        return statistics.median(rounds[name].values())

    def med_tally(key):
        return statistics.median(t[key] for t in run.tallies)

    m: Dict[str, Dict] = {}
    for name in PER_ROUND_S:
        if name in rounds:
            m[f"{name}_s"] = _metric(med_rounds(name), "s")
    for sub in CLI_SUBCOMMANDS:
        if calls[f"cli.{sub}"]:
            m[f"cli.{sub}_s"] = _metric(statistics.median(calls[f"cli.{sub}"]), "s")
    for key, unit in PER_ROUND_COUNT:
        if all(key in t for t in run.tallies):
            m[key] = _metric(med_tally(key), unit)
    if "bgraph.build_graph_from_surface" in rounds:
        m["bgraph.triangles_per_s"] = _metric(statistics.median(
            t["bgraph.triangles"] / rounds["bgraph.build_graph_from_surface"][r]
            for r, t in enumerate(run.tallies)), "1/s")
    if "spheremap.degree_integral" in rounds:
        m["spheremap.mc_samples_per_s"] = _metric(statistics.median(
            t["spheremap.samples"] / rounds["spheremap.degree_integral"][r]
            for r, t in enumerate(run.tallies)), "1/s")
        m["spheremap.degree_abs_dev"] = _metric(statistics.median(
            t["spheremap.abs_dev_sum"] / t["spheremap.reports"] for t in run.tallies), "1")
        n8 = [took(s) for s in tracer.spans
              if s.name == "spheremap.degree_integral" and s.op.startswith("report-n8-")]
        m["spheremap.degree_integral_n8_s"] = _metric(statistics.median(n8), "s")
    ops = [took(s) for s in tracer.spans if s.name.startswith("op.")]
    m["trace.op_p50_s"] = _metric(statistics.median(ops), "s")
    return m


def set_up(wl, seed: int, workdir: Path, repeats: int):
    """The inputs and the set-up time, scaled like every other time.

    An in-process workload pays `import btangent` once, timed here before
    anything else imports numpy, then makes its inputs `repeats` times; its
    set-up time is the import plus the median making. cli_cold pays a cold
    `import btangent` on every call, so its set-up time is the median of
    `repeats` cold `python -c "import btangent"` processes; its inputs are
    made untimed.
    """
    probe = speed.Probe(gap_s=0)
    if wl.name == "cli_cold":
        times = []
        for _ in range(repeats):
            probe.sample()
            t = time.perf_counter()
            proc = workloads.cold(["-c", "import btangent"])
            times.append(time.perf_counter() - t)
            if proc.returncode != 0:
                raise SystemExit("error: import btangent failed:\n"
                                 + proc.stderr.decode(errors="replace"))
        return wl.make_round(seed, False, workdir), statistics.median(times) * probe.scale()
    t = time.perf_counter()
    import btangent  # noqa: F401
    imported = time.perf_counter() - t
    making = []
    for _ in range(repeats):
        probe.sample()
        t = time.perf_counter()
        ops = wl.make_round(seed, False, workdir)
        making.append(time.perf_counter() - t)
    return ops, (imported + statistics.median(making)) * probe.scale()


def write_trace(path: Path, tracers: Dict[str, Tracer], metrics: Dict,
                probed: List[str]) -> None:
    doc = {"metrics": metrics, "probe_metrics": sorted(probed),
           "spans": {k: [asdict(s) for s in t.spans] for k, t in tracers.items()}}
    path.write_text(json.dumps(doc), encoding="utf-8")


def small_round(name: str, seed: int, workdir: Path):
    """One smoke-size traced round of a workload."""
    wl = workloads.WORKLOADS[name]()
    tracer = Tracer()
    return tracer, run_rounds(wl, wl.make_round(seed, True, workdir), 0, 1, 0, tracer)


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    wl = workloads.WORKLOADS[name]()
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops, setup_s = set_up(wl, seed, workdir, 1 if trace else SETUP_REPEATS)
        if trace:
            # no tail percentile here, so time alone ends the run
            tracer = Tracer()
            run = run_rounds(wl, ops, seconds, 1, 0, tracer)
            wrong = list(run.wrong)
            metrics = per_layer(tracer, run)
            tracers = {name: tracer}
            # a layer this workload never calls is timed on a small round of the others
            probed = []
            for other in workloads.WORKLOADS:
                if other != name:
                    tracers[f"probe.{other}"], probe = small_round(other, seed, workdir)
                    wrong += probe.wrong
                    for key, value in per_layer(tracers[f"probe.{other}"], probe).items():
                        if key not in metrics:
                            metrics[key] = value
                            probed.append(key)
            print(f"{name}: from smoke-size probe rounds of the other workloads, not "
                  f"this one: {', '.join(sorted(probed))}", file=sys.stderr)
            write_trace(OUT / f"trace-{name}-seed{seed}.json", tracers, metrics, probed)
        else:
            run = run_rounds(wl, ops, seconds, MIN_ROUNDS, MIN_OPS)
            wrong = run.wrong
            metrics = end_to_end(run, setup_s, children=name == "cli_cold")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"{name}: {len(run.tallies)} rounds of {len(ops)} operations, machine speed "
          f"scales {' '.join(f'{k:.3f}' for k in run.scale)}", file=sys.stderr)
    return {"correct": not wrong, "attempted": run.attempted, "failed": run.failed,
            "metrics": dict(sorted(metrics.items()))}


def smoke(seed: int = 0) -> Dict[str, Dict]:
    """One small traced round of every workload: all outputs checked, in seconds."""
    workdir = OUT / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True)
    results = {}
    try:
        for name in workloads.WORKLOADS:
            tracer, run = small_round(name, seed, workdir)
            for line in run.wrong:
                print(f"wrong: {line}", file=sys.stderr)
            results[name] = {"correct": not run.wrong, "attempted": run.attempted,
                             "failed": run.failed, "metrics": per_layer(tracer, run)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "btangent" / "__init__.py").is_file():
        print(f"error: no btangent sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        results = smoke(args.seed)
        for name, res in results.items():
            print(json.dumps({"workload": name, **res}, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
