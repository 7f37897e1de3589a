#!/usr/bin/env python3
"""Seeded benchmark of gaquot: one closed-loop client, one process, no threads.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-jobs --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate run that alternates untraced and traced passes over the same
ops and reports per-layer metrics.  Every op's result is checked.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json`` at the repository root.  See
README.md in this directory for the workloads and each metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5          # fresh interpreters timed per untraced run, after one discarded
IMPORT_PROBES = 3         # fresh interpreters timed per traced run, after one discarded
PROBE_TIMEOUT_S = 120
WARMUP_S = 1.0
MIN_OPS = 100
MAX_MEASURE_S = 120.0
NEAREST_REFERENCE = 7     # reference-speed samples taken before measuring starts
SETUP_LAYER = "reps."     # per-representation caches: measured over the traced set-up
# Per-layer values read from op results or computed here rather than from spans.
RESULT_METRICS = ("classify.smoothness.samples", "classify.witness.found",
                  "classify.witness.attempts", "cli.import_s", "trace.overhead_ratio")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def work_directory():
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="jobs-", dir=OUT)


# ----------------------------------------------------------------------
# set-up, in a fresh interpreter


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time import, input generation and cache filling, then the reference kernel."""
    t0 = time.perf_counter()
    import gaquot.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    from gqbench.speed import SpeedReference
    from gqbench.workloads import setup

    with work_directory() as workdir:
        setup(workload, seed, workdir)
        setup_s = time.perf_counter() - t0
    reference = SpeedReference()
    for _ in range(NEAREST_REFERENCE):
        reference.sample(force=True)
    factor = reference.factor(reference.stamps[-1])
    print(json.dumps({"import_s": import_s * factor, "setup_s": setup_s * factor}))


def run_probes(workload: str, seed: int, count: int) -> list:
    """Time ``count`` fresh set-ups one at a time, after one discarded warm-up.

    Each child rescales its own times to the reference speed it measured.
    """
    results = []
    for _ in range(count + 1):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
        results.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return results[1:]


# ----------------------------------------------------------------------
# measurement


class Loop:
    """Closed loop over the pool: time each op, check its result, sample the reference speed."""

    def __init__(self, ops, reference, tracer=None):
        from gqbench.checks import CheckFailed

        self.check_failed = CheckFailed
        self.ops = ops
        self.reference = reference
        self.tracer = tracer
        self.samples = [[] for _ in ops]   # per op: (seconds, end stamp)
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.failures = []

    def run_op(self, index: int, phase: str = "") -> None:
        op = self.ops[index]
        self.attempted += 1
        traced_op = self.tracer.begin_op(phase) if self.tracer is not None else None
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            error = exc
        stamp = time.perf_counter()
        if self.tracer is not None:
            self.tracer.end_op()
        if error is not None:
            self._fail(op, f"raised {type(error).__name__}: {error}")
            return
        self.samples[index].append((stamp - start, stamp))
        try:
            outcome = op.check(result)
        except (self.check_failed, LookupError, TypeError, ValueError) as failure:
            # a report missing a field or holding a malformed value fails its check
            self._fail(op, f"{type(failure).__name__}: {failure}")
            return
        self.undecided += outcome.undecided
        if self.tracer is not None:
            for name, value in outcome.counters.items():
                self.tracer.count(name, value, op=traced_op)
        self.reference.sample()

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.kind} [{op.key[:160]}]: {message}")

    def run_pass(self, phase: str = "") -> None:
        for index in range(len(self.ops)):
            self.run_op(index, phase)

    def scaled(self):
        """Per op: its times rescaled to the reference speed."""
        return [[elapsed * self.reference.factor(stamp) for elapsed, stamp in samples]
                for samples in self.samples]

    def warm_up(self) -> None:
        """Run ops untimed for ``WARMUP_S`` and seed the reference-speed samples."""
        begin = time.perf_counter()
        for op in self.ops:
            if time.perf_counter() - begin >= WARMUP_S:
                break
            op.call()
        for _ in range(NEAREST_REFERENCE):
            self.reference.sample(force=True)

    def measure(self, seconds: float) -> None:
        """Cycle through the pool for ``seconds`` and at least ``MIN_OPS`` ops."""
        begin = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - begin
            if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and self.attempted >= MIN_OPS):
                return
            self.run_op(index)
            index = (index + 1) % len(self.ops)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    from gqbench import tracer
    from gqbench.speed import SpeedReference
    from gqbench.workloads import setup

    probes = run_probes(workload, seed, SETUP_PROBES)
    with work_directory() as workdir:
        pool = setup(workload, seed, workdir)
        sites = tracer.wrapped_sites()
        if sites:
            raise RuntimeError(f"untraced run found wrapped functions: {sites[:5]}")
        loop = Loop(pool.ops, SpeedReference())
        loop.warm_up()
        loop.measure(seconds)
    scaled = loop.scaled()
    per_op = [statistics.median(s) for s in scaled if s]
    latencies = [t for s in scaled for t in s]
    raw = [statistics.median(e for e, _ in s) for s in loop.samples if s]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "decided_share": 1 - loop.undecided / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# {workload} seed={seed}: {loop.attempted} ops over a pool of {len(pool.ops)}, "
          f"{loop.failed} failed, {loop.undecided} undecided, "
          f"failed_share={loop.failed / loop.attempted:.4f}, "
          f"unscaled ops_per_s={len(raw) / sum(raw):.3f}, "
          f"reference kernel median {1000 * statistics.median(loop.reference.times):.3f} ms")
    return loop, values


def traced(workload: str, seed: int, seconds: float) -> tuple:
    from gqbench.speed import SpeedReference
    from gqbench.tracer import Tracer
    from gqbench.workloads import setup

    probes = run_probes(workload, seed, IMPORT_PROBES)
    spans = Tracer()
    reference = SpeedReference()
    with work_directory() as workdir:
        spans.install()
        spans.begin_op("setup")
        try:
            pool = setup(workload, seed, workdir)
        finally:
            spans.end_op()
            spans.uninstall()
        untraced_loop = Loop(pool.ops, reference)
        traced_loop = Loop(pool.ops, reference, spans)
        untraced_loop.warm_up()
        passes = 0
        begin = time.perf_counter()
        while passes == 0 or time.perf_counter() - begin < seconds:
            untraced_loop.run_pass()
            spans.install()
            try:
                traced_loop.run_pass(phase="pass")
            finally:
                spans.uninstall()
            passes += 1
    totals = spans.totals()
    setup_totals = totals.get("setup", {})
    per_pass = {name: value / passes for name, value in totals.get("pass", {}).items()}
    values = {name: value for name, value in per_pass.items() if not name.startswith(SETUP_LAYER)}
    values.update((name, value) for name, value in setup_totals.items() if name.startswith(SETUP_LAYER))
    values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["trace.overhead_ratio"] = (sum(map(sum, untraced_loop.scaled()))
                                      / sum(map(sum, traced_loop.scaled())))
    OUT.mkdir(exist_ok=True)
    spans.write_spans(str(OUT / f"spans-{workload}.tsv.gz"))
    with open(OUT / f"layers-{workload}.json", "w", encoding="utf-8") as handle:
        json.dump({"passes": passes, "setup": setup_totals, "per_pass": per_pass},
                  handle, indent=1, sort_keys=True)
    print(f"# {workload} seed={seed}: {passes} untraced + {passes} traced passes over "
          f"{len(pool.ops)} ops; {SETUP_LAYER}* values are from set-up, the rest per traced pass")
    known = set(spans.names) | set(RESULT_METRICS)

    def value(name: str) -> float:
        """A layer that did no work reports 0; a name no span or result can give is an error."""
        if name not in values and name.rsplit(".", 1)[0] not in known and name not in known:
            raise KeyError(f"per-layer metric {name} is not produced by the tracer")
        return values.get(name, 0)

    untraced_loop.attempted += traced_loop.attempted
    untraced_loop.failed += traced_loop.failed
    untraced_loop.failures += traced_loop.failures
    return untraced_loop, value


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gaquot" / "__init__.py").is_file():
        print(f"error: no gaquot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    import gaquot

    if Path(gaquot.__file__).resolve().parent != SRC / "gaquot":
        print(f"error: imported gaquot from {gaquot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        loop, value = traced(args.workload, args.seed, args.seconds)
        declared = bench["per_layer"]
    else:
        loop, values = end_to_end(args.workload, args.seed, args.seconds)
        value = values.__getitem__
        declared = bench["end_to_end"]
    for line in loop.failures:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
