#!/usr/bin/env python3
"""Wall time of a CLI job as a fresh process, and of each benchmark spec's operator triple.

Usage (from the repository root):
    python3 scripts/cold_start.py [--runs N] [FIXTURE ...]

For each fixture name (default: every named fixture) the script times N
sequential ``python -m gaquot.cli --fixture NAME`` processes, after one
discarded run, beside a bare interpreter and a bare ``import gaquot.cli``.
It does so twice:

* bytecode off: ``PYTHONDONTWRITEBYTECODE=1``, so each process compiles
  ``src/gaquot`` unless a ``src/gaquot/__pycache__`` already exists (the
  table says which);
* bytecode on: ``PYTHONPYCACHEPREFIX`` in a temporary directory, filled
  by the discarded run and removed at the end.

It then times ``sl2_triple.__wrapped__`` in process on every spec of the
three benchmark pools and on its extension by the plane (the spec
``transfer`` builds), best of N each.  It prints Markdown tables and
writes nothing in the repository; ``perfbench/gqbench`` is only
imported.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gaquot.fixtures import NAMED_FIXTURES  # noqa: E402
from gaquot.reps import sl2_triple  # noqa: E402
from gaquot.transfer import extended_spec  # noqa: E402
from gqbench.workloads import WORKLOADS  # noqa: E402


def _environment(cache: str = "") -> Dict[str, str]:
    """This process's environment with ``src`` on the path, writing bytecode under ``cache`` or nowhere."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if cache:
        env["PYTHONPYCACHEPREFIX"] = cache
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def time_process(argv: Sequence[str], env: Dict[str, str], runs: int) -> Tuple[List[float], int]:
    """Wall seconds of ``runs`` sequential runs of ``argv`` after one discarded, and the last exit code."""
    times: List[float] = []
    code = 0
    for _ in range(runs + 1):
        start = perf_counter()
        code = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=False).returncode
        times.append(perf_counter() - start)
    return times[1:], code


def process_table(fixtures: Sequence[str], runs: int) -> List[str]:
    cached = (ROOT / "src" / "gaquot" / "__pycache__").is_dir()
    off = "bytecode off (read from `src/gaquot/__pycache__`)" if cached else "bytecode off (compiled each run)"
    rows = [("bare interpreter", [sys.executable, "-c", "pass"]),
            ("`import gaquot.cli`", [sys.executable, "-c", "import gaquot.cli"])]
    rows += [(f"`--fixture {name}`", [sys.executable, "-m", "gaquot.cli", "--fixture", name]) for name in fixtures]
    out = [f"| process | {off} median ms | min ms | bytecode on median ms | min ms | exit |",
           "| --- | ---: | ---: | ---: | ---: | ---: |"]
    with tempfile.TemporaryDirectory(prefix="gaquot-pycache-") as cache:
        for label, argv in rows:
            cells = []
            for env in (_environment(), _environment(cache)):
                times, code = time_process(argv, env, runs)
                cells += [f"{1e3 * statistics.median(times):.1f}", f"{1e3 * min(times):.1f}"]
            out.append(f"| {label} | {' | '.join(cells)} | {code} |")
    return out


def pool_specs() -> list:
    """Every spec of the three benchmark pools, in pool order, without repeats."""
    specs = []
    with tempfile.TemporaryDirectory(prefix="gaquot-cold-start-") as workdir:
        for workload, build in WORKLOADS.items():
            specs += build(random.Random(f"{workload}:1"), workdir).specs
    return list(dict.fromkeys(specs))


def triple_table(runs: int) -> List[str]:
    out = ["| spec | normalization | dim | `sl2_triple` ms | extended by the plane ms |",
           "| --- | --- | ---: | ---: | ---: |"]
    totals = [0.0, 0.0]
    for spec in pool_specs():
        cells = []
        for column, built in enumerate((spec, extended_spec(spec))):
            best = float("inf")
            for _ in range(runs):
                start = perf_counter()
                sl2_triple.__wrapped__(built)
                best = min(best, perf_counter() - start)
            totals[column] += best
            cells.append(f"{1e3 * best:.3f}")
        out.append(f"| {spec.summands} | {spec.normalization} | {spec.dim} | {' | '.join(cells)} |")
    out.append(f"| all | | | {1e3 * totals[0]:.2f} | {1e3 * totals[1]:.2f} |")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="timed runs per row (default 9)")
    parser.add_argument("fixtures", nargs="*", default=list(NAMED_FIXTURES), help="fixture names")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(f"Python {sys.version.split()[0]}, {args.runs} timed runs per row after one discarded.")
    print()
    print("\n".join(process_table(args.fixtures, args.runs)))
    print()
    print("\n".join(triple_table(args.runs)))


if __name__ == "__main__":
    main()
