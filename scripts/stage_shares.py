#!/usr/bin/env python3
"""Share of a warm benchmark pass spent in parsing, each ``classify`` stage and rendering.

Usage (from the repository root):
    python3 scripts/stage_shares.py WORKLOAD [--seed N]

The script builds the seeded pool of WORKLOAD (cli-jobs, family-sweep
or invariants-transfer) from ``perfbench/gqbench``, which it only
imports, and wraps each stage in ``STAGES`` in an in-process timer by
rebinding every ``gaquot`` module attribute that holds it (methods are
rebound on their class).  It runs one pass over the pool to warm the
caches, then ``PASSES`` timed passes, and prints a Markdown table of
the fastest pass: each stage's time as a share of that pass, and its
calls.  A stage called inside another timed stage counts toward the
outer one only, so the rows add up to the pass; "other" is the time
outside every stage.  A stage the checkout does not define prints
"not defined", so the same script can be copied into an older checkout
to get its table.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gqbench.workloads import WORKLOADS, setup  # noqa: E402

PASSES = 5

# (row label, module, attribute or Class.method), in pipeline order: parse, stages, render
STAGES = (
    ("`expr.parse`", "gaquot.expr", "parse"),
    ("`certify_everywhere_stable`", "gaquot.classify", "certify_everywhere_stable"),
    ("`restrict_to_graph`", "gaquot.derivations", "restrict_to_graph"),
    ("graph check `GraphPresentation.pull_back`", "gaquot.derivations", "GraphPresentation.pull_back"),
    ("`Poly.substitute`, every call", "gaquot.poly", "Poly.substitute"),
    ("`extend`, every call", "gaquot.transfer", "extend"),
    ("`boundary_split` outside `extend`", "gaquot.transfer", "boundary_split"),
    ("extension ladder outside `extend` (first read)", "gaquot.transfer", "_ladder"),
    ("`slice_search`", "gaquot.derivations", "slice_search"),
    ("`jacobian_boundary_smoothness`", "gaquot.classify", "jacobian_boundary_smoothness"),
    ("`_find_unstable_point`", "gaquot.classify", "_find_unstable_point"),
    ("`graded_kernel_generators`", "gaquot.derivations", "graded_kernel_generators"),
    ("`verify_invariance`", "gaquot.transfer", "verify_invariance"),
    ("`Poly.__str__` (report rendering)", "gaquot.poly", "Poly.__str__"),
)


class StageClock:
    """Outermost-stage wall time and call counts, reset per pass."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._inside = False

    def reset(self) -> None:
        self.seconds = {label: 0.0 for label, _, _ in STAGES}
        self.calls = {label: 0 for label, _, _ in STAGES}

    def wrap(self, label: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            self.calls[label] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[label] += perf_counter() - start
                self._inside = False

        return timed


def install(clock: StageClock) -> List[str]:
    """Wrap every stage the checkout defines; return the labels of those it does not."""
    missing = []
    for label, module_name, attribute in STAGES:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original: Optional[Callable] = getattr(owner, name, None)
        if original is None:
            missing.append(label)
            continue
        timed = clock.wrap(label, original)
        if path:
            setattr(owner, name, timed)
            continue
        for qualified, module in list(sys.modules.items()):
            if module is not None and qualified.split(".")[0] == "gaquot":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, timed)
    return missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="stage-shares-") as workdir:
        ops = setup(args.workload, args.seed, workdir).ops
        clock = StageClock()
        missing = install(clock)
        best = None
        for index in range(PASSES + 1):  # pass 0 warms the caches
            clock.reset()
            start = perf_counter()
            for op in ops:
                op.call()
            elapsed = perf_counter() - start
            if index and (best is None or elapsed < best[0]):
                best = (elapsed, dict(clock.seconds), dict(clock.calls))
    total, seconds, calls = best
    print(f"{args.workload}, seed {args.seed}: {len(ops)} ops, fastest of {PASSES} warm passes {total * 1e3:.1f} ms")
    print()
    print("| Stage | share | ms | calls |")
    print("| --- | --- | --- | --- |")
    for label, _, _ in STAGES:
        if label in missing:
            print(f"| {label} | not defined | | |")
        elif calls[label]:
            ms = seconds[label] * 1e3
            print(f"| {label} | {seconds[label] / total:.1%} | {ms:.2f} | {calls[label]} |")
        else:
            print(f"| {label} | – | | 0 |")
    rest = total - sum(seconds.values())
    print(f"| other | {rest / total:.1%} | {rest * 1e3:.2f} | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
