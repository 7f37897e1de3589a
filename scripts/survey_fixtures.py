#!/usr/bin/env python3
"""Classify every packaged example and print a one-line summary each.

Usage: python3 scripts/survey_fixtures.py [--slice-deg N]
"""

from __future__ import annotations

import argparse

from gaquot import Bounds, all_named_fixtures, classify, fixture

EXTRA = ("family-phi(t^2 - 2)", "family-phi(7)")


def describe(report) -> str:
    bits = [report.verdict.value]
    if report.transfer is not None:
        bits.append(f"boundary={report.transfer.boundary.value}")
    if report.slice_result is not None and report.slice_result.found is not None:
        bits.append(f"slice={report.slice_result.found}")
    if report.witness is not None:
        subspace = ",".join(report.witness.subspace)
        bits.append(f"witness[{subspace}=0]")
    if report.smoothness is not None:
        bits.append(f"smoothness={report.smoothness.outcome}")
    failed = [name for name, ok in report.crosschecks if not ok]
    bits.append("crosschecks=ok" if not failed else f"crosschecks=FAIL({','.join(failed)})")
    return "  ".join(bits)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slice-deg", type=int, default=3)
    args = parser.parse_args()
    bounds = Bounds(slice_degree=args.slice_deg)

    examples = list(all_named_fixtures()) + [fixture(name) for name in EXTRA]
    width = max(len(fx.name) for fx in examples)
    for fx in examples:
        report = classify(fx.spec, fx.f, fx.graph, bounds)
        flag = "" if report.verdict is fx.expected_verdict else "  << UNEXPECTED"
        print(f"{fx.name:<{width}}  {describe(report)}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
