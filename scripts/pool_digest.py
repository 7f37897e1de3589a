#!/usr/bin/env python3
"""Digest every op result of the three benchmark pools, one line per seed.

Usage (from the repository root): python3 scripts/pool_digest.py [SEED ...]

For each seed (default 1 to 5) the script builds the cli-jobs,
family-sweep and invariants-transfer pools of ``perfbench/gqbench``,
calls every op once in pool order, and prints the op count and a sha256
over the ``repr`` of every result.  Two commits that print the same
lines gave byte-identical results on every op, so a change meant to
alter no output can be checked against its parent by running this
script in a checkout of each.  The benchmark package is only imported.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gqbench.workloads import WORKLOADS, setup  # noqa: E402


def digest(seed: int) -> tuple:
    """Op count and hex sha256 over the results of all three pools for ``seed``."""
    sha = hashlib.sha256()
    count = 0
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="pool-digest-") as workdir:
            for op in setup(workload, seed, workdir).ops:
                sha.update(repr(op.call()).encode())
                count += 1
    return count, sha.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3, 4, 5])
    args = parser.parse_args()
    for seed in args.seeds:
        count, hexdigest = digest(seed)
        print(f"seed {seed}: {count} ops sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
