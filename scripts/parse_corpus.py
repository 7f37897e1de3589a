#!/usr/bin/env python3
"""Print what the parser makes of a fixed corpus of texts, one line each.

Usage (from the repository root): python3 scripts/parse_corpus.py [SEED ...]

The corpus is every polynomial text of the cli-jobs pool for each seed
(default 1 to 5), over the variable table the CLI gives it, then the
malformed texts and the left-to-right product cases of
``tests/expr_cases.py`` over its table ``W``.  Each line is ``str`` of
the parsed polynomial or the syntax error with its position.  The pools
come from ``perfbench/gqbench``, which the script only imports; a
``gaquot`` on ``PYTHONPATH`` comes before this checkout's ``src``, so
the output of one checkout's script under two checkouts' sources shows
whether a parser change kept every result and every refusal.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path += [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from expr_cases import LEFT_TO_RIGHT, LEFT_TO_RIGHT_REFUSED, MALFORMED, W  # noqa: E402
from gaquot.errors import ExprSyntaxError  # noqa: E402
from gaquot.expr import parse  # noqa: E402
from gaquot.reps import spec_from_blocks  # noqa: E402
from gqbench.workloads import build_cli_jobs  # noqa: E402


def pool_texts(seed: int):
    """``(text, table)`` for every polynomial and family parameter of the seed's cli-jobs jobs."""
    with tempfile.TemporaryDirectory(prefix="parse-corpus-") as workdir:
        ops = build_cli_jobs(random.Random(f"cli-jobs:{seed}"), workdir).ops
    for op in ops:
        if op.key.startswith("{"):  # a job document; fixture ops are argv strings
            job = json.loads(op.key)
            if "polynomial" in job:
                yield job["polynomial"], spec_from_blocks(job["representation"]).coord_names
            for text in job.get("parameters", ()):
                yield text, ("t",)


def outcome(text: str, table) -> str:
    try:
        return str(parse(text, table))
    except ExprSyntaxError as error:
        return f"error: {error}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3, 4, 5])
    args = parser.parse_args()
    for seed in args.seeds:
        for text, table in pool_texts(seed):
            print(f"seed {seed}: {outcome(text, table)}")
    for text, _ in MALFORMED:
        print(f"{ascii(text)}: {outcome(text, W)}")
    for label, text, *_ in LEFT_TO_RIGHT + LEFT_TO_RIGHT_REFUSED:
        print(f"{label}: {outcome(text, W)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
