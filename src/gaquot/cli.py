"""Batch front end: run one job per invocation, emit a deterministic report.

A job is a JSON document naming a command plus its inputs; fixtures can
stand in for a job file.  Exit codes encode classification verdicts for
scripting: 0 for an affine quotient (or plain success), 10 for strictly
quasi-affine, 20 for not everywhere stable, 30 for unknown, 1 for any
input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import astuple
from typing import Dict, List, Optional, Sequence, Tuple

from .classify import (
    Bounds,
    FamilyMember,
    Verdict,
    classify,
    compare_family,
)
from .derivations import (
    GraphPresentation,
    graded_kernel_generators,
    restrict_to_graph,
    slice_search,
)
from .errors import GaquotError, JobError
from .expr import parse
from .fixtures import (
    NAMED_FIXTURES,
    all_named_fixtures,
    fixture,
    job_for,
    verify_winkelmann_relation,
)
from .reps import RepSpec, build_derivation, spec_from_blocks
from .transfer import extend

SCHEMA = "gaquot-report/1"

COMMANDS = ("classify", "invariants", "transfer", "slice", "family-compare", "selftest")

OUTPUTS = ("text", "structured")

# job key and command-line flag attribute, in the order of the ``Bounds`` fields
_BOUND_FIELDS = (("sliceDeg", "slice_deg"), ("invariantDeg", "inv_deg"))

_EXIT_BY_VERDICT = {
    Verdict.AFFINE: 0,
    Verdict.STRICTLY_QUASI_AFFINE: 10,
    Verdict.NOT_EVERYWHERE_STABLE: 20,
    Verdict.UNKNOWN: 30,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobError(message)


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _parse_field(text, field: str, names: Sequence[str]):
    _require(isinstance(text, str), f"{field} must be an expression string, got {text!r}")
    return parse(text, names)


def _spec_from_job(job: Dict) -> RepSpec:
    _require("representation" in job, "job is missing 'representation'")
    data = job["representation"]
    _require(
        isinstance(data, dict)
        and isinstance(data.get("blocks"), list)
        and all(isinstance(block, dict) for block in data["blocks"]),
        f"representation must be an object with a 'blocks' list of objects, got {data!r}",
    )
    for i, block in enumerate(data["blocks"]):
        for key in ("sym", "vblock"):
            if key in block:
                value = block[key]
                _require(
                    isinstance(value, int) and not isinstance(value, bool),
                    f"representation.blocks[{i}].{key} must be an integer, got {value!r}",
                )
    if "coordinates" in data:
        _require(
            _is_string_list(data["coordinates"]),
            f"representation.coordinates must be a list of strings, got {data['coordinates']!r}",
        )
    return spec_from_blocks(data)


def _graph_from_job(data: Dict) -> GraphPresentation:
    _require(isinstance(data, dict), f"graph must be an object, got {data!r}")
    for key in ("zvars", "free", "dependent"):
        _require(key in data, f"graph is missing {key!r}")
    _require(
        _is_string_list(data["zvars"]),
        f"graph.zvars must be a list of strings, got {data['zvars']!r}",
    )
    _require(
        isinstance(data["free"], dict) and _is_string_list(list(data["free"].values())),
        f"graph.free must be an object mapping coordinates to strings, got {data['free']!r}",
    )
    _require(
        isinstance(data["dependent"], dict),
        f"graph.dependent must be an object, got {data['dependent']!r}",
    )
    zvars = tuple(data["zvars"])
    dependent = {
        name: _parse_field(text, f"graph.dependent.{name}", zvars)
        for name, text in data["dependent"].items()
    }
    return GraphPresentation(zvars=zvars, free=dict(data["free"]), dependent=dependent)


def _bounds_from(job: Dict, args: argparse.Namespace) -> Bounds:
    raw = job.get("bounds", {})
    _require(isinstance(raw, dict), f"bounds must be an object, got {raw!r}")
    values = []
    for (key, flag), default in zip(_BOUND_FIELDS, astuple(Bounds())):
        value = getattr(args, flag)
        field = "--" + flag.replace("_", "-")
        if value is None:
            field = f"bounds.{key}"
            value = raw.get(key, default)
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                f"{field} must be an integer, got {value!r}",
            )
        _require(value >= 0, f"{field} must be non-negative, got {value}")
        values.append(value)
    return Bounds(*values)


# ----------------------------------------------------------------------
# command handlers: each returns (payload, text lines, exit code)

Handled = Tuple[Dict, List[str], int]


def _run_classify(job: Dict, bounds: Bounds) -> Handled:
    spec = _spec_from_job(job)
    f = None
    if "polynomial" in job:
        f = _parse_field(job["polynomial"], "polynomial", spec.coord_names)
    graph = _graph_from_job(job["graph"]) if "graph" in job else None
    report = classify(spec, f, graph, bounds)
    payload = report.to_dict()
    lines = [f"verdict: {payload['verdict']}"]
    bounds_echo = payload["bounds"]
    lines.append("bounds: sliceDeg={sliceDeg} invariantDeg={invariantDeg}".format(**bounds_echo))
    if "certificate" in payload:
        status = "certified" if payload["certificate"]["certified"] else "not certified"
        lines.append(
            f"certificate restriction: {payload['certificate']['restriction']} ({status})"
        )
    if "transfer" in payload:
        lines.append(f"boundary class: {payload['transfer']['boundary']}")
        lines.append(f"F00: {payload['transfer']['f00']}")
        lines.append(f"boundary part: {payload['transfer']['boundaryPart']}")
    if "slice" in payload:
        found = payload["slice"]["found"]
        bound = payload["slice"]["degreeBound"]
        lines.append(
            f"slice: {found}" if found is not None else f"slice: none up to degree {bound}"
        )
    if "witness" in payload:
        subspace = ", ".join(f"{name} = 0" for name in payload["witness"]["subspace"])
        point = ", ".join(
            f"{name}={value}" for name, value in sorted(payload["witness"]["point"].items())
        )
        lines.append(f"unstable witness subspace: {subspace}")
        lines.append(f"unstable witness point: {point}")
    if "smoothness" in payload:
        lines.append(f"boundary polynomial smoothness: {payload['smoothness']['outcome']}")
    for name, ok in payload["crosschecks"]:
        lines.append(f"crosscheck {name}: {'pass' if ok else 'fail'}")
    for note in payload["notes"]:
        lines.append(f"note: {note}")
    return payload, lines, _EXIT_BY_VERDICT[report.verdict]


def _run_invariants(job: Dict, bounds: Bounds) -> Handled:
    spec = _spec_from_job(job)
    generators = graded_kernel_generators(
        build_derivation(spec), bounds.invariant_degree
    )
    payload = {
        "bounds": bounds.as_dict(),
        "generators": [str(g) for g in generators],
    }
    lines = [f"kernel generators up to degree {bounds.invariant_degree}:"]
    lines.extend(f"  {g}" for g in payload["generators"])
    return payload, lines, 0


def _run_transfer(job: Dict, bounds: Bounds) -> Handled:
    spec = _spec_from_job(job)
    _require("polynomial" in job, "transfer needs 'polynomial'")
    f = _parse_field(job["polynomial"], "polynomial", spec.coord_names)
    result = extend(spec, f)
    payload = {
        "bounds": bounds.as_dict(),
        "extension": str(result.extension),
        "f00": str(result.f00),
        "boundaryPart": str(result.boundary_part),
        "boundary": result.boundary.value,
    }
    lines = [
        f"extension: {payload['extension']}",
        f"F00: {payload['f00']}",
        f"boundary part: {payload['boundaryPart']}",
        f"boundary class: {payload['boundary']}",
    ]
    return payload, lines, 0


def _run_slice(job: Dict, bounds: Bounds) -> Handled:
    spec = _spec_from_job(job)
    derivation = build_derivation(spec)
    if "graph" in job:
        derivation = restrict_to_graph(derivation, _graph_from_job(job["graph"]))
    result = slice_search(derivation, bounds.slice_degree)
    payload = {
        "bounds": bounds.as_dict(),
        "found": None if result.found is None else str(result.found),
        "degreeBound": result.degree_bound,
    }
    lines = [
        f"slice: {payload['found']}"
        if payload["found"] is not None
        else f"slice: none up to degree {result.degree_bound}"
    ]
    return payload, lines, 0


def _run_family_compare(job: Dict, bounds: Bounds) -> Handled:
    spec = _spec_from_job(job)
    _require(
        isinstance(job.get("delta"), str),
        f"family comparison needs 'delta' (a catalog label), got {job.get('delta')!r}",
    )
    _require(
        isinstance(job.get("parameters"), list) and len(job["parameters"]) == 2,
        "family comparison needs 'parameters': a list of two expressions in t",
    )
    members = [
        FamilyMember(spec, _parse_field(text, f"parameters[{i}]", ("t",)), job["delta"])
        for i, text in enumerate(job["parameters"])
    ]
    comparison = compare_family(members[0], members[1])
    payload = {
        "bounds": bounds.as_dict(),
        "outcome": comparison.outcome.value,
        "counts": list(comparison.counts),
    }
    lines = [
        f"outcome: {payload['outcome']}",
        f"boundary component counts: {comparison.counts[0]} vs {comparison.counts[1]}",
    ]
    return payload, lines, 0


def _run_selftest(job: Dict, bounds: Bounds) -> Handled:
    checks: List[Tuple[str, bool]] = []
    for fx in all_named_fixtures():
        report = classify(fx.spec, fx.f, fx.graph, bounds)
        checks.append((f"{fx.name}: verdict {fx.expected_verdict.value}",
                       report.verdict is fx.expected_verdict))
        if fx.expected_witness_subspace:
            checks.append(
                (
                    f"{fx.name}: witness subspace {' = '.join(fx.expected_witness_subspace)} = 0",
                    report.witness is not None
                    and report.witness.subspace == fx.expected_witness_subspace,
                )
            )
        if report.crosschecks:
            checks.append(
                (f"{fx.name}: all crosschecks", all(ok for _, ok in report.crosschecks))
            )
    checks.append(("quadric relation reduces to zero", verify_winkelmann_relation().is_zero))
    control = verify_winkelmann_relation(
        parse("x1*x4 - x2*x3 - x5*(x5 + 2)", ("x1", "x2", "x3", "x4", "x5"))
    )
    checks.append(("perturbed quadric relation is non-zero", not control.is_zero))
    spec = fixture("winkelmann").spec
    comparison = compare_family(
        FamilyMember(spec, parse("t", ("t",)), "minor[1,2]"),
        FamilyMember(spec, parse("t^2 - 1", ("t",)), "minor[1,2]"),
    )
    checks.append(("family counts distinguish t from t^2 - 1", comparison.counts == (1, 2)))
    passed = all(ok for _, ok in checks)
    payload = {
        "bounds": bounds.as_dict(),
        "checks": [[name, ok] for name, ok in checks],
        "passed": passed,
    }
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    lines.append(f"selftest: {'pass' if passed else 'FAIL'}")
    return payload, lines, 0 if passed else 1


_HANDLERS = {
    "classify": _run_classify,
    "invariants": _run_invariants,
    "transfer": _run_transfer,
    "slice": _run_slice,
    "family-compare": _run_family_compare,
    "selftest": _run_selftest,
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """Built once: parsing never changes it, and argparse finds ``sys.stderr`` when it prints."""
    parser = argparse.ArgumentParser(
        prog="gaquot",
        description="Exact classification of additive-group quotients of invariant hypersurfaces.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--job", metavar="FILE", help="path to a JSON job document")
    source.add_argument(
        "--fixture",
        metavar="NAME",
        help=f"run a packaged example ({', '.join(NAMED_FIXTURES)}, family-phi(<expr>))",
    )
    parser.add_argument("--slice-deg", type=int, default=None, help="degree bound for slice search")
    parser.add_argument("--inv-deg", type=int, default=None, help="degree bound for kernel generators")
    parser.add_argument(
        "--format", choices=OUTPUTS, default=None, help="report format"
    )
    parser.add_argument(
        "--command",
        choices=COMMANDS,
        default=None,
        help="override the job command (fixtures default to classify)",
    )
    parser.add_argument(
        "--export-job",
        action="store_true",
        help="print the fixture as a job document instead of running it",
    )
    return parser


def _load_job(args: argparse.Namespace) -> Dict:
    if args.job is not None:
        with open(args.job, "r", encoding="utf-8") as handle:
            job = json.load(handle)
        _require(isinstance(job, dict), "job document must be a JSON object")
        return job
    if args.fixture is not None:
        fx = fixture(args.fixture)
        job = job_for(fx)
        job["citations"] = list(fx.citations)
        return job
    _require(args.command == "selftest", "need --job or --fixture (or --command selftest)")
    return {"command": "selftest"}


def run(job: Dict, bounds: Bounds) -> Handled:
    """Dispatch one job; the payload is the structured report body."""
    command = job.get("command", "classify")
    _require(
        isinstance(command, str) and command in _HANDLERS,
        f"unknown command {command!r}; known: {', '.join(COMMANDS)}",
    )
    if "citations" in job:
        _require(
            _is_string_list(job["citations"]),
            f"citations must be a list of strings, got {job['citations']!r}",
        )
    payload, lines, code = _HANDLERS[command](job, bounds)
    payload["schema"] = SCHEMA
    payload["command"] = command
    if "citations" in job:
        payload["citations"] = list(job["citations"])
        lines.extend(f"citation: {text}" for text in job["citations"])
    return payload, lines, code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        job = _load_job(args)
        if args.command is not None:
            job["command"] = args.command
        if args.export_job:
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0
        output = job.get("output", "text")
        _require(output in OUTPUTS, f"output must be one of {', '.join(OUTPUTS)}, got {output!r}")
        bounds = _bounds_from(job, args)
        payload, lines, code = run(job, bounds)
    except (GaquotError, ValueError, KeyError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.format is not None:
        output = args.format
    if output == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
