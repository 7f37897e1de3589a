"""Per-op result checks.

Every check compares mathematical facts about a result, never report
bytes, so a change that strengthens the evidence (``SmoothOnSamples`` to
``SmoothProven``, or ``Unknown`` to ``NotEverywhereStable``) still
passes.  The arithmetic below works on exponent -> coefficient maps
directly and does not call back into the routines under test; only
``parse`` is borrowed to read polynomials back from CLI reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from gaquot import parse

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Fraction]

SCHEMA = "gaquot-report/1"
EXIT_BY_VERDICT = {
    "Affine": 0,
    "StrictlyQuasiAffine": 10,
    "NotEverywhereStable": 20,
    "Unknown": 30,
}


class CheckFailed(Exception):
    """A result contradicts a mathematical fact about its input."""


@dataclass
class Outcome:
    """What a passing check learned: the verdict state and result-side counters."""

    undecided: bool = False
    counters: Dict[str, float] = field(default_factory=dict)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# independent arithmetic on term maps


def evaluate(terms: Mapping[Exponent, Fraction], names: Sequence[str],
             point: Mapping[str, Fraction]) -> Fraction:
    values = [Fraction(point[name]) for name in names]
    total = Fraction(0)
    for exponent, coeff in terms.items():
        term = Fraction(coeff)
        for value, e in zip(values, exponent):
            if e:
                term *= value ** e
        total += term
    return total


def add_terms(target: Terms, exponent: Exponent, coeff: Fraction) -> None:
    value = target.get(exponent, Fraction(0)) + coeff
    if value:
        target[exponent] = value
    else:
        target.pop(exponent, None)


def mul_terms(a: Mapping[Exponent, Fraction], b: Mapping[Exponent, Fraction]) -> Terms:
    out: Terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            add_terms(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def partial(terms: Mapping[Exponent, Fraction], index: int) -> Terms:
    out: Terms = {}
    for exponent, coeff in terms.items():
        e = exponent[index]
        if e:
            add_terms(out, exponent[:index] + (e - 1,) + exponent[index + 1:], coeff * e)
    return out


def leibniz(images: Sequence[Mapping[Exponent, Fraction]], terms: Mapping[Exponent, Fraction]) -> Terms:
    """``D(p)`` for the derivation sending the i-th variable to ``images[i]``."""
    out: Terms = {}
    for i, image in enumerate(images):
        if not image:
            continue
        for exponent, coeff in partial(terms, i).items():
            for ie, ic in image.items():
                add_terms(out, tuple(x + y for x, y in zip(exponent, ie)), coeff * ic)
    return out


def derivation_images(derivation) -> Tuple[Terms, ...]:
    """Generator images of a ``gaquot`` derivation as plain term maps."""
    return tuple(dict(derivation.images[name].terms) for name in derivation.vars)


def restrict_zero(terms: Mapping[Exponent, Fraction], names: Sequence[str],
                  zero: Sequence[str]) -> Terms:
    """Terms surviving when every variable in ``zero`` is set to 0."""
    idx = [names.index(name) for name in zero]
    return {e: c for e, c in terms.items() if not any(e[i] for i in idx)}


def extension_at_u0_v1(extension) -> Terms:
    """``F(u=0, v=1)`` as a term map over the original coordinates."""
    iu, iv = extension.vars.index("u"), extension.vars.index("v")
    keep = [i for i in range(len(extension.vars)) if i not in (iu, iv)]
    out: Terms = {}
    for exponent, coeff in extension.terms.items():
        if exponent[iu] == 0:
            add_terms(out, tuple(exponent[i] for i in keep), coeff)
    return out


def degree_counts(polys: Sequence, maxdeg: int) -> Tuple[int, ...]:
    counts = [0] * maxdeg
    for p in polys:
        degree = max(sum(e) for e in p.terms)
        require(1 <= degree <= maxdeg, f"generator of degree {degree} outside 1..{maxdeg}")
        counts[degree - 1] += 1
    return tuple(counts)


# ----------------------------------------------------------------------
# library results


def check_kernel_generators(generators: Sequence, images: Sequence[Terms],
                            expected_counts: Tuple[int, ...]) -> Outcome:
    """Every generator is a non-zero kernel element; counts per degree match."""
    for g in generators:
        require(bool(g.terms), "zero kernel generator")
        require(not leibniz(images, g.terms), f"generator {g} is not killed by the derivation")
    counts = degree_counts(generators, len(expected_counts))
    require(counts == tuple(expected_counts),
            f"minimal generator counts per degree {counts} != reference {tuple(expected_counts)}")
    return Outcome()


def check_transfer(f, result) -> Outcome:
    """``result`` is ``(TransferResult, verify_invariance(...))`` for input ``f``."""
    transfer, invariant = result
    require(invariant is True, "extension failed verify_invariance")
    require(extension_at_u0_v1(transfer.extension) == dict(f.terms),
            "extension does not restrict to f at u=0, v=1")
    return Outcome()


def check_family_member(expected_f00: Mapping[Exponent, Fraction], report) -> Outcome:
    """A certified family member: StrictlyQuasiAffine, Intersects, known F00."""
    require(report.verdict.value == "StrictlyQuasiAffine",
            f"verdict {report.verdict.value}, expected StrictlyQuasiAffine")
    require(report.transfer is not None and report.transfer.boundary.value == "Intersects",
            "boundary class is not Intersects")
    f00 = report.transfer.f00
    require(dict(f00.terms) == dict(expected_f00), f"F00 {f00} != 1 + phi(minor)")
    require(len(report.crosschecks) > 0, "no crosschecks recorded")
    for name, ok in report.crosschecks:
        require(ok is True, f"crosscheck {name} is not true")
    samples = 0
    if report.smoothness is not None:
        samples = report.smoothness.samples
        if report.smoothness.outcome == "SingularWitness":
            check_singular_point(f00, dict(report.smoothness.witness))
    return Outcome(counters={"classify.smoothness.samples": samples})


def check_singular_point(f00, point: Mapping[str, Fraction]) -> None:
    names = f00.vars
    require(evaluate(f00.terms, names, point) == 0, "singular witness is not on F00")
    for i, name in enumerate(names):
        require(evaluate(partial(f00.terms, i), names, point) == 0,
                f"singular witness does not kill dF00/d{name}")


def check_unstable_point(point: Mapping[str, Fraction], positive: Sequence[str],
                         f=None, graph=None) -> None:
    """A witness lies in the non-stable subspace and on the variety."""
    for name in positive:
        require(point.get(name) == 0, f"witness coordinate {name} of positive weight is not 0")
    if f is not None:
        require(evaluate(f.terms, f.vars, point) == 0, "witness point is not on f = 0")
    if graph is not None:
        zpoint = {z: point[name] for name, z in graph.free.items()}
        for name, image in graph.dependent.items():
            require(evaluate(image.terms, image.vars, zpoint) == point[name],
                    f"witness point leaves the graph at {name}")


# ----------------------------------------------------------------------
# CLI results: (exit code, stdout, stderr)


def cli_payload(result, codes: Sequence[int]) -> Dict:
    code, out, err = result
    require(code in codes, f"exit code {code}, expected one of {sorted(codes)}; stderr {err!r}")
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as error:
        raise CheckFailed(f"stdout is not a structured report: {error}") from None
    require(payload.get("schema") == SCHEMA, f"report schema {payload.get('schema')!r} != {SCHEMA}")
    return payload


def _witness_point(payload: Dict) -> Dict[str, Fraction]:
    require("witness" in payload, "NotEverywhereStable report carries no witness")
    return {name: Fraction(value) for name, value in payload["witness"]["point"].items()}


def _classify_counters(payload: Dict, via_witness: bool) -> Dict[str, float]:
    smoothness = payload.get("smoothness")
    counters = {"classify.smoothness.samples": smoothness["samples"] if smoothness else 0}
    if via_witness:
        counters["classify.witness.attempts"] = 1
        counters["classify.witness.found"] = int(payload["verdict"] == "NotEverywhereStable")
    return counters


def check_cli_fixture_classify(verdict: str, subspace: Tuple[str, ...], positive: Sequence[str],
                               f, graph, result) -> Outcome:
    payload = cli_payload(result, [EXIT_BY_VERDICT[verdict]])
    require(payload["verdict"] == verdict, f"verdict {payload['verdict']}, expected {verdict}")
    if verdict == "NotEverywhereStable":
        if subspace:
            require(tuple(payload["witness"]["subspace"]) == tuple(subspace),
                    f"witness subspace {payload['witness']['subspace']} != {list(subspace)}")
        check_unstable_point(_witness_point(payload), positive, f, graph)
    for name, ok in payload["crosschecks"]:
        require(ok is True, f"crosscheck {name} is not true")
    via_witness = verdict in ("NotEverywhereStable", "Unknown")
    return Outcome(counters=_classify_counters(payload, via_witness))


def check_cli_uncertified(positive: Sequence[str], f, result) -> Outcome:
    """A non-constant restriction: the verdict is NotEverywhereStable or Unknown."""
    payload = cli_payload(result, [20, 30])
    code = result[0]
    expected = "NotEverywhereStable" if code == 20 else "Unknown"
    require(payload["verdict"] == expected, f"verdict {payload['verdict']} with exit code {code}")
    if code == 20:
        check_unstable_point(_witness_point(payload), positive, f)
    return Outcome(undecided=code == 30, counters=_classify_counters(payload, True))


def check_cli_invariants(coords: Sequence[str], images: Sequence[Terms],
                         expected_counts: Tuple[int, ...], result) -> Outcome:
    payload = cli_payload(result, [0])
    generators = [parse(text, coords) for text in payload["generators"]]
    return check_kernel_generators(generators, images, expected_counts)


def check_cli_transfer(f, result) -> Outcome:
    payload = cli_payload(result, [0])
    coords = f.vars
    f00 = parse(payload["f00"], coords)
    boundary_part = parse(payload["boundaryPart"], coords)
    total = dict(f00.terms)
    for exponent, coeff in boundary_part.terms.items():
        add_terms(total, exponent, coeff)
    require(total == dict(f.terms), "F00 + boundary part != f")
    if not f00.terms:
        expected = "Contains"
    elif all(sum(e) == 0 for e in f00.terms):
        expected = "Misses"
    else:
        expected = "Intersects"
    require(payload["boundary"] == expected, f"boundary {payload['boundary']} but F00 says {expected}")
    extension = parse(payload["extension"], ("u", "v") + tuple(coords))
    require(extension_at_u0_v1(extension) == dict(f.terms), "extension does not restrict to f")
    return Outcome()


def check_cli_slice(table: Sequence[str], images: Sequence[Terms], result) -> Outcome:
    payload = cli_payload(result, [0])
    if payload["found"] is not None:
        s = parse(payload["found"], table)
        one = {(0,) * len(table): Fraction(1)}
        require(leibniz(images, s.terms) == one, "reported slice does not satisfy D(s) = 1")
    return Outcome()


def check_cli_family_compare(degrees: Tuple[int, int], result) -> Outcome:
    """Squarefree parameters: one boundary component per root, so counts are degrees."""
    payload = cli_payload(result, [0])
    require(tuple(payload["counts"]) == tuple(degrees),
            f"boundary counts {payload['counts']} != parameter degrees {list(degrees)}")
    expected = "Inconclusive" if degrees[0] == degrees[1] else "NonIsomorphicBoundaryCounts"
    require(payload["outcome"] == expected, f"outcome {payload['outcome']}, expected {expected}")
    return Outcome()


def check_cli_selftest(result) -> Outcome:
    payload = cli_payload(result, [0])
    require(payload["passed"] is True, "selftest did not pass")
    for name, ok in payload["checks"]:
        require(ok is True, f"selftest check failed: {name}")
    return Outcome()
