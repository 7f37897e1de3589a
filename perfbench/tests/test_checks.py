"""Each checker accepts a genuine result and rejects a doctored one."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import gaquot
import run
from gaquot import Poly, RepSpec, Verdict
from gqbench import checks, workloads
from gqbench.checks import CheckFailed


@pytest.fixture(scope="module")
def member():
    phi = Poly(("t",), {(1,): 1, (3,): -1, (0,): 2})
    spec = workloads.FAMILY_SPEC
    f, graph = gaquot.build_family_member(spec, phi, workloads.FAMILY_DELTA)
    return workloads.family_f00(phi), gaquot.classify(spec, f, graph)


def test_family_member_genuine(member):
    expected, report = member
    checks.check_family_member(expected, report)


def test_family_member_wrong_verdict(member):
    expected, report = member
    with pytest.raises(CheckFailed, match="verdict"):
        checks.check_family_member(expected, replace(report, verdict=Verdict.AFFINE))


def test_family_member_wrong_f00(member):
    expected, report = member
    doctored = replace(report, transfer=replace(report.transfer, f00=report.transfer.f00 + 1))
    with pytest.raises(CheckFailed, match="F00"):
        checks.check_family_member(expected, doctored)


def test_family_member_false_crosscheck(member):
    expected, report = member
    doctored = replace(report, crosschecks=report.crosschecks[:-1] + (("slice-agreement", False),))
    with pytest.raises(CheckFailed, match="crosscheck"):
        checks.check_family_member(expected, doctored)


def test_singular_witness_is_reverified():
    f00 = gaquot.parse("w0^2 - w1^3", ("w0", "w1"))
    checks.check_singular_point(f00, {"w0": Fraction(0), "w1": Fraction(0)})
    with pytest.raises(CheckFailed):
        checks.check_singular_point(f00, {"w0": Fraction(1), "w1": Fraction(1)})


@pytest.fixture(scope="module")
def kernel():
    derivation = gaquot.build_derivation(RepSpec((2, 2)))
    generators = gaquot.graded_kernel_generators(derivation, 4)
    return checks.derivation_images(derivation), generators


def test_kernel_generators_genuine(kernel):
    images, generators = kernel
    checks.check_kernel_generators(generators, images, workloads.reference_counts((2, 2), 4))


def test_kernel_generators_wrong_count(kernel):
    images, generators = kernel
    with pytest.raises(CheckFailed, match="counts"):
        checks.check_kernel_generators(generators[:-1], images, (2, 4, 0, 0))


def test_kernel_generators_not_invariant(kernel):
    images, generators = kernel
    forged = generators[:-1] + [Poly.variable(generators[0].vars, "w1") * generators[-1]]
    with pytest.raises(CheckFailed, match="not killed"):
        checks.check_kernel_generators(forged, images, (2, 4, 0, 0))


def test_transfer_checks():
    spec = RepSpec((4,), normalization="unit")
    f = gaquot.parse("2*w0*w4 - 2*w1*w3 + w2^2 + 3", spec.coord_names)
    result = gaquot.extend(spec, f)
    checks.check_transfer(f, (result, True))
    with pytest.raises(CheckFailed, match="verify_invariance"):
        checks.check_transfer(f, (result, False))
    v = Poly.variable(result.extension.vars, "v")
    w0 = Poly.variable(result.extension.vars, "w0")
    forged = replace(result, extension=result.extension + v * w0)
    with pytest.raises(CheckFailed, match="restrict"):
        checks.check_transfer(f, (forged, True))


@pytest.fixture(scope="module")
def uncertified(tmp_path_factory):
    """A planted job over (2,1,1): the search finds a rational witness (exit 20)."""
    spec = RepSpec((2, 1, 1))
    generators = workloads.kernel_generators(spec, 2)
    f = workloads.uncertified_polynomial(random.Random(11), spec, generators, planted=True, slot=3)
    path = tmp_path_factory.mktemp("jobs") / "job.json"
    path.write_text(json.dumps({"command": "classify", "representation": gaquot.spec_to_blocks(spec),
                                "polynomial": str(f), "output": "structured"}))
    result = workloads._cli(["--job", str(path)])
    assert result[0] == 20
    return workloads.positive_coordinates(spec), f, result


def _with_payload(result, edit):
    payload = json.loads(result[1])
    edit(payload)
    return result[0], json.dumps(payload), result[2]


def test_uncertified_genuine(uncertified):
    positive, f, result = uncertified
    outcome = checks.check_cli_uncertified(positive, f, result)
    assert not outcome.undecided
    assert outcome.counters["classify.witness.found"] == 1


def test_uncertified_forged_witness_off_the_variety(uncertified):
    positive, f, result = uncertified

    def edit(payload):
        payload["witness"]["point"]["w1"] = str(Fraction(payload["witness"]["point"]["w1"]) + 7)

    with pytest.raises(CheckFailed, match="not on f"):
        checks.check_cli_uncertified(positive, f, _with_payload(result, edit))


def test_uncertified_forged_witness_outside_the_subspace(uncertified):
    positive, f, result = uncertified

    def edit(payload):
        payload["witness"]["point"][positive[0]] = "1"

    with pytest.raises(CheckFailed, match="positive weight"):
        checks.check_cli_uncertified(positive, f, _with_payload(result, edit))


def test_uncertified_wrong_verdict(uncertified):
    positive, f, result = uncertified

    def edit(payload):
        payload["verdict"] = "StrictlyQuasiAffine"

    with pytest.raises(CheckFailed, match="exit code"):
        checks.check_cli_uncertified(positive, f, (10,) + _with_payload(result, edit)[1:])
    with pytest.raises(CheckFailed, match="verdict"):
        checks.check_cli_uncertified(positive, f, _with_payload(result, edit))


def test_uncertified_wrong_schema(uncertified):
    positive, f, result = uncertified

    def edit(payload):
        payload["schema"] = "something-else"

    with pytest.raises(CheckFailed, match="schema"):
        checks.check_cli_uncertified(positive, f, _with_payload(result, edit))


def _fixture_check(name):
    fx = gaquot.fixture(name)
    result = workloads._cli(["--fixture", name])
    return result, lambda r: checks.check_cli_fixture_classify(
        fx.expected_verdict.value, fx.expected_witness_subspace,
        workloads.positive_coordinates(fx.spec), fx.f, fx.graph, r)


def test_fixture_classify_genuine_and_wrong_verdict():
    result, check = _fixture_check("winkelmann")
    check(result)
    with pytest.raises(CheckFailed, match="exit code"):
        check((0,) + result[1:])


def test_fixture_graph_witness_forged():
    result, check = _fixture_check("deveney-finston")
    check(result)

    def edit(payload):
        payload["witness"]["point"]["w7"] = "5"

    with pytest.raises(CheckFailed, match="graph"):
        check(_with_payload(result, edit))


def test_family_compare_wrong_counts():
    good = (0, json.dumps({"schema": checks.SCHEMA, "counts": [1, 2],
                           "outcome": "NonIsomorphicBoundaryCounts"}), "")
    checks.check_cli_family_compare((1, 2), good)
    with pytest.raises(CheckFailed, match="counts"):
        checks.check_cli_family_compare((2, 2), good)


def test_selftest_failure_is_caught():
    result = workloads._cli(["--command", "selftest", "--format", "structured"])
    checks.check_cli_selftest(result)

    def edit(payload):
        payload["checks"][0][1] = False

    with pytest.raises(CheckFailed, match="selftest check"):
        checks.check_cli_selftest(_with_payload(result, edit))


def test_transfer_report_forged_boundary():
    fx = gaquot.fixture("winkelmann")
    result = workloads._cli(["--fixture", "winkelmann", "--command", "transfer"])
    checks.check_cli_transfer(fx.f, result)

    def edit(payload):
        payload["boundary"] = "Misses"

    with pytest.raises(CheckFailed, match="boundary"):
        checks.check_cli_transfer(fx.f, _with_payload(result, edit))


def test_report_missing_a_field_counts_as_a_failed_op():
    class Broken:
        kind, key = "classify", "fixture"

        @staticmethod
        def call():
            return 10, json.dumps({"schema": checks.SCHEMA, "verdict": "StrictlyQuasiAffine"}), ""

        check = staticmethod(_fixture_check("winkelmann")[1])

    loop = run.Loop([Broken()], reference=None)
    loop.run_op(0)
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "KeyError" in loop.failures[0]
