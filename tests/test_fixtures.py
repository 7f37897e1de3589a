from __future__ import annotations

import json

import pytest

from gaquot.classify import Verdict, classify
from gaquot.derivations import apply, restrict_to_graph
from gaquot.expr import parse
from gaquot.fixtures import (
    NAMED_FIXTURES,
    all_named_fixtures,
    fixture,
    job_for,
    verify_winkelmann_relation,
    winkelmann_invariant_images,
)
from gaquot.reps import build_derivation

RELATION_VARS = ("x1", "x2", "x3", "x4", "x5")


class TestCatalogOfFixtures:
    def test_names(self):
        assert NAMED_FIXTURES == (
            "winkelmann",
            "sl2-in-v2",
            "affine-slice",
            "deveney-finston",
            "quadric-relation",
        )
        assert [fx.name for fx in all_named_fixtures()] == list(NAMED_FIXTURES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            fixture("nope")

    @pytest.mark.parametrize("name", NAMED_FIXTURES)
    def test_well_formed(self, name):
        fx = fixture(name)
        assert fx.citations, "every packaged example carries an attribution"
        assert fx.expected_verdict in Verdict
        if fx.f is not None:
            assert fx.f.vars == fx.spec.coords
        if fx.graph is not None:
            # restriction validates the chain rule along the graph
            restrict_to_graph(build_derivation(fx.spec), fx.graph)

    @pytest.mark.parametrize(
        "name,verdict",
        [
            ("winkelmann", Verdict.STRICTLY_QUASI_AFFINE),
            ("sl2-in-v2", Verdict.STRICTLY_QUASI_AFFINE),
            ("affine-slice", Verdict.AFFINE),
            ("deveney-finston", Verdict.NOT_EVERYWHERE_STABLE),
            ("quadric-relation", Verdict.STRICTLY_QUASI_AFFINE),
        ],
    )
    def test_expected_verdicts_recorded(self, name, verdict):
        assert fixture(name).expected_verdict is verdict

    def test_deveney_finston_shape(self):
        fx = fixture("deveney-finston")
        assert fx.f is None
        assert fx.spec.normalization == "unit"
        assert fx.expected_witness_subspace == ("w1", "w3")
        assert set(fx.graph.dependent) == {"w5", "w6", "w7"}


class TestFamilyFixtures:
    def test_quadratic_member(self):
        fx = fixture("family-phi(t^2 - 2)")
        assert fx.expected_verdict is Verdict.STRICTLY_QUASI_AFFINE
        report = classify(fx.spec, fx.f, fx.graph)
        assert report.verdict is Verdict.STRICTLY_QUASI_AFFINE

    def test_constant_member_is_affine(self):
        fx = fixture("family-phi(7)")
        assert fx.expected_verdict is Verdict.AFFINE

    def test_origin_member_rejected(self):
        with pytest.raises(ValueError):
            fixture("family-phi(t - 1)")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(Exception):
            fixture("family-phi(t +)")


class TestQuadricRelation:
    def test_images(self):
        images = winkelmann_invariant_images()
        rendered = {name: str(p) for name, p in images.items()}
        assert rendered == {
            "x1": "w2",
            "x2": "w4",
            "x3": "w0*w3 - w1*w2",
            "x4": "w0*w5 - w1*w4",
            "x5": "w2*w5 - w3*w4",
        }

    def test_images_are_invariant(self):
        fx = fixture("winkelmann")
        d = build_derivation(fx.spec)
        for image in winkelmann_invariant_images().values():
            assert apply(d, image).is_zero

    def test_default_relation_vanishes_on_hypersurface(self):
        assert verify_winkelmann_relation().is_zero

    def test_perturbed_relation_leaves_residue(self):
        control = verify_winkelmann_relation(
            parse("x1*x4 - x2*x3 - x5*(x5 + 2)", RELATION_VARS)
        )
        assert str(control) == "-w2*w5 + w3*w4"


class TestJobExport:
    def test_winkelmann_job_document(self):
        job = job_for(fixture("winkelmann"))
        assert job["command"] == "classify"
        assert job["representation"] == {
            "blocks": [{"vblock": 3}],
            "normalization": "section5",
        }
        assert job["polynomial"] == "w2*w5 - w3*w4 - w0 + 1"
        assert job["bounds"] == {"sliceDeg": 3, "invariantDeg": 2}
        assert job["output"] == "structured"
        assert job["graph"]["dependent"]["w0"] == "z2*z5 - z3*z4 + 1"

    def test_graph_only_job(self):
        job = job_for(fixture("deveney-finston"))
        assert "polynomial" not in job
        assert set(job["graph"]["dependent"]) == {"w5", "w6", "w7"}
        assert job["representation"]["normalization"] == "unit"

    def test_deterministic_serialization(self):
        one = json.dumps(job_for(fixture("winkelmann")), sort_keys=True)
        two = json.dumps(job_for(fixture("winkelmann")), sort_keys=True)
        assert one == two
