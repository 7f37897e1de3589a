from __future__ import annotations

import functools
import importlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaquot.classify import (
    Bounds,
    FamilyMember,
    FamilyOutcome,
    Verdict,
    build_family_member,
    certify_everywhere_stable,
    classify,
    compare_family,
    crosscheck_constant_removed,
    jacobian_boundary_smoothness,
)
from gaquot.classify import _candidate_blocks, _rational_zero
from gaquot.derivations import (
    GraphPresentation,
    apply,
    graded_kernel_generators,
    power_in_image,
    restrict_to_graph,
    slice_search,
)
from gaquot.errors import GraphInconsistency, NonInvariantInput, VariableTableMismatch
from gaquot.expr import parse
from gaquot.fixtures import all_named_fixtures, fixture
from gaquot.poly import Poly
from gaquot.reps import RepSpec, build_derivation, nonstable_coordinates
from gaquot.transfer import BoundaryClass, boundary_split, extend

CLASSIFY = importlib.import_module("gaquot.classify")  # the package exports the function by this name
TRANSFER = importlib.import_module("gaquot.transfer")
DERIVATIONS = importlib.import_module("gaquot.derivations")
PAIR = RepSpec((1, 1))
TRIPLE = RepSpec((1, 1, 1))
WINKELMANN_F = "1 + w2*w5 - w3*w4 - w0"


def _phi(text):
    return parse(text, ("t",))


class TestBounds:
    def test_defaults_and_echo(self):
        bounds = Bounds()
        assert bounds.as_dict() == {"sliceDeg": 3, "invariantDeg": 2}

    def test_custom(self):
        assert Bounds(slice_degree=2).as_dict()["sliceDeg"] == 2


class TestCertificate:
    def test_winkelmann_is_certified(self):
        cert = certify_everywhere_stable(TRIPLE, parse(WINKELMANN_F, TRIPLE.coords))
        assert cert.certified
        assert str(cert.restriction) == "1"

    def test_weight_zero_invariant_is_not_certified(self):
        cert = certify_everywhere_stable(PAIR, parse("w0*w3 - w1*w2", PAIR.coords))
        assert not cert.certified
        assert cert.restriction.is_zero

    def test_non_invariant_rejected(self):
        with pytest.raises(NonInvariantInput):
            certify_everywhere_stable(PAIR, parse("w1 + 1", PAIR.coords))


class TestClassifyHypersurfaceRoute:
    def test_winkelmann_without_graph(self):
        report = classify(TRIPLE, parse(WINKELMANN_F, TRIPLE.coords))
        assert report.verdict is Verdict.STRICTLY_QUASI_AFFINE
        assert report.crosschecks == ()  # no graph, so no independent route
        assert report.slice_result is None
        assert report.smoothness is not None
        assert report.smoothness.outcome == "SmoothProven"

    def test_verdict_and_boundary_agree(self):
        report = classify(PAIR, parse("1 - w0*w3 + w1*w2", PAIR.coords))
        assert report.verdict is Verdict.STRICTLY_QUASI_AFFINE
        assert report.transfer is not None
        assert str(report.transfer.f00) == "-w0*w3 + w1*w2 + 1"

    def test_guards(self):
        with pytest.raises(ValueError):
            classify(PAIR)  # neither polynomial nor graph
        with pytest.raises(ValueError):
            classify(PAIR, Poly.const(PAIR.coords, 1))
        with pytest.raises(NonInvariantInput):
            classify(PAIR, parse("1 - w1", PAIR.coords))
        with pytest.raises(VariableTableMismatch):
            classify(PAIR, parse("1 - x", ("x",)))

    def test_polynomial_only_witness(self):
        # the restriction w1^2 - 1 vanishes at the axis candidate w1 = 1
        spec = RepSpec((2,))
        report = classify(spec, parse("w1^2 - 4*w0*w2 - 1", spec.coords))
        assert report.verdict is Verdict.NOT_EVERYWHERE_STABLE
        assert report.witness.subspace == ("w0",)
        assert report.witness.point_dict() == {"w0": 0, "w1": 1, "w2": 0}
        assert report.notes == ()

    def test_polynomial_only_miss_is_unknown(self):
        # w1^2 + 1 has no rational zero: the search misses, nothing is decided
        spec = RepSpec((2,))
        report = classify(spec, parse("w1^2 - 4*w0*w2 + 1", spec.coords))
        assert report.verdict is Verdict.UNKNOWN
        assert report.witness is None
        assert report.notes == (
            "certificate failed and no rational point of the non-stable "
            "subspace was found within the sample budget",
        )


class TestClassifyGraphRoute:
    def test_affine_fixture(self):
        fx = fixture("affine-slice")
        report = classify(fx.spec, fx.f, fx.graph)
        assert report.verdict is Verdict.AFFINE
        assert report.slice_result is not None
        assert str(report.slice_result.found) == "z1"
        assert dict(report.crosschecks)["slice-agreement"]

    def test_graph_only_input_is_its_equation(self):
        # without a defining polynomial the graph's equation w0 - 1 takes the polynomial route
        fx = fixture("affine-slice")
        report = classify(fx.spec, None, fx.graph)
        assert report.verdict is Verdict.AFFINE
        assert report.certificate.certified
        assert str(report.transfer.f00) == "-1"
        assert str(report.slice_result.found) == "z1"
        assert report.crosschecks == (("slice-agreement", True),)
        assert report.notes == ()

    def test_graph_only_slice_ignores_the_bound(self):
        # the ladder slice has no degree bound: sliceDeg is only echoed
        fx = fixture("affine-slice")
        report = classify(fx.spec, None, fx.graph, Bounds(slice_degree=0))
        assert report.verdict is Verdict.AFFINE
        assert str(report.slice_result.found) == "z1"
        assert report.slice_result.degree_bound == 0
        assert report.crosschecks == (("slice-agreement", True),)
        assert report.notes == ()

    def test_unstable_witness_point(self):
        fx = fixture("deveney-finston")
        report = classify(fx.spec, fx.f, fx.graph)
        assert report.verdict is Verdict.NOT_EVERYWHERE_STABLE
        witness = report.witness
        assert witness.subspace == ("w1", "w3")
        point = witness.point_dict()
        assert point["w7"] == 1
        assert all(point[name] == 0 for name in fx.spec.coords if name != "w7")


    @pytest.mark.parametrize("extra, residue", [
        ("w0", "z2*z5 - z3*z4 + 1"),  # f + w0 has no w0 term: the residue is the relabelled free part
        ("2*w0", "2*z2*z5 - 2*z3*z4 + 2"),  # one w0 left, expanded through its dependent image
    ])
    def test_polynomial_off_the_graph_rejected(self, extra, residue):
        fx = fixture("winkelmann")
        f = fx.f + parse(extra, fx.spec.coord_names)
        with pytest.raises(GraphInconsistency) as raised:
            classify(fx.spec, f, fx.graph)
        assert str(raised.value) == f"polynomial does not vanish on the graph; residue {residue}"


class TestReportSerialization:
    def test_dictionary_shape(self):
        report = classify(TRIPLE, parse(WINKELMANN_F, TRIPLE.coords))
        data = report.to_dict()
        assert data["verdict"] == "StrictlyQuasiAffine"
        assert data["bounds"] == {"sliceDeg": 3, "invariantDeg": 2}
        assert data["certificate"] == {"restriction": "1", "certified": True}
        assert data["transfer"]["boundary"] == "Intersects"
        assert data["transfer"]["f00"] == "w2*w5 - w3*w4 + 1"
        assert data["smoothness"]["outcome"] == "SmoothProven"

    def test_byte_identical_reports(self):
        first = classify(TRIPLE, parse(WINKELMANN_F, TRIPLE.coords)).to_dict()
        second = classify(TRIPLE, parse(WINKELMANN_F, TRIPLE.coords)).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestCrosscheckHelpers:
    def test_constant_removed_route_agrees(self):
        assert crosscheck_constant_removed(TRIPLE, parse(WINKELMANN_F, TRIPLE.coords))

    def test_constant_removed_requires_certificate(self):
        with pytest.raises(ValueError):
            crosscheck_constant_removed(PAIR, parse("w0*w3 - w1*w2", PAIR.coords))

    def test_localized_duality_values(self):
        reduced = parse(WINKELMANN_F, TRIPLE.coords) - 1
        assert not power_in_image(build_derivation(TRIPLE), reduced).found
        spec = RepSpec((1,))
        assert power_in_image(build_derivation(spec), parse("-w0", spec.coords)).found


def _golden_family_members():
    path = Path(__file__).parent / "data" / "golden_reports.json"
    return [name for name in json.loads(path.read_text(encoding="utf-8")) if name.startswith("family-phi")]


# The transfer specs of the invariants-transfer benchmark pool with the
# degree of their products: c + a*P for P a product of degree-1 and
# degree-2 kernel generators.
_PRODUCT_SPECS = (
    ((5,), 5), ((6,), 5), ((4,), 6), ((3,), 7), ((2, 2), 7), ((3, 1), 7),
    ((2, 1, 1), 7), ((4, 1), 6), ((3, 2), 6), ((4, 2), 6), ((3, 3), 6), ((6, 1), 5),
    ((2, 2, 2), 6),
)


def _generator_products():
    """``c + a*P`` per product spec, normalization and slot, as the benchmark builds them."""
    rng = random.Random(18)
    out = []
    for normalization in ("section5", "unit"):
        for summands, degree in _PRODUCT_SPECS:
            spec = RepSpec(summands, normalization=normalization)
            generators = graded_kernel_generators(build_derivation(spec), 2)
            linear = [g for g in generators if g.total_degree() == 1]
            quadratic = [g for g in generators if g.total_degree() == 2]
            for slot in range(2):
                product = Poly.const(spec.coord_names, 1)
                for i in range(degree // 2):
                    product = product * quadratic[(slot + i) % len(quadratic)]
                if degree % 2:
                    product = product * linear[slot % len(linear)]
                a = rng.choice([-3, -2, -1, 1, 2, 3])
                out.append((spec, product * a + rng.randint(1, 9)))
    return out


def _restatement_corpus():
    """Certified fixtures, the golden family members and the generator products."""
    named = [fx for fx in all_named_fixtures() if fx.f is not None]
    members = [fixture(name) for name in _golden_family_members()]
    return [(fx.spec, fx.f) for fx in named + members] + _generator_products()


class TestBoundaryRestatements:
    """The two routes that restate the boundary class hold as properties, not report entries."""

    CORPUS = _restatement_corpus()

    def test_corpus_covers_both_classes(self):
        certified = [
            extend(spec, f).boundary
            for spec, f in self.CORPUS
            if certify_everywhere_stable(spec, f).certified
        ]
        assert len(self.CORPUS) >= 50
        assert BoundaryClass.MISSES in certified and BoundaryClass.INTERSECTS in certified

    def test_constant_removed_route_holds(self):
        checked = 0
        for spec, f in self.CORPUS:
            if certify_everywhere_stable(spec, f).certified:
                assert crosscheck_constant_removed(spec, f), str(f)
                checked += 1
        assert checked >= 10

    def test_power_in_image_iff_boundary_missed(self):
        # f - c has no constant term, so its weight-zero part vanishes
        # exactly when F00 = c, a non-zero constant
        for spec, f in self.CORPUS:
            c = f.constant_term()
            assert c != 0
            found = power_in_image(build_derivation(spec), f - c).found
            assert found == (extend(spec, f).boundary is BoundaryClass.MISSES), str(f)


@st.composite
def _family_parameters(draw):
    """A non-constant ``phi`` of degree 1 to 3 with ``phi(0) != -1``, so the member is stable."""
    degree = draw(st.integers(1, 3))
    lower = draw(st.lists(st.integers(-4, 4), min_size=degree, max_size=degree))
    lead = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    assume(lower[0] != -1)
    return Poly(("t",), {(k,): c for k, c in enumerate([*lower, lead])})


class TestSliceTheorem:
    """A slice exists exactly when the quotient is affine: a non-affine verdict has none at any degree."""

    @staticmethod
    def _assert_no_slice(fx):
        assert classify(fx.spec, fx.f, fx.graph).verdict is not Verdict.AFFINE
        assert slice_search(restrict_to_graph(build_derivation(fx.spec), fx.graph), 3).found is None

    @pytest.mark.parametrize("name", [
        fx.name for fx in all_named_fixtures() if fx.graph is not None and fx.expected_verdict is not Verdict.AFFINE
    ] + _golden_family_members())
    def test_no_slice_on_a_non_affine_fixture(self, name):
        self._assert_no_slice(fixture(name))

    @settings(max_examples=30, deadline=None)
    @given(_family_parameters())
    def test_no_slice_on_family_members(self, phi):
        self._assert_no_slice(fixture(f"family-phi({phi})"))


class TestOneBoundaryRead:
    @staticmethod
    def _count(monkeypatch, name, module=CLASSIFY):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("with_graph", [False, True])
    def test_certified_input_extends_once(self, monkeypatch, with_graph):
        # classify splits the boundary and runs no ladder; the extension is
        # built once, when a rendered report first reads it
        fx = fixture("winkelmann")
        extends = self._count(monkeypatch, "extend")
        splits = self._count(monkeypatch, "boundary_split")
        ladders = self._count(monkeypatch, "_ladder", TRANSFER)
        smoothness = self._count(monkeypatch, "jacobian_boundary_smoothness")
        systems = self._count(monkeypatch, "_nonstable_system")
        report = classify(fx.spec, fx.f, fx.graph if with_graph else None)
        assert report.verdict is Verdict.STRICTLY_QUASI_AFFINE
        assert extends == [] and ladders == []
        assert len(splits) == 1
        assert len(smoothness) == 1
        assert systems == []  # only the witness search and a graph-only certificate read it
        rendered = report.to_dict()
        assert len(ladders) == 1
        assert report.to_dict() == rendered
        assert rendered["transfer"]["extension"] == str(extend(fx.spec, fx.f).extension)
        assert len(ladders) == 2  # the call to extend above runs its own ladder

    def test_graph_only_input_builds_its_constraints_once(self, monkeypatch):
        fx = fixture("deveney-finston")
        systems = self._count(monkeypatch, "_nonstable_system")
        report = classify(fx.spec, fx.f, fx.graph)
        assert report.verdict is Verdict.NOT_EVERYWHERE_STABLE
        assert len(systems) == 1  # the graph-only certificate and the witness search share it

    def test_classify_has_no_slice_search(self, monkeypatch):
        # every slice classify reports comes from the ladder, at no degree bound
        assert not hasattr(CLASSIFY, "slice_search")

        def refused(*args, **kwargs):
            raise AssertionError("classify ran the bounded slice search")

        monkeypatch.setattr(DERIVATIONS, "slice_search", refused)
        for fx in all_named_fixtures():
            for f in (fx.f, None) if fx.graph is not None else (fx.f,):
                classify(fx.spec, f, fx.graph)

    @pytest.mark.parametrize("name, with_f, restrictions", [
        ("winkelmann", True, 0),  # f vanishes on a one-dependent graph: stability is a theorem
        ("winkelmann", False, 1),  # a graph alone is checked up front
        ("deveney-finston", False, 1),
        ("affine-slice", True, 0),  # the slice is the ladder's, pulled back
        ("affine-slice", False, 1),  # a graph alone is checked up front
    ])
    def test_graph_restriction_runs_only_where_read_or_not_implied(self, monkeypatch, name, with_f, restrictions):
        fx = fixture(name)
        restricted = self._count(monkeypatch, "restrict_to_graph")
        classify(fx.spec, fx.f if with_f else None, fx.graph)
        assert len(restricted) == restrictions

    @pytest.mark.parametrize("text, verdict", [
        ("w1^2 - 4*w0*w2 - 1", Verdict.NOT_EVERYWHERE_STABLE),
        ("w1^2 - 4*w0*w2 + 1", Verdict.UNKNOWN),
    ])
    def test_uncertified_input_skips_smoothness(self, monkeypatch, text, verdict):
        # the restriction w1^2 -/+ 1 is not constant, and F00 = f meets the boundary
        spec = RepSpec((2, 1, 1))
        splits = self._count(monkeypatch, "boundary_split")
        ladders = self._count(monkeypatch, "_ladder", TRANSFER)
        smoothness = self._count(monkeypatch, "jacobian_boundary_smoothness")
        report = classify(spec, parse(text, spec.coords))
        assert report.verdict is verdict
        assert report.transfer.boundary is BoundaryClass.INTERSECTS
        assert len(splits) == 1
        assert ladders == []
        assert smoothness == []
        assert report.smoothness is None


def _one_dependent_members():
    """Every input with a polynomial and a graph of one dependent coordinate: fixtures and golden members."""
    named = [fx for fx in all_named_fixtures() if fx.f is not None and fx.graph is not None]
    members = [fixture(name) for name in _golden_family_members()]
    return [fx for fx in named + members if len(fx.graph.dependent) == 1]


class TestGraphStabilityTheorem:
    """With f and one dependent coordinate on which f vanishes, the graph is a G_a-stable component of V(f)."""

    @staticmethod
    def _assert_stable(spec, f, graph):
        assert len(graph.dependent) == 1
        assert graph.defines(f)  # the term check classify runs agrees with the composition
        assert graph.pull_back(f).is_zero
        restrict_to_graph(build_derivation(spec), graph)  # the chain-rule check passes

    def test_fixtures_and_golden_members(self):
        members = _one_dependent_members()
        assert {"winkelmann", "affine-slice", "quadric-relation"} <= {fx.name for fx in members}
        assert len(members) >= 5
        for fx in members:
            self._assert_stable(fx.spec, fx.f, fx.graph)

    @settings(max_examples=30, deadline=None)
    @given(_family_parameters())
    def test_family_members(self, phi):
        fx = fixture(f"family-phi({phi})")
        self._assert_stable(fx.spec, fx.f, fx.graph)

    UNSTABLE = "graph is not stable under the derivation at 'w0': ambient action gives 0, chain rule gives z1"

    @staticmethod
    def _unstable_graph():
        fx = fixture("winkelmann")
        dependent = {"w0": parse("z1", fx.graph.zvars)}
        return fx, GraphPresentation(zvars=fx.graph.zvars, free=dict(fx.graph.free), dependent=dependent)

    def test_graph_alone_is_checked_up_front(self):
        fx, broken = self._unstable_graph()
        with pytest.raises(GraphInconsistency) as raised:
            classify(fx.spec, None, broken)
        assert str(raised.value) == self.UNSTABLE

    def test_unstable_one_dependent_graph_misses_the_hypersurface(self):
        # by the theorem f cannot vanish on it, so the pull-back check rejects it
        fx, broken = self._unstable_graph()
        with pytest.raises(GraphInconsistency) as raised:
            classify(fx.spec, fx.f, broken)
        assert str(raised.value) == "polynomial does not vanish on the graph; residue z2*z5 - z3*z4 - z1 + 1"

    @pytest.mark.parametrize("w2, message", [
        ("1", None),  # w2 is invariant, so {w2 = 1} cut with V(f) is stable
        ("z3", "graph is not stable under the derivation at 'w0': ambient action gives 0, chain rule gives z3*z5"),
    ])
    def test_multi_dependent_graph_is_checked_with_f(self, w2, message):
        # a graph of codimension two in the ambient space is no component of
        # V(f), so f vanishing on it proves nothing: the chain rule still runs
        fx = fixture("winkelmann")
        zvars = ("z1", "z3", "z4", "z5")
        w2_image = parse(w2, zvars)
        graph = GraphPresentation(
            zvars=zvars,
            free={"w1": "z1", "w3": "z3", "w4": "z4", "w5": "z5"},
            dependent={"w0": parse("1 - z3*z4", zvars) + w2_image * parse("z5", zvars), "w2": w2_image},
        )
        assert graph.pull_back(fx.f).is_zero
        if message is None:
            assert classify(fx.spec, fx.f, graph).verdict is Verdict.STRICTLY_QUASI_AFFINE
        else:
            with pytest.raises(GraphInconsistency) as raised:
                classify(fx.spec, fx.f, graph)
            assert str(raised.value) == message


class TestGraphIsTheHypersurface:
    """With one dependent coordinate ``w = h``, ``classify`` checks ``f = c*(w - h)`` by comparing terms."""

    FACTOR = ("polynomial vanishes on the graph w0 = z2*z5 - z3*z4 + 1 but is not a scalar multiple of "
              "its equation; the graph is only one component of V(f)")

    @staticmethod
    def _counting_pull_backs(monkeypatch):
        calls = []
        real = GraphPresentation.pull_back

        def counting(graph, p):
            calls.append(p)
            return real(graph, p)

        monkeypatch.setattr(GraphPresentation, "pull_back", counting)
        return calls

    @pytest.mark.parametrize("c", [-3, Fraction(1, 2)])
    def test_scalar_multiples_pass(self, c):
        for fx in _one_dependent_members():
            assert fx.graph.defines(c * fx.f)
            assert classify(fx.spec, c * fx.f, fx.graph).verdict is classify(fx.spec, fx.f, fx.graph).verdict

    def test_factor_times_the_graph_equation_is_rejected(self):
        fx = fixture("winkelmann")
        generators = [g for g in graded_kernel_generators(build_derivation(fx.spec), 2) if not g.is_constant()]
        assert len(generators) == 6
        for g in generators:
            assert fx.graph.pull_back(fx.f * g).is_zero and not fx.graph.defines(fx.f * g)
            with pytest.raises(GraphInconsistency) as raised:
                classify(fx.spec, fx.f * g, fx.graph)
            assert str(raised.value) == self.FACTOR

    def test_certified_one_dependent_classify_composes_nothing(self, monkeypatch):
        members = [fx for fx in _one_dependent_members() if certify_everywhere_stable(fx.spec, fx.f).certified]
        assert "winkelmann" in {fx.name for fx in members}
        calls = self._counting_pull_backs(monkeypatch)
        for fx in members:
            calls.clear()
            report = classify(fx.spec, fx.f, fx.graph)
            assert dict(report.crosschecks)["graph-lies-on-hypersurface"]
            assert fx.f not in calls, fx.name
            if report.verdict is not Verdict.AFFINE:  # an affine verdict pulls its ladder slice back
                assert calls == [], fx.name
        calls.clear()
        fx = fixture("winkelmann")
        with pytest.raises(GraphInconsistency):
            classify(fx.spec, fx.f * parse("w2", fx.spec.coord_names), fx.graph)
        assert len(calls) == 1  # the counter sees the pull-back of a failed comparison

    def test_multi_dependent_graph_still_pulls_back(self, monkeypatch):
        fx = fixture("winkelmann")
        zvars = ("z1", "z3", "z4", "z5")
        graph = GraphPresentation(
            zvars=zvars,
            free={"w1": "z1", "w3": "z3", "w4": "z4", "w5": "z5"},
            dependent={"w0": parse("1 - z3*z4 + z5", zvars), "w2": Poly.const(zvars, 1)},
        )
        with pytest.raises(ValueError, match="no hypersurface"):
            graph.defines(fx.f)
        calls = self._counting_pull_backs(monkeypatch)
        assert classify(fx.spec, fx.f, graph).verdict is Verdict.STRICTLY_QUASI_AFFINE
        assert fx.f in calls


def _two_dependent_affine():
    """``f = 1 - w0`` on ``(1,1)`` with the graph ``w0 = 1, w2 = 0``: affine, and no hypersurface."""
    zvars = ("z1", "z2")
    graph = GraphPresentation(
        zvars=zvars, free={"w1": "z1", "w3": "z2"}, dependent={"w0": Poly.const(zvars, 1), "w2": Poly.zero(zvars)}
    )
    return PAIR, parse("1 - w0", PAIR.coord_names), graph


def _stable_one_dependent_graphs():
    """``(spec, graph)`` for every fixture and golden member of one dependent coordinate, and ``w0 = w2`` on ``(1,1)``."""
    zvars = ("z1", "z2", "z3")
    uncertified = GraphPresentation(zvars=zvars, free={"w1": "z1", "w2": "z2", "w3": "z3"},
                                    dependent={"w0": parse("z2", zvars)})
    return [(fx.spec, fx.graph) for fx in _one_dependent_members()] + [(PAIR, uncertified)]


def _fixture_input(name):
    fx = fixture(name)
    return fx.spec, fx.f, fx.graph


class TestLadderSlice:
    """An ``Affine`` verdict with a graph reports the ladder's slice ``r/c``, pulled back, at any ``sliceDeg``."""

    AFFINE_INPUTS = [fx.name for fx in all_named_fixtures() if fx.expected_verdict is Verdict.AFFINE] + [
        f"family-phi({c})" for c in ("7", "1/2", "-3")
    ]

    @staticmethod
    def _assert_slice(spec, f, graph, slice_degree):
        report = classify(spec, f, graph, Bounds(slice_degree=slice_degree))
        assert report.verdict is Verdict.AFFINE
        assert report.slice_result.degree_bound == slice_degree
        found = report.slice_result.found
        assert apply(restrict_to_graph(build_derivation(spec), graph), found) == Poly.const(graph.zvars, 1)
        assert dict(report.crosschecks)["slice-agreement"]
        assert not any("bounded miss" in note for note in report.notes)
        return found

    @pytest.mark.parametrize("slice_degree", [0, 3])
    @pytest.mark.parametrize("with_f", [True, False])
    @pytest.mark.parametrize("name", AFFINE_INPUTS)
    def test_every_affine_fixture_reports_a_slice(self, name, with_f, slice_degree):
        fx = fixture(name)
        self._assert_slice(fx.spec, fx.f if with_f else None, fx.graph, slice_degree)

    def test_fixture_slices(self):
        assert str(self._assert_slice(*_fixture_input("affine-slice"), 3)) == "z1"
        assert str(self._assert_slice(*_fixture_input("family-phi(7)"), 3)) == "1/8*z1"
        assert str(self._assert_slice(*_fixture_input("family-phi(7)"), 0)) == "1/8*z1"

    @pytest.mark.parametrize("slice_degree", [0, 3])
    def test_two_dependent_graph_with_f(self, slice_degree):
        assert str(self._assert_slice(*_two_dependent_affine(), slice_degree)) == "z1"

    def test_two_dependent_graph_alone_stays_unknown(self):
        # no hypersurface, so no boundary test and no slice; the slice command still searches it
        spec, _, graph = _two_dependent_affine()
        report = classify(spec, None, graph)
        assert report.verdict is Verdict.UNKNOWN
        assert report.slice_result is None and report.certificate is None
        assert report.notes == (
            "graph avoids the non-stable subspace by a constant constraint",
            "stability certified from the graph alone; no defining polynomial, "
            "so the boundary test cannot run",
        )
        assert str(slice_search(restrict_to_graph(build_derivation(spec), graph), 1).found) == "z1"


class TestGraphEquation:
    """A graph of one dependent coordinate ``w = h``, given alone, is the polynomial input ``w - h``."""

    @pytest.mark.parametrize("spec, graph", _stable_one_dependent_graphs())
    def test_equation_defines_the_graph(self, spec, graph):
        equation = graph.equation(spec.coord_names)
        assert equation.vars == spec.coord_names
        assert graph.defines(equation)
        assert graph.pull_back(equation).is_zero
        assert apply(build_derivation(spec), equation).is_zero  # D keeps the graph, so kills its equation

    def test_fixture_equations(self):
        for fx in _one_dependent_members():
            assert fx.graph.equation(fx.spec.coord_names) == -fx.f, fx.name

    def test_equation_guards(self):
        _, _, graph = _two_dependent_affine()
        with pytest.raises(ValueError, match="no hypersurface"):
            graph.equation(PAIR.coord_names)
        fx = fixture("winkelmann")
        with pytest.raises(VariableTableMismatch):
            fx.graph.equation(PAIR.coord_names)

    @pytest.mark.parametrize("spec, graph", _stable_one_dependent_graphs())
    def test_graph_alone_matches_its_equation(self, spec, graph):
        alone = classify(spec, None, graph)
        given = classify(spec, graph.equation(spec.coord_names), graph)
        assert alone.verdict is given.verdict and alone.verdict is not Verdict.UNKNOWN
        assert alone.certificate == given.certificate
        assert alone.transfer == given.transfer
        assert alone.smoothness == given.smoothness
        assert alone.witness == given.witness
        assert alone.slice_result == given.slice_result
        assert given.crosschecks[0] == ("graph-lies-on-hypersurface", True)
        assert alone.crosschecks == given.crosschecks[1:]

    def test_graph_alone_decides_winkelmann(self):
        fx = fixture("winkelmann")
        report = classify(fx.spec, None, fx.graph)
        assert report.verdict is Verdict.STRICTLY_QUASI_AFFINE
        assert report.smoothness.outcome == "SmoothProven"
        assert report.notes == ()


class TestBoundarySmoothness:
    def test_linear_gradient_proof(self):
        f00 = parse("w2*w5 - w3*w4 + 1", TRIPLE.coords)
        outcome = jacobian_boundary_smoothness(f00)
        assert outcome.outcome == "SmoothProven"
        assert outcome.witness is None

    def test_singular_witness_at_origin(self):
        squared = parse("(w0*w3 - w1*w2)^2", PAIR.coords)
        outcome = jacobian_boundary_smoothness(squared)
        assert outcome.outcome == "SingularWitness"
        assert all(value == 0 for _, value in outcome.witness)

    @pytest.mark.parametrize("text", ["w2*w5 - w3*w4", "(w2 + w3 - 1)^2"])
    def test_singular_witness_on_critical_subspace(self, text):
        # the critical set is positive-dimensional and f00 is constant on
        # it, so the linear solve decides without sampling
        f00 = parse(text, TRIPLE.coords)
        outcome = jacobian_boundary_smoothness(f00)
        assert outcome.outcome == "SingularWitness"
        assert outcome.samples == 0
        point = dict(outcome.witness)
        assert f00.evaluate(point) == 0
        assert all(f00.partial(name).evaluate(point) == 0 for name in TRIPLE.coords)

    def test_sample_only_evidence(self):
        f00 = parse("(w2*w5 - w3*w4)^2 - 1", TRIPLE.coords)
        outcome = jacobian_boundary_smoothness(f00)
        assert outcome.outcome == "SmoothOnSamples"
        assert outcome.samples > 0

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            jacobian_boundary_smoothness(Poly.const(PAIR.coords, 1))

    @pytest.mark.parametrize(
        "center, tried",
        [
            # the first and the last seeded sample over six coordinates
            ((Fraction(9, 2), Fraction(8, 3), 5, Fraction(7, 2), Fraction(-2, 3), 3), 314),
            ((0, 2, 2, 0, 8, 6), 377),
        ],
    )
    def test_seeded_tail(self, center, tried):
        # (sum of squares)^2 is singular only at its centre, which only the
        # seeded tail of the candidate table reaches
        squares = " + ".join(f"(w{i} - ({value}))^2" for i, value in enumerate(center))
        outcome = jacobian_boundary_smoothness(parse(f"({squares})^2", TRIPLE.coords))
        assert outcome.outcome == "SingularWitness"
        assert outcome.samples == tried
        assert outcome.witness == tuple(zip(TRIPLE.coords, map(Fraction, center)))


class TestCandidateTable:
    SMALL = [Fraction(x) for x in (1, -1, 2, -2, 3, -3)] + [
        Fraction(a, b) for a, b in ((1, 2), (-1, 2), (1, 3), (-1, 3), (3, 2), (-3, 2))
    ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_size_and_deterministic_prefix(self, n):
        table = _fraction_points(n)
        assert len(table) == 1 + 12 * n + 16 * math.comb(n, 2) + 64
        assert all(len(point) == n for point in table)
        assert all(q > 0 for block in _candidate_blocks(n) for q in block.qs)

        def point(*pairs):  # (index, value) pairs; every other coordinate is zero
            values = [Fraction(0)] * n
            for i, value in pairs:
                values[i] = value
            return tuple(values)

        prefix = [point()]
        prefix += [point((i, v)) for i in range(n) for v in self.SMALL]
        prefix += [
            point((i, a), (j, b))
            for i in range(n)
            for j in range(i + 1, n)
            for a in self.SMALL[:4]
            for b in self.SMALL[:4]
        ]
        assert table[: len(prefix)] == prefix
        assert _candidate_blocks(n) is _candidate_blocks(n)  # drawn once per dimension


def _fraction_points(n):
    """The candidate blocks flattened to ``Fraction`` points in search order."""
    points = []
    for block in _candidate_blocks(n):
        for k, q in enumerate(block.qs):
            values = [Fraction(0)] * n
            for i, column in block.columns.items():
                values[i] = Fraction(column[k], q)
            points.append(tuple(values))
    return points


def _oracle_rational_zero(polys, names):
    """The per-point search on ``Fraction``s: a dict and ``Poly.evaluate`` per candidate."""
    base = {name: Fraction(0) for p in polys for name in p.vars}
    table = _fraction_points(len(names))
    for tried, values in enumerate(table, 1):
        point = dict(base)
        point.update(zip(names, values))
        if all(p.evaluate(point) == 0 for p in polys):
            return point, tried
    return None, len(table)


def _same_search(polys, table):
    point, tried = _rational_zero(polys, table)
    expected_point, expected_tried = _oracle_rational_zero(polys, table)
    assert tried == expected_tried
    assert (point is None) == (expected_point is None)
    if point is not None:
        assert list(point.items()) == list(expected_point.items())


_LETTERS = ("a", "b", "c", "d", "e", "f", "g")
_PLANTED = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 7))


@st.composite
def zero_searches(draw):
    """One table, in any order, and polys over it that may vanish on the candidates.

    A planted linear factor ``(x - v)`` with ``x`` in the table makes
    hits likely.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    table = tuple(draw(st.permutations(_LETTERS[:n])))
    coeffs = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    polys = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(("zero", "constant", "random", "planted")))
        if kind == "zero":
            polys.append(Poly.zero(table))
        elif kind == "constant":
            polys.append(Poly.const(table, draw(coeffs.filter(bool))))
        else:
            p = Poly(table, draw(st.dictionaries(exponents, coeffs, max_size=4)))
            if kind == "planted":
                p = p * (Poly.variable(table, draw(st.sampled_from(table))) - draw(st.sampled_from(_PLANTED)))
            polys.append(p)
    return polys, table


class TestRationalZero:
    @settings(max_examples=80)
    @given(zero_searches())
    def test_agrees_with_per_point_evaluation(self, search):
        _same_search(*search)

    @settings(max_examples=80)
    @given(zero_searches())
    def test_deferred_polys_give_the_same_search(self, search):
        polys, table = search
        assert _rational_zero(polys[:1], table, lambda: polys[1:]) == _rational_zero(polys, table)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_zero_and_constant(self, n):
        table = _LETTERS[:n]
        zero, constant = Poly.zero(table), Poly.const(table, Fraction(-2, 3))
        for polys in ([zero], [constant], [zero, constant], [constant, zero]):
            _same_search(polys, table)
        assert _rational_zero([zero], table) == (dict.fromkeys(table, Fraction(0)), 1)
        assert _rational_zero([constant], table) == (None, len(_fraction_points(n)))

    @pytest.mark.parametrize("n, k", [(2, 31), (3, 31), (4, 28), (6, 33)])
    def test_zero_at_a_dense_sample(self, n, k):
        # a sum of squares vanishes only at the k-th seeded sample, which no
        # sparse block contains
        table = _LETTERS[:n]
        sparse = 1 + 12 * n + 16 * math.comb(n, 2)
        sample = _fraction_points(n)[sparse + k - 1]
        variables = [Poly.variable(table, name) for name in table]
        squares = sum(((x - v) ** 2 for x, v in zip(variables, sample)), Poly.zero(table))
        for polys in ([squares], [variables[0] - sample[0], squares]):
            _same_search(polys, table)
            point, tried = _rational_zero(polys, table)
            assert tried == sparse + k
            assert tuple(point[name] for name in table) == sample

    def test_constant_on_every_axis_but_zero_on_a_pair(self):
        table = ("x", "y", "z")
        x, y, _ = (Poly.variable(table, name) for name in table)
        p = x * y - 2  # -2 on the origin and on each axis block
        _same_search([p], table)
        # the (x, y) block is the first pair block; (1, 2) is its third point
        assert _rational_zero([p], table) == (
            {"x": Fraction(1), "y": Fraction(2), "z": Fraction(0)},
            1 + 12 * 3 + 3,
        )

    @pytest.mark.parametrize(
        "phi, tried",
        [
            ("t^2 - 2*t", 250),  # 1 + phi = (t - 1)^2: singular where w2*w5 - w3*w4 = 1
            ("t^3 - 3*t", 377),
            ("t^4 - 4*t^2 + 3", 377),  # (t^2 - 2)^2: singular, but at no rational point
            ("t^5 - 3*t", 377),
            ("t^6 - 2*t^3", 250),  # (t^3 - 1)^2
        ],
    )
    def test_family_boundary_systems(self, phi, tried):
        # the search family-sweep runs: F00 of 1 + phi(minor[1,2]) - w0 and its gradient
        f, _ = build_family_member(TRIPLE, _phi(phi), "minor[1,2]")
        f00 = extend(TRIPLE, f).f00
        polys = [f00, *(f00.partial(name) for name in f00.vars)]
        _same_search(polys, f00.vars)
        assert _rational_zero(polys, f00.vars)[1] == tried

    def test_tables_must_agree(self):
        x = Poly.variable(("x", "y"), "x")
        with pytest.raises(VariableTableMismatch):
            _rational_zero([x, Poly.variable(("y", "x"), "x")], ("x", "y"))
        with pytest.raises(VariableTableMismatch):  # every poly lies over the searched table itself
            _rational_zero([x], ("x",))


def _oracle_witness(spec, f, graph):
    """The first zero of the input's non-stable system on the oracle, mapped through the graph.

    The graph's positive-weight images (``f`` on the identity graph)
    keep their full parameter table; the oracle zeroes the parameters of
    the free positive-weight coordinates and searches the others.
    Returns ``None`` when the input is certified and the search does
    not run, else the ambient point or ``None`` on a miss.
    """
    positive = nonstable_coordinates(spec)
    if graph is None:
        graph = GraphPresentation(zvars=spec.coord_names, free={n: n for n in spec.coord_names}, dependent={})
        equations = [f]
    else:
        equations = [image for name, image in graph.dependent.items() if name in positive]
    zeroed = {graph.free[name]: 0 for name in positive if name in graph.free}
    pinned = [e.substitute(zeroed) for e in equations]
    if any(not p.is_zero and p.is_constant() for p in pinned):
        return None
    point, _ = _oracle_rational_zero(equations, [z for z in graph.zvars if z not in zeroed])
    if point is None:
        return None
    ambient = {name: point[z] for name, z in graph.free.items()}
    ambient.update((name, image.evaluate(point)) for name, image in graph.dependent.items())
    return tuple((name, ambient[name]) for name in spec.coord_names)


def _assert_witness_is_the_oracle_zero(spec, f, graph):
    report = classify(spec, f, graph)
    if f is not None:
        positive = nonstable_coordinates(spec)
        assert report.certificate.restriction.vars == tuple(n for n in spec.coord_names if n not in positive)
    expected = None if f is not None and report.certificate.certified else _oracle_witness(spec, f, graph)
    assert (report.witness and report.witness.point) == expected
    assert (report.verdict is Verdict.NOT_EVERYWHERE_STABLE) == (expected is not None)


@functools.lru_cache(maxsize=None)
def _kernel_generators(summands):
    return tuple(graded_kernel_generators(build_derivation(RepSpec(summands)), 2))


@st.composite
def _uncertified_products(draw):
    """``c + a*P`` for ``P`` a product of kernel generators whose restriction is not a non-zero constant."""
    summands = draw(st.sampled_from([(2, 1, 1), (4,), (2, 2)]))
    spec, generators = RepSpec(summands), _kernel_generators(summands)
    product = Poly.const(spec.coord_names, draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    for index in draw(st.lists(st.integers(0, len(generators) - 1), min_size=1, max_size=3)):
        product = product * generators[index]
    f = product + draw(st.integers(-9, 9))
    assume(not f.is_constant() and not certify_everywhere_stable(spec, f).certified)
    return spec, f


class TestWitnessIsTheSystemsFirstZero:
    """The witness is the oracle's first zero of the non-stable system, mapped through the graph."""

    @pytest.mark.parametrize("name", [fx.name for fx in all_named_fixtures()] + _golden_family_members())
    def test_fixtures_and_golden_members(self, name):
        fx = fixture(name)
        for f, graph in ((fx.f, fx.graph), (fx.f, None), (None, fx.graph)):
            if f is not None or graph is not None:
                _assert_witness_is_the_oracle_zero(fx.spec, f, graph)

    @settings(max_examples=40, deadline=None)
    @given(_uncertified_products())
    def test_uncertified_generator_products(self, drawn):
        _assert_witness_is_the_oracle_zero(*drawn, None)


def _boundary_polynomials():
    """Non-constant ``F00`` of every fixture and of the golden family members."""
    inputs = [fx for fx in all_named_fixtures() if fx.f is not None]
    inputs += [fixture(name) for name in _golden_family_members()]
    f00s = [boundary_split(fx.spec, fx.f).f00 for fx in inputs]
    return [f00 for f00 in f00s if not f00.is_constant()]


class TestGradientOnDemand:
    """The smoothness search builds the gradient only where ``F00`` vanishes, with the eager result."""

    @staticmethod
    def _lazy_search(f00):
        built = []

        def gradient():
            built.append(True)
            return [f00.partial(name) for name in f00.vars]

        point, tried = _rational_zero([f00], f00.vars, gradient)
        eager = _rational_zero([f00, *(f00.partial(name) for name in f00.vars)], f00.vars)
        assert (point, tried) == eager
        assert len(built) <= 1
        return point, tried, len(built)

    def test_fixtures_and_golden_members(self):
        f00s = _boundary_polynomials()
        assert len(f00s) >= 4
        for f00 in f00s:
            self._lazy_search(f00)

    @settings(max_examples=30, deadline=None)
    @given(_family_parameters())
    def test_family_members(self, phi):
        fx = fixture(f"family-phi({phi})")
        self._lazy_search(boundary_split(fx.spec, fx.f).f00)

    @pytest.mark.parametrize("phi, outcome, samples, builds", [
        ("t^2 - 2*t", "SingularWitness", 250, 1),  # (t - 1)^2: F00 and its gradient vanish at w2 = w5 = 1
        ("t^2 - 2", "SmoothOnSamples", 377, 1),  # F00 vanishes on the (w2, w5) pair block, the gradient does not
        ("t^5 - 3*t", "SmoothOnSamples", 377, 0),  # F00 has no zero on the table: no partial is built
    ])
    def test_pinned_members(self, phi, outcome, samples, builds):
        fx = fixture(f"family-phi({phi})")
        f00 = boundary_split(fx.spec, fx.f).f00
        point, tried, built = self._lazy_search(f00)
        assert (tried, built) == (samples, builds)
        partials = [f00.partial(name) for name in f00.vars]
        assert (point, tried) == _oracle_rational_zero([f00, *partials], f00.vars)
        report = jacobian_boundary_smoothness(f00)
        assert (report.outcome, report.samples) == (outcome, samples)
        assert classify(fx.spec, fx.f, fx.graph).smoothness == report
        if phi == "t^2 - 2":
            assert _rational_zero([f00], f00.vars)[1] == 250  # F00 alone stops at the pair block

    def test_linear_branch_is_degree_two(self):
        # total degree at most two is the same condition as every partial being linear
        for f00 in _boundary_polynomials():
            linear = all(f00.partial(name).total_degree() <= 1 for name in f00.vars)
            assert linear == (f00.total_degree() <= 2)


class TestFamilyBuilder:
    def test_member_construction(self):
        f, graph = build_family_member(TRIPLE, _phi("t^2 - 2"), "minor[1,2]")
        assert "w0" in graph.dependent
        cert = certify_everywhere_stable(TRIPLE, f)
        assert cert.certified
        assert str(cert.restriction) == "-1"

    @pytest.mark.parametrize("phi", ["t", "t^2 - 2", "t^5 - 3*t + 1/3"])
    def test_dependent_image_is_the_relabelled_coefficient(self, phi):
        f, graph = build_family_member(TRIPLE, _phi(phi), "minor[1,2]")
        h = f + Poly.variable(TRIPLE.coords, "w0")
        to_z = {name: Poly.variable(graph.zvars, z) for name, z in graph.free.items()}
        expected = h.coefficient({"w0": 0}).substitute(to_z)
        assert graph.dependent["w0"].vars == graph.zvars
        assert graph.dependent["w0"] == expected

    def test_origin_on_hypersurface_rejected(self):
        with pytest.raises(ValueError):
            build_family_member(TRIPLE, _phi("t - 1"), "minor[1,2]")

    def test_delta_overlapping_pivot_block_rejected(self):
        with pytest.raises(ValueError):
            build_family_member(TRIPLE, _phi("t"), "minor[0,1]")

    def test_unknown_delta_rejected(self):
        with pytest.raises(ValueError):
            build_family_member(TRIPLE, _phi("t"), "disc[0]")

    def test_multivariate_parameter_rejected(self):
        with pytest.raises(ValueError):
            build_family_member(TRIPLE, parse("t*s", ("t", "s")), "minor[1,2]")


class TestFamilyComparison:
    def test_distinguishing_pair(self):
        a = FamilyMember(TRIPLE, _phi("t"), "minor[1,2]")
        b = FamilyMember(TRIPLE, _phi("t^2 - 1"), "minor[1,2]")
        outcome = compare_family(a, b)
        assert outcome.outcome is FamilyOutcome.NON_ISOMORPHIC
        assert outcome.counts == (1, 2)
        assert compare_family(b, a).counts == (2, 1)

    def test_equal_counts_are_inconclusive(self):
        a = FamilyMember(TRIPLE, _phi("t"), "minor[1,2]")
        b = FamilyMember(TRIPLE, _phi("t + 5"), "minor[1,2]")
        outcome = compare_family(a, b)
        assert outcome.outcome is FamilyOutcome.INCONCLUSIVE
        assert outcome.counts == (1, 1)

    def test_repeated_roots_rejected(self):
        a = FamilyMember(TRIPLE, _phi("t"), "minor[1,2]")
        b = FamilyMember(TRIPLE, _phi("t^2"), "minor[1,2]")
        with pytest.raises(ValueError):
            compare_family(a, b)

    def test_mismatched_members_rejected(self):
        a = FamilyMember(TRIPLE, _phi("t"), "minor[1,2]")
        b = FamilyMember(TRIPLE, _phi("t"), "minor[0,2]")
        with pytest.raises(ValueError):
            compare_family(a, b)
        c = FamilyMember(PAIR, _phi("t"), "minor[1,2]")
        with pytest.raises(ValueError):
            compare_family(a, c)

    @pytest.mark.parametrize("first", [True, False])
    def test_parameter_degree_cap(self, monkeypatch, first):
        """A parameter above ``MAX_PARAMETER_DEGREE`` is refused before either member's matrix is built."""
        counted = []
        monkeypatch.setattr(CLASSIFY, "squarefree_distinct_root_count",
                            lambda p: counted.append(p) or (1, True))
        at_cap = FamilyMember(TRIPLE, _phi("t^100 - 2"), "minor[1,2]")
        # each factor is under the parser's exponent cap, the product is not
        above = FamilyMember(TRIPLE, _phi("(t^100 + 1)*(t - 3)"), "minor[1,2]")
        assert CLASSIFY.MAX_PARAMETER_DEGREE == 100
        compare_family(at_cap, at_cap)
        assert len(counted) == 2
        pair = (above, at_cap) if first else (at_cap, above)
        with pytest.raises(ValueError, match=r"^family parameter has degree 101, above the cap of 100$"):
            compare_family(*pair)
        assert len(counted) == 2

    def test_unknown_delta_rejected(self):
        a = FamilyMember(TRIPLE, _phi("t"), "no-such-invariant")
        b = FamilyMember(TRIPLE, _phi("t^2 - 1"), "no-such-invariant")
        with pytest.raises(ValueError, match="unknown catalog invariant 'no-such-invariant'"):
            compare_family(a, b)
