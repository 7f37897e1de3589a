from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaquot import derivations
from gaquot.classify import build_family_member
from gaquot.derivations import (
    Derivation,
    GraphPresentation,
    _gradings,
    _kernel_rref,
    _operator_rows,
    _weight_groups,
    apply,
    graded_kernel_generators,
    power_in_image,
    restrict_to_graph,
    slice_search,
    weight_components,
)
from gaquot.errors import (
    GraphInconsistency,
    InternalInconsistency,
    NonInvariantInput,
    VariableTableMismatch,
)
from gaquot.expr import parse
from gaquot.fixtures import NAMED_FIXTURES, fixture
from gaquot.linalg import extend_rref, nullspace, reduce_against, rref
from gaquot.poly import Poly, _cleared, exponents_of_degree, exponents_up_to_degree, ring
from gaquot.reps import RepSpec, build_derivation, sl2_triple
from gaquot.transfer import extend, verify_invariance

from dense_oracle import dense_slice

XY = ("x", "y")


def _ddx():
    """The plain derivative d/dx on two variables."""
    return Derivation(XY, {"x": Poly.const(XY, 1)})


coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
exponent2 = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
polys_xy = st.dictionaries(exponent2, coeffs, max_size=5).map(lambda t: Poly(XY, t))

exponent6 = st.tuples(*[st.integers(min_value=0, max_value=1)] * 6)


class TestApply:
    @given(polys_xy, polys_xy)
    def test_leibniz_rule(self, p, q):
        d = _ddx()
        assert apply(d, p * q) == apply(d, p) * q + p * apply(d, q)

    @given(polys_xy, polys_xy)
    def test_linearity(self, p, q):
        d = _ddx()
        assert apply(d, p + q) == apply(d, p) + apply(d, q)

    def test_missing_images_default_to_zero(self):
        d = _ddx()
        _, y = ring(XY)
        assert apply(d, y ** 3).is_zero

    def test_derivation_is_callable(self):
        d = _ddx()
        x, _ = ring(XY)
        assert d(x ** 2) == 2 * x


def _reference_apply(d, p):
    """The Leibniz rule in ``Fraction`` arithmetic, one pair of terms at a time."""
    acc = {}
    for exponent, coeff in p.terms.items():
        for i, name in enumerate(d.vars):
            if not exponent[i]:
                continue
            base = exponent[:i] + (exponent[i] - 1,) + exponent[i + 1:]
            for ie, ic in d.images[name].terms.items():
                key = tuple(a + b for a, b in zip(base, ie))
                acc[key] = acc.get(key, Fraction(0)) + coeff * exponent[i] * ic
    return {key: value for key, value in acc.items() if value}


XYZ = ("x", "y", "z")
exponent3 = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)
polys_xyz = st.dictionaries(exponent3, coeffs, max_size=5).map(lambda t: Poly(XYZ, t))
# rational, non-linear and (as empty maps) zero images
derivations_xyz = st.fixed_dictionaries({name: polys_xyz for name in XYZ}).map(
    lambda images: Derivation(XYZ, images)
)


class TestIntegerLeibnizKernel:
    def _assert_matches_reference(self, d, p):
        result = apply(d, p)
        assert result.vars == d.vars
        assert result.terms == _reference_apply(d, p)
        assert all(type(c) is Fraction and c for c in result.terms.values())

    @given(derivations_xyz, polys_xyz)
    def test_random_derivations(self, d, p):
        self._assert_matches_reference(d, p)

    @given(derivations_xyz)
    def test_zero_polynomial(self, d):
        assert apply(d, Poly.zero(XYZ)).terms == {}

    def test_zero_derivation(self):
        x, y, z = ring(XYZ)
        assert apply(Derivation(XYZ, {}), x * y - Fraction(1, 3) * z + 1).is_zero

    def test_cancellation_drops_terms(self):
        x, y, _ = ring(XYZ)
        d = Derivation(XYZ, {"x": y, "y": -x})
        self._assert_matches_reference(d, x * x + y * y)
        assert apply(d, x * x + y * y).is_zero

    @given(st.dictionaries(exponent6, coeffs, max_size=6))
    def test_restricted_winkelmann_derivation(self, terms):
        fx = fixture("winkelmann")
        restricted = restrict_to_graph(build_derivation(fx.spec), fx.graph)
        exponents = {e[:5]: c for e, c in terms.items()}
        self._assert_matches_reference(restricted, Poly(restricted.vars, exponents))

    def test_foreign_table_rejected(self):
        with pytest.raises(VariableTableMismatch):
            apply(_ddx(), Poly.variable(XYZ, "x"))


class TestWeightComponents:
    def test_split_by_weight(self):
        spec = RepSpec((1, 1))
        p = parse("w0^2 + w0*w3 - w1*w2 + w0", spec.coords)
        parts = weight_components(p, spec.weight_of)
        assert set(parts) == {0, 1, 2}
        assert parts[2] == parse("w0^2", spec.coords)
        assert parts[0] == parse("w0*w3 - w1*w2", spec.coords)
        assert parts[1] == parse("w0", spec.coords)


class TestPowerInImage:
    def setup_method(self):
        self.spec = RepSpec((1, 1, 1))
        self.d = build_derivation(self.spec)

    def _run(self, text):
        return power_in_image(self.d, parse(text, self.spec.coords))

    def test_found_cases(self):
        for text, preimage in (("w0", "w1"), ("w0^2", "w0*w1"), ("w0*w2", "1/2*w0*w3 + 1/2*w1*w2")):
            outcome = self._run(text)
            assert outcome.found and outcome.power == 1
            assert str(outcome.preimage) == preimage
            assert apply(self.d, outcome.preimage) == parse(text, self.spec.coords)

    def test_not_found_cases(self):
        for text in ("w0*w3 - w1*w2", "w0*w3 - w1*w2 + w0", "w0*w3 - w1*w2 + 1"):
            outcome = self._run(text)
            assert not outcome.found
            assert outcome.power is None and outcome.preimage is None

    def test_requires_kernel_element(self):
        with pytest.raises(NonInvariantInput):
            self._run("w1")

    def test_requires_the_ladder(self):
        generic = Derivation(self.d.vars, self.d.images)
        with pytest.raises(ValueError, match="sl2 ladder"):
            power_in_image(generic, parse("w0", self.spec.coords))


class TestKernelGenerators:
    def test_two_plane_blocks(self):
        d = build_derivation(RepSpec((1, 1)))
        gens = graded_kernel_generators(d, 2)
        assert [str(g) for g in gens] == ["w0", "w2", "w0*w3 - w1*w2"]

    def test_symmetric_square(self):
        d = build_derivation(RepSpec((2,)))
        gens = graded_kernel_generators(d, 2)
        assert [str(g) for g in gens] == ["w0", "4*w0*w2 - w1^2"]

    def test_every_generator_is_killed(self):
        d = build_derivation(RepSpec((1, 3)))
        for g in graded_kernel_generators(d, 2):
            assert apply(d, g).is_zero

    def test_requires_the_ladder(self):
        d = build_derivation(RepSpec((1, 1, 1)))
        generic = Derivation(d.vars, d.images)
        with pytest.raises(ValueError, match="sl2 ladder"):
            graded_kernel_generators(generic, 2)

    def test_deterministic(self):
        d = build_derivation(RepSpec((1, 1, 1)))
        first = [str(g) for g in graded_kernel_generators(d, 2)]
        second = [str(g) for g in graded_kernel_generators(d, 2)]
        assert first == second


def _all_weight_blocks(d, monos):
    """``(source weight, group, nullspace)`` for every weight block of ``monos``, none skipped."""
    weights = [d.weight_of[name] for name in d.vars]
    groups = {}
    for j, c in enumerate(monos):
        groups.setdefault(sum(w * e for w, e in zip(weights, c)), []).append(j)
    blocks = []
    for weight, group in groups.items():
        columns = group[::-1]
        rows = _operator_rows(d, [monos[j] for j in columns], max(map(max, monos)))
        blocks.append((weight, group, nullspace(list(rows.values()), len(columns))))
    return blocks


def _oracle_kernel_generators(d, maxdeg):
    """Kernel generators from every weight block, reduced modulo ``Fraction`` products of generators."""
    n = len(d.vars)
    generators = []
    for degree in range(1, maxdeg + 1):
        monos = list(exponents_of_degree(n, degree))
        canonical = sorted(
            (min(row), row)
            for _, group, basis in _all_weight_blocks(d, monos)
            for row in ({group[::-1][c]: v for c, v in vector.items()} for vector in basis)
        )
        index = {e: i for i, e in enumerate(monos)}
        products = []

        def recurse(start, remaining, acc):
            for i in range(start, len(generators)):
                g = generators[i].total_degree()
                if g == remaining:
                    products.append(acc * generators[i])
                elif g < remaining:
                    recurse(i, remaining - g, acc * generators[i])

        recurse(0, degree, Poly.const(d.vars, 1))
        spanned = rref([dict(zip(map(index.get, p.terms), _cleared(list(p.terms.values()))[1])) for p in products],
                       len(monos))
        for _, row in canonical:
            remainder = reduce_against(row, spanned)
            if remainder:
                generators.append(Poly(d.vars, {monos[c]: v for c, v in remainder.items()}).normalized())
                extend_rref(spanned, remainder)
    return generators


ladder_specs = st.builds(
    RepSpec,
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3).map(tuple),
    st.sampled_from(("section5", "unit")),
)


class TestHighestWeightSkip:
    """On the sl2 ladder ``_kernel_rref`` solves only the blocks of weight ``>= 0``."""

    @settings(max_examples=40)
    @given(ladder_specs, st.integers(min_value=1, max_value=4))
    def test_matches_solving_every_block(self, spec, maxdeg):
        d = build_derivation(spec)
        expected = _oracle_kernel_generators(d, maxdeg)
        found = graded_kernel_generators(d, maxdeg)
        assert [g.terms for g in found] == [g.terms for g in expected]
        assert [str(g) for g in found] == [str(g) for g in expected]

    @pytest.mark.parametrize("summands, maxdeg", [((1, 1, 1), 6), ((2, 1, 1), 5)])
    @pytest.mark.parametrize("normalization", ["section5", "unit"])
    def test_products_with_cancelled_terms(self, summands, maxdeg, normalization):
        # the first degrees where a product of generators has a term that cancels
        d = build_derivation(RepSpec(summands, normalization))
        assert [g.terms for g in graded_kernel_generators(d, maxdeg)] == [
            g.terms for g in _oracle_kernel_generators(d, maxdeg)
        ]

    @settings(max_examples=40)
    @given(ladder_specs, st.integers(min_value=1, max_value=4))
    def test_negative_blocks_are_empty_and_kept_blocks_have_their_dimension(self, spec, degree):
        d = build_derivation(spec)
        monos = list(exponents_of_degree(len(d.vars), degree))
        blocks = _all_weight_blocks(d, monos)
        size = {weight: len(group) for weight, group, _ in blocks}
        for weight, group, basis in blocks:
            if weight < 0:
                assert basis == []
            else:
                assert len(basis) == len(group) - size.get(weight + 2, 0)
        every = sorted(min(row) for _, group, basis in blocks for row in
                       ({group[::-1][c]: v for c, v in vector.items()} for vector in basis))
        assert [pivot for pivot, _ in _kernel_rref(d, degree, frozenset())] == every

    @pytest.mark.parametrize("summands, maxdeg", [((4, 1, 1), 6), ((2, 2, 2), 5), ((3, 2), 6), ((4,), 8)])
    @pytest.mark.parametrize("normalization", ["section5", "unit"])
    def test_blocks_filled_by_products_are_skipped(self, summands, maxdeg, normalization, monkeypatch):
        d = build_derivation(RepSpec(summands, normalization))
        found, solved = _generators_and_solved_blocks(d, maxdeg, monkeypatch)
        assert [g.terms for g in found] == [g.terms for g in _oracle_kernel_generators(d, maxdeg)]
        assert solved < _kept_blocks(d, maxdeg)

    def test_degree_eight_solves_a_minority_of_the_kept_blocks(self, monkeypatch):
        d = build_derivation(RepSpec((4, 1, 1)))
        found, solved = _generators_and_solved_blocks(d, 8, monkeypatch)
        assert len(found) == 56
        assert 0 < solved < _kept_blocks(d, 8) // 2

    @pytest.mark.parametrize("summands, degree", [((1, 1, 1), 2), ((4, 1, 1), 3), ((3, 2), 4)])
    def test_product_rank_above_the_kernel_dimension_raises(self, summands, degree):
        d = build_derivation(RepSpec(summands))
        every_column = frozenset(range(len(list(exponents_of_degree(len(d.vars), degree)))))
        with pytest.raises(InternalInconsistency, match="exceed the kernel"):
            _kernel_rref(d, degree, every_column)


def _kept_blocks(d, maxdeg):
    """Number of weight blocks of weight ``>= 0`` in degrees ``1..maxdeg``, those the ladder does not skip by weight."""
    weights = [d.weight_of[name] for name in d.vars]
    return sum(len({w for c in exponents_of_degree(len(d.vars), degree)
                    if (w := sum(x * e for x, e in zip(weights, c))) >= 0})
               for degree in range(1, maxdeg + 1))


def _generators_and_solved_blocks(d, maxdeg, monkeypatch):
    """``graded_kernel_generators(d, maxdeg)`` and the number of weight blocks that reached ``nullspace``."""
    calls = []

    def counting(rows, ncols):
        calls.append(ncols)
        return nullspace(rows, ncols)

    with monkeypatch.context() as patch:
        patch.setattr(derivations, "nullspace", counting)
        found = graded_kernel_generators(d, maxdeg)
    return found, len(calls)


def _graph_map(graph):
    """Ambient coordinate -> its polynomial over the parameters, the images ``Poly.substitute`` takes."""
    table = {ambient: Poly.variable(graph.zvars, z) for ambient, z in graph.free.items()}
    table.update(graph.dependent)
    return table


# (ambient table, graph): every fixture graph, then family members whose phi has rational coefficients
PULL_BACK_GRAPHS = [(fixture(name).spec.coord_names, fixture(name).graph)
                    for name in NAMED_FIXTURES if fixture(name).graph is not None] + [
    (RepSpec((1, 1, 1)).coord_names, build_family_member(RepSpec((1, 1, 1)), parse(phi, ("t",)), "minor[1,2]")[1])
    for phi in ("1/2*t^2 - 3", "3/2*t^3 - t + 5", "-2/3*t^4 + 1/5*t")
]


class TestPullBack:
    """``GraphPresentation.pull_back`` against ``Poly.substitute`` with the graph map, and against evaluation.

    Both fronts run ``poly._compose``, so the comparison with ``substitute``
    checks that they build the same plan; evaluation is the independent oracle.
    """

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_substitute(self, data):
        ambient, graph = data.draw(st.sampled_from(PULL_BACK_GRAPHS))
        table = data.draw(st.permutations(ambient))  # the relabel must not depend on table order
        exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(table))
        p = Poly(table, data.draw(st.dictionaries(exponents, coeffs, max_size=4)))
        pulled = graph.pull_back(p)
        assert pulled.vars == graph.zvars
        assert pulled == p.substitute(_graph_map(graph))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_evaluation_at_graph_points(self, data):
        """``pull_back(p)`` at ``z`` is ``p`` at the graph point over ``z``, by the ``PointBlock`` evaluator."""
        ambient, graph = data.draw(st.sampled_from(PULL_BACK_GRAPHS))
        exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(ambient))
        p = Poly(ambient, data.draw(st.dictionaries(exponents, coeffs, max_size=4)))
        z = data.draw(st.fixed_dictionaries({name: coeffs for name in graph.zvars}))
        point = {name: z[zname] for name, zname in graph.free.items()}
        point.update((name, image.evaluate(z)) for name, image in graph.dependent.items())
        assert graph.pull_back(p).evaluate(z) == p.evaluate(point)

    @pytest.mark.parametrize("ambient, graph", PULL_BACK_GRAPHS)
    def test_dependent_cubes_zero_and_constants(self, ambient, graph):
        variables = {name: Poly.variable(ambient, name) for name in ambient}
        cubes = Poly.const(ambient, Fraction(1, 3))
        for name in graph.dependent:
            cubes = cubes * variables[name] ** 3
        p = cubes * (sum((variables[name] for name in graph.free), Poly.zero(ambient)) - Fraction(7, 2))
        for q in (p, cubes, Poly.zero(ambient), Poly.const(ambient, Fraction(-5, 4))):
            assert graph.pull_back(q) == q.substitute(_graph_map(graph))
        assert graph.pull_back(Poly.zero(ambient)) == Poly.zero(graph.zvars)
        assert graph.pull_back(Poly.const(ambient, Fraction(-5, 4))) == Poly.const(graph.zvars, Fraction(-5, 4))

    @pytest.mark.parametrize("ambient, graph", PULL_BACK_GRAPHS)
    def test_wrong_table_rejected(self, ambient, graph):
        for table in (ambient[1:], ambient + ("extra",)):
            with pytest.raises(VariableTableMismatch):
                graph.pull_back(Poly.variable(table, ambient[-1]))

    def test_dependent_image_off_the_parameter_table_rejected(self):
        fx = fixture("winkelmann")
        with pytest.raises(VariableTableMismatch):
            GraphPresentation(
                zvars=fx.graph.zvars, free=dict(fx.graph.free), dependent={"w0": parse("z1", ("z1", "z2"))}
            )


class TestGraphSplit:
    """A malformed split is a ``ValueError`` when the graph is built, never a bare ``KeyError`` later."""

    def test_free_value_outside_the_parameters(self):
        with pytest.raises(ValueError, match="biject"):
            GraphPresentation(zvars=("z1",), free={"w0": "q"}, dependent={}).pull_back(
                Poly.variable(("w0",), "w0")
            )

    def test_free_values_not_one_for_one(self):
        with pytest.raises(ValueError, match="biject"):
            GraphPresentation(zvars=("z1", "z1"), free={"w0": "z1", "w1": "z1"}, dependent={})
        with pytest.raises(ValueError, match="biject"):
            GraphPresentation(zvars=("z1", "z2"), free={"w0": "z1"}, dependent={})

    def test_overlapping_free_and_dependent(self):
        with pytest.raises(ValueError, match="split"):
            GraphPresentation(zvars=("z1",), free={"w0": "z1"}, dependent={"w0": Poly.variable(("z1",), "z1")})


class TestGraphs:
    def test_substitution_oracle(self):
        fx = fixture("winkelmann")
        ambient = fx.spec.coord_names
        assert str(fx.graph.pull_back(Poly.variable(ambient, "w0"))) == "z2*z5 - z3*z4 + 1"
        assert str(fx.graph.pull_back(Poly.variable(ambient, "w3"))) == "z3"

    def test_restriction_oracle(self):
        fx = fixture("winkelmann")
        d = build_derivation(fx.spec)
        restricted = restrict_to_graph(d, fx.graph)
        assert restricted.vars == ("z1", "z2", "z3", "z4", "z5")
        assert {name: str(image) for name, image in restricted.images.items()} == {
            "z1": "z2*z5 - z3*z4 + 1",
            "z2": "0",
            "z3": "z2",
            "z4": "0",
            "z5": "z4",
        }

    @pytest.mark.parametrize(
        "name",
        [name for name in NAMED_FIXTURES if fixture(name).graph is not None]
        + ["family-phi(7)", "family-phi(t^2 - 2*t)", "family-phi(t^5 - 3*t)"],
    )
    def test_images_match_applying_and_composing(self, name):
        fx = fixture(name)
        self._assert_images_match(build_derivation(fx.spec), fx.graph)

    @pytest.mark.parametrize("phi", ["t", "t^2 - 2", "3/2*t^3 - t + 5"])
    def test_images_match_on_family_members(self, phi):
        spec = RepSpec((1, 1, 1))
        _, graph = build_family_member(spec, parse(phi, ("t",)), "minor[1,2]")
        self._assert_images_match(build_derivation(spec), graph)

    @staticmethod
    def _assert_images_match(d, graph):
        """Each restricted image is ``D(x)`` composed with the graph, computed the long way."""
        restricted = restrict_to_graph(d, graph)
        # skipping the zero images loses nothing: every image pulled back gives the same derivation
        assert restricted == Derivation(graph.zvars, {z: graph.pull_back(d.images[x]) for x, z in graph.free.items()})
        substitution = _graph_map(graph)
        assert restricted.vars == graph.zvars
        for ambient, zname in graph.free.items():
            expected = apply(d, Poly.variable(d.vars, ambient)).substitute(substitution)
            assert restricted.images[zname] == expected

    def test_inconsistent_graph_rejected(self):
        fx = fixture("winkelmann")
        d = build_derivation(fx.spec)
        broken = GraphPresentation(
            zvars=fx.graph.zvars,
            free=dict(fx.graph.free),
            dependent={"w0": parse("z1", fx.graph.zvars)},
        )
        with pytest.raises(GraphInconsistency):
            restrict_to_graph(d, broken)

    def test_quadratic_images_restrict_to_a_stable_graph(self):
        # z = x^2 is stable: D(z) = 2*y*z and the chain rule gives 2*x*D(x) = 2*x^2*y
        x, y, z = ring(XYZ)
        s, _ = ring(("s", "t"))
        d = Derivation(XYZ, {"x": x * y, "y": y * y, "z": 2 * y * z})
        graph = GraphPresentation(zvars=("s", "t"), free={"x": "s", "y": "t"}, dependent={"z": s * s})
        self._assert_images_match(d, graph)
        assert {name: str(image) for name, image in restrict_to_graph(d, graph).images.items()} == {
            "s": "s*t",
            "t": "t^2",
        }

    def test_squared_images_break_the_winkelmann_graph(self):
        fx = fixture("winkelmann")
        d = build_derivation(fx.spec)
        squared = Derivation(d.vars, {name: image * image for name, image in d.images.items()})
        with pytest.raises(GraphInconsistency):
            restrict_to_graph(squared, fx.graph)


class TestSliceSearch:
    def test_affine_fixture_has_degree_one_slice(self):
        fx = fixture("affine-slice")
        d = restrict_to_graph(build_derivation(fx.spec), fx.graph)
        outcome = slice_search(d, 3)
        assert outcome.found is not None
        assert str(outcome.found) == "z1"
        assert apply(d, outcome.found) == Poly.const(d.vars, 1)

    @pytest.mark.parametrize("bound", [1, 2, 3, 5])
    def test_non_unique_slice_pins_free_coefficients_to_zero(self, bound):
        # z1 plus any kernel element is a slice; the solver returns the one
        # with every free coefficient zero, whatever the bound
        fx = fixture("family-phi(7)")
        d = restrict_to_graph(build_derivation(fx.spec), fx.graph)
        assert str(slice_search(d, bound).found) == "1/8*z1"

    def test_winkelmann_has_no_bounded_slice(self):
        fx = fixture("winkelmann")
        d = restrict_to_graph(build_derivation(fx.spec), fx.graph)
        outcome = slice_search(d, 3)
        assert outcome.found is None
        assert outcome.degree_bound == 3

    def test_ambient_action_has_no_slice(self):
        d = build_derivation(RepSpec((1,)))
        assert slice_search(d, 4).found is None


def _below(k):
    """Exponents in the first ``k`` variables of ``XYZ``."""
    return st.tuples(*[st.integers(min_value=0, max_value=2)] * k + [st.just(0)] * (3 - k))


# D(x) constant, D(y) in k[x], D(z) in k[x, y]: locally nilpotent, often not degree-preserving
triangular_xyz = st.tuples(
    st.dictionaries(_below(0), coeffs, max_size=1),
    st.dictionaries(_below(1), coeffs, max_size=3),
    st.dictionaries(_below(2), coeffs, max_size=4),
).map(lambda images: Derivation(XYZ, {name: Poly(XYZ, t) for name, t in zip(XYZ, images)}))

GRAPH_FIXTURES = [name for name in NAMED_FIXTURES if fixture(name).graph is not None]
FAMILY_MEMBERS = ["family-phi(7)", "family-phi(t)", "family-phi(t^2 - 2*t)", "family-phi(3/2*t^3 - t + 5)",
                  "family-phi(t^5 - 3*t)"]


def _restricted(name):
    fx = fixture(name)
    return restrict_to_graph(build_derivation(fx.spec), fx.graph)


class TestGradedSliceOracle:
    """``slice_search`` solves only the columns of image weight 0; the dense solve uses every candidate."""

    @staticmethod
    def _assert_agrees(d, bound):
        expected = dense_slice(d, bound)
        found = slice_search(d, bound).found
        assert (found is None) == (expected is None)
        assert str(found) == str(expected)
        return found

    @given(triangular_xyz, st.integers(min_value=0, max_value=4))
    def test_triangular_derivations(self, d, bound):
        self._assert_agrees(d, bound)

    def test_triangular_slices_are_found(self):
        x, y, z = ring(XYZ)
        d = Derivation(XYZ, {"x": Poly.const(XYZ, 3), "y": x, "z": x * y + 1})
        assert str(self._assert_agrees(d, 3)) == "1/3*x"
        assert str(self._assert_agrees(Derivation(XYZ, {"y": Poly.const(XYZ, 1), "z": y}), 2)) == "y"

    @pytest.mark.parametrize("name", GRAPH_FIXTURES)
    @pytest.mark.parametrize("bound", [0, 1, 3, 5])
    def test_graph_fixtures(self, name, bound):
        self._assert_agrees(_restricted(name), bound)

    @pytest.mark.parametrize("name", FAMILY_MEMBERS)
    def test_family_members(self, name):
        d = _restricted(name)
        found = [self._assert_agrees(d, bound) for bound in range(7)]
        assert (found[1] is not None) == (name == "family-phi(7)")


class TestGradingLattice:
    @staticmethod
    def _assert_homogeneous(d):
        gradings = _gradings(d)
        for weights, shift in gradings:
            assert all(type(v) is int for v in weights) and type(shift) is int
            for i, name in enumerate(d.vars):
                for m in d.images[name].terms:
                    assert sum(w * e for w, e in zip(weights, m)) == weights[i] + shift
        return gradings

    @given(derivations_xyz)
    def test_random_derivations(self, d):
        self._assert_homogeneous(d)

    @given(triangular_xyz)
    def test_triangular_derivations(self, d):
        self._assert_homogeneous(d)

    @pytest.mark.parametrize("name", GRAPH_FIXTURES + FAMILY_MEMBERS)
    def test_restricted_graphs(self, name):
        assert self._assert_homogeneous(_restricted(name))

    @pytest.mark.parametrize("spec", [RepSpec((1, 1)), RepSpec((2,)), RepSpec((4, 1, 1), "unit")])
    def test_sl2_weights_lie_in_the_lattice(self, spec):
        # each operator of the triple shifts the sl2 weights by its own amount
        triple = sl2_triple(spec)
        n = len(spec.coords)
        weights = [spec.weight_of[name] for name in spec.coords]
        for op, shift in ((triple.lower, 2), (triple.raising, -2), (triple.diag, 0)):
            lattice = rref([{j: v for j, v in enumerate([*w, e]) if v} for w, e in self._assert_homogeneous(op)], n + 1)
            assert not reduce_against({j: v for j, v in enumerate([*weights, shift]) if v}, lattice)

    def test_trivial_lattice_is_one_group(self):
        z1 = Poly.variable(("z1",), "z1")
        d = Derivation(("z1",), {"z1": 1 + z1})
        assert _gradings(d) == []
        monos = list(exponents_up_to_degree(1, 3))
        assert _weight_groups(monos, _gradings(d)) == {None: [0, 1, 2]}
        assert str(slice_search(d, 3).found) == str(dense_slice(d, 3)) == "None"

    def test_groups_split_by_image_weight(self):
        # D = d/dx on k[x, y]: weight -1 shift in x, y free
        d = _ddx()
        gradings = _gradings(d)
        monos = list(exponents_up_to_degree(2, 2))
        groups = _weight_groups(monos, gradings)
        assert len(groups) == len(monos)
        assert str(slice_search(d, 2).found) == "x"


# ----------------------------------------------------------------------
# the packed kernel against a tuple-key Fraction oracle

# exponent entries on both sides of the 1- and 2-byte digit boundaries
boundary_exponents = st.sampled_from([0, 1, 2, 253, 254, 255, 256, 65533, 65534, 65535, 65536])
SL2_OPERATORS = [
    op
    for summands in ((1,), (2,), (1, 1), (3,))
    for normalization in ("section5", "unit")
    for triple in [sl2_triple(RepSpec(summands, normalization=normalization))]
    for op in (triple.lower, triple.raising, triple.diag)
]


@st.composite
def packed_kernel_cases(draw):
    """A derivation and a polynomial on its table with some exponents at the digit boundaries."""
    d = draw(st.one_of(
        st.sampled_from(GRAPH_FIXTURES + FAMILY_MEMBERS).map(_restricted),  # non-linear images
        st.sampled_from(SL2_OPERATORS),
        derivations_xyz,
    ))
    n = len(d.vars)
    entry = st.one_of(boundary_exponents, st.integers(min_value=0, max_value=3))
    terms = draw(st.dictionaries(st.tuples(*[entry] * n), coeffs, max_size=4))
    return d, Poly(d.vars, terms)


def _reference_extension(spec, f):
    """``sum_j (-1)^j/j! * u^j * v^(j + wt(m)) * m`` over the monomials of ``E^j(f)``, by ``_reference_apply``."""
    raising = sl2_triple(spec).raising
    terms, layer, j, scale = {}, f.terms, 0, Fraction(1)
    while layer:
        for exponent, coeff in layer.items():
            terms[(j, j + sum(w * e for w, e in zip(spec.weights, exponent))) + exponent] = scale * coeff
        layer = _reference_apply(raising, Poly(spec.coord_names, layer))
        j += 1
        scale /= -j
    return terms


@st.composite
def high_degree_invariants(draw):
    """``c + sum_i a_i * t^k_i * g_i``: ``t`` spans a trivial summand, ``g_i`` is a kernel generator of degree <= 2."""
    spec = RepSpec((0,) + draw(st.sampled_from([(1,), (2,), (1, 1)])),
                   normalization=draw(st.sampled_from(("section5", "unit"))))
    generators = graded_kernel_generators(build_derivation(spec), 2)
    n = len(spec.coord_names)
    f = Poly.const(spec.coord_names, draw(coeffs))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        power = Poly.monomial(spec.coord_names, (draw(boundary_exponents),) + (0,) * (n - 1), draw(coeffs))
        f = f + power * draw(st.sampled_from(generators))
    return spec, f


class TestPackedKernel:
    @settings(max_examples=150)
    @given(packed_kernel_cases())
    def test_apply_matches_the_oracle(self, case):
        d, p = case
        assert apply(d, p).terms == _reference_apply(d, p)

    @pytest.mark.parametrize("top", [254, 255, 256, 65534, 65535, 65536])
    def test_outputs_at_the_digit_boundaries(self, top):
        # D(y) = x and D(z) = x*y raise the x digit of x^top*y*z to top + 1, next to the y digit
        x, y, _ = ring(XYZ)
        d = Derivation(XYZ, {"y": x, "z": x * y})
        p = Poly.monomial(XYZ, (top, 1, 1), Fraction(3, 2)) + Poly.monomial(XYZ, (0, top, 0))
        assert apply(d, p).terms == _reference_apply(d, p)
        assert (top + 1, 0, 1) in apply(d, p).terms

    def test_exponents_past_eight_byte_digits_are_refused(self):
        d = Derivation(XYZ, {"y": Poly.variable(XYZ, "x")})
        top = 2 ** 64 - 2  # plus the image degree 1 fills an 8-byte digit
        p = Poly.monomial(XYZ, (top, 1, 0))
        assert apply(d, p).terms == _reference_apply(d, p)
        with pytest.raises(OverflowError):
            apply(d, Poly.monomial(XYZ, (top + 1, 1, 0)))

    def test_zero_input_and_zero_raising_operator(self):
        # the ladder packs for the total degree of f, which is -1 here
        spec = RepSpec((0,))
        result = extend(spec, Poly.zero(spec.coord_names))
        assert result.extension.is_zero and result.boundary.value == "Contains"

    @settings(max_examples=60)
    @given(high_degree_invariants())
    def test_extend_matches_the_oracle(self, case):
        spec, f = case
        result = extend(spec, f)
        assert result.extension.terms == _reference_extension(spec, f)
        assert verify_invariance(spec, result.extension)
