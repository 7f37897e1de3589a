from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaquot import derivations
from gaquot.classify import build_family_member
from gaquot.derivations import (
    Derivation,
    GraphPresentation,
    _blocks,
    _gradings,
    _operator_rows,
    _packed,
    _transvectant,
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
from gaquot.linalg import nullspace, reduce_against, rref
from gaquot.poly import Poly, exponents_of_degree, exponents_up_to_degree, ring
from gaquot.reps import RepSpec, build_derivation, sl2_triple
from gaquot.transfer import extend, verify_invariance

from dense_oracle import all_weight_blocks, dense_slice, oracle_kernel_generators

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

    def test_requires_the_image_degree_of_its_raising_partner(self):
        # one digit width packs the monomials for both operators
        d = build_derivation(RepSpec((1, 1, 1)))
        raising = Derivation(d.vars, {name: image * image for name, image in d.sl2_raise.images.items()})
        with pytest.raises(ValueError, match="sl2 ladder"):
            graded_kernel_generators(Derivation(d.vars, d.images, d.weight_of, raising), 2)

    def test_deterministic(self):
        d = build_derivation(RepSpec((1, 1, 1)))
        first = [str(g) for g in graded_kernel_generators(d, 2)]
        second = [str(g) for g in graded_kernel_generators(d, 2)]
        assert first == second


class TestTransvectant:
    """``_transvectant`` on the ladder of ``(1, 1)``, where ``w0`` and ``w2`` are the top coordinates."""

    spec = RepSpec((1, 1))

    def _tv(self, a, b, r):
        return _transvectant(build_derivation(self.spec), parse(a, self.spec.coords), parse(b, self.spec.coords), r)

    @pytest.mark.parametrize("a, b, r, expected", [("w0", "w2", 0, "w0*w2"), ("w0", "w2", 1, "w0*w3 - w1*w2"),
                                                   ("w2", "w0", 1, "-w0*w3 + w1*w2"), ("w0^2", "w2^2", 2, "w0^2*w3^2 - 2*w0*w1*w2*w3 + w1^2*w2^2")])
    def test_values(self, a, b, r, expected):
        assert str(self._tv(a, b, r)) == expected

    @pytest.mark.parametrize("a, b, r", [("w0", "w2", 2), ("w0^2", "w2", 2), ("w2", "w0^3", 5)])
    def test_r_above_a_weight_is_zero(self, a, b, r):
        assert self._tv(a, b, r) == Poly.zero(self.spec.coords)

    @pytest.mark.parametrize("a, b", [("0", "w2"), ("w0", "0")])
    def test_zero_input_is_refused(self, a, b):
        with pytest.raises(ValueError, match="non-zero inputs"):
            self._tv(a, b, 1)

    @pytest.mark.parametrize("a, b", [("w0 + w1", "w2"), ("w0", "w2 + w0*w1")])
    def test_input_of_several_weights_is_refused(self, a, b):
        with pytest.raises(ValueError, match="one weight"):
            self._tv(a, b, 1)

    @pytest.mark.parametrize("spec", [RepSpec((1, 1, 3)), RepSpec((2, 4), "unit"), RepSpec((0, 3))])
    def test_transvectants_of_kernel_generators_are_killed(self, spec):
        d = build_derivation(spec)
        gens = graded_kernel_generators(d, 2)
        for a in gens:
            for b in gens:
                for r in range(4):
                    assert apply(d, _transvectant(d, a, b, r)).is_zero


ladder_specs = st.builds(
    RepSpec,
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3).map(tuple),
    st.sampled_from(("section5", "unit")),
)


class TestHighestWeightSkip:
    """On the sl2 ladder kernel generators span by transvectants only the lattice blocks of weight ``>= 0`` that products do not fill."""

    @settings(max_examples=40)
    @given(ladder_specs, st.integers(min_value=1, max_value=4))
    def test_matches_solving_every_block(self, spec, maxdeg):
        d = build_derivation(spec)
        expected = oracle_kernel_generators(d, maxdeg)
        found = graded_kernel_generators(d, maxdeg)
        assert [g.terms for g in found] == [g.terms for g in expected]
        assert [str(g) for g in found] == [str(g) for g in expected]

    @pytest.mark.parametrize("summands, maxdeg", [((1, 1, 1), 6), ((2, 1, 1), 5)])
    @pytest.mark.parametrize("normalization", ["section5", "unit"])
    def test_products_with_cancelled_terms(self, summands, maxdeg, normalization):
        # the first degrees where a product of generators has a term that cancels
        d = build_derivation(RepSpec(summands, normalization))
        assert [g.terms for g in graded_kernel_generators(d, maxdeg)] == [
            g.terms for g in oracle_kernel_generators(d, maxdeg)
        ]

    @settings(max_examples=40)
    @given(ladder_specs, st.integers(min_value=1, max_value=4))
    def test_negative_blocks_are_empty_and_kept_blocks_have_their_dimension(self, spec, degree):
        # the independent check of the Cayley-Sylvester dimensions the transvectants must reach
        d = build_derivation(spec)
        monos = list(exponents_of_degree(len(d.vars), degree))
        weights = [d.weight_of[name] for name in d.vars]
        tops = [spec.coord_names.index(names[0]) for _, names in spec.blocks()]
        canonical = []
        for columns, dimension, whole, signature in _blocks(d, degree, degree).blocks:
            rows = _operator_rows(d, [monos[j] for j in columns], degree)
            basis = nullspace(list(rows.values()), len(columns))
            if sum(w * e for w, e in zip(weights, monos[columns[0]])) < 0:
                assert basis == [] and dimension == 0
            else:
                assert len(basis) == dimension
            assert whole == (not rows)
            # every monomial of a block has its weight and its degree in each summand
            for j in columns:
                degrees = [0] * len(d.vars)
                for (k, names), top in zip(spec.blocks(), tops):
                    degrees[top] = sum(monos[j][top:top + k + 1])
                assert signature == (sum(w * e for w, e in zip(weights, monos[j])), tuple(degrees))
            canonical.extend((min(row), row) for row in ({columns[c]: v for c, v in vector.items()} for vector in basis))
        # the lattice blocks refine the weight blocks and give the same reduced echelon kernel
        every = sorted((min(row), row) for _, group, basis in all_weight_blocks(d, monos) for row in
                       ({group[::-1][c]: v for c, v in vector.items()} for vector in basis))
        assert sorted(canonical, key=lambda pair: pair[0]) == every

    @pytest.mark.parametrize("summands, maxdeg", [((4, 1, 1), 6), ((2, 2, 2), 5), ((3, 2), 6), ((4,), 8)])
    @pytest.mark.parametrize("normalization", ["section5", "unit"])
    def test_blocks_filled_by_products_are_skipped(self, summands, maxdeg, normalization, monkeypatch):
        spec = RepSpec(summands, normalization)
        found, spanned = _generators_and_spanned_blocks(spec, maxdeg, monkeypatch)
        assert [g.terms for g in found] == [g.terms for g in oracle_kernel_generators(build_derivation(spec), maxdeg)]
        assert spanned < _kept_blocks(build_derivation(spec), maxdeg)

    def test_degree_eight_spans_a_minority_of_the_kept_blocks(self, monkeypatch):
        found, spanned = _generators_and_spanned_blocks(RepSpec((4, 1, 1)), 8, monkeypatch)
        assert len(found) == 56
        assert 0 < spanned < _kept_blocks(build_derivation(RepSpec((4, 1, 1))), 8) // 2

    @pytest.mark.parametrize("summands, degree", [((1, 1, 1), 2), ((4, 1, 1), 3), ((3, 2), 4)])
    def test_product_rank_above_the_kernel_dimension_raises(self, summands, degree, monkeypatch):
        # every block of the degree doctored to an empty kernel: the first product exceeds it
        d = _fresh_derivation(RepSpec(summands))
        _doctor_blocks(monkeypatch, degree, lambda b, block_of, dimension: 0)
        with pytest.raises(InternalInconsistency, match="exceed the kernel"):
            graded_kernel_generators(d, degree)

    @pytest.mark.parametrize("summands, degree", [((1, 1, 1), 2), ((4, 1, 1), 3), ((3, 2), 4), ((2,), 2)])
    def test_block_dimension_one_too_small_raises(self, summands, degree, monkeypatch):
        # the block of the first monomial, w0^degree: D kills it whole, so no candidate reaches
        # it, and the power of the first generator fills it
        d = _fresh_derivation(RepSpec(summands))
        _doctor_blocks(monkeypatch, degree, lambda b, block_of, dimension: dimension - (b == block_of[0]))
        with pytest.raises(InternalInconsistency, match="exceed the kernel"):
            graded_kernel_generators(d, degree)

    @pytest.mark.parametrize("summands, degree", [((2,), 2), ((1, 1, 1), 2), ((3, 2), 4)])
    def test_block_of_another_dimension_is_left_short(self, summands, degree, monkeypatch):
        # one more than the true dimension: products and transvectants span the kernel alone
        d = _fresh_derivation(RepSpec(summands))
        _doctor_blocks(monkeypatch, degree, lambda b, block_of, dimension: dimension + 1)
        with pytest.raises(InternalInconsistency, match="left short"):
            graded_kernel_generators(d, degree)

    @pytest.mark.parametrize("summands", [(2,), (3, 2), (1, 1, 3)])
    def test_candidates_without_a_top_coordinate_leave_a_block_short(self, summands, monkeypatch):
        # the last summand's top coordinate g_s dropped: its self-transvectant's block in degree 2 has no other candidate
        d = _fresh_derivation(RepSpec(summands))
        real = derivations._tops
        monkeypatch.setattr(derivations, "_tops", lambda d: real(d)[:-1])
        with pytest.raises(InternalInconsistency, match="left short"):
            graded_kernel_generators(d, 4)

    @pytest.mark.parametrize("summands", [(2,), (1, 1), (3, 2)])
    def test_candidate_outside_its_block_raises(self, summands, monkeypatch):
        # w0^2 added to every candidate: D kills its block whole, so no candidate belongs there
        d = _fresh_derivation(RepSpec(summands))
        stray = _packed(d.sl2_raise, 2)[0]((2,) + (0,) * (len(d.vars) - 1))
        _doctor_candidates(monkeypatch, lambda acc: {**acc, stray: acc.get(stray, 0) + 1})
        with pytest.raises(InternalInconsistency, match="leaves its block"):
            graded_kernel_generators(d, 2)

    @pytest.mark.parametrize("summands", [(2,), (1, 1), (1, 1, 3)])
    def test_candidate_not_killed_raises(self, summands, monkeypatch):
        # one numerator of every candidate moved by one: the candidate stays in its block of
        # kernel dimension 1 and fills it, so the generator it gives is not killed
        d = _fresh_derivation(RepSpec(summands))
        _doctor_candidates(monkeypatch, lambda acc: {**acc, next(iter(acc)): acc[next(iter(acc))] + 1})
        with pytest.raises(InternalInconsistency, match="not killed"):
            graded_kernel_generators(d, 2)

    @pytest.mark.parametrize("summands, maxdeg", [((1, 1, 1, 1, 1), 4), ((0, 1, 1, 3), 5), ((8,), 6), ((3,), 8),
                                                  ((2,), 6), ((1, 1, 3), 5), ((1, 1, 1), 6)])
    @pytest.mark.parametrize("normalization", ["section5", "unit"])
    def test_matches_the_oracle_on_more_summands(self, summands, maxdeg, normalization):
        d = build_derivation(RepSpec(summands, normalization))
        assert [g.terms for g in graded_kernel_generators(d, maxdeg)] == [
            g.terms for g in oracle_kernel_generators(d, maxdeg)
        ]

    def test_sym_one_solves_no_block(self, monkeypatch):
        # every block is full or killed whole: no transvectant is built
        found, spanned = _generators_and_spanned_blocks(RepSpec((1,)), 6, monkeypatch)
        assert [str(g) for g in found] == ["w0"]
        assert spanned == 0


class TestOneDigitWidth:
    def test_degrees_across_one_byte_digits(self):
        # degree 260 needs two-byte digits: products of every degree must be keyed at that one width
        assert [str(g) for g in graded_kernel_generators(build_derivation(RepSpec((0, 0))), 260)] == ["w0", "w1"]

    def test_levels_kept_at_another_width_are_built_again(self):
        d = _fresh_derivation(RepSpec((0, 0)))
        for maxdeg in (3, 260, 3):
            assert [str(g) for g in graded_kernel_generators(d, maxdeg)] == ["w0", "w1"]


class TestKernelGeneratorCap:
    def test_over_sized_top_degree_is_refused_before_any_work(self, monkeypatch):
        d = _fresh_derivation(RepSpec((4, 1, 1)))
        lattices = _counting(monkeypatch, "nullspace")
        with pytest.raises(ValueError, match=r"^invariant degree 40 has 377348994 monomials in 9 variables, "
                                             r"above the cap of 50000$"):
            graded_kernel_generators(d, 40)
        assert lattices == [] and d._blocks == {}

    def test_cap_admits_degree_ten_of_the_ci_job(self):
        assert comb(9 + 10 - 1, 10) == 43758 <= derivations.MAX_MONOMIALS < comb(9 + 11 - 1, 11)
        with pytest.raises(ValueError, match="above the cap"):
            graded_kernel_generators(build_derivation(RepSpec((4, 1, 1))), 11)

    def test_bounds_below_one_are_empty(self):
        d = build_derivation(RepSpec((4, 1, 1)))
        assert graded_kernel_generators(d, 0) == graded_kernel_generators(d, -1) == []


def _fresh_derivation(spec):
    """The lowering operator of ``spec`` as a new object, so nothing is cached on it yet."""
    d = build_derivation(spec)
    return Derivation(d.vars, d.images, d.weight_of, d.sl2_raise)


def _counting(monkeypatch, name):
    """Replace ``derivations.<name>`` by a wrapper that records each call; return the record."""
    calls = []
    real = getattr(derivations, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(derivations, name, counting)
    return calls


def _doctor_blocks(monkeypatch, degree, doctor):
    """Make ``_blocks`` report block ``b`` of ``degree`` with the dimension ``doctor(b, block_of, dimension)``.

    The true blocks stay cached on the derivation.
    """
    real = derivations._blocks

    def doctored(d, at, top):
        level = real(d, at, top)
        if at == degree:
            level = level._replace(blocks=[(columns, doctor(b, level.block_of, dimension), whole, signature)
                                           for b, (columns, dimension, whole, signature) in enumerate(level.blocks)])
        return level

    monkeypatch.setattr(derivations, "_blocks", doctored)


def _doctor_candidates(monkeypatch, doctor):
    """Make ``_tau`` return ``doctor(acc)`` for its packed numerators ``acc``; ``reps``' catalog is not run."""
    real = derivations._tau

    def doctored(la, lb, r):
        acc, den = real(la, lb, r)
        return doctor(acc), den

    monkeypatch.setattr(derivations, "_tau", doctored)


def _kept_blocks(d, maxdeg):
    """Number of lattice blocks in degrees ``1..maxdeg`` that products alone may leave short: a kernel, and a target."""
    return sum(dimension > 0 and not whole for degree in range(1, maxdeg + 1)
               for _, dimension, whole, _ in _blocks(d, degree, maxdeg).blocks)


def _generators_and_spanned_blocks(spec, maxdeg, monkeypatch):
    """Kernel generators of a fresh lowering operator of ``spec``, and the number of blocks spanned by transvectants.

    No block is solved: there is no ``_operator_rows`` call, and the one
    ``nullspace`` is the grading lattice's, over its ``n + 1`` columns.
    """
    d = _fresh_derivation(spec)
    with monkeypatch.context() as patch:
        operator_rows, nullspaces, spanned = (_counting(patch, name) for name in ("_operator_rows", "nullspace", "_span_block"))
        found = graded_kernel_generators(d, maxdeg)
    assert operator_rows == [] and [args[1] for args in nullspaces] == [len(d.vars) + 1]
    assert d._lattice is not None
    return found, len(spanned)


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


class TestDefines:
    """``GraphPresentation.defines`` against the normalized graph equation ``w - h``, built by ``substitute``."""

    ONE_DEPENDENT = [(ambient, graph) for ambient, graph in PULL_BACK_GRAPHS if len(graph.dependent) == 1]

    @staticmethod
    def _equation(graph, table):
        """``w - h`` over ``table``, with ``h``'s parameters sent to their ambient coordinates."""
        ((name, h),) = graph.dependent.items()
        return Poly.variable(table, name) - h.substitute({z: Poly.variable(table, x) for x, z in graph.free.items()})

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_the_normalized_equation(self, data):
        ambient, graph = data.draw(st.sampled_from(self.ONE_DEPENDENT))
        table = data.draw(st.permutations(ambient))  # the relabel must not depend on table order
        equation = self._equation(graph, table)
        p = equation * data.draw(coeffs)
        if data.draw(st.booleans()):
            exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * len(table))
            p = p + Poly(table, data.draw(st.dictionaries(exponents, coeffs, max_size=2)))
        assert graph.defines(p) == (not p.is_zero and p.normalized() == equation.normalized())

    @pytest.mark.parametrize("ambient, graph", ONE_DEPENDENT)
    def test_same_support_other_ratios_fail(self, ambient, graph):
        equation = self._equation(graph, ambient)
        assert graph.defines(equation) and graph.defines(Fraction(-2, 7) * equation)
        lead, c = equation.leading()
        assert not graph.defines(equation + Poly(ambient, {lead: c}))  # every term kept, one doubled
        assert not graph.defines(Poly.zero(ambient))

    def test_one_variable_table(self):
        graph = GraphPresentation(zvars=(), free={}, dependent={"w": Poly.const((), 3)})
        assert graph.defines(Poly(("w",), {(1,): 2, (0,): -6}))
        assert not graph.defines(Poly(("w",), {(1,): 1, (0,): -2}))
        assert not graph.defines(Poly(("w",), {(2,): 1, (0,): -9}))

    @pytest.mark.parametrize("ambient, graph", ONE_DEPENDENT)
    def test_wrong_table_rejected(self, ambient, graph):
        for table in (ambient[1:], ambient + ("extra",)):
            with pytest.raises(VariableTableMismatch):
                graph.defines(Poly.variable(table, ambient[-1]))

    def test_several_dependent_coordinates_rejected(self):
        graphs = [graph for _, graph in PULL_BACK_GRAPHS if len(graph.dependent) != 1]
        assert graphs
        for graph in graphs:
            ambient = (*graph.free, *graph.dependent)
            with pytest.raises(ValueError, match=f"^a graph of {len(graph.dependent)} dependent coordinates"):
                graph.defines(Poly.variable(ambient, ambient[0]))


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

    def test_over_sized_bound_is_refused_before_the_candidates(self, monkeypatch):
        d = _restricted("family-phi(t^5 - 3*t)")
        built = _counting(monkeypatch, "_slice_candidates")
        with pytest.raises(ValueError, match=r"^slice degree 40 has 1221758 candidates in 5 variables, "
                                             r"above the cap of 50000$"):
            slice_search(d, 40)
        assert built == []

    def test_cap_admits_degree_eighteen_of_the_ci_job(self):
        assert comb(5 + 18, 18) - 1 == 33648 <= comb(5 + 19, 19) - 1 <= derivations.MAX_MONOMIALS
        assert comb(5 + 20, 20) - 1 == 53129 > derivations.MAX_MONOMIALS
        with pytest.raises(ValueError, match="53129 candidates"):
            slice_search(_restricted("family-phi(t^5 - 3*t)"), 20)

    def test_bounds_below_one_are_searched(self):
        d = _restricted("affine-slice")
        assert slice_search(d, 0).found is None and slice_search(d, -1).found is None


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
        assert _weight_groups(monos, _gradings(d)) == ({0: [0, 1, 2]}, 0, 0)
        assert str(slice_search(d, 3).found) == str(dense_slice(d, 3)) == "None"

    @staticmethod
    def _assert_packed_like_tuples(gradings, monos):
        """``_weight_groups``' packed keys against the weight tuples ``(w·c + e, ...)`` they pack."""
        groups, zero, shift = _weight_groups(monos, gradings)
        by_tuple = {}
        for j, c in enumerate(monos):
            by_tuple.setdefault(tuple(sum(w_i * c_i for w_i, c_i in zip(w, c)) + e for w, e in gradings), []).append(j)
        assert sorted(groups.values()) == sorted(by_tuple.values())
        key_of = {tuple(group): key for key, group in groups.items()}
        for weights, group in by_tuple.items():
            target = tuple(v + e for v, (_, e) in zip(weights, gradings))
            assert groups.get(key_of[tuple(group)] + shift, []) == by_tuple.get(target, [])  # never a carry
        assert groups.get(zero, []) == by_tuple.get((0,) * len(gradings), [])

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(derivations_xyz, triangular_xyz), st.integers(min_value=0, max_value=4))
    def test_packed_keys_group_like_the_weight_tuples(self, d, bound):
        self._assert_packed_like_tuples(_gradings(d), list(exponents_up_to_degree(3, bound)))

    @pytest.mark.parametrize("gradings", [
        [((1, 0), 2), ((1, 1), 0)],  # x^2 shifted past the first digit's values would carry onto y^3
        [((0, -1), -2), ((1, 1), 1)],
        [((1, 0), 2), ((0, 1), -3), ((1, 1), 1)],
    ])
    def test_shifted_keys_never_carry(self, gradings):
        # _gradings puts its one non-zero shift on the last grading; _weight_groups may not rely on that
        self._assert_packed_like_tuples(gradings, list(exponents_up_to_degree(2, 3)))

    @pytest.mark.parametrize("d", [
        _ddx(),
        *(_restricted(name) for name in GRAPH_FIXTURES + FAMILY_MEMBERS),
        *(op for summands in ((1,), (2,), (1, 1), (4, 1, 1)) for triple in [sl2_triple(RepSpec(summands))]
          for op in (triple.lower, triple.raising, triple.diag)),
    ])
    def test_packed_keys_on_fixture_derivations(self, d):
        n = len(d.vars)
        self._assert_packed_like_tuples(_gradings(d), list(exponents_up_to_degree(n, 3)))
        self._assert_packed_like_tuples(_gradings(d), list(exponents_of_degree(n, 4)))

    def test_groups_split_by_image_weight(self):
        # D = d/dx on k[x, y]: weight -1 shift in x, y free
        d = _ddx()
        gradings = _gradings(d)
        monos = list(exponents_up_to_degree(2, 2))
        groups, _, _ = _weight_groups(monos, gradings)
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
