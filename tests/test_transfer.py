from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaquot import transfer
from gaquot.derivations import Derivation, apply, graded_kernel_generators
from gaquot.errors import NonInvariantInput, VariableTableMismatch
from gaquot.expr import parse
from gaquot.fixtures import all_named_fixtures
from gaquot.poly import Poly
from gaquot.reps import RepSpec, Sl2Triple, build_derivation, catalog_invariants, sl2_triple
from gaquot.transfer import (
    BoundaryClass,
    boundary_split,
    extend,
    extended_spec,
    verify_invariance,
)

PAIR = RepSpec((1, 1))
TRIPLE = RepSpec((1, 1, 1))


def _restrict(extension):
    """Specialize the two transfer coordinates back to the base point."""
    return extension.substitute({"u": 0, "v": 1})


class TestExtendedSpec:
    def test_prepends_a_plane(self):
        wide = extended_spec(PAIR)
        assert wide.summands == (1, 1, 1)
        assert wide.coords == ("u", "v", "w0", "w1", "w2", "w3")
        assert wide.normalization == PAIR.normalization

    def test_preserves_normalization(self):
        df = RepSpec((1, 1, 3), "unit", tuple(f"w{i}" for i in range(1, 9)))
        assert extended_spec(df).normalization == "unit"


class TestExtendOracles:
    def test_single_plane_invariant(self):
        spec = RepSpec((1,))
        result = extend(spec, parse("w0", spec.coords))
        assert str(result.extension) == "-u*w1 + v*w0"
        assert result.f00.is_zero
        assert result.boundary is BoundaryClass.CONTAINS
        assert str(result.boundary_part) == "w0"

    def test_constant(self):
        result = extend(PAIR, Poly.const(PAIR.coords, 1))
        assert str(result.extension) == "1"
        assert result.boundary is BoundaryClass.MISSES

    def test_weight_zero_invariant_is_fixed(self):
        minor = parse("w0*w3 - w1*w2", PAIR.coords)
        result = extend(PAIR, minor)
        assert str(result.extension) == str(minor)
        assert result.f00 == minor
        assert result.boundary is BoundaryClass.INTERSECTS
        assert result.boundary_part.is_zero

    def test_winkelmann_hypersurface(self):
        f = parse("1 + w2*w5 - w3*w4 - w0", TRIPLE.coords)
        result = extend(TRIPLE, f)
        assert str(result.extension) == "u*w1 - v*w0 + w2*w5 - w3*w4 + 1"
        assert str(result.f00) == "w2*w5 - w3*w4 + 1"
        assert str(result.boundary_part) == "-w0"
        assert result.boundary is BoundaryClass.INTERSECTS

    def test_decomposition_is_exact(self):
        f = parse("1 + w2*w5 - w3*w4 - w0", TRIPLE.coords)
        result = extend(TRIPLE, f)
        assert result.f00 + result.boundary_part == f


class TestExtendGuards:
    def test_non_invariant_rejected(self):
        with pytest.raises(NonInvariantInput):
            extend(PAIR, parse("w1", PAIR.coords))

    @pytest.mark.parametrize(
        "spec,text",
        [
            (PAIR, "w0*w3 - w1*w2 + w1*w3"),
            (RepSpec((5,), "unit"), "w0 + w5"),
            (RepSpec((2, 1)), "w1^2"),
        ],
    )
    def test_non_invariant_rejected_on_more_specs(self, spec, text):
        with pytest.raises(NonInvariantInput):
            extend(spec, parse(text, spec.coords))

    def test_negative_v_power_rejected(self, monkeypatch):
        """The v-power guard convicts input that the derivation check let through."""
        triple = sl2_triple(PAIR)
        blind = Sl2Triple(Derivation(PAIR.coords, {}), triple.raising, triple.diag)
        monkeypatch.setattr(transfer, "sl2_triple", lambda spec: blind)
        with pytest.raises(NonInvariantInput, match="v\\^-1"):
            extend(PAIR, parse("w1", PAIR.coords))

    def test_wrong_table_rejected(self):
        with pytest.raises(VariableTableMismatch):
            extend(PAIR, parse("x", ("x",)))


catalog = catalog_invariants(TRIPLE)
small = st.integers(min_value=-3, max_value=3)
picks = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(catalog) - 1), small),
    min_size=1,
    max_size=3,
)


def _combination(pairs):
    f = Poly.zero(TRIPLE.coords)
    for index, coeff in pairs:
        f = f + coeff * catalog[index].poly
    return f


class TestExtendProperties:
    @given(picks, small)
    def test_restriction_recovers_input(self, pairs, shift):
        f = _combination(pairs) + shift
        result = extend(TRIPLE, f)
        restricted = _restrict(result.extension)
        assert parse(str(f), result.extension.vars) == restricted

    @given(picks, picks)
    def test_multiplicative(self, a, b):
        fa, fb = _combination(a), _combination(b)
        lhs = extend(TRIPLE, fa * fb).extension
        rhs = extend(TRIPLE, fa).extension * extend(TRIPLE, fb).extension
        assert lhs == rhs

    @given(picks, picks)
    def test_additive(self, a, b):
        fa, fb = _combination(a), _combination(b)
        lhs = extend(TRIPLE, fa + fb).extension
        rhs = extend(TRIPLE, fa).extension + extend(TRIPLE, fb).extension
        assert lhs == rhs

    @given(picks, small)
    def test_extension_is_invariant_for_extended_action(self, pairs, shift):
        f = _combination(pairs) + shift
        assert verify_invariance(TRIPLE, extend(TRIPLE, f).extension)

    @given(picks)
    def test_boundary_class_matches_f00(self, pairs):
        f = _combination(pairs) + 1
        result = extend(TRIPLE, f)
        if result.f00.is_zero:
            assert result.boundary is BoundaryClass.CONTAINS
        elif result.f00.is_constant():
            assert result.boundary is BoundaryClass.MISSES
        else:
            assert result.boundary is BoundaryClass.INTERSECTS


class TestBoundarySplit:
    """``boundary_split`` runs no ladder; its result equals ``extend``'s once the extension is read."""

    @given(picks, small)
    def test_agrees_with_extend(self, pairs, shift):
        f = _combination(pairs) + shift
        split, eager = boundary_split(TRIPLE, f), extend(TRIPLE, f)
        assert (split.f00, split.boundary_part, split.boundary) == (eager.f00, eager.boundary_part, eager.boundary)
        assert split == eager and hash(split) == hash(eager)
        assert repr(split) == repr(eager)
        assert repr(split).startswith("TransferResult(extension=Poly(")

    def test_ladder_runs_on_first_read_only(self, monkeypatch):
        runs = []
        ladder = transfer._ladder
        monkeypatch.setattr(transfer, "_ladder", lambda spec, f: runs.append(f) or ladder(spec, f))
        f = parse("1 + w2*w5 - w3*w4 - w0", TRIPLE.coords)
        result = boundary_split(TRIPLE, f)
        assert runs == []
        assert result.extension is result.extension
        assert runs == [f]
        extend(TRIPLE, f)
        assert len(runs) == 2  # extend runs its ladder at once

    def test_negative_v_power_raises_on_read(self, monkeypatch):
        # the split trusts the caller's invariance check; the ladder still convicts
        triple = sl2_triple(PAIR)
        blind = Sl2Triple(Derivation(PAIR.coords, {}), triple.raising, triple.diag)
        monkeypatch.setattr(transfer, "sl2_triple", lambda spec: blind)
        result = boundary_split(PAIR, parse("w1", PAIR.coords))
        with pytest.raises(NonInvariantInput, match="v\\^-1"):
            result.extension

    @pytest.mark.parametrize("spec, table", [(PAIR, ("x",)), (RepSpec((1,), coord_names=("u", "w")), ("u", "w"))])
    def test_guards(self, spec, table):
        with pytest.raises(ValueError):
            boundary_split(spec, parse(table[0], table))


class TestVerifyInvariance:
    def test_rejects_non_invariant_extension(self):
        wide = extended_spec(PAIR)
        assert not verify_invariance(PAIR, parse("w1", wide.coords))

    def test_accepts_extended_invariant(self):
        f = parse("w0*w3 - w1*w2", PAIR.coords)
        assert verify_invariance(PAIR, extend(PAIR, f).extension)


# ----------------------------------------------------------------------
# the integer ladder against a Fraction reference


def _fraction_ladder(spec, triple, f):
    """Reference ladder on ``Fraction`` polynomials: one ``apply`` per step.

    Returns ``(extension, f00, boundary)`` with ``f00`` read off the
    extension as its ``u^0 v^0`` coefficient.
    """
    weights = spec.weights
    terms = {}
    power, j, scale = f, 0, Fraction(1)
    while not power.is_zero:
        for exponent, coeff in power.terms.items():
            vexp = j + sum(e * w for e, w in zip(exponent, weights))
            assert vexp >= 0
            terms[(j, vexp) + exponent] = scale * coeff
        j += 1
        scale = -scale / j
        power = apply(triple.raising, power)
    extension = Poly(("u", "v") + spec.coord_names, terms)
    f00 = extension.coefficient({"u": 0, "v": 0})
    if f00.is_zero:
        boundary = BoundaryClass.CONTAINS
    elif f00.is_constant():
        boundary = BoundaryClass.MISSES
    else:
        boundary = BoundaryClass.INTERSECTS
    return extension, f00, boundary


LADDER_SPECS = [
    RepSpec(summands, normalization=normalization)
    for summands in ((2,), (4,), (2, 1, 1), (3, 3))
    for normalization in ("section5", "unit")
]


@lru_cache(maxsize=None)
def _generators(spec):
    return tuple(graded_kernel_generators(build_derivation(spec), 2))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def invariants(draw):
    """``c + sum_i a_i * P_i`` over products ``P_i`` of at most three kernel generators."""
    spec = draw(st.sampled_from(LADDER_SPECS))
    generators = _generators(spec)
    f = Poly.const(spec.coord_names, draw(rationals))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        product = Poly.const(spec.coord_names, draw(rationals.filter(bool)))
        for index in draw(st.lists(st.integers(0, len(generators) - 1), min_size=1, max_size=3)):
            product = product * generators[index]
        f = f + product
    return spec, f


def _assert_matches_reference(spec, triple, f):
    extension, f00, boundary = _fraction_ladder(spec, triple, f)
    result = extend(spec, f)
    assert result.extension.terms == extension.terms
    assert str(result.extension) == str(extension)
    assert result.f00 == f00
    assert result.boundary_part == f - f00
    assert result.boundary is boundary


class TestIntegerLadder:
    @given(invariants())
    def test_matches_fraction_ladder(self, drawn):
        spec, f = drawn
        _assert_matches_reference(spec, sl2_triple(spec), f)

    @given(invariants())
    def test_raising_denominator_is_carried(self, drawn):
        """Halved raising images have ``Dd = 2``; the divisor must pick it up at every step."""
        spec, f = drawn
        triple = sl2_triple(spec)
        halved = Derivation(
            spec.coord_names,
            {name: image * Fraction(1, 2) for name, image in triple.raising.images.items()},
        )
        assert halved._int_images[0] == 2
        patched = Sl2Triple(triple.lower, halved, triple.diag)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "sl2_triple", lambda _: patched)
            _assert_matches_reference(spec, patched, f)


def _assert_boundary_part_is_the_difference(spec, f):
    split = boundary_split(spec, f)
    assert split.boundary_part == f - split.f00
    assert repr(split.boundary_part) == repr(f - split.f00)


class TestBoundaryPart:
    """``boundary_split`` partitions the terms of ``f`` by weight; the non-zero-weight part is ``f - F00``."""

    @pytest.mark.parametrize("fx", [fx for fx in all_named_fixtures() if fx.f is not None], ids=lambda fx: fx.name)
    def test_fixtures(self, fx):
        _assert_boundary_part_is_the_difference(fx.spec, fx.f)

    @given(invariants())
    def test_generator_combinations(self, drawn):
        _assert_boundary_part_is_the_difference(*drawn)


# ----------------------------------------------------------------------
# verify_invariance against applying all three operators


def _three_applies(spec, extension):
    """The definition: the lowering, raising and diagonal operators of the enlarged spec kill it."""
    triple = sl2_triple(extended_spec(spec))
    return all(apply(op, extension).is_zero for op in (triple.lower, triple.raising, triple.diag))


@st.composite
def enlarged_polys(draw):
    """``(spec, kind, p)`` with ``p`` over the enlarged table.

    Kinds: a true extension; one perturbed by a monomial of non-zero
    weight; a weight-zero polynomial the lowering operator does not
    kill; an arbitrary polynomial.
    """
    spec, f = draw(invariants())
    extension = extend(spec, f).extension
    table, weights = extension.vars, extended_spec(spec).weights
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * len(table))
    weight = lambda e: sum(map(mul, e, weights))  # noqa: E731
    kind = draw(st.sampled_from(("extension", "perturbed", "weight-zero", "arbitrary")))
    if kind == "extension":
        p = extension
    elif kind == "perturbed":
        p = extension + Poly.monomial(table, draw(exponents.filter(weight)), draw(rationals.filter(bool)))
    elif kind == "weight-zero":
        monomials = exponents.filter(lambda e: not weight(e))
        p = Poly(table, draw(st.dictionaries(monomials, rationals.filter(bool), min_size=1, max_size=3)))
        assume(not apply(sl2_triple(extended_spec(spec)).lower, p).is_zero)
    else:
        p = Poly(table, draw(st.dictionaries(exponents, rationals, max_size=4)))
    return spec, kind, p


class TestVerifyInvarianceByWeights:
    @settings(max_examples=60)
    @given(enlarged_polys())
    def test_matches_three_applies(self, drawn):
        spec, kind, p = drawn
        verdict = verify_invariance(spec, p)
        assert verdict == _three_applies(spec, p)
        if kind != "arbitrary":
            assert verdict is (kind == "extension")


def _assert_weight_check_decides(spec, p):
    """``p`` is killed by the lowering operator but holds a monomial of non-zero weight."""
    enlarged = extended_spec(spec)
    assert apply(sl2_triple(enlarged).lower, p).is_zero
    assert any(sum(map(mul, e, enlarged.weights)) for e in p.terms)
    assert verify_invariance(spec, p) is False
    assert _three_applies(spec, p) is False


class TestWeightCheckDecides:
    """Inputs the lowering operator kills, so only the weight of a monomial refuses them."""

    @pytest.mark.parametrize("spec", LADDER_SPECS, ids=lambda spec: f"{spec.summands}-{spec.normalization}")
    def test_plane_coordinate(self, spec):
        _assert_weight_check_decides(spec, Poly.variable(extended_spec(spec).coord_names, "u"))

    @settings(max_examples=30)
    @given(invariants())
    def test_plane_coordinate_times_an_extension(self, drawn):
        spec, f = drawn
        extension = extend(spec, f).extension
        assume(not extension.is_zero)
        _assert_weight_check_decides(spec, Poly.variable(extension.vars, "u") * extension)

    @pytest.mark.parametrize("spec", LADDER_SPECS, ids=lambda spec: f"{spec.summands}-{spec.normalization}")
    def test_invariants_of_non_zero_weight_on_the_enlarged_table(self, spec):
        table = extended_spec(spec).coord_names
        weighted = [g for g in _generators(spec) if any(sum(map(mul, e, spec.weights)) for e in g.terms)]
        assert weighted
        for g in weighted:
            _assert_weight_check_decides(spec, g.extend_table(table))
