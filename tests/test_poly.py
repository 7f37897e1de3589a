from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gaquot.classify import squarefree_distinct_root_count
from gaquot.derivations import Derivation, apply, graded_kernel_generators, weight_components
from gaquot.errors import VariableTableMismatch
from gaquot.expr import parse
from gaquot.poly import (
    PointBlock,
    Poly,
    _cleared,
    exponents_of_degree,
    exponents_up_to_degree,
    ring,
)
from gaquot.reps import RepSpec, build_derivation
from gaquot.transfer import extend

XYZ = ("x", "y", "z")


def _poly(terms):
    return Poly(XYZ, terms)


coeffs = st.fractions(
    min_value=-9, max_value=9, max_denominator=4
)
exponent3 = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
polys = st.dictionaries(exponent3, coeffs, max_size=6).map(_poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestConstruction:
    def test_ring_returns_variables(self):
        x, y, z = ring(XYZ)
        assert str(x) == "x"
        assert x * y + z == Poly(XYZ, {(1, 1, 0): 1, (0, 0, 1): 1})

    def test_zero_terms_dropped(self):
        assert Poly(XYZ, {(1, 0, 0): 0}).is_zero
        assert Poly(XYZ, {}) == Poly.zero(XYZ)

    @pytest.mark.parametrize("make", [
        lambda table: Poly(table, {}),
        Poly.zero,
        lambda table: Poly.const(table, 1),
        lambda table: Poly.variable(table, "x"),
        lambda table: Poly.monomial(table, (1, 0)),
    ], ids=["init", "zero", "const", "variable", "monomial"])
    def test_duplicate_variable_rejected(self, make):
        with pytest.raises(ValueError, match="duplicate variable names"):
            make(("x", "x"))

    def test_immutable(self):
        x, _, _ = ring(XYZ)
        with pytest.raises(AttributeError):
            x.terms = {}

    def test_variable_requires_known_name(self):
        with pytest.raises(ValueError):
            Poly.variable(XYZ, "w")

    def test_const_and_monomial(self):
        assert Poly.const(XYZ, Fraction(3, 2)).constant_term() == Fraction(3, 2)
        assert str(Poly.monomial(XYZ, (2, 0, 1), 5)) == "5*x^2*z"

    @pytest.mark.parametrize("make", [
        lambda: Poly(XYZ, {(1, 0, 0): 0.5}),
        lambda: Poly.const(XYZ, 0.5),
        lambda: Poly.monomial(XYZ, (2, 0, 1), 0.5),
        lambda: ring(XYZ)[0] * 0.5,
    ])
    def test_float_coefficient_rejected(self, make):
        with pytest.raises(TypeError):
            make()


class TestArithmetic:
    @given(polys, polys)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys, polys)
    def test_multiplication_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, polys, polys)
    def test_multiplication_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys)
    def test_additive_inverse(self, p):
        assert (p - p).is_zero
        assert p + (-p) == Poly.zero(XYZ)

    @given(polys, st.integers(min_value=0, max_value=4))
    def test_power_matches_repeated_product(self, p, n):
        expected = Poly.const(XYZ, 1)
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected

    def test_scalar_coercion(self):
        x, y, _ = ring(XYZ)
        assert 2 * x + Fraction(1, 2) == x + x + Fraction(1, 2)
        assert 1 - y == -(y - 1)

    def test_mismatched_tables_rejected(self):
        x, _, _ = ring(XYZ)
        u = Poly.variable(("u",), "u")
        with pytest.raises(VariableTableMismatch):
            x + u

    def test_constant_hashes_like_its_value(self):
        # a constant polynomial equals its constant term, so it must find the same dictionary entry
        assert Poly.const(("x",), 3) == 3
        assert {3: "a"}.get(Poly.const(("x",), 3)) == "a"
        assert {Fraction(-1, 2): "b"}.get(Poly.const(XYZ, Fraction(-1, 2))) == "b"
        assert {0: "c"}.get(Poly.zero(XYZ)) == "c"


class TestQueries:
    def test_degree_and_leading(self):
        x, y, z = ring(XYZ)
        p = x * y ** 2 - z + 4
        assert p.total_degree() == 3
        assert p.degree_in("y") == 2
        exponent, coeff = p.leading()
        assert exponent == (1, 2, 0)
        assert coeff == 1

    def test_support_skips_absent_variables(self):
        x, _, z = ring(XYZ)
        assert (x * z + x).support() == ("x", "z")

    def test_constant_queries(self):
        assert Poly.const(XYZ, 7).is_constant()
        assert Poly.zero(XYZ).is_constant()
        x, _, _ = ring(XYZ)
        assert not (x + 1).is_constant()
        assert (x + 1).constant_term() == 1

    def test_homogeneous_components(self):
        x, y, _ = ring(XYZ)
        p = x * y + x - 3
        parts = weight_components(p, dict.fromkeys(p.vars, 1))
        assert set(parts) == {0, 1, 2}
        assert parts[2] == x * y
        assert sum(parts.values(), Poly.zero(XYZ)) == x * y + x - 3


class TestSubstitution:
    @given(polys, polys, polys)
    def test_substitute_is_a_ring_map(self, p, q, images_source):
        images = {"x": images_source, "y": images_source + 1}
        lhs = (p * q).substitute(images)
        rhs = p.substitute(images) * q.substitute(images)
        assert lhs == rhs
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)

    def test_substitute_scalar_values(self):
        x, y, _ = ring(XYZ)
        assert (x * y + y).substitute({"x": 2}) == 3 * y

    def test_substitute_empty_keeps_table(self):
        x, _, _ = ring(XYZ)
        assert x.substitute({}) == x

    def test_substitute_into_new_table(self):
        x, y, _ = ring(XYZ)
        a = Poly.variable(("a", "b"), "a")
        b = Poly.variable(("a", "b"), "b")
        image = (x * y).substitute({"x": a + b, "y": a - b, "z": 0})
        assert image == a * a - b * b

    def test_cancelling_images_leave_no_zero_terms(self):
        x, y, _ = ring(XYZ)
        a, b = ring("a b")
        assert (x - y).substitute({"x": a + b, "y": b + a, "z": 0}).terms == {}
        image = (x * y + x - y).substitute({"x": a + b, "y": a + b, "z": 0})
        assert image == (a + b) ** 2
        assert all(image.terms.values())

    def test_images_on_two_tables_rejected(self):
        x, y, _ = ring(XYZ)
        with pytest.raises(VariableTableMismatch):
            (x + y).substitute({"x": Poly.variable(("a",), "a"), "y": Poly.variable(("b",), "b")})

    def test_images_of_unknown_variables_rejected(self):
        x = Poly.variable(("x",), "x")
        with pytest.raises(ValueError, match=r"unknown variables \['y'\]"):
            x.substitute({"y": 1})
        with pytest.raises(ValueError, match=r"unknown variables \['a', 'w'\]"):
            x.substitute({"x": 2, "w": 0, "a": Poly.variable(("a",), "a")})

    def test_substitute_missing_target_variable_rejected(self):
        x, _, z = ring(XYZ)
        a = Poly.variable(("a",), "a")
        # z is unmapped and absent from the target table
        with pytest.raises(VariableTableMismatch):
            (x + z).substitute({"x": a})

    @given(polys, st.fractions(min_value=-4, max_value=4, max_denominator=3))
    def test_evaluate_matches_substitution(self, p, value):
        point = {"x": value, "y": Fraction(1, 2), "z": -2}
        substituted = p.substitute(dict(point))
        assert substituted.is_constant()
        assert p.evaluate(point) == substituted.constant_term()

    def test_evaluate_requires_every_variable(self):
        x, _, _ = ring(XYZ)
        with pytest.raises(KeyError):
            x.evaluate({"x": 1, "y": 0})


class TestZeroingBySelection:
    """Zeroing variables selects the terms free of them; ``substitute`` is the oracle."""

    @given(polys, st.sets(st.sampled_from(XYZ)))
    def test_selection_matches_substituting_zero(self, p, names):
        expected = p.substitute({name: Poly.zero(XYZ) for name in names})
        selected = p.coefficient(dict.fromkeys(names, 0)).extend_table(XYZ)
        assert selected.vars == expected.vars
        assert selected == expected


class TestCleared:
    """The one denominator-clearing helper behind every integer form."""

    def test_integers_keep_denominator_one(self):
        assert _cleared([3, -4, 0, 7]) == (1, [3, -4, 0, 7])

    def test_all_integer_fractions(self):
        assert _cleared([Fraction(6, 3), Fraction(-5)]) == (1, [2, -5])

    def test_fractions_over_the_lcm(self):
        assert _cleared([Fraction(1, 2), Fraction(-2, 3), 5]) == (6, [3, -4, 30])

    def test_negative_values(self):
        assert _cleared([Fraction(-1, 4), -2, Fraction(-3, 8)]) == (8, [-2, -16, -3])

    def test_empty_input(self):
        assert _cleared([]) == (1, [])
        assert _cleared(()) == (1, [])

    def test_zero_polynomial_reaches_it(self):
        zero = Poly.zero(XYZ)
        assert zero.evaluate({"x": Fraction(1, 2), "y": 3, "z": 0}) == 0

    @given(st.lists(st.one_of(st.integers(-20, 20), st.fractions(max_denominator=12)), max_size=8))
    def test_numerators_over_the_least_common_denominator(self, values):
        q, numer = _cleared(values)
        assert q == math.lcm(*(Fraction(v).denominator for v in values))
        assert all(type(n) is int for n in numer)
        assert [Fraction(n, q) for n in numer] == [Fraction(v) for v in values]


points = st.fixed_dictionaries(
    {
        name: st.one_of(
            st.just(0),
            st.integers(min_value=-5, max_value=5),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
        )
        for name in XYZ
    }
)


class TestIntegerKernel:
    """``evaluate`` runs on a cached integer form; it must stay exact."""

    @given(polys, points)
    def test_matches_substitution_at_mixed_points(self, p, point):
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == p.substitute(dict(point)).constant_term()

    @given(polys, st.lists(points, min_size=2, max_size=8))
    def test_cached_form_matches_a_fresh_poly(self, p, many):
        for point in many:
            fresh = Poly(p.vars, dict(p.terms))
            assert p.evaluate(point) == fresh.evaluate(point)

    def test_non_integer_coefficients_and_denominators(self):
        p = Poly(
            XYZ, {(2, 0, 0): Fraction(1, 6), (0, 1, 1): Fraction(-3, 4), (0, 0, 0): Fraction(5, 9)}
        )
        point = {"x": Fraction(3, 2), "y": Fraction(-2, 5), "z": 7}
        # x^2/6 - 3*y*z/4 + 5/9 at x = 3/2, y*z = -14/5
        expected = Fraction(3, 8) + Fraction(21, 10) + Fraction(5, 9)
        assert p.evaluate(point) == expected
        assert p.evaluate(point) == expected  # second call uses the cached form

    def test_zero_coordinate_skips_terms(self):
        x, y, z = ring(XYZ)
        p = x * y * z + 3 * y ** 2 - Fraction(1, 2)
        assert p.evaluate({"x": Fraction(1, 3), "y": 0, "z": 5}) == Fraction(-1, 2)
        assert p.evaluate({"x": 0, "y": Fraction(2, 3), "z": 0}) == Fraction(5, 6)

    def test_zero_and_constant_polynomials(self):
        point = {"x": Fraction(1, 2), "y": -3, "z": 0}
        zero = Poly.zero(XYZ).evaluate(point)
        assert type(zero) is Fraction and zero == 0
        const = Poly.const(XYZ, Fraction(-7, 3)).evaluate(point)
        assert type(const) is Fraction and const == Fraction(-7, 3)
        assert type(Poly.const(XYZ, 4).evaluate({"x": 1, "y": 1, "z": 1})) is Fraction

    def test_empty_variable_table(self):
        assert Poly.const((), Fraction(2, 3)).evaluate({}) == Fraction(2, 3)

    def test_float_coordinate_rejected(self):
        x, y, _ = ring(XYZ)
        with pytest.raises(TypeError):
            (x + y).evaluate({"x": 1, "y": 0.5, "z": 0})


# substitution images over TARGET, which holds every variable of XYZ, so any of them may stay unmapped
TARGET = ("t", "z", "y", "x")
target_polys = st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=2)] * 4), coeffs, max_size=4).map(
    lambda terms: Poly(TARGET, terms)
)
images = st.dictionaries(
    st.sampled_from(XYZ),
    st.one_of(
        target_polys,
        st.sampled_from(TARGET).map(lambda name: Poly.variable(TARGET, name)),
        coeffs,
    ),
)
target_points = st.fixed_dictionaries({name: st.fractions(min_value=-4, max_value=4, max_denominator=6) for name in TARGET})


class TestEvaluationOracles:
    """Products and compositions against point evaluation, which runs on the separate ``PointBlock`` kernel."""

    @given(polys, polys, points)
    def test_product_evaluates_to_the_product_of_values(self, p, q, point):
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)

    @given(polys, images, target_points)
    def test_substitute_evaluates_at_the_images_values(self, p, m, point):
        values = {name: point[name] for name in XYZ}
        for name, image in m.items():
            values[name] = image.evaluate(point) if isinstance(image, Poly) else image
        assert p.substitute(m).evaluate(point) == p.evaluate(values)


def _fraction_value(p, values):
    """``p`` at ``values`` summed term by term over ``Fraction``s: the kernel's oracle."""
    total = Fraction(0)
    for exponent, coeff in p.terms.items():
        term = coeff
        for x, e in zip(values, exponent):
            term *= x ** e
        total += term
    return total


_TABLE = ("a", "b", "c", "d")


@st.composite
def blocks_and_polys(draw):
    """Random polys and a random block over one table, zero coordinates and ``q != 1`` included.

    A block's points vanish off a drawn support, as in the candidate
    table; exponents reach 5, so powers above 2 are exercised.  A
    planted factor ``(x_i - v)`` with ``v`` a coordinate of a drawn
    point makes common zeros likely.
    """
    n = draw(st.integers(min_value=1, max_value=len(_TABLE)))
    table = _TABLE[:n]
    support = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    values = st.one_of(
        st.just(Fraction(0)),
        st.integers(min_value=-9, max_value=9).map(Fraction),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    )
    points = draw(
        st.lists(
            st.tuples(*[values if i in support else st.just(Fraction(0)) for i in range(n)]),
            min_size=1,
            max_size=8,
        )
    )
    exponents = st.tuples(*[st.integers(min_value=0, max_value=5)] * n)
    coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    polys = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(("zero", "constant", "random", "planted")))
        if kind == "zero":
            polys.append(Poly.zero(table))
        elif kind == "constant":
            polys.append(Poly.const(table, draw(coefficients.filter(bool))))
        else:
            p = Poly(table, draw(st.dictionaries(exponents, coefficients, max_size=8)))
            if kind == "planted":
                i = draw(st.integers(min_value=0, max_value=n - 1))
                p = p * (Poly.variable(table, table[i]) - draw(st.sampled_from(points))[i])
            polys.append(p)
    return table, points, polys


class TestPointBlock:
    """The block kernel, point by point, against ``Poly.evaluate`` and a ``Fraction`` sum."""

    @given(blocks_and_polys())
    def test_scaled_values_match_evaluation(self, drawn):
        table, points, polys = drawn
        block = PointBlock([_cleared(point) for point in points])
        assert len(block) == len(points)
        for p in polys:
            scale, _, top = p._integer_form()
            values = block.scaled_values(block.restrict(p))
            assert len(values) == len(points)
            for value, q, point in zip(values, block.qs, points):
                expected = _fraction_value(p, point)
                assert Fraction(value, scale * q ** top) == expected
                assert p.evaluate(dict(zip(table, point))) == expected

    @given(blocks_and_polys(), st.data())
    def test_live_points_and_common_zeros(self, drawn, data):
        table, points, polys = drawn
        block = PointBlock([_cleared(point) for point in points])
        live = data.draw(st.lists(st.sampled_from(range(len(points))), unique=True).map(sorted))
        restrictions = [block.restrict(p) for p in polys]
        for restriction in restrictions:
            full = block.scaled_values(restriction)
            assert block.scaled_values(restriction, live) == [full[k] for k in live]
        zeros = [k for k, point in enumerate(points) if all(_fraction_value(p, point) == 0 for p in polys)]
        assert block.common_zeros(polys) == zeros
        assert block.common_zeros(polys, live) == [k for k in live if k in zeros]

    @given(blocks_and_polys())
    def test_nonzero_constant_restriction_has_no_zero(self, drawn):
        _, points, polys = drawn
        block = PointBlock([_cleared(point) for point in points])
        for p in polys:
            terms, _ = block.restrict(p)
            if len(terms) == 1 and not terms[0][2]:  # a non-zero constant on the block's support
                values = {_fraction_value(p, point) for point in points}
                assert len(values) == 1 and 0 not in values
                assert block.common_zeros([p]) == []

    def test_support_is_the_nonzero_coordinates(self):
        block = PointBlock([_cleared(point) for point in ((0, 2, 0), (0, Fraction(1, 2), 3))])
        assert block.mask == 0b110
        assert block.columns == {1: (2, 1), 2: (0, 6)}
        assert block.qs == (1, 2)
        x, y, z = ring(XYZ)
        p = x * y + 2 * x + 5
        assert block.restrict(p)[0] == [(5, (), 0, 0)]  # only the constant term survives
        assert block.restrict(y * z)[0]
        assert block.common_zeros([y * z]) == [0]
        assert block.common_zeros([y * z, p]) == []  # p restricts to the constant 5


class TestCalculusAndShaping:
    @given(polys, polys)
    def test_partial_satisfies_leibniz(self, p, q):
        lhs = (p * q).partial("y")
        rhs = p.partial("y") * q + p * q.partial("y")
        assert lhs == rhs

    def test_partial_oracle(self):
        x, y, _ = ring(XYZ)
        assert (x ** 2 * y ** 3).partial("y") == 3 * x ** 2 * y ** 2

    def test_coefficient_extracts_and_drops(self):
        x, y, z = ring(XYZ)
        p = x ** 2 * y - 3 * x * z + y
        c = p.coefficient({"x": 1})
        assert c.vars == ("y", "z")
        assert c == -3 * Poly.variable(("y", "z"), "z")
        assert p.coefficient({"x": 0}) == Poly.variable(("y", "z"), "y")

    def test_coefficient_without_pins_is_the_polynomial(self):
        x, y, z = ring(XYZ)
        p = Fraction(2, 3) * x ** 2 * y - z + 5
        assert p.coefficient({}) == p and p.coefficient({}).vars == XYZ

    def test_coefficient_of_one_pin_with_a_non_zero_value(self):
        x, y, z = ring(XYZ)
        p = 4 * x * y ** 2 * z + 6 * y ** 2 - y * z
        assert p.coefficient({"y": 2}) == 4 * Poly.variable(("x", "z"), "x") * Poly.variable(("x", "z"), "z") + 6
        assert p.coefficient({"z": 1}) == parse("4*x*y^2 - y", ("x", "y"))
        assert p.coefficient({"y": 3}).is_zero

    def test_coefficient_of_every_pin_is_a_constant(self):
        x, y, z = ring(XYZ)
        p = Fraction(-3, 4) * x * y ** 2 * z + 6 * y ** 2
        assert p.coefficient({"z": 1, "x": 1, "y": 2}) == Poly.const((), Fraction(-3, 4))
        assert p.coefficient({"x": 0, "y": 2, "z": 0}) == Poly.const((), 6)
        assert p.coefficient(dict.fromkeys(XYZ, 1)).is_zero

    @given(polys, st.dictionaries(st.sampled_from(XYZ), st.integers(min_value=0, max_value=3)))
    def test_coefficient_matches_the_generator_form(self, p, fixed):
        """The term selection by one ``all(...)`` generator per term, on ``Fraction`` terms, is the oracle."""
        idxs = {p.vars.index(name): k for name, k in fixed.items()}
        keep = [i for i in range(len(p.vars)) if i not in idxs]
        expected = Poly(tuple(p.vars[i] for i in keep), {
            tuple(e[i] for i in keep): c for e, c in p.terms.items() if all(e[i] == k for i, k in idxs.items())
        })
        assert p.coefficient(fixed) == expected and p.coefficient(fixed).vars == expected.vars

    def test_extend_table_round_trip(self):
        x, y, _ = ring(XYZ)
        p = x * y + 2
        wide = p.extend_table(("w",) + XYZ)
        assert wide.vars == ("w", "x", "y", "z")
        assert str(wide) == str(p)

    def test_normalized_is_primitive_with_positive_leading(self):
        x, y, _ = ring(XYZ)
        p = Fraction(-2, 3) * x * y + Fraction(4, 3) * y
        n = p.normalized()
        assert n == x * y - 2 * y

    @given(nonzero_polys)
    def test_normalized_is_scalar_multiple(self, p):
        n = p.normalized()
        _, lead_n = n.leading()
        _, lead_p = p.leading()
        assert n * lead_p == p * lead_n
        assert lead_n > 0


class TestUnivariateRoots:
    def test_distinct_root_counts(self):
        t = Poly.variable(("t",), "t")
        assert squarefree_distinct_root_count(t) == (1, True)
        assert squarefree_distinct_root_count(t ** 2 - 1) == (2, True)
        assert squarefree_distinct_root_count(t ** 2) == (1, False)
        assert squarefree_distinct_root_count(t ** 3 - t) == (3, True)
        assert squarefree_distinct_root_count((2 * t - 1) * (t + 3)) == (2, True)
        assert squarefree_distinct_root_count((t - 1) ** 2 * (t + 1)) == (2, False)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            squarefree_distinct_root_count(Poly.const(("t",), 5))
        with pytest.raises(ValueError):
            squarefree_distinct_root_count(Poly.zero(("t",)))

    def test_multivariate_input_rejected(self):
        x, y, _ = ring(XYZ)
        with pytest.raises(ValueError):
            squarefree_distinct_root_count(x * y)


# distinct linear factors b*t - a (root a/b) with multiplicities, an optional
# t^2 + c (c > 0, two non-real roots) with its multiplicity, and a rational unit
root_factors = st.lists(
    st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=5), st.integers(1, 3)),
    max_size=4,
    unique_by=lambda factor: factor[0],
)
quadratic_factor = st.none() | st.tuples(st.integers(1, 9), st.integers(1, 3))
units = st.fractions(min_value=-7, max_value=7, max_denominator=6).filter(bool)


class TestRootCountProperty:
    @given(root_factors, quadratic_factor, units, st.sampled_from([("t",), ("s", "t")]))
    def test_count_and_flag_of_a_factored_product(self, roots, quadratic, unit, table):
        assume(roots or quadratic)
        t = Poly.variable(table, "t")
        p = Poly.const(table, unit)
        multiplicities = []
        for root, k in roots:
            p = p * (root.denominator * t - root.numerator) ** k
            multiplicities.append(k)
        if quadratic is not None:
            c, k = quadratic
            p = p * (t ** 2 + c) ** k
            multiplicities.append(k)
        expected = len(roots) + (2 if quadratic is not None else 0)
        assert squarefree_distinct_root_count(p) == (expected, all(k == 1 for k in multiplicities))

    def test_error_messages_in_check_order(self):
        x, y, _ = ring(XYZ)
        with pytest.raises(ValueError, match=r"^root counting needs a non-constant univariate polynomial$"):
            squarefree_distinct_root_count(Poly.zero(XYZ))
        with pytest.raises(ValueError, match=r"^root counting needs a non-constant univariate polynomial$"):
            squarefree_distinct_root_count(Poly.const(XYZ, 3))
        with pytest.raises(ValueError, match=r"^expected a univariate polynomial, got one in \('x', 'y'\)$"):
            squarefree_distinct_root_count(x * y + 1)


class TestExponentEnumeration:
    def test_counts(self):
        assert len(list(exponents_of_degree(3, 2))) == 6
        # the constant exponent is deliberately excluded
        assert len(list(exponents_up_to_degree(2, 3))) == 9

    def test_graded_order_is_deterministic(self):
        listed = list(exponents_of_degree(2, 2))
        assert listed == [(2, 0), (1, 1), (0, 2)]

    def test_degree_zero(self):
        assert list(exponents_of_degree(3, 0)) == [(0, 0, 0)]


def _fraction_render(p):
    """Reference rendering on ``Fraction`` operations: sign by ``> 0``, magnitude by ``abs`` and ``str``."""
    if not p.terms:
        return "0"
    parts = []
    for exponent in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = p.terms[exponent]
        factors = []
        for name, e in zip(p.vars, exponent):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


render_coeffs = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
render_exponents = st.one_of(st.just((0, 0, 0)), exponent3)
rendered_polys = st.dictionaries(render_exponents, render_coeffs, max_size=6).map(_poly)


class TestRendering:
    def test_string_forms(self):
        x, y, _ = ring(XYZ)
        assert str(Poly.zero(XYZ)) == "0"
        assert str(x - y) == "x - y"
        assert str(-x) == "-x"
        assert str(Fraction(1, 2) * x) == "1/2*x"
        assert str(x ** 2 - 2 * x * y + 1) == "x^2 - 2*x*y + 1"

    @given(rendered_polys)
    def test_matches_fraction_rendering(self, p):
        assert str(p) == _fraction_render(p)

    def test_hash_consistent_with_equality(self):
        x, _, _ = ring(XYZ)
        assert hash(x + 1 - 1) == hash(x)
        assert len({x, x + 0}) == 1


# ----------------------------------------------------------------------
# the one coefficient format


def _assert_canonical(p):
    """``nums`` over ``den`` in lowest terms, and ``terms`` the same coefficients as ``Fraction``s."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.terms == {e: Fraction(n, p.den) for e, n in p.nums.items()}


def _assert_equal_exactly_when_terms_agree(made):
    for a, b in itertools.combinations(made, 2):
        same = a.vars == b.vars and dict(a.terms) == dict(b.terms)
        assert (a == b) is same
        if same:
            assert hash(a) == hash(b)


_SPECS = (RepSpec((1, 1)), RepSpec((2, 1, 1), normalization="unit"), RepSpec((3,)))


@lru_cache(maxsize=None)
def _kernel(spec):
    return tuple(graded_kernel_generators(build_derivation(spec), 2))


class TestCanonicalForm:
    """Every way a ``Poly`` is made ends in the one canonical form, which ``==`` and ``hash`` read."""

    @given(polys, polys, coeffs.filter(bool), st.integers(min_value=-3, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_every_operation(self, p, q, c, k, power):
        _, y, z = ring(XYZ)
        d = Derivation(XYZ, {"x": y * Fraction(1, 2), "y": z * Fraction(-2, 3)})
        made = [
            p, Poly.const(XYZ, c), Poly.monomial(XYZ, (1, 0, 2), c), parse(str(p), XYZ),
            p + q, p - q, p * q, p * c, c * p, p * k, p * 0, p ** power,
            p.partial("x"), p.coefficient({"y": 1}), p.extend_table(("w", *XYZ)), p.normalized(),
            p.substitute({"x": q, "y": c}), apply(d, p), *weight_components(p, {"x": 1, "y": -1, "z": 2}).values(),
            p * c * (1 / c), (p + q) - q, Poly(XYZ, dict(p.terms)),
        ]
        for r in made:
            _assert_canonical(r)
        _assert_equal_exactly_when_terms_agree(made)

    @given(st.sampled_from(_SPECS), st.lists(
        st.tuples(coeffs.filter(bool), st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=2)),
        min_size=1, max_size=3,
    ), coeffs)
    def test_extension_and_kernel_generators(self, spec, picks, constant):
        generators = _kernel(spec)
        f = Poly.const(spec.coord_names, constant)
        for c, indices in picks:
            product = Poly.const(spec.coord_names, c)
            for i in indices:
                product = product * generators[i % len(generators)]
            f = f + product
        result = extend(spec, f)
        made = [*generators, f, result.extension, result.f00, result.boundary_part]
        for r in made:
            _assert_canonical(r)
        _assert_equal_exactly_when_terms_agree(made)
        assert result.f00 + result.boundary_part == f

    def test_negative_ladder_divisor(self):
        # E^j(f) lies over (-1)^j * j! * den * Dd^j; here the last layer is j = 1, a negative divisor
        spec = RepSpec((1, 1))
        extension = extend(spec, parse("2*w0^2*w3 - 2*w0*w1*w2 + 3", spec.coord_names)).extension
        _assert_canonical(extension)
        assert extension == Poly(extension.vars, dict(extension.terms))
