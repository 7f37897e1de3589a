from __future__ import annotations

from fractions import Fraction

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expr_cases import LEFT_TO_RIGHT, LEFT_TO_RIGHT_REFUSED, MALFORMED, W
from gaquot.errors import ExprSyntaxError
from gaquot.expr import MAX_COEFFICIENT_BITS, MAX_DEPTH, MAX_EXPONENT, MAX_TERMS, parse
from gaquot.poly import Poly, ring


class TestParsing:
    def test_literals_and_precedence(self):
        w0, w1, _ = ring(W)
        assert parse("2*w0 + 3*w1^2", W) == 2 * w0 + 3 * w1 ** 2
        assert parse("w0 - w1 - 1", W) == w0 - w1 - 1
        assert parse("-w0^2", W) == -(w0 ** 2)
        assert parse("(w0 + w1)^2", W) == w0 ** 2 + 2 * w0 * w1 + w1 ** 2
        assert parse("2*3*w0", W) == 6 * w0

    def test_fraction_coefficients(self):
        w0, _, _ = ring(W)
        assert parse("1/2*w0", W) == Fraction(1, 2) * w0
        assert parse("-3/4", W) == Poly.const(W, Fraction(-3, 4))

    def test_declare_on_use_table(self):
        # without a declared table, variables enter in order of first use
        p = parse("b*a + c")
        assert p.vars == ("b", "a", "c")

    def test_strict_table_fixes_order(self):
        p = parse("w2 + w0", W)
        assert p.vars == W

    def test_whitespace_insensitive(self):
        assert parse("w0+w1", W) == parse("  w0 +  w1 ", W)
        assert parse("w0 + w1\x1c*\u3000 2", W) == parse("w0 + 2*w1", W)  # str.isspace takes both

    def test_constant_expression(self):
        assert parse("7", W) == Poly.const(W, 7)
        assert parse("2^3", W) == Poly.const(W, 8)


class TestExpansion:
    def test_power_of_sum_merges_like_terms(self):
        w = ring(("w0", "w1", "w2", "w3"))
        start = time.perf_counter()
        p = parse("(w0+w1+w2+w3)^10")
        elapsed = time.perf_counter() - start
        assert p == (w[0] + w[1] + w[2] + w[3]) ** 10
        assert len(p.terms) == 286
        assert elapsed < 1.0

    def test_cancelling_product(self):
        assert parse("(w0 + w1)*(w0 - w1) + w1^2", W) == parse("w0^2", W)

    def test_exponent_cap(self):
        assert parse(f"w0^{MAX_EXPONENT}", W) == Poly.monomial(W, (MAX_EXPONENT, 0, 0))
        with pytest.raises(ExprSyntaxError, match="cap") as info:
            parse(f"w0 + w1^{MAX_EXPONENT + 1}", W)
        assert info.value.position == 8

    def test_coefficient_bit_cap(self):
        assert parse("(2^100)^100", W) == Poly.const(W, 2 ** 10000)
        assert parse("-((2^100)^100)^100", W) == Poly.const(W, -2 ** 1000000)  # 100 * 10001 bits at most
        with pytest.raises(ExprSyntaxError, match=f"cap of {MAX_COEFFICIENT_BITS} bits") as info:
            parse("((((2^100)^100)^100)^100)^100", W)
        assert info.value.position == 21

    @pytest.mark.parametrize("text,position", [
        ("9" * 4000 + "^100", 4001),
        ("w0*(" + "9" * 4000 + ")^100", 4006),
        ("1/" + "9" * 4000 + "^100", 4003),
    ], ids=["run", "one-term factor", "denominator"])
    def test_coefficient_bit_cap_is_checked_before_the_power(self, text, position):
        # 4000 digits are 13,288 bits: a hundredth power would pass the cap of 2^20
        with pytest.raises(ExprSyntaxError, match=f"cap of {MAX_COEFFICIENT_BITS} bits") as info:
            parse(text, W)
        assert info.value.position == position

    def test_term_cap(self):
        with pytest.raises(ExprSyntaxError, match=str(MAX_TERMS)) as info:
            parse("(w0+w1+w2+w3+w4+w5)^30")
        assert info.value.position == 19

    @pytest.mark.parametrize("zero", ["0^2", "0*w2", "(w2 - w2)^2"])
    def test_a_vanished_factor_adds_no_term_to_the_pair_count(self, zero):
        # 250 unmerged terms by 200: exactly the cap of term products, so one more term would exceed it
        lhs = "(" + zero + " + " + " + ".join(["w0"] * 250) + ")"
        rhs = "(" + " + ".join(["w1"] * 200) + ")"
        assert parse(f"{lhs} * {rhs}", W) == Poly.monomial(W, (1, 1, 0), MAX_TERMS)
        assert parse(f"{zero} * {rhs} * {rhs} * {rhs}", W).is_zero

    def test_a_unit_power_counts_as_one_term(self):
        lhs = "(0^0 + " + " + ".join(["w0"] * 250) + ")"
        with pytest.raises(ExprSyntaxError, match="product of 251 by 200 terms"):
            parse(lhs + " * (" + " + ".join(["w1"] * 200) + ")", W)

    def test_depth_cap(self):
        assert parse("(" * MAX_DEPTH + "w0" + ")" * MAX_DEPTH, W) == parse("w0", W)
        assert parse("(w1)*" * 300 + "w0", W) == Poly.monomial(W, (1, 300, 0))  # siblings do not nest
        with pytest.raises(ExprSyntaxError, match=f"cap of {MAX_DEPTH}") as info:
            parse("w0 + " + "(" * 250 + "w1" + ")" * 250, W)
        assert info.value.position == 5 + MAX_DEPTH


class TestLeftToRight:
    """A term's products run left to right, each merging like terms before the next."""

    @pytest.mark.parametrize("text,expected", [case[1:] for case in LEFT_TO_RIGHT],
                             ids=[case[0] for case in LEFT_TO_RIGHT])
    def test_merged_products(self, text, expected):
        assert parse(text, W) == parse(expected, W)

    @pytest.mark.parametrize("text,position,pairs", [case[1:] for case in LEFT_TO_RIGHT_REFUSED],
                             ids=[case[0] for case in LEFT_TO_RIGHT_REFUSED])
    def test_refused_products(self, text, position, pairs):
        with pytest.raises(ExprSyntaxError, match=f"product of {pairs} terms exceeds the cap of {MAX_TERMS}") as info:
            parse(text, W)
        assert info.value.position == position


class TestErrors:
    @pytest.mark.parametrize("text,position", MALFORMED)
    def test_malformed_input_positions(self, text, position):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text, W)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text,position", [("(w1/2)", 3), ("2*(x/3)", 4), ("w1/2", 2), ("x^2/3", 3)]
    )
    def test_slash_outside_a_literal(self, text, position):
        with pytest.raises(ExprSyntaxError, match="'/' is only allowed inside rational literals") as info:
            parse(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text,position", [("x\u00b2 + 1", 1), ("x\u0663", 1), ("\u00e9 + 1", 0)])
    def test_non_ascii_identifier_without_a_table(self, text, position):
        with pytest.raises(ExprSyntaxError, match="unexpected character") as info:
            parse(text)
        assert info.value.position == position

    def test_unknown_variable_message_names_it(self):
        with pytest.raises(ExprSyntaxError, match="q"):
            parse("w0 + q", W)

    @pytest.mark.parametrize("text", ["w0", "2*w0^2 - 1", "3/2", "0"])
    def test_duplicate_names_in_a_given_table(self, text):
        with pytest.raises(ValueError) as info:
            parse(text, ("w0", "w0"))
        assert str(info.value) == "duplicate variable names in table ('w0', 'w0')"


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
exponent3 = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
polys = st.dictionaries(exponent3, coeffs, max_size=7).map(lambda t: Poly(W, t))


class TestRoundTrip:
    @given(polys)
    def test_parse_inverts_render(self, p):
        assert parse(str(p), W) == p


# An expression tree is (text, value, level): the text is in the grammar
# and parses at the level given (0 atom, 1 factor, 2 term, 3 expr); the
# value is the same tree built with ``Poly`` arithmetic.


def _at(node, level):
    """``node``'s text, parenthesised unless it parses at ``level`` or below."""
    text, _, own = node
    return text if own <= level else f"({text})"


literals = st.one_of(
    st.sampled_from(W).map(lambda name: (name, Poly.variable(W, name), 0)),
    st.just(("0", Poly.zero(W), 0)),
    st.integers(min_value=1, max_value=12).map(lambda n: (str(n), Poly.const(W, n), 0)),
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=6)).map(
        lambda nd: (f"{nd[0]}/{nd[1]}", Poly.const(W, Fraction(*nd)), 0)
    ),
)


def _compound(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda ab: (f"{_at(ab[0], 3)} + {_at(ab[1], 2)}", ab[0][1] + ab[1][1], 3)),
        pairs.map(lambda ab: (f"{_at(ab[0], 3)} - {_at(ab[1], 2)}", ab[0][1] - ab[1][1], 3)),
        pairs.map(lambda ab: (f"{_at(ab[0], 2)}*{_at(ab[1], 1)}", ab[0][1] * ab[1][1], 2)),
        st.tuples(children, st.integers(min_value=0, max_value=3)).map(
            lambda bk: (f"{_at(bk[0], 0)}^{bk[1]}", bk[0][1] ** bk[1], 1)
        ),
        st.tuples(st.sampled_from("+-"), children).map(
            lambda sx: (sx[0] + _at(sx[1], 1), -sx[1][1] if sx[0] == "-" else sx[1][1], 1)
        ),
    )


expressions = st.recursive(literals, _compound, max_leaves=10)


class TestArithmeticOracle:
    """``parse`` against the same tree built with ``Poly`` arithmetic."""

    @given(expressions)
    def test_parse_matches_poly_arithmetic(self, tree):
        text, value, _ = tree
        assert parse(text, W) == value

    @pytest.mark.parametrize("text,expected", [
        ("0^0", lambda w0, w1: w0 ** 0),
        ("0*w0", lambda w0, w1: 0 * w0),
        ("w0^0", lambda w0, w1: w0 ** 0),
        ("(3/2)^0", lambda w0, w1: w0 ** 0),
        ("(w0 - w0)^2", lambda w0, w1: 0 * w0),
        ("0^2*(w0 + w1)", lambda w0, w1: 0 * w0),
        ("-(2*w0)^3", lambda w0, w1: -8 * w0 ** 3),
        ("(-1/2*w1)^2*w0", lambda w0, w1: Fraction(1, 4) * w1 ** 2 * w0),
    ])
    def test_monomial_shortcuts(self, text, expected):
        w0, w1, _ = ring(W)
        assert parse(text, W) == expected(w0, w1)
