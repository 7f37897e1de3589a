from __future__ import annotations

from fractions import Fraction

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaquot.errors import ExprSyntaxError
from gaquot.expr import MAX_EXPONENT, MAX_TERMS, parse
from gaquot.poly import Poly, ring

W = ("w0", "w1", "w2")

# (text, error position) pairs; positions are part of the contract
MALFORMED = [
    ("w0 + ", 5),
    ("(w0", 3),
    ("w0 ^^ 2", 4),
    ("w0 + $", 5),
    ("", 0),
    ("2 ** w0", 3),
    ("w0 w1", 3),
    ("w0 + q*w1", 5),
    ("3/0", 2),
    ("w0^(2)", 3),
    (")w0", 0),
    ("1..5", 1),
]


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

    def test_term_cap(self):
        with pytest.raises(ExprSyntaxError, match=str(MAX_TERMS)) as info:
            parse("(w0+w1+w2+w3+w4+w5)^30")
        assert info.value.position == 19


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

    def test_unknown_variable_message_names_it(self):
        with pytest.raises(ExprSyntaxError, match="q"):
            parse("w0 + q", W)


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
