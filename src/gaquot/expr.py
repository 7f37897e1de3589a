"""Recursive-descent parser for polynomial expressions.

Grammar (EBNF)::

    expr     = term { ("+" | "-") term } ;
    term     = factor { "*" factor } ;
    factor   = { "+" | "-" } atom [ "^" integer ] ;
    atom     = rational | identifier | "(" expr ")" ;
    rational = integer [ "/" integer ] ;

Multiplication is always explicit, ``^`` takes a non-negative integer
exponent, and ``/`` appears only inside rational literals such as
``5/3``.  Syntax errors carry the character offset of the offending
token.  The variable table is fixed before parsing: ``parse(text,
variables)`` checks identifiers against the given table, ``parse(text)``
takes them in order of first appearance, and every exponent is as wide
as the table.

Products of the light term lists run on ``poly._times``, which merges
like monomials.  Two caps bound the work of one parse: an exponent
above ``MAX_EXPONENT`` and a product of two factors with more than
``MAX_TERMS`` term pairs are syntax errors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import ExprSyntaxError
from .poly import Poly, _times

_OPS = set("+-*^/()")

MAX_EXPONENT = 100
MAX_TERMS = 50000
_SLASH_MESSAGE = "'/' is only allowed inside rational literals"


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# A term is (exponent tuple over the parser's variable table, coefficient).
_Term = Tuple[Tuple[int, ...], Union[int, Fraction]]


class _Parser:
    def __init__(self, tokens: List[_Token], variables: Optional[Sequence[str]]):
        self.tokens = tokens
        self.index = 0
        if variables is None:
            variables = dict.fromkeys(tok.text for tok in tokens if tok.kind == "ident")
        self.variables: Tuple[str, ...] = tuple(variables)
        self.place = {name: i for i, name in enumerate(self.variables)}
        self.one: Tuple[int, ...] = (0,) * len(self.variables)

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    # each parse method returns a list of terms

    def parse_expr(self) -> List[_Term]:
        terms = self.parse_term()
        while self.peek().kind in "+-":
            op = self.advance().kind
            rhs = self.parse_term()
            if op == "-":
                rhs = [(m, -c) for m, c in rhs]
            terms = terms + rhs
        return terms

    def parse_term(self) -> List[_Term]:
        acc = self.parse_factor()
        while self.peek().kind == "*":
            star = self.advance()
            rhs = self.parse_factor()
            acc = self.multiply(acc, rhs, star.pos)
        if self.peek().kind == "/":  # a rational literal has consumed its own slash
            raise ExprSyntaxError(_SLASH_MESSAGE, self.peek().pos)
        return acc

    def parse_factor(self) -> List[_Term]:
        sign = 1
        while self.peek().kind in "+-":
            if self.advance().kind == "-":
                sign = -sign
        base = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ExprSyntaxError("exponent must be a non-negative integer", tok.pos if tok.kind != "end" else caret.pos)
            power = int(self.advance().text)
            if power > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent {power} exceeds the cap of {MAX_EXPONENT}", tok.pos)
            result: List[_Term] = [(self.one, 1)]
            for _ in range(power):
                result = self.multiply(result, base, caret.pos)
            base = result
        if sign < 0:
            base = [(m, -c) for m, c in base]
        return base

    def parse_atom(self) -> List[_Term]:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value: Union[int, Fraction] = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den = self.peek()
                if den.kind != "int":
                    raise ExprSyntaxError("expected an integer denominator", den.pos)
                self.advance()
                if int(den.text) == 0:
                    raise ExprSyntaxError("zero denominator", den.pos)
                value = Fraction(value, int(den.text))
            return [(self.one, value)]
        if tok.kind == "ident":
            self.advance()
            i = self.place.get(tok.text)
            if i is None:  # only a given table can miss a name
                raise ExprSyntaxError(f"unknown variable {tok.text!r}", tok.pos)
            return [(self.one[:i] + (1,) + self.one[i + 1:], 1)]
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ExprSyntaxError("unbalanced parenthesis", closing.pos)
            self.advance()
            return inner
        if tok.kind == "/":
            raise ExprSyntaxError(_SLASH_MESSAGE, tok.pos)
        msg = "unexpected end of input" if tok.kind == "end" else f"unexpected token {tok.text!r}"
        raise ExprSyntaxError(msg, tok.pos)

    def multiply(self, lhs: List[_Term], rhs: List[_Term], pos: int) -> List[_Term]:
        """Product with like monomials merged; ``pos`` locates a cap violation."""
        if len(lhs) * len(rhs) > MAX_TERMS:
            raise ExprSyntaxError(
                f"product of {len(lhs)} by {len(rhs)} terms exceeds the cap of {MAX_TERMS} term products", pos
            )
        return list(_times(lhs, rhs).items())


def parse(text: str, variables: Optional[Sequence[str]] = None) -> Poly:
    """Parse an expression into a :class:`Poly`.

    With ``variables`` the identifier set is fixed and unknown names are
    syntax errors; without it the table is collected in order of first
    appearance.
    """
    parser = _Parser(_tokenize(text), variables)
    terms = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected token {trailing.text!r}", trailing.pos)
    accum: Dict[Tuple[int, ...], Union[int, Fraction]] = {}
    for mono, coeff in terms:
        accum[mono] = accum.get(mono, 0) + coeff
    return Poly(parser.variables, accum)
