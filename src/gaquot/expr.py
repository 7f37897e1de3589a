"""Recursive-descent parser for polynomial expressions.

Grammar (EBNF)::

    expr     = term { ("+" | "-") term } ;
    term     = factor { "*" factor } ;
    factor   = { "+" | "-" } atom [ "^" integer ] ;
    atom     = rational | identifier | "(" expr ")" ;
    rational = integer [ "/" integer ] ;

Multiplication is always explicit, ``^`` takes a non-negative integer
exponent, and ``/`` appears only inside rational literals such as
``5/3``.  An integer is a run of the ASCII digits ``0``-``9``.  Syntax
errors carry the character offset of the offending token.  The variable
table is fixed before parsing: ``parse(text, variables)`` checks
identifiers against the given table, ``parse(text)`` takes them in order
of first appearance, and every exponent is as wide as the table.

Each rule returns a list of ``(exponent, coefficient)`` terms, which a
sum extends.  A product of two monomials adds their exponents and a
power of one scales its exponent; a product with a longer operand runs
on ``poly._times``, which merges like monomials.  A vanished
coefficient leaves an empty list either way.  Three caps bound the work
of one parse: an exponent above ``MAX_EXPONENT``, a product of two
factors with more than ``MAX_TERMS`` term pairs and parentheses nested
deeper than ``MAX_DEPTH`` are syntax errors.  An all-integer result is
already canonical: only its table goes through ``Poly``'s duplicate-name
check (``poly._table``) before ``poly._raw`` builds it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import ExprSyntaxError
from .poly import Poly, _raw, _table, _times

_OPS = set("+-*^/()")

MAX_EXPONENT = 100
MAX_TERMS = 50000
MAX_DEPTH = 100
_SLASH_MESSAGE = "'/' is only allowed inside rational literals"


# A token is (kind, text, pos): kind is an operator character, "int", "ident" or "end".
_Token = Tuple[str, str, int]


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
            tokens.append((ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":  # not ``str.isdigit``, which also takes "²" (``int`` refuses it) and "٣" (read as 3)
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# A term is (exponent tuple over the parser's variable table, coefficient).
_Term = Tuple[Tuple[int, ...], Union[int, Fraction]]


class _Parser:
    def __init__(self, tokens: List[_Token], variables: Optional[Sequence[str]]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # parentheses open around the current token
        if variables is None:
            variables = dict.fromkeys(text for kind, text, _ in tokens if kind == "ident")
        self.variables: Tuple[str, ...] = tuple(variables)
        self.place = {name: i for i, name in enumerate(self.variables)}
        self.one: Tuple[int, ...] = (0,) * len(self.variables)

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    # each parse method returns a fresh list of terms, which its caller may extend

    def parse_expr(self) -> List[_Term]:
        terms = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            rhs = self.parse_term()
            terms.extend(rhs if op == "+" else [(m, -c) for m, c in rhs])
        return terms

    def parse_term(self) -> List[_Term]:
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            star = self.advance()[2]
            acc = self.multiply(acc, self.parse_factor(), star)
        if self.peek()[0] == "/":  # a rational literal has consumed its own slash
            raise ExprSyntaxError(_SLASH_MESSAGE, self.peek()[2])
        return acc

    def parse_factor(self) -> List[_Term]:
        sign = 1
        while self.peek()[0] in "+-":
            if self.advance()[0] == "-":
                sign = -sign
        base = self.parse_atom()
        if self.peek()[0] == "^":
            caret = self.advance()[2]
            kind, text, pos = self.peek()
            if kind != "int":
                raise ExprSyntaxError("exponent must be a non-negative integer", pos if kind != "end" else caret)
            self.advance()
            power = int(text)
            if power > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent {power} exceeds the cap of {MAX_EXPONENT}", pos)
            if len(base) == 1:  # one monomial: scale its exponent, power its coefficient
                (e, c), = base
                c = c ** power
                base = [(tuple([x * power for x in e]), c)] if c else []
            else:
                result: List[_Term] = [(self.one, 1)]
                for _ in range(power):
                    result = self.multiply(result, base, caret)
                base = result
        if sign < 0:
            base = [(m, -c) for m, c in base]
        return base

    def parse_atom(self) -> List[_Term]:
        kind, text, pos = self.advance()
        if kind == "int":
            value: Union[int, Fraction] = int(text)
            if self.peek()[0] == "/":
                self.advance()
                kind, den, pos = self.peek()
                if kind != "int":
                    raise ExprSyntaxError("expected an integer denominator", pos)
                self.advance()
                if int(den) == 0:
                    raise ExprSyntaxError("zero denominator", pos)
                value = Fraction(value, int(den))
            return [(self.one, value)]
        if kind == "ident":
            i = self.place.get(text)
            if i is None:  # only a given table can miss a name
                raise ExprSyntaxError(f"unknown variable {text!r}", pos)
            return [(self.one[:i] + (1,) + self.one[i + 1:], 1)]
        if kind == "(":
            if self.depth == MAX_DEPTH:
                raise ExprSyntaxError(f"parentheses nested deeper than the cap of {MAX_DEPTH}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            kind, _, pos = self.advance()
            if kind != ")":
                raise ExprSyntaxError("unbalanced parenthesis", pos)
            return inner
        if kind == "/":
            raise ExprSyntaxError(_SLASH_MESSAGE, pos)
        msg = "unexpected end of input" if kind == "end" else f"unexpected token {text!r}"
        raise ExprSyntaxError(msg, pos)

    def multiply(self, lhs: List[_Term], rhs: List[_Term], pos: int) -> List[_Term]:
        """Product with like monomials merged; ``pos`` locates a cap violation."""
        if len(lhs) == 1 == len(rhs):  # two monomials: add the exponents
            (e1, c1), = lhs
            (e2, c2), = rhs
            c = c1 * c2
            return [(tuple(map(add, e1, e2)), c)] if c else []
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
    kind, trailing, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected token {trailing!r}", pos)
    accum: Dict[Tuple[int, ...], Union[int, Fraction]] = {}
    get = accum.get
    for mono, coeff in terms:
        accum[mono] = get(mono, 0) + coeff
    if all(type(c) is int for c in accum.values()):
        return _raw(_table(parser.variables), {m: c for m, c in accum.items() if c})
    return Poly(parser.variables, accum)  # validates the table and clears the Fractions
