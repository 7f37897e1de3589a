"""Recursive-descent parser for polynomial expressions.

Grammar (EBNF)::

    expr     = term { ("+" | "-") term } ;
    term     = factor { "*" factor } ;
    factor   = { "+" | "-" } atom [ "^" integer ] ;
    atom     = rational | identifier | "(" expr ")" ;
    rational = integer [ "/" integer ] ;

Multiplication is always explicit, ``^`` takes a non-negative integer
exponent, and ``/`` appears only inside rational literals such as
``5/3``.  An integer is a run of the ASCII digits ``0``-``9``; an
identifier is ASCII letters, digits and ``_``, not led by a digit.
Syntax errors carry the character offset of the offending token.  The
variable table is fixed before parsing: ``parse(text, variables)``
checks identifiers against it, ``parse(text)`` takes them in order of
first appearance, and every exponent is as wide as the table.

Each rule returns a list of ``(exponent, coefficient)`` terms, which a
sum extends.  A term folds its leading run of number and name factors
into one exponent list and coefficient, then multiplies on left to
right: two monomials add exponents, a longer product runs on
``poly._times``, which merges like monomials, and a power of one
monomial scales its exponent.  Four caps bound one parse: an exponent
above ``MAX_EXPONENT``, a coefficient power that could pass
``MAX_COEFFICIENT_BITS`` bits, a product of two factors with more than
``MAX_TERMS`` term pairs and parentheses nested deeper than
``MAX_DEPTH`` are syntax errors.  An all-integer result is already
canonical: only its table goes through ``Poly``'s duplicate-name check
(``poly._table``) before ``poly._raw`` builds it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import ExprSyntaxError
from .poly import Poly, _raw, _table, _times

_OPS = frozenset("+-*^/()")
_DIGITS = frozenset("0123456789")
_NAME = frozenset("_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")  # so "x²" is not a name

MAX_EXPONENT = 100
MAX_COEFFICIENT_BITS = 1 << 20
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
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch in _DIGITS:  # not ``str.isdigit``, which also takes "²" (``int`` refuses it) and "٣" (read as 3)
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch in _NAME:  # a letter or "_": digits were taken above
            j = i + 1
            while j < n and text[j] in _NAME:
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif ch.isspace():
            i += 1
        else:
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
        terms, tokens = self.parse_term(1), self.tokens
        while tokens[self.index][0] in "+-":
            self.index += 1
            terms += self.parse_term(-1 if tokens[self.index - 1][0] == "-" else 1)
        return terms

    def parse_term(self, sign: int) -> List[_Term]:
        """The factors' product, its leading run folded; ``sign`` joins the first factor's signs."""
        tokens, place = self.tokens, self.place
        exponent, coeff, folded = [0] * len(self.variables), 1, 0  # folded counts the run's factors
        while True:
            while tokens[self.index][0] in "+-":
                sign = -sign if tokens[self.index][0] == "-" else sign
                self.index += 1
            kind = tokens[self.index][0]
            if kind == "int":
                value = self.parse_rational()
                bare = tokens[self.index][0] != "^"  # a lone zero literal stays one term
                coeff *= value if bare else self.parse_power(value)[1]
            elif kind == "ident":
                i = place.get(tokens[self.index][1])
                if i is None:
                    self.parse_atom()  # refuses the unknown name
                self.index += 1
                exponent[i] += 1 if tokens[self.index][0] != "^" else self.parse_power()[0]
            else:
                break
            folded += 1
            if tokens[self.index][0] != "*":
                break
            star = tokens[self.index][2]
            self.index += 1
        if folded:  # the run enters as one term, or as none if a product or power in it vanished
            acc = [(tuple(exponent), -coeff if sign < 0 else coeff)] if coeff or (folded == 1 and bare) else []
        if kind != "int" and kind != "ident":  # a parenthesized factor ends the run
            acc = self.multiply(acc, self.parse_factor(), star) if folded else self.parse_factor(sign)
        while self.peek()[0] == "*":
            star = self.advance()[2]
            acc = self.multiply(acc, self.parse_factor(), star)
        if tokens[self.index][0] == "/":  # a rational literal has consumed its own slash
            raise ExprSyntaxError(_SLASH_MESSAGE, tokens[self.index][2])
        return acc

    def parse_factor(self, sign: int = 1) -> List[_Term]:
        while self.peek()[0] in "+-":
            if self.advance()[0] == "-":
                sign = -sign
        base = self.parse_atom()
        if self.peek()[0] == "^":
            caret = self.peek()[2]
            if len(base) == 1:  # one monomial: scale its exponent, power its coefficient
                (e, c), = base
                power, c = self.parse_power(c)
                base = [(tuple([x * power for x in e]), c)] if c else []
            else:
                result: List[_Term] = [(self.one, 1)]
                for _ in range(self.parse_power()[0]):
                    result = self.multiply(result, base, caret)
                base = result
        if sign < 0:
            base = [(m, -c) for m, c in base]
        return base

    def parse_power(self, c: Union[int, Fraction] = 1) -> Tuple[int, Union[int, Fraction]]:
        """The exponent after the current ``^``, and ``c`` to that power if it cannot pass the bit cap."""
        caret = self.advance()[2]
        kind, text, pos = self.peek()
        if kind != "int":
            raise ExprSyntaxError("exponent must be a non-negative integer", pos if kind != "end" else caret)
        self.advance()
        power = int(text)
        if power > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent {power} exceeds the cap of {MAX_EXPONENT}", pos)
        bits = power * max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > MAX_COEFFICIENT_BITS:
            raise ExprSyntaxError(f"coefficient power of up to {bits} bits exceeds the cap of {MAX_COEFFICIENT_BITS} bits", pos)
        return power, c ** power

    def parse_rational(self) -> Union[int, Fraction]:
        value: Union[int, Fraction] = int(self.tokens[self.index][1])
        self.index += 1
        if self.tokens[self.index][0] == "/":
            self.index += 1
            kind, den, pos = self.advance()
            if kind != "int":
                raise ExprSyntaxError("expected an integer denominator", pos)
            if int(den) == 0:
                raise ExprSyntaxError("zero denominator", pos)
            value = Fraction(value, int(den))
        return value

    def parse_atom(self) -> List[_Term]:
        kind, text, pos = self.peek()
        if kind == "int":
            return [(self.one, self.parse_rational())]
        self.index += 1
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
