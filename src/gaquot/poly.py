"""Sparse exact multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero ``Fraction``
coefficients together with an ordered tuple of variable names.  The
variable table is part of the value: operations combine two polynomials
only when their tables are identical, and a mismatch raises instead of
silently unioning variables.  The zero polynomial has an empty term map.

Monomials are ordered graded-lexicographically: higher total degree
first, ties broken by comparing exponent vectors left to right, so
earlier variables in the table are more significant.  Rendering and all
deterministic generator listings use this order.

Coefficients are ``fractions.Fraction`` throughout, so every computed
number is exact, in lowest terms, with positive denominator.

Denominators are cleared by one helper, ``_cleared``: a sequence of
rationals becomes their common denominator ``q`` and the integer
numerators over it.  Every integer form of the package is built
through it (point evaluation, ``normalized``, the candidate table of
the rational-point search, the Leibniz kernel of ``derivations`` and
the integer rows of ``linalg``).

Point evaluation runs on a cached integer form: on first use a
polynomial stores its coefficients cleared to one denominator, and the
kernel ``scaled_value`` takes a point already cleared the same way and
sums plain ``int`` products.  ``evaluate`` wraps it and builds one
``Fraction``; the rational-point search of witness search and boundary
sampling calls the kernel directly and only tests the sum against
zero.  The cache is safe because a ``Poly`` never changes after
construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import NotDivisible, VariableTableMismatch

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]
# (D, ((c*D, ((var index, exponent), ...), degree), ...), top degree)
IntForm = Tuple[int, Tuple[Tuple[int, Tuple[Tuple[int, int], ...], int], ...], int]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _cleared(values: Sequence[Scalar]) -> Tuple[int, List[int]]:
    """``(q, [v*q, ...])`` for ``q`` the lcm of the denominators; ``q = 1`` when empty."""
    q = lcm(*[v.denominator for v in values])
    if q == 1:
        return 1, [v.numerator for v in values]
    return q, [v.numerator * (q // v.denominator) for v in values]


def grlex_key(exponent: Exponent) -> Tuple[int, Exponent]:
    """Sort key putting the graded-lex largest monomial last under ``sorted``."""
    return (sum(exponent), exponent)


class Poly:
    """Immutable sparse polynomial over a fixed variable table."""

    __slots__ = ("vars", "terms", "_int_form")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Scalar]):
        vt = tuple(variables)
        if len(set(vt)) != len(vt):
            raise ValueError(f"duplicate variable names in table {vt}")
        n = len(vt)
        clean: Dict[Exponent, Fraction] = {}
        for exponent, coeff in terms.items():
            e = tuple(exponent)
            if len(e) != n or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e} for table of {n} variables")
            c = _as_fraction(coeff)
            if c:
                acc = clean.get(e)
                clean[e] = c if acc is None else acc + c
                if not clean[e]:
                    del clean[e]
        object.__setattr__(self, "vars", vt)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value: Scalar) -> "Poly":
        n = len(tuple(variables))
        return cls(variables, {(0,) * n: _as_fraction(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        vt = tuple(variables)
        idx = vt.index(name)
        exponent = tuple(1 if i == idx else 0 for i in range(len(vt)))
        return cls(vt, {exponent: Fraction(1)})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponent: Exponent, coeff: Scalar = 1) -> "Poly":
        return cls(variables, {tuple(exponent): _as_fraction(coeff)})

    # ------------------------------------------------------------------
    # basic queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum term degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_constant(self) -> bool:
        return self.total_degree() <= 0

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def degree_in(self, name: str) -> int:
        idx = self.vars.index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def leading(self) -> Tuple[Exponent, Fraction]:
        """Graded-lex largest term; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exponent = max(self.terms, key=grlex_key)
        return exponent, self.terms[exponent]

    def support(self) -> Tuple[str, ...]:
        """Variables that actually occur, in table order."""
        used = [False] * len(self.vars)
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    # ------------------------------------------------------------------
    # arithmetic

    def _check(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise VariableTableMismatch(
                f"variable tables differ: {self.vars} vs {other.vars}"
            )

    def _coerce(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.vars, other)
        return None

    def __add__(self, other) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in rhs.terms.items():
            acc = out.get(e)
            out[e] = c if acc is None else acc + c
            if not out[e]:
                del out[e]
        return _raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Poly.zero(self.vars)
            return _raw(self.vars, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out: Dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(key)
                prod = c1 * c2
                out[key] = prod if acc is None else acc + prod
                if not out[key]:
                    del out[key]
        return _raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result = Poly.const(self.vars, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # structural operations

    def substitute(self, images: Mapping[str, Union["Poly", Scalar]]) -> "Poly":
        """Replace variables by polynomials; unmapped variables persist.

        All polynomial images must share one variable table, which becomes
        the table of the result.  When every image is a scalar the table
        is unchanged.  An unmapped variable must exist in the target table.
        """
        poly_images = [p for p in images.values() if isinstance(p, Poly)]
        if poly_images:
            target = poly_images[0].vars
            for p in poly_images[1:]:
                if p.vars != target:
                    raise VariableTableMismatch(
                        "substitution images use more than one variable table"
                    )
        else:
            target = self.vars
        table: Dict[str, Poly] = {}
        for name in self.vars:
            if name in images:
                img = images[name]
                table[name] = img if isinstance(img, Poly) else Poly.const(target, img)
            else:
                if name not in target:
                    raise VariableTableMismatch(
                        f"unmapped variable {name!r} missing from target table {target}"
                    )
                table[name] = Poly.variable(target, name)
        one = Poly.const(target, 1)
        cache: Dict[str, List[Poly]] = {name: [one] for name in self.vars}
        out: Dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            term = one
            for name, e in zip(self.vars, exponent):
                if not e:
                    continue
                powers = cache[name]
                while len(powers) <= e:
                    powers.append(powers[-1] * table[name])
                term = powers[e] if term is one else term * powers[e]
            for e, c in term.terms.items():
                out[e] = out.get(e, 0) + coeff * c
        return _raw(target, {e: c for e, c in out.items() if c})

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Full evaluation at a rational point covering every variable.

        Clears the point to ``n_i / q`` and divides :meth:`scaled_value` by ``D * q^top``.
        """
        values = [point[name] for name in self.vars]
        for value in values:
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(value).__name__}")
        q, numer = _cleared(values)
        total = self.scaled_value(numer, q)
        scale, _, top = self._int_form
        return Fraction(total, scale * q ** top)

    def scaled_value(self, numer: Sequence[int], q: int) -> int:
        """``D * q^top * self(x)`` at ``x_i = numer[i] / q``: the exact integer kernel.

        ``D`` is the common denominator of the coefficients and ``top``
        the largest term degree; a term ``c * x^e`` of degree ``d`` adds
        ``(c*D) * prod(numer_i^e_i) * q^(top-d)``, skipped when it touches
        a zero coordinate.  The integer form (``D``, the scaled
        coefficients with their non-zero ``(index, exponent)`` pairs and
        degrees, ``top``) is built on the first call and kept.
        """
        try:
            _, int_terms, top = self._int_form
        except AttributeError:  # slot left unset so construction stays as cheap as before
            form = self._compile_int_form()
            object.__setattr__(self, "_int_form", form)
            _, int_terms, top = form
        if q != 1:
            q_powers = [1]
            for _ in range(top):
                q_powers.append(q_powers[-1] * q)
        total = 0
        for coeff, factors, degree in int_terms:
            acc = coeff
            for index, e in factors:
                n = numer[index]
                if not n:
                    break
                acc *= n if e == 1 else n ** e
            else:
                total += acc if q == 1 else acc * q_powers[top - degree]
        return total

    def _compile_int_form(self) -> IntForm:
        scale, numer = _cleared(list(self.terms.values()))
        int_terms = tuple(
            (n, tuple((i, x) for i, x in enumerate(e) if x), sum(e))
            for e, n in zip(self.terms, numer)
        )
        top = max((degree for _, _, degree in int_terms), default=0)
        return scale, int_terms, top

    def partial(self, name: str) -> "Poly":
        idx = self.vars.index(name)
        out: Dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            e = exponent[idx]
            if not e:
                continue
            key = exponent[:idx] + (e - 1,) + exponent[idx + 1:]
            acc = out.get(key)
            val = coeff * e
            out[key] = val if acc is None else acc + val
        return _raw(self.vars, out)

    def coefficient(self, fixed: Mapping[str, int]) -> "Poly":
        """Coefficient of ``prod(var^k)``, as a polynomial without those vars.

        Selects the terms whose exponents match ``fixed`` exactly and
        removes the fixed variables from the table.
        """
        idxs = {self.vars.index(name): k for name, k in fixed.items()}
        keep = [i for i in range(len(self.vars)) if i not in idxs]
        new_vars = tuple(self.vars[i] for i in keep)
        out: Dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            if all(exponent[i] == k for i, k in idxs.items()):
                out[tuple(exponent[i] for i in keep)] = coeff
        return Poly(new_vars, out)

    def extend_table(self, variables: Sequence[str]) -> "Poly":
        """Reinterpret over a larger table containing every current variable."""
        vt = tuple(variables)
        positions = [vt.index(name) for name in self.vars]
        n = len(vt)
        out: Dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            e = [0] * n
            for pos, x in zip(positions, exponent):
                e[pos] = x
            out[tuple(e)] = coeff
        return _raw(vt, out)

    def homogeneous_components(self) -> Dict[int, "Poly"]:
        buckets: Dict[int, Dict[Exponent, Fraction]] = {}
        for exponent, coeff in self.terms.items():
            buckets.setdefault(sum(exponent), {})[exponent] = coeff
        return {d: _raw(self.vars, t) for d, t in sorted(buckets.items())}

    def normalized(self) -> "Poly":
        """Scale to integer coefficients, content one, positive leading term."""
        if not self.terms:
            return self
        denom, numer = _cleared(list(self.terms.values()))
        scale = Fraction(denom, gcd(*numer))
        _, lead = self.leading()
        if lead < 0:
            scale = -scale
        return self * scale

    # ------------------------------------------------------------------
    # rendering

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: List[str] = []
        for exponent in sorted(self.terms, key=grlex_key, reverse=True):
            coeff = self.terms[exponent]
            factors = []
            for name, e in zip(self.vars, exponent):
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

    def __repr__(self) -> str:
        return f"Poly({'|'.join(self.vars)}: {self})"


def _raw(variables: Tuple[str, ...], terms: Dict[Exponent, Fraction]) -> Poly:
    """Internal constructor skipping validation for already-clean data."""
    p = object.__new__(Poly)
    object.__setattr__(p, "vars", variables)
    object.__setattr__(p, "terms", terms)
    return p


def ring(names: Union[str, Sequence[str]]) -> Tuple[Poly, ...]:
    """Generators of a polynomial ring: ``x, y = ring("x y")``."""
    table = tuple(names.split()) if isinstance(names, str) else tuple(names)
    return tuple(Poly.variable(table, name) for name in table)


def exact_divide(p: Poly, q: Poly) -> Poly:
    """Exact quotient ``p / q``; raises :class:`NotDivisible` otherwise.

    Greedy division by leading terms under the graded-lex order.  For a
    true factorisation the leading term of the remainder is always
    divisible by the leading term of ``q``, so a failed step proves
    non-divisibility.
    """
    if q.is_zero:
        raise NotDivisible("division by the zero polynomial")
    p._check(q)
    qe, qc = q.leading()
    quotient: Dict[Exponent, Fraction] = {}
    rest = p
    while not rest.is_zero:
        re, rc = rest.leading()
        diff = tuple(a - b for a, b in zip(re, qe))
        if any(x < 0 for x in diff):
            raise NotDivisible(f"{p} is not divisible by {q}")
        coeff = rc / qc
        quotient[diff] = coeff
        rest = rest - Poly.monomial(p.vars, diff, coeff) * q
    return Poly(p.vars, quotient)


# ----------------------------------------------------------------------
# univariate helpers


def _univariate_coeffs(p: Poly) -> Tuple[int, List[Fraction]]:
    """Variable index and dense coefficient list (ascending degree)."""
    sup = p.support()
    if len(sup) > 1:
        raise ValueError(f"expected a univariate polynomial, got one in {sup}")
    if not sup:
        return 0, [p.constant_term()] if not p.is_zero else []
    idx = p.vars.index(sup[0])
    coeffs = [Fraction(0)] * (p.degree_in(sup[0]) + 1)
    for exponent, coeff in p.terms.items():
        coeffs[exponent[idx]] = coeff
    return idx, coeffs


def _strip(coeffs: List[Fraction]) -> List[Fraction]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_mod(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a = a[:]
    while len(a) >= len(b) and a:
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        _strip(a)
    return a


def _univariate_gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _strip(a[:]), _strip(b[:])
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_distinct_root_count(p: Poly) -> Tuple[int, bool]:
    """Distinct-root count of a univariate polynomial and a squarefree flag.

    The count is ``deg p - deg gcd(p, p')``, exact over the rationals, so
    it counts roots in an algebraic closure without ever factoring.
    """
    if p.is_constant():
        raise ValueError("root counting needs a non-constant univariate polynomial")
    _, coeffs = _univariate_coeffs(p)
    derivative = [c * i for i, c in enumerate(coeffs)][1:]
    g = _univariate_gcd(coeffs, derivative)
    count = (len(coeffs) - 1) - (len(g) - 1)
    return count, len(g) == 1


# ----------------------------------------------------------------------
# monomial enumeration


def exponents_of_degree(nvars: int, degree: int) -> Iterator[Exponent]:
    """All exponent tuples of exact total degree, graded-lex descending."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in exponents_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def exponents_up_to_degree(nvars: int, degree: int) -> Iterator[Exponent]:
    """Exponent tuples of total degree 1..degree, low degree first."""
    for d in range(1, degree + 1):
        yield from exponents_of_degree(nvars, d)
