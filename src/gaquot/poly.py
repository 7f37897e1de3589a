"""Sparse exact multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero rational
coefficients together with an ordered tuple of variable names.  The
variable table is part of the value: operations combine two polynomials
only when their tables are identical, and a mismatch raises instead of
silently unioning variables.  The zero polynomial has an empty term map.

Monomials are ordered graded-lexicographically: higher total degree
first, ties broken by comparing exponent vectors left to right, so
earlier variables in the table are more significant.  Rendering and all
deterministic generator listings use this order.

Coefficients have one format: integer numerators ``nums`` (exponent to
non-zero ``int``) over one positive ``den`` with ``gcd(den, *nums) == 1``
(content and primitive part, Knuth, TAOCP vol. 2, 4.6.1).  The form is
canonical, so ``==`` compares it directly; ``terms`` is a read-only
``Fraction`` view built on first use.  Every operation and the integer
kernels of ``derivations``, ``transfer`` and ``classify`` read and write
it.  ``_cleared`` clears only the constructor's coefficients, points
(``evaluate``, the rational-point search) and ``linalg.solve``'s
right-hand side.

There is one product and one composition.  ``_times`` multiplies lists
of exact terms as they come: the numerators of ``*``, ``**`` and
``_compose``, and the parser's and kernel generators' own terms.
``_compose`` runs a plan built by ``Poly.substitute`` or
``GraphPresentation.pull_back``: which variables are relabelled and
which composed with a polynomial.

Point evaluation has one integer kernel, ``PointBlock.scaled_values``.
On first use a polynomial stores its integer form: each numerator with
its non-zero exponents and its variables as a bitmask.
A ``PointBlock`` holds cleared points that vanish off one support, as
columns; ``restrict`` keeps the terms inside the support and
``scaled_values`` sums them over every point at once, column by column,
in plain ``int`` products.  ``evaluate`` is the one-point block and
builds one ``Fraction``; the rational-point search of witness search
and boundary sampling runs whole blocks of its candidate table and
only tests the sums against zero.  The cache is safe because a
``Poly`` never changes after construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import VariableTableMismatch

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]
# (numerator, ((var index, exponent), ...), degree, bitmask of the variables)
IntTerm = Tuple[int, Tuple[Tuple[int, int], ...], int, int]
# (D, int terms, top degree)
IntForm = Tuple[int, Tuple[IntTerm, ...], int]
# the int terms of one form that survive on a block's support, and the form's top degree
Restriction = Tuple[List[IntTerm], int]


def _cleared(values: Sequence[Scalar]) -> Tuple[int, List[int]]:
    """``(q, [v*q, ...])`` for ``q`` the lcm of the denominators; ``q = 1`` when empty."""
    q = lcm(*[v.denominator for v in values])
    if q == 1:
        return 1, [v.numerator for v in values]
    return q, [v.numerator * (q // v.denominator) for v in values]


def _times(p: Iterable[Tuple[Exponent, Scalar]], q: Collection[Tuple[Exponent, Scalar]]) -> Dict[Exponent, Scalar]:
    """The product of two lists of exact terms, such as ``terms.items()``, as a term map without cancelled terms."""
    out: Dict[Exponent, Scalar] = {}
    get = out.get
    for e1, c1 in p:
        for e2, c2 in q:
            key = tuple(map(add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def grlex_key(exponent: Exponent) -> Tuple[int, Exponent]:
    """Sort key putting the graded-lex largest monomial last under ``sorted``."""
    return (sum(exponent), exponent)


class Poly:
    """Immutable sparse polynomial over a fixed variable table."""

    __slots__ = ("vars", "den", "nums", "_terms", "_int_form")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Scalar]):
        vt = _table(variables)
        n = len(vt)
        clean: Dict[Exponent, Scalar] = {}
        for exponent, coeff in terms.items():
            e = tuple(exponent)
            if len(e) != n or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e} for table of {n} variables")
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(coeff).__name__}")
            clean[e] = clean.get(e, 0) + coeff
        clean = {e: c for e, c in clean.items() if c}
        den, nums = _cleared(list(clean.values()))  # lowest-terms values clear to a canonical form
        object.__setattr__(self, "vars", vt)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", dict(zip(clean, nums)))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return _raw(_table(variables), {})

    @classmethod
    def const(cls, variables: Sequence[str], value: Scalar) -> "Poly":
        n = len(tuple(variables))
        return cls(variables, {(0,) * n: value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        vt = _table(variables)
        idx = vt.index(name)
        return _raw(vt, {tuple(1 if i == idx else 0 for i in range(len(vt))): 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponent: Exponent, coeff: Scalar = 1) -> "Poly":
        return cls(variables, {tuple(exponent): coeff})

    # ------------------------------------------------------------------
    # basic queries

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """The coefficients as ``Fraction``s: a read-only view of ``nums`` over ``den``, built on first use."""
        if not hasattr(self, "_terms"):
            object.__setattr__(self, "_terms", MappingProxyType({e: Fraction(n, self.den) for e, n in self.nums.items()}))
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        """Maximum term degree; the zero polynomial reports -1."""
        if not self.nums:
            return -1
        return max(sum(e) for e in self.nums)

    def is_constant(self) -> bool:
        return self.total_degree() <= 0

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * len(self.vars), 0), self.den)

    def degree_in(self, name: str) -> int:
        idx = self.vars.index(name)
        if not self.nums:
            return -1
        return max(e[idx] for e in self.nums)

    def leading(self) -> Tuple[Exponent, Fraction]:
        """Graded-lex largest term; raises on the zero polynomial."""
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        exponent = max(self.nums, key=grlex_key)
        return exponent, Fraction(self.nums[exponent], self.den)

    def support(self) -> Tuple[str, ...]:
        """Variables that actually occur, in table order."""
        used = [False] * len(self.vars)
        for e in self.nums:
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
        den = lcm(self.den, rhs.den)
        a, b = den // self.den, den // rhs.den
        out = {e: n * a for e, n in self.nums.items()}
        get = out.get
        for e, n in rhs.nums.items():
            out[e] = get(e, 0) + n * b
        return _raw(self.vars, {e: n for e, n in out.items() if n}, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw(self.vars, {e: -n for e, n in self.nums.items()}, self.den)

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
            if not other:
                return _raw(self.vars, {})
            c = other.numerator
            return _raw(self.vars, {e: c * n for e, n in self.nums.items()}, self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return _raw(self.vars, _times(self.nums.items(), other.nums.items()), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integers")
        den = self.den ** exponent
        result, base = {(0,) * len(self.vars): 1}, self.nums
        while exponent:
            if exponent & 1:
                result = _times(result.items(), base.items())
            base = _times(base.items(), base.items()) if exponent > 1 else base
            exponent >>= 1
        return _raw(self.vars, result, den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.nums == other.nums

    def __hash__(self):  # a constant equals its constant term, so it hashes like it
        return hash(self.constant_term() if self.is_constant() else (self.vars, self.den, frozenset(self.nums.items())))

    # ------------------------------------------------------------------
    # structural operations

    def substitute(self, images: Mapping[str, Union["Poly", Scalar]]) -> "Poly":
        """Replace variables by polynomials; unmapped variables persist.

        All polynomial images must share one variable table, which becomes
        the table of the result.  When every image is a scalar the table
        is unchanged.  An unmapped variable must exist in the target table,
        a mapped one in this table.  ``_compose`` relabels the unmapped
        variables and composes every image (scalars as constants).
        """
        unknown = set(images).difference(self.vars)
        if unknown:
            raise ValueError(f"images given for unknown variables {sorted(unknown)}")
        tables = {img.vars for img in images.values() if isinstance(img, Poly)}
        if len(tables) > 1:
            raise VariableTableMismatch("substitution images use more than one variable table")
        target = tables.pop() if tables else self.vars
        relabel: List[Tuple[int, int]] = []
        composed: List[Tuple[int, Poly]] = []
        for i, name in enumerate(self.vars):
            if name not in images:
                if name not in target:
                    raise VariableTableMismatch(f"unmapped variable {name!r} missing from target table {target}")
                relabel.append((i, target.index(name)))
                continue
            img = images[name]
            composed.append((i, img if isinstance(img, Poly) else Poly.const(target, img)))
        return _compose(self, target, relabel, composed)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Full evaluation at a rational point covering every variable.

        The point is a one-point :class:`PointBlock`; its scaled value is
        divided by ``D * q^top``.
        """
        values = [point[name] for name in self.vars]
        for value in values:
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(value).__name__}")
        scale, _, top = self._integer_form()
        block = PointBlock([_cleared(values)])
        (total,) = block.scaled_values(block.restrict(self))
        return Fraction(total, scale * block.qs[0] ** top)

    def _integer_form(self) -> IntForm:
        """``(D, int terms, top)``, built on the first call and kept.

        ``D`` is the common denominator of the coefficients and ``top``
        the largest term degree; each term is ``c*D`` with its non-zero
        ``(index, exponent)`` pairs, its degree and the bitmask of its
        variables.
        """
        try:
            return self._int_form
        except AttributeError:  # slot left unset so construction stays as cheap as before
            int_terms = []
            for e, n in self.nums.items():
                factors, mask = [], 0
                for i, x in enumerate(e):
                    if x:
                        factors.append((i, x))
                        mask |= 1 << i
                int_terms.append((n, tuple(factors), sum(e), mask))
            top = max((degree for _, _, degree, _ in int_terms), default=0)
            form = (self.den, tuple(int_terms), top)
            object.__setattr__(self, "_int_form", form)
            return form

    def partial(self, name: str) -> "Poly":
        idx = self.vars.index(name)
        out: Dict[Exponent, int] = {}
        for exponent, n in self.nums.items():
            e = exponent[idx]
            if e:
                out[exponent[:idx] + (e - 1,) + exponent[idx + 1:]] = n * e
        return _raw(self.vars, out, self.den)

    def coefficient(self, fixed: Mapping[str, int]) -> "Poly":
        """Coefficient of ``prod(var^k)``, as a polynomial without those vars.

        Selects the terms whose exponents match ``fixed`` exactly and
        removes the fixed variables from the table.
        """
        idxs = {self.vars.index(name): k for name, k in fixed.items()}
        keep = [i for i in range(len(self.vars)) if i not in idxs]
        pinned, want, project = _projector(list(idxs)), tuple(idxs.values()), _projector(keep)
        out = {project(e): n for e, n in self.nums.items() if pinned(e) == want}
        return _raw(tuple(self.vars[i] for i in keep), out, self.den)

    def extend_table(self, variables: Sequence[str]) -> "Poly":
        """Reinterpret over a larger table containing every current variable."""
        vt = tuple(variables)
        positions = [vt.index(name) for name in self.vars]
        out: Dict[Exponent, int] = {}
        for exponent, n in self.nums.items():
            e = [0] * len(vt)
            for pos, x in zip(positions, exponent):
                e[pos] = x
            out[tuple(e)] = n
        return _raw(vt, out, self.den)

    def normalized(self) -> "Poly":
        """Scale to integer coefficients, content one, positive leading term."""
        if not self.nums:
            return self
        g = gcd(*self.nums.values())
        if self.nums[max(self.nums, key=grlex_key)] < 0:
            g = -g
        return _raw(self.vars, {e: n // g for e, n in self.nums.items()})

    # ------------------------------------------------------------------
    # rendering

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts: List[str] = []
        den = self.den
        for exponent in sorted(self.nums, key=grlex_key, reverse=True):
            n = self.nums[exponent]
            factors = []
            for name, e in zip(self.vars, exponent):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            # the coefficient n/den in lowest terms, as Fraction.__str__ renders it
            g = gcd(n, den) if den != 1 else 1
            mag = f"{abs(n) // g}" if den == g else f"{abs(n) // g}/{den // g}"
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = "*".join([mag] + factors)
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({'|'.join(self.vars)}: {self})"


def _table(variables: Sequence[str]) -> Tuple[str, ...]:
    """``variables`` as a tuple, which must not repeat a name."""
    vt = tuple(variables)
    if len(set(vt)) != len(vt):
        raise ValueError(f"duplicate variable names in table {vt}")
    return vt


def _projector(indices: Sequence[int]) -> Callable[[Exponent], Exponent]:
    """The exponent entries at ``indices``, in order, as a tuple (``itemgetter`` of one index gives a bare entry)."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices) if indices else itemgetter(slice(0, 0))


def _raw(variables: Tuple[str, ...], nums: Dict[Exponent, int], den: int = 1) -> Poly:
    """Unvalidated constructor of ``nums`` (none zero) over ``den != 0``, divided by their signed gcd."""
    if den != 1:
        g = gcd(den, *nums.values())
        g = g if den > 0 else -g
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
    p = object.__new__(Poly)
    object.__setattr__(p, "vars", variables)
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "nums", nums)
    return p


def _compose(p: Poly, target: Tuple[str, ...], relabel: Sequence[Tuple[int, int]],
             composed: Sequence[Tuple[int, Poly]]) -> Poly:
    """``p`` with variable ``i`` sent to target variable ``j`` for ``(i, j)`` in ``relabel``, to ``h`` for ``(i, h)`` in ``composed``.

    The images ``h`` lie over ``target``, every variable of ``p`` has one
    image, and no two variables relabel onto one target variable.  ``p``
    and each composed image ``h_k = H_k / s_k`` are read as numerators
    over their denominators.  Each term of ``p`` has its relabelled
    exponents placed in ``target`` and joins the group
    of its composed exponents ``d``; a group is multiplied by the cached
    powers ``H_k^d_k`` and by ``s_k^(m_k - d_k)``, with ``m_k`` the
    largest ``d_k`` in ``p``, so every group sits over
    ``Dp * prod s_k^m_k``, the denominator of the result.
    """
    n = len(target)
    scale = p.den
    groups: Dict[Exponent, Dict[Exponent, int]] = {}
    for exponent, c in p.nums.items():
        relabelled = [0] * n
        for i, j in relabel:
            relabelled[j] = exponent[i]
        key = tuple(relabelled)
        group = groups.setdefault(tuple([exponent[i] for i, _ in composed]), {})
        group[key] = group.get(key, 0) + c
    top = [max(powers) for powers in zip(*groups)]
    one = {(0,) * n: 1}
    images = []  # (s_k, [H_k^0, H_k^1, ...] as integer term maps)
    for (_, h), m in zip(composed, top):
        s, hn = (h.den, h.nums) if m else (1, one)  # an image that no term meets adds no factor
        images.append((s, [one, hn]))
        scale *= s ** m
    acc: Dict[Exponent, int] = {}
    for d, terms in groups.items():
        factor = 1
        for (s, powers), e, m in zip(images, d, top):
            factor *= s ** (m - e)
            while len(powers) <= e:
                powers.append(_times(powers[-1].items(), powers[1].items()))
            if e:
                terms = _times(terms.items(), powers[e].items())
        for e, c in terms.items():
            acc[e] = acc.get(e, 0) + factor * c
    return _raw(target, {e: c for e, c in acc.items() if c}, scale)


class PointBlock:
    """Rational points that vanish off one support, evaluated column by column.

    The block is built from points cleared by ``_cleared`` to
    ``(q, numerators)`` over one variable table.  Its support ``mask``
    is the bitmask of the variables that are non-zero at some point;
    ``columns`` maps each support variable to its numerators, point by
    point, and ``qs`` holds the denominators.  The powers ``x_i^e`` and
    ``q^k`` of these columns are cached on first use.

    A polynomial meets the block through :meth:`restrict`, which keeps
    the terms of its integer form whose variables lie in the support
    (one ``&`` per term; every other term vanishes at every point), and
    :meth:`scaled_values`, which sums the kept terms over the points
    with ``map(operator.mul, ...)`` on the cached columns.
    """

    __slots__ = ("mask", "qs", "columns", "_powers", "_integral")

    def __init__(self, points: Sequence[Tuple[int, Sequence[int]]]):
        qs, numers = zip(*points)
        self.qs: Tuple[int, ...] = qs
        self.columns: Dict[int, Tuple[int, ...]] = {}
        self.mask = 0
        for i, column in enumerate(zip(*numers)):
            if any(column):
                self.columns[i] = column
                self.mask |= 1 << i
        self._powers: Dict[Tuple[int, int], Sequence[int]] = {}
        self._integral = qs.count(1) == len(qs)  # every q^k column is all ones

    def __len__(self) -> int:
        return len(self.qs)

    def restrict(self, p: Poly) -> Restriction:
        """``p``'s integer terms whose variables all lie in the support, and its top degree."""
        _, terms, top = p._integer_form()
        outside = ~self.mask
        return [t for t in terms if not t[3] & outside], top

    def _column(self, key: Tuple[int, int]) -> Sequence[int]:
        """The column ``x_i^e`` for ``key = (i, e)``, or ``q^e`` for ``i = -1``."""
        column = self._powers.get(key)
        if column is None:
            index, e = key
            base = self.qs if index < 0 else self.columns[index]
            column = self._powers[key] = base if e == 1 else [x ** e for x in base]
        return column

    def scaled_values(self, restriction: Restriction, live: Optional[Sequence[int]] = None) -> List[int]:
        """``D * q^top * p(x)`` at the points ``live`` (every point when ``None``), in order.

        A term ``c * x^e`` of degree ``d`` adds ``(c*D) * prod(x_i^e_i) * q^(top-d)``.
        """
        terms, top = restriction
        if live is None or len(live) == len(self.qs):
            column, size = self._column, len(self.qs)
        else:
            def column(key: Tuple[int, int]) -> List[int]:
                full = self._column(key)
                return [full[k] for k in live]

            size = len(live)
        integral = self._integral
        vectors = []
        for coeff, factors, degree, _ in terms:
            vector = repeat(coeff, size)
            for key in factors:
                vector = map(mul, vector, column(key))
            if degree != top and not integral:
                vector = map(mul, vector, column((-1, top - degree)))
            vectors.append(vector)
        return list(map(sum, zip(*vectors))) if vectors else [0] * size

    def common_zeros(self, polys: Sequence[Poly], live: Optional[List[int]] = None) -> List[int]:
        """The points (of ``live``, else all) where every poly vanishes; none if one restricts to a non-zero constant."""
        restrictions = [self.restrict(p) for p in polys]
        if any(len(terms) == 1 and not terms[0][2] for terms, _ in restrictions):  # a non-zero constant
            return []
        live = list(range(len(self.qs))) if live is None else live
        for restriction in restrictions:
            if live and restriction[0]:
                values = self.scaled_values(restriction, live)
                live = [k for k, v in zip(live, values) if not v]
        return live


def ring(names: Union[str, Sequence[str]]) -> Tuple[Poly, ...]:
    """Generators of a polynomial ring: ``x, y = ring("x y")``."""
    table = tuple(names.split()) if isinstance(names, str) else tuple(names)
    return tuple(Poly.variable(table, name) for name in table)


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
