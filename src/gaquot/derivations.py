"""Derivations of a polynomial ring and exact graded solvers.

A :class:`Derivation` is determined by its images on the generators and
extends by the Leibniz rule.  The solvers in this module decide, per
homogeneous degree, whether a polynomial lies in the image of a
degree-preserving derivation, compute kernel generators, restrict a
derivation to a graph subvariety, and search for slice elements.  Every
decision is an exact rational linear-algebra computation.

When a derivation carries an attached weight grading and a raising
partner (set up by the representation layer), membership tests for
polynomials the derivation kills use the operator identity
``D(E(q)) = weight(q) * q``: components of nonzero weight get an
explicit preimage ``E(q)/weight`` and a nonzero weight-zero component
is a proof of non-membership.  The generic per-degree linear solver
handles everything else.

The same grading splits each linear system into weight blocks.  A
derivation without one, such as a restriction to a graph, is still
homogeneous under a lattice of integer gradings found by one small
nullspace (``_gradings``).  ``D(s) = 1`` has weight 0 on the right, so
a slice is solved on the block of image weight 0 alone.

Both :func:`apply` and the solvers' operator matrices
(``_operator_rows``) run on one compiled integer Leibniz kernel.  A
:class:`Derivation` compiles its generator images once, when it is
built: the common denominator ``Dd`` of their coefficients, and for each
variable with a non-zero image its terms as scaled ``int`` coefficients
with sparse exponent deltas.  :func:`apply` clears the polynomial's
denominators, sums ``int`` products per output monomial and builds one
``Fraction`` per surviving term; an operator matrix is the ``int``
matrix of ``Dd * D``, given as is to the integer rows of ``linalg``.
The same kernel (``_leibniz``) also serves the transfer ladder of
``transfer.extend``, which keeps ``E^j(f)`` in integers between steps.

On the sl2 ladder the derivation raises weight by 2 and its kernel is
made of highest-weight vectors, of weight ``>= 0``: kernel generators
solve only those weight blocks and check each one's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    GraphInconsistency,
    InternalInconsistency,
    NonInvariantInput,
    VariableTableMismatch,
)
from .linalg import Row, extend_rref, nullspace, reduce_against, rref, solve
from .poly import Exponent, Poly, _cleared, _raw, exponents_of_degree, exponents_up_to_degree

# (Dd, ((variable index, ((a*Dd, ((index, change), ...)), ...)), ...)) over
# the variables with a non-zero image; see ``apply``
ActiveImages = Tuple[Tuple[int, Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]], ...]
IntImages = Tuple[int, ActiveImages]


class Derivation:
    """A derivation of ``k[vars]`` given by generator images.

    ``weight_of``, when given, is a grading of the variables for which
    the derivation is homogeneous: it maps each weight piece into one
    weight piece.
    """

    __slots__ = ("vars", "images", "graded_linear", "weight_of", "sl2_raise", "_int_images")

    def __init__(
        self,
        variables: Sequence[str],
        images: Mapping[str, Poly],
        weight_of: Optional[Mapping[str, int]] = None,
        sl2_raise: Optional["Derivation"] = None,
    ):
        vt = tuple(variables)
        table: Dict[str, Poly] = {}
        for name in vt:
            img = images.get(name)
            if img is None:
                img = Poly.zero(vt)
            if img.vars != vt:
                raise VariableTableMismatch(
                    f"image of {name!r} lives on table {img.vars}, expected {vt}"
                )
            table[name] = img
        unknown = set(images) - set(vt)
        if unknown:
            raise ValueError(f"images given for unknown variables {sorted(unknown)}")
        graded = all(
            img.is_zero or all(sum(e) == 1 for e in img.terms) for img in table.values()
        )
        object.__setattr__(self, "vars", vt)
        object.__setattr__(self, "images", table)
        object.__setattr__(self, "graded_linear", graded)
        object.__setattr__(self, "weight_of", dict(weight_of) if weight_of else None)
        object.__setattr__(self, "sl2_raise", sl2_raise)
        object.__setattr__(self, "_int_images", _compile_images([table[name] for name in vt]))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Derivation is immutable")

    def __call__(self, p: Poly) -> Poly:
        return apply(self, p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.vars == other.vars and self.images == other.images

    def __hash__(self):
        return hash((self.vars, tuple(sorted((k, v) for k, v in self.images.items()))))

    def __repr__(self) -> str:
        imgs = ", ".join(f"{v} -> {self.images[v]}" for v in self.vars)
        return f"Derivation({imgs})"


def _compile_images(images: Sequence[Poly]) -> IntImages:
    """Integer form of the generator images, built once per derivation.

    Variables with a zero image are left out.  Each image term keeps
    ``a*Dd`` and the non-zero entries of ``e' - unit_i``.
    """
    scale, numer = _cleared([c for img in images for c in img.terms.values()])
    scaled = iter(numer)
    active = []
    for i, img in enumerate(images):
        compiled = []
        for ie in img.terms:
            change = list(ie)
            change[i] -= 1
            delta = tuple((j, x) for j, x in enumerate(change) if x)
            compiled.append((next(scaled), delta))
        if compiled:
            active.append((i, tuple(compiled)))
    return scale, tuple(active)


def apply(d: Derivation, p: Poly) -> Poly:
    """Apply the derivation via the Leibniz rule, on the integer kernel.

    With ``Dd`` the common denominator of the image coefficients and
    ``Dp`` that of ``p``, a term ``c * x^e`` of ``p`` and a term
    ``a * x^e'`` of the image of ``x_i`` (where ``e_i > 0``) contribute
    ``(c*Dp) * e_i * (a*Dd)`` to the monomial ``e - unit_i + e'``.  That
    key is a copy of ``e`` moved by the compiled sparse delta
    ``e' - unit_i``, so no full-width tuple sum is formed.  The ``int``
    sums are divided by ``Dp * Dd`` once per non-zero monomial; the
    result equals the term-by-term ``Fraction`` evaluation of the rule.
    """
    if p.vars != d.vars:
        raise VariableTableMismatch(f"polynomial table {p.vars} does not match {d.vars}")
    scale, active = d._int_images
    p_scale, numer = _cleared(list(p.terms.values()))
    acc: Dict[Tuple[int, ...], int] = {}
    _leibniz(acc, active, zip(p.terms, numer))
    denom = p_scale * scale
    return _raw(d.vars, {key: Fraction(v, denom) for key, v in acc.items() if v})


def _leibniz(acc: Dict[Tuple[int, ...], int], active: ActiveImages, terms: Iterable[Tuple[Tuple[int, ...], int]]) -> None:
    """Add ``Dd * D`` of the ``int`` terms ``(exponent, numer)`` to ``acc``, per monomial."""
    get = acc.get
    for exponent, numer in terms:
        for i, image in active:
            e = exponent[i]
            if not e:
                continue
            factor = numer * e
            for c, delta in image:
                key = list(exponent)
                for j, change in delta:
                    key[j] += change
                key = tuple(key)
                acc[key] = get(key, 0) + factor * c


# ----------------------------------------------------------------------
# graded membership


def weight_components(p: Poly, weight_of: Mapping[str, int]) -> Dict[int, Poly]:
    """Split by total monomial weight under the given per-variable weights."""
    weights = [weight_of[name] for name in p.vars]
    buckets: Dict[int, Dict[Tuple[int, ...], Fraction]] = {}
    for exponent, coeff in p.terms.items():
        buckets.setdefault(sum(map(mul, exponent, weights)), {})[exponent] = coeff
    return {w: Poly(p.vars, t) for w, t in sorted(buckets.items())}


def _ladder_membership(d: Derivation, p: Poly) -> Optional[Poly]:
    """Membership decision for ``p`` killed by ``d`` via the sl2 ladder."""
    raising = d.sl2_raise
    assert raising is not None and d.weight_of is not None
    preimage = Poly.zero(d.vars)
    for weight, component in weight_components(p, d.weight_of).items():
        if weight == 0:
            return None
        if weight < 0:
            raise InternalInconsistency(
                "negative-weight component inside the kernel; sl2 metadata is broken"
            )
        preimage = preimage + apply(raising, component) * Fraction(1, weight)
    if apply(d, preimage) != p:
        raise InternalInconsistency("ladder preimage failed verification")
    return preimage


def _gradings(d: Derivation) -> List[Tuple[Sequence[int], int]]:
    """Integer gradings ``(w, e)``: ``d`` adds ``e`` to the weight ``w·c`` of every monomial.

    A derivation with an attached grading gets that one, with the shift
    of its sl2 operator (``+2`` lowering, ``-2`` raising, ``0`` diagonal).
    Otherwise this is a basis of the lattice of all of them, which is cut
    out by ``w·m = w_i + e`` for each monomial ``m`` of the image of
    ``z_i``: one equation ``Σ_j w_j·δ_j - e = 0`` per compiled image term.
    """
    active = d._int_images[1]
    if d.weight_of is not None:
        weights = [d.weight_of[name] for name in d.vars]
        # image-monomial weight minus variable weight: one value for graded ``d``
        shift = sum(weights[j] * change for j, change in active[0][1][0][1]) if active else 0
        return [(weights, shift)]
    n = len(d.vars)
    rows = [{**dict(delta), n: -1} for _, image in active for _, delta in image]
    basis = [_cleared([v.get(j, 0) for j in range(n + 1)])[1] for v in nullspace(rows, n + 1)]
    return [(w[:n], w[n]) for w in basis]


def _weight_groups(monos: Sequence[Tuple[int, ...]], gradings: Sequence[Tuple[Sequence[int], int]]) -> Dict[object, List[int]]:
    """Indices into ``monos`` keyed by image weights ``(w·c + e, ...)``, each group ascending.

    ``d`` maps every group into one weight piece, so its operator matrix
    is block-diagonal over them.  With no grading every index sits in
    the one group ``None``.
    """
    if not gradings:
        return {None: list(range(len(monos)))}
    groups: Dict[object, List[int]] = {}
    for j, c in enumerate(monos):
        groups.setdefault(tuple([sum(map(mul, c, w)) + e for w, e in gradings]), []).append(j)
    return groups


def _operator_rows(d: Derivation, columns: Sequence[Tuple[int, ...]]) -> Dict[Tuple[int, ...], Row]:
    """The ``int`` matrix of ``Dd * D`` on ``columns``: one sparse row per image monomial."""
    active = d._int_images[1]
    rows: Dict[Tuple[int, ...], Row] = {}
    for j, exponent in enumerate(columns):
        image: Dict[Tuple[int, ...], int] = {}
        _leibniz(image, active, ((exponent, 1),))
        for ie, ic in image.items():
            if ic:
                rows.setdefault(ie, {})[j] = ic
    return rows


def _solve_on(d: Derivation, monos: Sequence[Tuple[int, ...]], target: Poly) -> Optional[Poly]:
    """One ``x`` in the span of ``monos`` with ``D(x) = target``, or ``None``.

    Each weight part of ``target`` is solved on the columns whose image
    has its weight, with the free coefficients pinned to zero; the other
    columns would only meet zero parts.  The matrix is that of ``Dd * D``,
    so the right-hand side is scaled by ``Dd``.  A target monomial outside
    every image gets an empty row, which makes the system inconsistent.
    """
    scale = d._int_images[0]
    gradings = _gradings(d)
    groups = _weight_groups(monos, gradings)
    wanted = list(target.terms)
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for key, part in _weight_groups(wanted, [(w, 0) for w, _ in gradings]).items():
        columns = [monos[j] for j in groups.get(key, ())]
        rows = _operator_rows(d, columns)
        for j in part:
            rows.setdefault(wanted[j], {})
        rhs = [target.terms.get(e, 0) * scale for e in rows]
        outcome = solve(list(rows.values()), rhs, len(columns))
        if outcome is None:
            return None
        terms.update((e, c) for e, c in zip(columns, outcome[0]) if c)
    return _raw(d.vars, terms)


def graded_image_membership(d: Derivation, p: Poly) -> Optional[Poly]:
    """Exact preimage of ``p`` under a degree-preserving derivation, or ``None``.

    The decision is complete: each homogeneous piece is a
    finite-dimensional linear system over the rationals.  ``None`` means
    ``p`` is certainly not in the image.
    """
    if not d.graded_linear:
        raise ValueError("image membership requires a degree-preserving derivation")
    if p.vars != d.vars:
        raise VariableTableMismatch(f"polynomial table {p.vars} does not match {d.vars}")
    if p.is_zero:
        return Poly.zero(d.vars)
    if d.sl2_raise is not None and d.weight_of is not None and apply(d, p).is_zero:
        return _ladder_membership(d, p)
    preimage = Poly.zero(d.vars)
    for degree, piece in p.homogeneous_components().items():
        if degree == 0:
            return None
        part = _solve_on(d, _monomials(len(d.vars), degree), piece)
        if part is None:
            return None
        preimage = preimage + part
    if apply(d, preimage) != p:  # pragma: no cover - solver post-condition
        raise InternalInconsistency("linear solve produced a wrong preimage")
    return preimage


@dataclass(frozen=True)
class PowerInImage:
    """Outcome of the bounded search for a power inside the image."""

    power: Optional[int]
    preimage: Optional[Poly]
    kmax: int

    @property
    def found(self) -> bool:
        return self.power is not None


def power_in_image(d: Derivation, h: Poly, kmax: int = 3) -> PowerInImage:
    """Smallest ``k <= kmax`` with ``h^k`` in the image of ``d``.

    Requires ``d`` to kill ``h`` (so every power is again killed) and to
    be degree-preserving.  On the sl2 ladder only ``h`` is tried: the
    ladder refuses ``h`` only for a non-zero weight-zero part ``h_0``, and
    as no weight of ``h`` is negative, the weight-zero part of ``h^k`` is
    ``h_0^k``, again non-zero, so every higher power is refused too.
    """
    if not apply(d, h).is_zero:
        raise NonInvariantInput("power_in_image expects a polynomial killed by the derivation")
    ladder = d.sl2_raise is not None and d.weight_of is not None
    power = Poly.const(d.vars, 1)
    for k in range(1, kmax + 1):
        power = power * h
        preimage = graded_image_membership(d, power)
        if preimage is not None:
            return PowerInImage(k, preimage, kmax)
        if ladder:
            break
    return PowerInImage(None, None, kmax)


# ----------------------------------------------------------------------
# kernel generators


_monomials = lru_cache(maxsize=None)(lambda n, degree: tuple(exponents_of_degree(n, degree)))


def _times(p: Dict[Exponent, int], q: Dict[Exponent, int]) -> Dict[Exponent, int]:
    """The product of two polynomials given as integer terms."""
    out: Dict[Exponent, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _kernel_rref(d: Derivation, monos: Sequence[Tuple[int, ...]]) -> List[Tuple[int, Row]]:
    """Reduced row echelon basis of ``ker D`` on the span of ``monos``.

    Each weight block is solved on its own columns; the union of the
    block bases, sorted by pivot column, is the reduced echelon form of
    the whole kernel because the blocks have disjoint supports.  Within
    a block the columns are eliminated in reverse order: each nullspace
    vector is then ``1`` at its free column, zero at the other free
    columns and non-zero elsewhere only at later pivot columns, which
    makes the basis reduced echelon in the original order.

    On the sl2 ladder (``sl2_raise`` and ``weight_of`` set, ``monos`` one
    degree) ``D: V_w -> V_(w+2)`` is one-to-one for ``w < 0`` and onto
    for ``w >= -1`` (finite-dimensional sl2 theory): negative weights
    are skipped, and each kept block must have a kernel of dimension
    ``|V_w| - |V_(w+2)|``.
    """
    groups = _weight_groups(monos, [(w, 0) for w, _ in _gradings(d)])  # keyed by source weight
    ladder = d.sl2_raise is not None and d.weight_of is not None
    canonical: List[Tuple[int, Row]] = []
    for key, group in groups.items():
        if ladder and key[0] < 0:
            continue
        columns = group[::-1]
        rows = _operator_rows(d, [monos[j] for j in columns])
        basis = nullspace(list(rows.values()), len(columns))
        if ladder and len(basis) != len(group) - len(groups.get((key[0] + 2,), ())):
            raise InternalInconsistency(f"kernel of weight {key[0]} has the wrong dimension {len(basis)}")
        for vector in basis:
            row = {columns[c]: v for c, v in vector.items()}
            canonical.append((min(row), row))
    canonical.sort(key=lambda pair: pair[0])
    return canonical


def graded_kernel_generators(d: Derivation, maxdeg: int) -> List[Poly]:
    """Minimal homogeneous kernel generators up to the degree bound.

    In each degree the kernel is computed exactly, one weight block at a
    time (on the sl2 ladder only weights ``>= 0``, see ``_kernel_rref``),
    and reduced modulo products of lower-degree generators, multiplied
    on their integer coefficients; a primitive integer remainder becomes
    a generator, signed to a positive leading coefficient.  The product
    span is row-reduced once per degree and extended by each new
    generator.  The listing is deterministic: degree ascending, then
    leading monomial descending.
    """
    if not d.graded_linear:
        raise ValueError("kernel generators require a degree-preserving derivation")
    n = len(d.vars)
    generators: List[Tuple[int, Dict[Exponent, int]]] = []  # (degree, content-one integer terms)
    products = {0: [(0, {(0,) * n: 1})]}  # per degree: (index of the last factor, terms)
    for degree in range(1, maxdeg + 1):
        products[degree] = [(i, _times(p, terms)) for i, (g, terms) in enumerate(generators)
                            for last, p in products[degree - g] if last <= i]
        monos = _monomials(n, degree)
        index = {e: i for i, e in enumerate(monos)}
        spanned = rref([{index[e]: c for e, c in p.items()} for _, p in products[degree]], len(monos))
        for _, row in _kernel_rref(d, monos):
            remainder = reduce_against(row, spanned)
            if remainder:
                # monos run graded-lex descending, so the first column is the leading monomial
                sign = 1 if remainder[min(remainder)] > 0 else -1
                terms = {monos[c]: sign * v for c, v in remainder.items()}
                products[degree].append((len(generators), terms))
                generators.append((degree, terms))
                extend_rref(spanned, remainder)
    return [_raw(d.vars, {e: Fraction(v) for e, v in terms.items()}) for _, terms in generators]


# ----------------------------------------------------------------------
# graph restriction and slices


@dataclass(frozen=True)
class GraphPresentation:
    """A subvariety presented as a graph over explicit free coordinates.

    ``free`` identifies ambient coordinates with parameter variables
    one-for-one; ``dependent`` expresses the remaining coordinates as
    polynomials in the parameters.  Nothing is inferred: the split is
    part of the data.
    """

    zvars: Tuple[str, ...]
    free: Mapping[str, str]
    dependent: Mapping[str, Poly]

    def substitution(self) -> Dict[str, Poly]:
        """Ambient coordinate -> polynomial over the parameter table."""
        table: Dict[str, Poly] = {}
        for ambient, zname in self.free.items():
            table[ambient] = Poly.variable(self.zvars, zname)
        for ambient, image in self.dependent.items():
            table[ambient] = image
        return table


def restrict_to_graph(d: Derivation, graph: GraphPresentation) -> Derivation:
    """Restrict a degree-preserving ambient derivation to a graph subvariety.

    An image is a linear form ``Σ c_j x_j``, so on the graph it is
    ``Σ c_j · substitution[x_j]``.  The graph must be stable under ``d``:
    for each dependent coordinate ``x = h`` the image of ``x`` must equal
    ``D(h)`` (the chain rule), else :class:`GraphInconsistency`.
    """
    if not d.graded_linear:
        raise ValueError("graph restriction requires a degree-preserving derivation")
    ambient = set(graph.free) | set(graph.dependent)
    if ambient != set(d.vars) or set(graph.free) & set(graph.dependent):
        raise ValueError("graph must split the ambient coordinates into free and dependent")
    if sorted(graph.free.values()) != sorted(graph.zvars):
        raise ValueError("free coordinates must biject onto the parameter variables")
    zvars = tuple(graph.zvars)
    for name, image in graph.dependent.items():
        if image.vars != zvars:
            raise VariableTableMismatch(f"dependent image of {name!r} is not over {graph.zvars}")
    substitution = graph.substitution()
    on_graph = [substitution[name].terms for name in d.vars]

    def compose(form: Poly) -> Poly:
        acc: Dict[Tuple[int, ...], Fraction] = {}
        for exponent, c in form.terms.items():
            for e, v in on_graph[exponent.index(1)].items():
                acc[e] = acc.get(e, 0) + c * v
        return _raw(zvars, {e: v for e, v in acc.items() if v})

    restricted = Derivation(zvars, {z: compose(d.images[x]) for x, z in graph.free.items()})
    for ambient_name, h in graph.dependent.items():
        lhs = compose(d.images[ambient_name])
        rhs = apply(restricted, h)
        if lhs != rhs:
            raise GraphInconsistency(
                f"graph is not stable under the derivation at {ambient_name!r}: "
                f"ambient action gives {lhs}, chain rule gives {rhs}"
            )
    return restricted


@dataclass(frozen=True)
class SliceSearch:
    """Outcome of the bounded linear search for a slice element."""

    found: Optional[Poly]
    degree_bound: int


def slice_search(d: Derivation, degree_bound: int = 3) -> SliceSearch:
    """Look for ``s`` with ``D(s) = 1`` among polynomials of bounded degree.

    The ansatz is linear in the unknown coefficients, so the bounded
    search is an exact linear solve; a miss only means no slice exists
    up to the bound.
    """
    candidates = list(exponents_up_to_degree(len(d.vars), degree_bound))
    found = _solve_on(d, candidates, Poly.const(d.vars, 1))
    if found is None:
        return SliceSearch(None, degree_bound)
    if apply(d, found) != Poly.const(d.vars, 1):  # pragma: no cover - solver post-condition
        raise InternalInconsistency("slice candidate failed verification")
    return SliceSearch(found, degree_bound)
