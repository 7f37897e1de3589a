"""Derivations of a polynomial ring and exact graded solvers.

A :class:`Derivation` is determined by its images on the generators and
extends by the Leibniz rule.  The solvers in this module decide
whether a polynomial lies in the image of a derivation, compute kernel
generators, restrict a derivation to a graph subvariety, and search for
slice elements.  Every decision is exact rational arithmetic.

Image membership runs on the sl2 ladder alone: a derivation that
carries an attached weight grading and a raising partner (set up by the
representation layer).  For a polynomial the derivation kills it uses
the operator identity ``D(E(q)) = weight(q) * q``: components of
nonzero weight get an explicit preimage ``E(q)/weight`` and a nonzero
weight-zero component is a proof of non-membership.

The same grading splits each linear system into weight blocks.  A
derivation without one, such as a restriction to a graph, is still
homogeneous under a lattice of integer gradings found by one small
nullspace (``_gradings``).  ``D(s) = 1`` has weight 0 on the right, so
a slice is solved on the block of image weight 0 alone.

Both :func:`apply` and the solvers' operator matrices
(``_operator_rows``) run on one integer Leibniz kernel, ``_leibniz``, on
``Poly`` numerators.  A :class:`Derivation` compiles once the common
denominator ``Dd`` of its images, each image term as its numerator over
``Dd`` with its exponent, and the image degree.  A monomial is packed
into one ``int``, a little-endian digit per variable of the narrowest
width (1, 2, 4 or 8 bytes) that holds the largest input exponent plus
the image degree, so each output key is one ``int`` addition of a
packed delta ``e' - unit_i`` that never carries.  :func:`apply` unpacks
only the surviving terms, its numerators over ``p.den * Dd``; an
operator matrix is the ``int`` matrix of ``Dd * D``, rows keyed by
packed monomials; ``transfer.extend`` keeps its ladder packed.

On the sl2 ladder the derivation raises weight by 2 and its kernel is
made of highest-weight vectors, of weight ``>= 0``: kernel generators
solve only those weight blocks and check each one's dimension.

The module has no product or composition of its own: kernel generators
multiply on ``poly._times``, and a graph's pull-back hands its plan to
``poly._compose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from operator import mul
from struct import Struct
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    GraphInconsistency,
    InternalInconsistency,
    NonInvariantInput,
    VariableTableMismatch,
)
from .linalg import Row, extend_rref, nullspace, reduce_against, rref, solve
from .poly import Exponent, Poly, _compose, _raw, _times, exponents_of_degree, exponents_up_to_degree

# (Dd, ((variable index, ((numerator over Dd, e'), ...)), ...), image
# degree) over the variables with a non-zero image; see ``apply``
IntImages = Tuple[int, Tuple[Tuple[int, Tuple[Tuple[int, Exponent], ...]], ...], int]


class Derivation:
    """A derivation of ``k[vars]`` given by generator images.

    ``weight_of``, when given, is a grading of the variables for which
    the derivation is homogeneous: it maps each weight piece into one
    weight piece.
    """

    __slots__ = ("vars", "images", "graded_linear", "weight_of", "sl2_raise", "_int_images", "_packed")

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
            img.is_zero or all(sum(e) == 1 for e in img.nums) for img in table.values()
        )
        object.__setattr__(self, "vars", vt)
        object.__setattr__(self, "images", table)
        object.__setattr__(self, "graded_linear", graded)
        object.__setattr__(self, "weight_of", dict(weight_of) if weight_of else None)
        object.__setattr__(self, "sl2_raise", sl2_raise)
        object.__setattr__(self, "_int_images", _compile_images([table[name] for name in vt]))
        object.__setattr__(self, "_packed", {})  # digit width -> _packed's triple

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

    ``Dd`` is the lcm of the images' denominators.  Variables with a zero
    image are left out.  Each image term keeps ``a*Dd`` and its exponent
    ``e'``; the image degree is the largest total degree of an ``e'``.
    """
    scale = lcm(*[img.den for img in images])
    active = []
    degree = 0
    for i, img in enumerate(images):
        if img.nums:
            active.append((i, tuple((n * (scale // img.den), ie) for ie, n in img.nums.items())))
            degree = max(degree, max(map(sum, img.nums)))
    return scale, tuple(active), degree


# byte widths of an unsigned digit, narrowest first, with their ``struct`` codes
_WIDTHS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def _packed(d: Derivation, top: int) -> Tuple[Callable[[Exponent], int], Callable[[int], Exponent], tuple]:
    """``(key, unkey, images)`` for exponents up to ``top`` over ``d.vars``.

    ``key`` packs an exponent into one ``int``, ``unkey`` reads it back,
    and ``images`` are those of ``d`` with packed deltas ``e' - unit_i``.
    All three are built once per digit width and kept on ``d``.
    """
    bits = (top + d._int_images[2]).bit_length()
    for width, code in _WIDTHS:
        if bits <= 8 * width:
            break
    else:
        raise OverflowError(f"exponent {top} is too large for the packed Leibniz kernel")
    if width not in d._packed:
        form = Struct(f"<{len(d.vars)}{code}")
        key = lambda exponent: int.from_bytes(form.pack(*exponent), "little")
        unkey = lambda packed: form.unpack(packed.to_bytes(form.size, "little"))
        images = []
        for i, image in d._int_images[1]:
            unit = 1 << 8 * width * i
            images.append((i, tuple((c, key(ie) - unit) for c, ie in image)))
        d._packed[width] = (key, unkey, tuple(images))
    return d._packed[width]


def apply(d: Derivation, p: Poly) -> Poly:
    """Apply the derivation via the Leibniz rule, on the packed integer kernel.

    With ``Dd`` the common denominator of the image coefficients and
    ``Dp = p.den``, a numerator ``c*Dp`` of ``p`` at ``x^e`` and a term
    ``a * x^e'`` of the image of ``x_i`` (where ``e_i > 0``) contribute
    ``(c*Dp) * e_i * (a*Dd)`` to the monomial ``e - unit_i + e'``, whose
    packed key is that of ``e`` plus the packed delta ``e' - unit_i``.
    The non-zero ``int`` sums, unpacked only then, are the numerators of
    the result over ``Dp * Dd``; it equals the term-by-term ``Fraction``
    evaluation of the rule.
    """
    if p.vars != d.vars:
        raise VariableTableMismatch(f"polynomial table {p.vars} does not match {d.vars}")
    key, unkey, images = _packed(d, max(chain.from_iterable(p.nums), default=0))
    acc: Dict[int, int] = {}
    _leibniz(acc, images, [(e, key(e), n) for e, n in p.nums.items()])
    return _raw(d.vars, {unkey(k): v for k, v in acc.items() if v}, p.den * d._int_images[0])


def _leibniz(acc: Dict[int, int], images: tuple, terms: Iterable[Tuple[Exponent, int, int]]) -> None:
    """Add ``Dd * D`` of the terms ``(exponent, packed exponent, numer)`` to ``acc``, per packed monomial."""
    get = acc.get
    for exponent, key, numer in terms:
        for i, image in images:
            e = exponent[i]
            if e:
                factor = numer * e
                for c, delta in image:
                    k = key + delta
                    acc[k] = get(k, 0) + factor * c


# ----------------------------------------------------------------------
# graded membership


def weight_components(p: Poly, weight_of: Mapping[str, int]) -> Dict[int, Poly]:
    """Split by total monomial weight under the given per-variable weights."""
    weights = [weight_of[name] for name in p.vars]
    buckets: Dict[int, Dict[Tuple[int, ...], int]] = {}
    for exponent, n in p.nums.items():
        buckets.setdefault(sum(map(mul, exponent, weights)), {})[exponent] = n
    return {w: _raw(p.vars, t, p.den) for w, t in sorted(buckets.items())}


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
    ``z_i``: one equation ``w·(m - unit_i) - e = 0`` per image term.
    """
    active = d._int_images[1]
    if d.weight_of is not None:
        weights = [d.weight_of[name] for name in d.vars]
        shift = 0
        if active:
            i, image = active[0]
            # image-monomial weight minus variable weight: one value for graded ``d``
            shift = sum(map(mul, weights, image[0][1])) - weights[i]
        return [(weights, shift)]
    n = len(d.vars)
    rows = []
    for i, image in active:
        for _, ie in image:
            delta = list(ie)
            delta[i] -= 1
            row = {j: x for j, x in enumerate(delta) if x}
            row[n] = -1
            rows.append(row)
    basis = [[v.get(j, 0) for j in range(n + 1)] for v in nullspace(rows, n + 1)]
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


def _operator_rows(d: Derivation, columns: Sequence[Exponent], top: int) -> Dict[int, Row]:
    """The ``int`` matrix of ``Dd * D`` on ``columns``, whose exponents are at most ``top``.

    One sparse row per image monomial, keyed by ``_packed(d, top)[0]`` of it.
    """
    key, _, images = _packed(d, top)
    rows: Dict[int, Row] = {}
    for j, exponent in enumerate(columns):
        image: Dict[int, int] = {}
        _leibniz(image, images, ((exponent, key(exponent), 1),))
        for k, c in image.items():
            if c:
                rows.setdefault(k, {})[j] = c
    return rows


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
    """Smallest ``k <= kmax`` with ``h^k`` in the image of ``d``, on the sl2 ladder.

    ``d`` must carry the ladder (``sl2_raise`` and ``weight_of``, as
    ``reps.build_derivation`` gives it), else ``ValueError``, and must
    kill ``h``.  Only ``h`` is tried: the ladder refuses ``h`` only for a
    non-zero weight-zero part ``h_0``, and as no weight of ``h`` is
    negative, the weight-zero part of ``h^k`` is ``h_0^k``, again
    non-zero, so every higher power is refused too.
    """
    if d.sl2_raise is None or d.weight_of is None:
        raise ValueError("power_in_image needs the sl2 ladder of build_derivation(spec)")
    if not apply(d, h).is_zero:
        raise NonInvariantInput("power_in_image expects a polynomial killed by the derivation")
    preimage = _ladder_membership(d, h) if kmax >= 1 else None
    return PowerInImage(None if preimage is None else 1, preimage, kmax)


# ----------------------------------------------------------------------
# kernel generators


_monomials = lru_cache(maxsize=None)(lambda n, degree: tuple(exponents_of_degree(n, degree)))
_slice_candidates = lru_cache(maxsize=None)(lambda n, bound: tuple(exponents_up_to_degree(n, bound)))


@lru_cache(maxsize=None)
def _source_groups(n: int, degree: int, weights: Tuple[Tuple[int, ...], ...]) -> Mapping[object, Tuple[int, ...]]:
    """``_weight_groups`` of ``_monomials(n, degree)`` by source weight under ``weights``, cached read-only."""
    groups = _weight_groups(_monomials(n, degree), [(w, 0) for w in weights])
    return MappingProxyType({key: tuple(group) for key, group in groups.items()})


def _kernel_rref(d: Derivation, degree: int) -> List[Tuple[int, Row]]:
    """Reduced row echelon basis of ``ker D`` on the monomials of ``degree``, indexed as ``_monomials``.

    Each weight block is solved on its own columns; the union of the
    block bases, sorted by pivot column, is the reduced echelon form of
    the whole kernel because the blocks have disjoint supports.  Within
    a block the columns are eliminated in reverse order: each nullspace
    vector is then positive at its free column, zero at the other free
    columns and non-zero elsewhere only at later pivot columns, which
    makes the basis reduced echelon in the original order.

    On the sl2 ladder (``sl2_raise`` and ``weight_of`` set)
    ``D: V_w -> V_(w+2)`` is one-to-one for ``w < 0`` and onto
    for ``w >= -1`` (finite-dimensional sl2 theory): negative weights
    are skipped, and each kept block must have a kernel of dimension
    ``|V_w| - |V_(w+2)|``.
    """
    monos = _monomials(len(d.vars), degree)
    groups = _source_groups(len(d.vars), degree, tuple(tuple(w) for w, _ in _gradings(d)))
    ladder = d.sl2_raise is not None and d.weight_of is not None
    canonical: List[Tuple[int, Row]] = []
    for key, group in groups.items():
        if ladder and key[0] < 0:
            continue
        columns = group[::-1]
        rows = _operator_rows(d, [monos[j] for j in columns], degree)
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
        products[degree] = [(i, _times(p.items(), terms.items())) for i, (g, terms) in enumerate(generators)
                            for last, p in products[degree - g] if last <= i]
        monos = _monomials(n, degree)
        index = {e: i for i, e in enumerate(monos)}
        spanned = rref([{index[e]: c for e, c in p.items()} for _, p in products[degree]], len(monos))
        for _, row in _kernel_rref(d, degree):
            remainder = reduce_against(row, spanned)
            if remainder:
                # monos run graded-lex descending, so the first column is the leading monomial
                sign = 1 if remainder[min(remainder)] > 0 else -1
                terms = {monos[c]: sign * v for c, v in remainder.items()}
                products[degree].append((len(generators), terms))
                generators.append((degree, terms))
                extend_rref(spanned, remainder)
    return [_raw(d.vars, terms) for _, terms in generators]


# ----------------------------------------------------------------------
# graph restriction and slices


@dataclass(frozen=True)
class GraphPresentation:
    """A subvariety presented as a graph over explicit free coordinates.

    ``free`` identifies ambient coordinates with parameter variables
    one-for-one; ``dependent`` expresses the remaining coordinates as
    polynomials in the parameters.  Nothing is inferred: the split is
    part of the data, and a malformed one is a ``ValueError`` here.
    """

    zvars: Tuple[str, ...]
    free: Mapping[str, str]
    dependent: Mapping[str, Poly]

    def __post_init__(self) -> None:
        zvars = tuple(self.zvars)
        if len(set(zvars)) != len(zvars) or sorted(self.free.values()) != sorted(zvars):
            raise ValueError("free coordinates must biject onto the parameter variables")
        if set(self.free) & set(self.dependent):
            raise ValueError("graph must split the ambient coordinates into free and dependent")
        for name, image in self.dependent.items():
            if image.vars != zvars:
                raise VariableTableMismatch(f"dependent image of {name!r} is not over {zvars}")

    def pull_back(self, p: Poly) -> Poly:
        """``p`` composed with the graph map, over the parameter table ``zvars``.

        The plan for ``poly._compose`` comes from the split as it is: the
        free coordinates are relabelled onto their parameters and the
        dependent ones composed with their images.
        """
        zvars = tuple(self.zvars)
        if sorted(p.vars) != sorted([*self.free, *self.dependent]):
            raise VariableTableMismatch(f"polynomial table {p.vars} is not the graph's ambient table")
        relabel = [(i, zvars.index(self.free[name])) for i, name in enumerate(p.vars) if name in self.free]
        composed = [(i, self.dependent[name]) for i, name in enumerate(p.vars) if name in self.dependent]
        return _compose(p, zvars, relabel, composed)


def restrict_to_graph(d: Derivation, graph: GraphPresentation) -> Derivation:
    """Restrict a degree-preserving ambient derivation to a graph subvariety.

    An image is a linear form; on the graph it is its pull-back
    (:meth:`GraphPresentation.pull_back`), taken only when non-zero.  The
    graph must be stable under ``d``: for each dependent coordinate
    ``x = h`` the image of ``x`` must equal ``D(h)`` (the chain rule),
    else :class:`GraphInconsistency`.
    """
    if not d.graded_linear:
        raise ValueError("graph restriction requires a degree-preserving derivation")
    if set(graph.free) | set(graph.dependent) != set(d.vars):
        raise ValueError("graph must split the ambient coordinates into free and dependent")
    pulled = {x: graph.pull_back(image) for x, image in d.images.items() if not image.is_zero}
    restricted = Derivation(graph.zvars, {z: pulled[x] for x, z in graph.free.items() if x in pulled})
    for ambient_name, h in graph.dependent.items():
        lhs = pulled[ambient_name] if ambient_name in pulled else Poly.zero(graph.zvars)
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

    def to_dict(self) -> Dict:
        return {
            "found": None if self.found is None else str(self.found),
            "degreeBound": self.degree_bound,
        }


def slice_search(d: Derivation, degree_bound: int = 3) -> SliceSearch:
    """Look for ``s`` with ``D(s) = 1`` among polynomials of bounded degree.

    The ansatz is linear in the unknown coefficients, so the bounded
    search is an exact linear solve; a miss only means no slice exists
    up to the bound.  ``1`` has weight 0 under every grading of
    ``_gradings``, so the columns are the candidates of image weight 0
    alone, and the free coefficients are pinned to zero.  The matrix is
    that of ``Dd * D``, so the constant row asks for ``Dd``.
    """
    candidates = _slice_candidates(len(d.vars), degree_bound)
    gradings = _gradings(d)
    group = _weight_groups(candidates, gradings).get((0,) * len(gradings) if gradings else None, ())
    columns = [candidates[j] for j in group]
    rows = _operator_rows(d, columns, max(chain.from_iterable(candidates), default=0))
    rows.setdefault(0, {})  # the constant monomial packs to 0
    outcome = solve(list(rows.values()), [d._int_images[0] if k == 0 else 0 for k in rows], len(columns))
    if outcome is None:
        return SliceSearch(None, degree_bound)
    found = Poly(d.vars, {e: c for e, c in zip(columns, outcome[0]) if c})
    if apply(d, found) != Poly.const(d.vars, 1):  # pragma: no cover - solver post-condition
        raise InternalInconsistency("slice candidate failed verification")
    return SliceSearch(found, degree_bound)
