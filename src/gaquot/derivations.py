"""Derivations of a polynomial ring and exact graded solvers.

A :class:`Derivation` is determined by its images on the generators and
extends by the Leibniz rule.  The solvers in this module decide
whether a polynomial lies in the image of a derivation, compute kernel
generators, restrict a derivation to a graph subvariety, and search for
slice elements.  Every decision is exact rational arithmetic.

Image membership and kernel generators run on the sl2 ladder alone: a
derivation that carries an attached weight grading and a raising
partner, as the lowering operator of ``reps.sl2_triple`` does; any other
derivation is a ``ValueError`` there.  For a polynomial the derivation
kills, membership uses the operator identity ``D(E(q)) = weight(q) * q``:
components of nonzero weight get an explicit preimage ``E(q)/weight``
and a nonzero weight-zero component is a proof of non-membership.

Every other grading is the lattice of integer gradings under which a
derivation is homogeneous, found by one small nullspace once per
derivation (``_gradings``).  A monomial's image weights are packed into
one ``int`` key, one dot product in a mixed radix (``_weight_groups``).
``D(s) = 1`` has weight 0 on the right, so a slice is solved on the
block of image weight 0 alone.

Both :func:`apply` and the solvers' operator matrices
(``_operator_rows``) run on one integer Leibniz kernel, ``_leibniz``, on
``Poly`` numerators.  A :class:`Derivation` compiles once the common
denominator ``Dd`` of its images, each image term as its numerator over
``Dd`` with its exponent, and the image degree.  A monomial is packed
into one ``int``, a little-endian digit per variable of the narrowest
width (1, 2, 4 or 8 bytes) that holds the largest input exponent plus
the image degree, so each output key is one ``int`` addition of a
packed delta ``e' - unit_i`` that never carries.  The image terms of
all variables are kept as one flat list of ``(i, a*Dd, delta)``
triples, so the kernel runs one loop per input term.  :func:`apply` unpacks
only the surviving terms, its numerators over ``p.den * Dd``; an
operator matrix is the ``int`` matrix of ``Dd * D``, rows keyed by
packed monomials; ``transfer.extend`` keeps its ladder packed.

On the ladder the derivation raises weight by 2 and its kernel is made
of highest-weight vectors, of weight ``>= 0``.  Kernel generators solve
no linear system: a lattice block (weight and summand degrees) that
products do not fill and the derivation does not kill is spanned by
transvectants ``τ_r(C, g_s)`` of the kernel rows ``C`` of the degree
below with the summands' top coordinates, up to its Cayley-Sylvester
dimension; each new generator is checked to be killed.  The transvectant
is built once, on ladder layers ``E^j(C)/(p)_j`` over packed keys
(``_ladder``, ``_tau``), for the kernel and for ``reps``' catalog alike.

The module has no product or composition of its own: kernel generators
multiply on ``poly._times``, and a graph's pull-back hands its plan to
``poly._compose``.  A graph of one dependent coordinate compares its
equation with a polynomial term by term (``GraphPresentation.defines``)
and gives it as a polynomial (``GraphPresentation.equation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm
from operator import mul
from struct import Struct
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    GraphInconsistency,
    InternalInconsistency,
    NonInvariantInput,
    VariableTableMismatch,
)
from .linalg import Row, extend_rref, nullspace, reduce_against, solve
from .poly import Exponent, Poly, _compose, _projector, _raw, _times, exponents_of_degree, exponents_up_to_degree

# (Dd, ((variable index, ((numerator over Dd, e'), ...)), ...), image
# degree) over the variables with a non-zero image; see ``apply``
IntImages = Tuple[int, Tuple[Tuple[int, Tuple[Tuple[int, Exponent], ...]], ...], int]
# _ladder's layers: numerators per packed monomial over one denominator
Ladder = List[Tuple[Dict[int, int], int]]


class Derivation:
    """A derivation of ``k[vars]`` given by generator images.

    ``weight_of`` and ``sl2_raise`` together are the sl2 ladder, which
    only the lowering operator of ``reps.sl2_triple`` carries: the
    variable weights, raised by 2 by the derivation, and the raising
    partner.  Kernel generators and image membership require them.
    """

    __slots__ = ("vars", "images", "weight_of", "sl2_raise", "_int_images", "_packed", "_lattice", "_blocks")

    def __init__(
        self,
        variables: Sequence[str],
        images: Mapping[str, Poly],
        weight_of: Optional[Mapping[str, int]] = None,
        sl2_raise: Optional["Derivation"] = None,
    ):
        vt = tuple(variables)
        table: Dict[str, Poly] = {}
        zero = Poly.zero(vt)
        for name in vt:
            img = images.get(name, zero)
            if img.vars != vt:
                raise VariableTableMismatch(
                    f"image of {name!r} lives on table {img.vars}, expected {vt}"
                )
            table[name] = img
        unknown = set(images) - set(vt)
        if unknown:
            raise ValueError(f"images given for unknown variables {sorted(unknown)}")
        object.__setattr__(self, "vars", vt)
        object.__setattr__(self, "images", table)
        object.__setattr__(self, "weight_of", dict(weight_of) if weight_of else None)
        object.__setattr__(self, "sl2_raise", sl2_raise)
        object.__setattr__(self, "_int_images", _compile_images([table[name] for name in vt]))
        object.__setattr__(self, "_packed", {})  # digit width -> _packed's triple
        object.__setattr__(self, "_lattice", None)  # _gradings, once asked for
        object.__setattr__(self, "_blocks", {})  # degree -> its _Degree, from _blocks

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
    and ``images`` lists every image term of ``d`` as one flat triple
    ``(i, a*Dd, e' - unit_i)``, the delta packed, variable by variable.
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
        images = tuple((i, c, key(ie) - (1 << 8 * width * i))
                       for i, image in d._int_images[1] for c, ie in image)
        d._packed[width] = (key, unkey, images)
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
    """Add ``Dd * D`` of the terms ``(exponent, packed exponent, numer)`` to ``acc``, per packed monomial.

    One loop over ``_packed``'s flat image triples per term, in their order.
    """
    get = acc.get
    for exponent, key, numer in terms:
        for i, c, delta in images:
            e = exponent[i]
            if e:
                k = key + delta
                acc[k] = get(k, 0) + numer * e * c


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


def _ladder(raising: Derivation, packed: tuple, layers: Ladder, p: int, upto: int) -> Ladder:
    """``layers`` extended in place to ``a_0 .. a_upto``, with ``a_j = E^j(a) / (p)_j`` for ``a = a_0`` of weight ``p``.

    ``E`` is ``raising``, ``(p)_j`` the falling factorial and ``packed`` the
    ``_packed`` triple of ``E`` that keys the layers.  A layer is its ``int``
    numerators per packed monomial over one denominator; ``E`` is applied
    by ``_leibniz`` as ``Ee * E``, ``Ee`` its common denominator.
    """
    _, unkey, images = packed
    for j in range(len(layers), upto + 1):
        terms, den = layers[-1]
        acc: Dict[int, int] = {}
        _leibniz(acc, images, [(unkey(k), k, v) for k, v in terms.items()])
        layers.append(({k: v for k, v in acc.items() if v}, den * raising._int_images[0] * (p - j + 1)))
    return layers


def _tau(la: Ladder, lb: Ladder, r: int) -> Tuple[Dict[int, int], int]:
    """``τ_r(a, b) = Σ_j (−1)^j C(r, j) a_j b_(r−j)`` from the ``_ladder`` layers of ``a`` and ``b``, as packed numerators over a denominator.

    A product of layers adds packed keys, so the digit width must hold the
    degree of ``a`` plus that of ``b``.  Cancelled terms stay as zeros.
    """
    den = lcm(*[la[j][1] * lb[r - j][1] for j in range(r + 1)])
    acc: Dict[int, int] = {}
    get = acc.get
    for j in range(r + 1):
        (ta, da), (tb, db) = la[j], lb[r - j]
        scale = (-1) ** j * comb(r, j) * (den // (da * db))
        for kb, nb in tb.items():
            c = scale * nb
            for ka, na in ta.items():
                k = ka + kb
                acc[k] = get(k, 0) + c * na
    return acc, den


def _transvectant(d: Derivation, a: Poly, b: Poly, r: int) -> Poly:
    """``τ_r(a, b) = Σ_j (−1)^j C(r, j) a_j b_(r−j)`` for ``a``, ``b`` killed by ``d``, each of one weight.

    With ``E = d.sl2_raise`` and ``p`` the weight of ``a``, ``a_j = E^j(a) / (p)_j``
    (falling factorial); ``[D, E] = H`` gives ``D(a_j) = j·a_(j−1)``, so ``d`` kills
    ``τ_r(a, b)`` (Olver, *Classical Invariant Theory*, 1999, ch. 5).  It is zero
    for ``r`` above either weight, as ``E^(p+1)`` kills ``a``.  Otherwise the
    layers are built up to ``r`` by ``_ladder`` and combined by ``_tau``, on
    keys packed for the degree of ``a`` plus that of ``b``: the route of the
    kernel generators' candidates.  A zero input, or one of several weights,
    is a ``ValueError``.
    """
    p, q = _weight(d, a), _weight(d, b)
    if r > min(p, q):
        return Poly.zero(d.vars)
    raising = d.sl2_raise
    packed = _packed(raising, max(map(sum, a.nums)) + max(map(sum, b.nums)))
    key, unkey, _ = packed
    la, lb = ([({key(e): n for e, n in c.nums.items()}, c.den)] for c in (a, b))
    acc, den = _tau(_ladder(raising, packed, la, p, r), _ladder(raising, packed, lb, q, r), r)
    return _raw(d.vars, {unkey(k): v for k, v in acc.items() if v}, den)


def _weight(d: Derivation, a: Poly) -> int:
    """The one weight of ``a`` on the ladder of ``d``; ``ValueError`` for zero or several."""
    weights = [d.weight_of[name] for name in d.vars]
    found = {sum(map(mul, e, weights)) for e in a.nums}
    if not found:
        raise ValueError("a transvectant needs non-zero inputs, got 0")
    if len(found) > 1:
        raise ValueError(f"a transvectant needs inputs of one weight, got {a} of weights {sorted(found)}")
    return found.pop()


def _gradings(d: Derivation) -> List[Tuple[Sequence[int], int]]:
    """A basis of the integer gradings ``(w, e)``: ``d`` adds ``e`` to the weight ``w·c`` of every monomial.

    The lattice of all of them is cut out by ``w·m = w_i + e`` for each
    monomial ``m`` of the image of ``z_i``: one equation
    ``w·(m - unit_i) - e = 0`` per image term.  It holds the ladder's
    weights of an sl2 operator too, with its shift.  It is kept on ``d``.
    """
    if d._lattice is None:
        n = len(d.vars)
        rows = []
        for i, image in d._int_images[1]:
            for _, ie in image:
                delta = list(ie)
                delta[i] -= 1
                row = {j: x for j, x in enumerate(delta) if x}
                row[n] = -1
                rows.append(row)
        basis = [[v.get(j, 0) for j in range(n + 1)] for v in nullspace(rows, n + 1)]
        object.__setattr__(d, "_lattice", [(w[:n], w[n]) for w in basis])
    return d._lattice


def _weight_groups(
    monos: Sequence[Tuple[int, ...]], gradings: Sequence[Tuple[Sequence[int], int]]
) -> Tuple[Dict[int, List[int]], Optional[int], int]:
    """Indices into ``monos`` grouped by image weights ``(w·c + e, ...)``, each group ascending.

    ``d`` maps every group into one weight piece, so its operator matrix
    is block-diagonal over them.  The weights are packed into one ``int``
    key per monomial, a digit per grading in a mixed radix: for
    monomials of degree at most ``top``, ``w·c + e`` lies within
    ``top * min(0, w) + e`` and ``top * max(0, w) + e``, and each digit's
    range is widened by ``|e|`` so that a shifted key never carries.  So
    the key is one dot product ``W·c + offset``.  Returns the groups, the
    key of the all-zero weights (``None`` when some digit cannot hold 0),
    and the key shift: ``d`` maps the group keyed ``g`` into the one keyed
    ``g + shift``.  With no grading every index sits in the group ``0``.
    """
    top = max(map(sum, monos), default=0)
    weights = [0] * len(monos[0]) if monos else []
    offset = shift = zero = 0
    radix = 1
    for w, e in gradings:
        lo = top * min(0, *w) + e + min(0, e)
        hi = top * max(0, *w) + e + max(0, e)
        weights = [a + radix * b for a, b in zip(weights, w)]
        offset += radix * (e - lo)
        shift += radix * e
        zero = zero - radix * lo if zero is not None and lo <= 0 <= hi else None
        radix *= hi - lo + 1
    groups: Dict[int, List[int]] = {}
    for j, c in enumerate(monos):
        groups.setdefault(sum(map(mul, c, weights)) + offset, []).append(j)
    return groups, zero, shift


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
    """Outcome of the power search: ``power`` 1 with its preimage, or ``None`` for no power."""

    power: Optional[int]
    preimage: Optional[Poly]

    @property
    def found(self) -> bool:
        return self.power is not None


def power_in_image(d: Derivation, h: Poly) -> PowerInImage:
    """Smallest ``k`` with ``h^k`` in the image of ``d``, on the sl2 ladder.

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
    preimage = _ladder_membership(d, h)
    return PowerInImage(None if preimage is None else 1, preimage)


# ----------------------------------------------------------------------
# kernel generators


_monomials = lru_cache(maxsize=None)(lambda n, degree: tuple(exponents_of_degree(n, degree)))
_slice_candidates = lru_cache(maxsize=None)(lambda n, bound: tuple(exponents_up_to_degree(n, bound)))

# The most monomials graded_kernel_generators takes in its top degree d, C(n + d - 1, d), and
# the most candidates slice_search takes up to its degree bound d, C(n + d, d) - 1.
MAX_MONOMIALS = 50000


Signature = Tuple[int, Tuple[int, ...]]  # (weight, degree in each summand, counted at its top coordinate)


class _Degree(NamedTuple):
    """The monomials of one degree in the blocks of ``_gradings(d)``, as ``_blocks`` keeps them on ``d``."""

    index: Dict[Exponent, int]  # monomial -> its ``_monomials`` column
    block_of: List[int]  # column -> its block
    blocks: List[Tuple[Tuple[int, ...], int, bool, Signature]]  # (columns descending, kernel dimension, whole, signature)
    signatures: Dict[Signature, int]  # signature -> its block
    slot: Dict[int, int]  # monomial packed by _packed(E, degree) -> its column
    tops: List[Tuple[int, int, Ladder]]  # (t, k, ladder of x_t) per summand Sym^k, packed by _packed(E, degree)


def _blocks(d: Derivation, degree: int) -> _Degree:
    """The monomials of ``degree`` in the blocks of ``_gradings(d)``, kept on ``d``.

    ``D`` maps block ``g`` into block ``g + e``, ``e`` the lattice shifts;
    on the ladder a block is a weight space of one sl2 submodule, so its
    kernel dimension is ``|V_g| - |V_(g+e)|`` at weight ``>= 0`` (Cayley-
    Sylvester) and 0 below.  ``D`` kills a ``whole`` block: its target is
    empty.  The lattice of the ladder is that of the weight and the
    summand degrees, so those are a block's signature; ``D`` leads each
    coordinate to its summand's top one, where that degree is counted.
    The columns and the ladders of the top coordinates ``x_t`` (``_tops``)
    are keyed for the transvectants of this degree, by ``_packed(E, degree)``.
    """
    if degree not in d._blocks:
        n = len(d.vars)
        monos = _monomials(n, degree)
        groups, _, shift = _weight_groups(monos, _gradings(d))
        weights = [d.weight_of[name] for name in d.vars]
        lower = {i: image[0][1].index(1) for i, image in d._int_images[1]}  # D(x_(s,j+1)) = c * x_(s,j)
        summand = []
        for i in range(n):
            while i in lower:
                i = lower[i]
            summand.append(i)
        block_of = [0] * len(monos)
        blocks = []
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}  # one tuple per summand degrees, for all their weights
        for key, group in groups.items():
            for j in group:
                block_of[j] = len(blocks)
            weight = sum(map(mul, monos[group[0]], weights))
            degrees = [0] * n
            for i, e in zip(summand, monos[group[0]]):
                degrees[i] += e
            degrees = shared.setdefault(tuple(degrees), tuple(degrees))
            target = len(groups.get(key + shift, ()))
            blocks.append((tuple(group[::-1]), len(group) - target if weight >= 0 else 0, not target, (weight, degrees)))
        packed = _packed(d.sl2_raise, degree)
        tops = [(t, k, _ladder(d.sl2_raise, packed, [({packed[0](tuple(int(i == t) for i in range(n))): 1}, 1)], k, k))
                for t, k in _tops(d)]
        d._blocks[degree] = _Degree({e: j for j, e in enumerate(monos)}, block_of, blocks,
                                    {block[3]: b for b, block in enumerate(blocks)},
                                    {packed[0](e): j for j, e in enumerate(monos)}, tops)
    return d._blocks[degree]


def _tops(d: Derivation) -> List[Tuple[int, int]]:
    """``(variable index, k)`` of the top coordinate ``g_s`` of each summand ``Sym^k``: the variables ``d`` kills."""
    active = {i for i, _ in d._int_images[1]}
    return [(i, d.weight_of[name]) for i, name in enumerate(d.vars) if i not in active]


def graded_kernel_generators(d: Derivation, maxdeg: int) -> List[Poly]:
    """Minimal homogeneous kernel generators up to the degree bound.

    ``d`` must carry the sl2 ladder (``sl2_raise`` and ``weight_of``, as
    ``reps.build_derivation`` gives it), and the top degree at most
    ``MAX_MONOMIALS`` monomials, else ``ValueError``.  Products of lower
    generators, on integer coefficients, are row-reduced one at a time
    into their ``_blocks`` block's span.  A full block is skipped and a
    whole one is its monomials.  Each other block is spanned by the
    transvectants ``τ_r(C, g_s)`` that land in it (``_candidates``), reduced
    into a copy of its product span until that reaches the block's
    dimension (``_span_block``).  Here ``C`` runs over the span rows of the
    degree below, a kernel basis once that degree ends, ``g_s`` over the
    top coordinates of the summands ``Sym^(k_s)`` (``_tops``), and
    ``1 <= r <= min(wt C, k_s)``: multiplication ``S^(d-1)(W) ⊗ W -> S^d(W)``
    is onto and commutes with the triple, so it maps the highest-weight
    vectors of the tensor product, the transvectants (Clebsch-Gordan),
    onto the kernel, and ``r = 0`` gives the products.  At degree 1 every
    kernel block is a top coordinate, killed whole.  The kernel rows, by
    pivot column, are reduced modulo their block's span: reduced echelon
    forms are unique and blocks have disjoint supports, so that is
    reduction modulo all products.  A primitive integer remainder becomes
    a generator, signed to a positive leading coefficient.  A product left
    over in a full block, a candidate outside its block, a block left
    short, or a generator of a spanned block that ``d`` does not kill
    raises ``InternalInconsistency``: the products lie in the kernel, so
    generators ``d`` kills and the dimensions prove each span is the
    kernel.  The listing is degree ascending, then leading monomial
    descending.
    """
    if d.sl2_raise is None or d.weight_of is None:
        raise ValueError("graded_kernel_generators needs the sl2 ladder of build_derivation(spec)")
    n = len(d.vars)
    count = comb(n + maxdeg - 1, maxdeg) if maxdeg > 0 else 0
    if count > MAX_MONOMIALS:
        raise ValueError(f"invariant degree {maxdeg} has {count} monomials in {n} variables, "
                         f"above the cap of {MAX_MONOMIALS}")
    generators: List[Tuple[int, Dict[Exponent, int]]] = []  # (degree, content-one integer terms)
    products = {0: [(0, {(0,) * n: 1})]}  # per degree: (index of the last factor, terms)
    below = (_blocks(d, 0), [[(0, {0: 1})]], _monomials(n, 0))  # the degree below: its blocks, spans and monomials
    for degree in range(1, maxdeg + 1):
        products[degree] = [(i, _times(p.items(), terms.items())) for i, (g, terms) in enumerate(generators)
                            for last, p in products[degree - g] if last <= i]
        monos = _monomials(n, degree)
        level = _blocks(d, degree)
        index, block_of, blocks = level.index, level.block_of, level.blocks
        spans: List[List[Tuple[int, Row]]] = [[] for _ in blocks]
        for _, p in products[degree]:
            row = {index[e]: c for e, c in p.items()}
            b = block_of[next(iter(row))]
            remainder = reduce_against(row, spans[b])
            if remainder:
                if len(spans[b]) == blocks[b][1]:
                    raise InternalInconsistency(f"products exceed the kernel dimension {blocks[b][1]} at {next(iter(p))}")
                extend_rref(spans[b], remainder)
        ladders: Dict[Tuple[int, int], Ladder] = {}  # (block below, row) -> the ladder of that span row
        packed = _packed(d.sl2_raise, degree)
        kernel = []  # (pivot column, block, row)
        for b, (columns, dimension, whole, _) in enumerate(blocks):
            if len(spans[b]) < dimension:
                basis = ([(c, {c: 1}) for c in columns] if whole else
                         _span_block(spans[b], dimension, _candidates(d.sl2_raise, packed, below, ladders, level, b)))
                if len(basis) < dimension:
                    raise InternalInconsistency(f"kernel at {monos[columns[0]]} is left short: "
                                                f"{len(basis)} of its dimension {dimension}")
                kernel.extend((pivot, b, row) for pivot, row in basis)
        kernel.sort(key=lambda entry: entry[0])
        key, _, images = _packed(d, degree)
        for _, b, row in kernel:
            remainder = reduce_against(row, spans[b])
            if remainder:
                # monos run graded-lex descending, so the first column is the leading monomial
                sign = 1 if remainder[min(remainder)] > 0 else -1
                terms = {monos[c]: sign * v for c, v in remainder.items()}
                if not blocks[b][2]:  # D kills a whole block's monomials: its target is empty
                    image: Dict[int, int] = {}
                    _leibniz(image, images, [(e, key(e), v) for e, v in terms.items()])
                    if any(image.values()):
                        raise InternalInconsistency(f"kernel generator at {monos[min(remainder)]} is not killed by the derivation")
                products[degree].append((len(generators), terms))
                generators.append((degree, terms))
                extend_rref(spans[b], remainder)
        below = (level, spans, monos)
    return [_raw(d.vars, terms) for _, terms in generators]


def _candidates(raising: Derivation, packed: tuple, below: tuple, ladders: Dict[Tuple[int, int], Ladder],
                level: _Degree, b: int) -> Iterator[Row]:
    """The transvectants ``τ_r(C, g_s)`` that land in block ``b`` of ``level``, as primitive rows on its columns.

    ``below`` is the degree below as ``(blocks, spans, monomials)``.  With
    ``b`` of weight ``w`` and summand degrees ``m``, ``C`` runs over the
    span rows of the block below of weight ``p = w - k + 2r`` and degrees
    ``m`` less one at ``t``, for ``r = 1, 2, ...`` and each summand
    ``Sym^k`` with top coordinate ``x_t`` (``level.tops``), while
    ``r <= min(p, k)``.  The ladder of a ``C`` is kept in ``ladders``,
    built as far as asked, so it is built once however many blocks it
    feeds.  Every candidate comes from ``_ladder`` and ``_tau`` on keys
    packed by ``packed``, ``_packed`` of ``raising`` for the degree of
    ``level``, and is checked to lie in block ``b``.
    """
    weight, degrees = level.blocks[b][3]
    slot, block_of = level.slot, level.block_of
    level_below, spans_below, monos_below = below
    key = packed[0]
    for r in range(1, max((k for _, k, _ in level.tops), default=0) + 1):
        for t, k, lb in level.tops:
            p = weight - k + 2 * r
            if r > min(p, k) or not degrees[t]:
                continue
            source = level_below.signatures.get((p, (*degrees[:t], degrees[t] - 1, *degrees[t + 1:])))
            if source is None:
                continue
            for i, (_, row) in enumerate(spans_below[source]):
                la = ladders.get((source, i))
                if la is None:
                    la = ladders[source, i] = [({key(monos_below[c]): v for c, v in row.items()}, 1)]
                candidate = {}
                for packed_term, v in _tau(_ladder(raising, packed, la, p, r), lb, r)[0].items():
                    if v:
                        c = slot.get(packed_term)
                        if c is None or block_of[c] != b:
                            raise InternalInconsistency(f"transvectant τ_{r} of a weight-{p} kernel row and Sym^{k} leaves its block")
                        candidate[c] = v
                if candidate:
                    g = gcd(*candidate.values())
                    yield candidate if g == 1 else {c: v // g for c, v in candidate.items()}


def _span_block(span: List[Tuple[int, Row]], dimension: int, candidates: Iterable[Row]) -> List[Tuple[int, Row]]:
    """A copy of a short block's product ``span``, extended by the primitive ``candidates`` until it has ``dimension`` rows.

    Candidates are drawn only while the copy is short, and it may stay
    short; the caller checks.
    """
    span = list(span)
    for row in candidates:
        remainder = reduce_against(row, span)
        if remainder:
            extend_rref(span, remainder)
            if len(span) == dimension:
                break
    return span


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
        self._check_ambient(p)
        relabel = [(i, zvars.index(self.free[name])) for i, name in enumerate(p.vars) if name in self.free]
        composed = [(i, self.dependent[name]) for i, name in enumerate(p.vars) if name in self.dependent]
        return _compose(p, zvars, relabel, composed)

    def defines(self, p: Poly) -> bool:
        """Whether ``p`` is a non-zero scalar multiple of ``w - h``, for the one dependent coordinate ``w = h``.

        ``w - h`` is the graph as a hypersurface: with ``h = H/s``, its
        numerators are ``s`` at ``w`` and ``-H`` at ``H``'s exponents
        relabelled onto ``p``'s table through ``free``.  The check
        compares terms, no composition: ``p``'s numerators ``P`` have the
        same support, and ``P[e]*s == -H[e]*P[w]`` for every term of
        ``H``.  A graph of another number of dependent coordinates is a
        ``ValueError``.
        """
        name, h = self._hypersurface(p)
        zvars = tuple(self.zvars)
        slot = {z: i for i, z in enumerate(zvars)}
        at = [slot[self.free[x]] if x in self.free else len(zvars) for x in p.vars]  # w reads the 0 appended
        relabel = _projector(at)
        w = tuple(int(x == name) for x in p.vars)
        nums = p.nums
        if len(nums) != len(h.nums) + 1 or w not in nums:
            return False
        pw, s = nums[w], h.den
        return all(nums.get(relabel((*e, 0)), 0) * s == -c * pw for e, c in h.nums.items())

    def equation(self, table: Tuple[str, ...]) -> Poly:
        """``w - h`` over the ambient ``table``, as ``defines`` reads it; ``poly._compose`` relabels ``h``."""
        name, h = self._hypersurface(Poly.zero(table))
        relabel = [(h.vars.index(z), table.index(x)) for x, z in self.free.items()]
        return Poly.variable(table, name) - _compose(h, table, relabel, [])

    def _hypersurface(self, p: Poly) -> Tuple[str, Poly]:
        """``(w, h)`` for the one dependent coordinate ``w = h``, once ``p`` is checked to lie over the ambient table."""
        self._check_ambient(p)
        if len(self.dependent) != 1:
            raise ValueError(f"a graph of {len(self.dependent)} dependent coordinates is no hypersurface")
        ((name, h),) = self.dependent.items()
        return name, h

    def _check_ambient(self, p: Poly) -> None:
        if sorted(p.vars) != sorted([*self.free, *self.dependent]):
            raise VariableTableMismatch(f"polynomial table {p.vars} is not the graph's ambient table")


def restrict_to_graph(d: Derivation, graph: GraphPresentation) -> Derivation:
    """Restrict an ambient derivation to a graph subvariety.

    On the graph an image is its pull-back
    (:meth:`GraphPresentation.pull_back`), taken only when non-zero.  The
    graph must be stable under ``d``: for each dependent coordinate
    ``x = h`` the image of ``x`` must equal ``D(h)`` (the chain rule,
    which holds for any derivation), else :class:`GraphInconsistency`.
    """
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
    n = len(d.vars)
    count = comb(n + degree_bound, degree_bound) - 1 if degree_bound > 0 else 0
    if count > MAX_MONOMIALS:
        raise ValueError(f"slice degree {degree_bound} has {count} candidates in {n} variables, "
                         f"above the cap of {MAX_MONOMIALS}")
    candidates = _slice_candidates(n, degree_bound)
    groups, zero, _ = _weight_groups(candidates, _gradings(d))
    group = groups.get(zero, ())
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
