"""Representations of the additive group inside rank-one symmetric powers.

A :class:`RepSpec` describes a direct sum of symmetric powers
``Sym^k V`` of the standard two-dimensional representation, with one
coordinate per weight-basis vector.  Within a summand of exponent ``k``
the inner index ``i`` runs ``0..k`` and the coordinate carries torus
weight ``k - 2i``; the additive group sits inside the rank-one group as
the strictly lower-triangular one-parameter subgroup.

Two coordinate normalisations of the induced vector-field are supported:

* ``section5`` -- the triangular derivation sends ``w_{i+1}`` to
  ``(k - i) * w_i``;
* ``unit`` -- a diagonal rescaling of the same summand in which
  ``w_{i+1}`` maps to ``w_i`` on the nose.

The lowering operator, its raising partner and the diagonal weight
operator form a triple.  The raising operator is written in closed
form, ``w_i -> (i + 1) * w_{i+1}`` (``section5``) or
``w_i -> (i + 1)(k - i) * w_{i+1}`` (``unit``).  By Kostant's lemma
(Kostant 1959, the principal three-dimensional subgroup) a lowering and
a diagonal operator admit at most one linear raising partner: the
difference of two partners commutes with the lowering operator and has
adjoint weight opposite to it, and on a finite-dimensional space sl2
theory allows no such non-zero operator.  The closed
form is therefore the only operator the bracket relations allow, and
:func:`sl2_triple` asserts them on every generator before caching it.
That the exponential of the lowering operator reproduces the
substitution action of the lower-triangular subgroup is checked by the
test suite, which uses :func:`group_substitution` as its oracle.  The
catalogued invariants are transvectants on the same ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import combinations
from operator import mul
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .derivations import Derivation, _transvectant, apply
from .errors import ConstructionFailure, UnsupportedBlock, VariableTableMismatch
from .poly import Poly

NORMALIZATIONS = ("section5", "unit")

# The largest representation a job may name: the point search's candidate
# table grows with the square of the dimension (8n^2 + 4n + 65 points).
MAX_DIMENSION = 64


@dataclass(frozen=True)
class RepSpec:
    """A direct sum of symmetric powers with named weight coordinates."""

    summands: Tuple[int, ...]
    normalization: str = "section5"
    coord_names: Tuple[str, ...] = ()

    def __post_init__(self):
        summands = tuple(int(k) for k in self.summands)
        if not summands or any(k < 0 for k in summands):
            raise ValueError(f"summand exponents must be non-negative, got {summands}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        dim = sum(k + 1 for k in summands)
        names = tuple(self.coord_names) or tuple(f"w{i}" for i in range(dim))
        if len(names) != dim or len(set(names)) != dim:
            raise ValueError(f"need {dim} distinct coordinate names, got {names}")
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "coord_names", names)

    @property
    def coords(self) -> Tuple[str, ...]:
        return self.coord_names

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def blocks(self) -> List[Tuple[int, Tuple[str, ...]]]:
        """``(exponent, coordinate names)`` per summand, in order."""
        out = []
        offset = 0
        for k in self.summands:
            out.append((k, self.coord_names[offset: offset + k + 1]))
            offset += k + 1
        return out

    @cached_property  # frozen, but the cache writes the instance ``__dict__`` directly
    def weights(self) -> Tuple[int, ...]:
        out: List[int] = []
        for k in self.summands:
            out.extend(k - 2 * i for i in range(k + 1))
        return tuple(out)

    @property
    def weight_of(self) -> Dict[str, int]:
        """A fresh map on every read: a ``Derivation`` keeps the one it is given."""
        return dict(zip(self.coord_names, self.weights))


def _basis_scale(k: int, i: int, normalization: str) -> Fraction:
    """Scale of the ``i``-th basis vector relative to the plain monomial basis."""
    if normalization == "section5":
        return Fraction(1)
    return Fraction(math.factorial(k), math.factorial(k - i))


def spec_to_blocks(spec: RepSpec) -> Dict:
    """JSON-friendly description: ``{"sym": k}`` / ``{"vblock": n}`` blocks."""
    blocks: List[Dict[str, int]] = []
    run = 0
    for k in spec.summands + (-1,):
        if k == 1:
            run += 1
            continue
        if run == 1:
            blocks.append({"sym": 1})
        elif run > 1:
            blocks.append({"vblock": run})
        run = 0
        if k >= 0:
            blocks.append({"sym": k})
    data: Dict = {"blocks": blocks, "normalization": spec.normalization}
    default = tuple(f"w{i}" for i in range(spec.dim))
    if spec.coord_names != default:
        data["coordinates"] = list(spec.coord_names)
    return data


def spec_from_blocks(data: Mapping) -> RepSpec:
    """Inverse of :func:`spec_to_blocks`, and the one reader of a job's ``representation``.

    Each fault raises ``ValueError`` naming its JSON path; a block is
    counted against :data:`MAX_DIMENSION` before it grows the summands.
    """
    blocks = data.get("blocks") if isinstance(data, Mapping) else None
    if not (isinstance(blocks, list) and all(isinstance(block, Mapping) for block in blocks)):
        raise ValueError(f"representation must be an object with a 'blocks' list of objects, got {data!r}")
    if not blocks:
        raise ValueError("representation needs at least one block, got an empty 'blocks' list")
    summands: List[int] = []
    dim = 0
    for i, block in enumerate(blocks):
        keys = [key for key in ("sym", "vblock") if key in block]
        if len(keys) != 1:
            raise ValueError(
                f"representation.blocks[{i}] must name exactly one of 'sym' and 'vblock', got {block!r}"
            )
        value = block[keys[0]]
        path = f"representation.blocks[{i}].{keys[0]}"
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{path} must be an integer, got {value!r}")
        sym = "sym" in block
        if value < (0 if sym else 1):
            raise ValueError(f"{path} must be {'non-negative' if sym else 'positive'}, got {value}")
        dim += value + 1 if sym else 2 * value
        if dim > MAX_DIMENSION:
            raise ValueError(f"representation has {dim} coordinates, above the cap of {MAX_DIMENSION}")
        summands.extend([value] if sym else [1] * value)
    names = data.get("coordinates", [])
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise ValueError(f"representation.coordinates must be a list of strings, got {names!r}")
    normalization = data.get("normalization", "section5")
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"representation.normalization must be one of {', '.join(NORMALIZATIONS)}, got {normalization!r}"
        )
    try:
        return RepSpec(tuple(summands), normalization=normalization, coord_names=tuple(names))
    except ValueError as err:  # the blocks and normalization passed above: the names are at fault
        raise ValueError(f"representation.coordinates: {err}") from None


# ----------------------------------------------------------------------
# the induced coordinate substitution


MatrixEntry = Union[Poly, int, Fraction]


def group_substitution(spec: RepSpec, matrix: Sequence[Sequence[MatrixEntry]]) -> Dict[str, Poly]:
    """Coordinate substitution induced by a determinant-one 2x2 matrix.

    Matrix entries may be scalars or polynomials over a shared parameter
    table.  The images live over the parameter table followed by the
    spec coordinates and satisfy the symmetric-power functoriality
    ``subst(m1*m2) = subst(m2) o subst(m1)``.
    """
    if len(matrix) != 2 or any(len(row) != 2 for row in matrix):
        raise ValueError("expected a 2x2 matrix")
    entry_table: Tuple[str, ...] = ()
    for row in matrix:
        for entry in row:
            if not isinstance(entry, Poly):
                continue
            if entry_table and entry.vars != entry_table:
                raise VariableTableMismatch("matrix entries use more than one parameter table")
            entry_table = entry.vars
    collision = set(entry_table) & set(spec.coord_names)
    if collision:
        raise ValueError(f"parameter names collide with coordinates: {sorted(collision)}")
    full = entry_table + spec.coord_names

    def lift(entry: MatrixEntry) -> Poly:
        if isinstance(entry, Poly):
            return entry.extend_table(full)
        return Poly.const(full, entry)

    a, b = lift(matrix[0][0]), lift(matrix[0][1])
    c, d = lift(matrix[1][0]), lift(matrix[1][1])
    one = Poly.const(full, 1)
    if a * d - b * c != one:
        raise ValueError("matrix must have determinant one")

    images: Dict[str, Poly] = {}
    for k, names in spec.blocks():
        scales = [_basis_scale(k, i, spec.normalization) for i in range(k + 1)]
        coord_values = [Poly.variable(full, name) for name in names]
        apows = [one] + [a ** p for p in range(1, k + 1)]
        bpows = [one] + [b ** p for p in range(1, k + 1)]
        cpows = [one] + [c ** p for p in range(1, k + 1)]
        dpows = [one] + [d ** p for p in range(1, k + 1)]
        for j in range(k + 1):
            image = Poly.zero(full)
            for i in range(k + 1):
                entry = Poly.zero(full)
                for q in range(max(0, j - (k - i)), min(i, j) + 1):
                    coeff = math.comb(k - i, j - q) * math.comb(i, q)
                    entry = entry + coeff * (
                        apows[k - i - j + q] * cpows[j - q] * bpows[i - q] * dpows[q]
                    )
                if entry.is_zero:
                    continue
                image = image + (scales[i] / scales[j]) * entry * coord_values[i]
            images[names[j]] = image
    return images


# ----------------------------------------------------------------------
# the operator triple


@dataclass(frozen=True)
class Sl2Triple:
    """Lowering, raising and diagonal operators with verified brackets."""

    lower: Derivation
    raising: Derivation
    diag: Derivation


def _ladder_images(spec: RepSpec) -> Tuple[Dict[str, Poly], Dict[str, Poly], Dict[str, Poly]]:
    """Generator images of the lowering, the raising and the diagonal operator, each one monomial ``c * w_j``.

    In either normalization the bracket of the first two sends ``w_i`` to
    ``((i + 1)(k - i) - i(k - i + 1)) * w_i = (k - 2i) * w_i``, the
    weight operator.  Images not set here are zero.
    """
    coords = spec.coord_names
    lower: Dict[str, Poly] = {}
    raising: Dict[str, Poly] = {}
    diag: Dict[str, Poly] = {}
    section5 = spec.normalization == "section5"
    for k, names in spec.blocks():
        w = [Poly.variable(coords, name) for name in names]
        for i in range(k + 1):
            diag[names[i]] = w[i] * (k - 2 * i)
        for i in range(k):
            down = k - i if section5 else 1
            up = i + 1 if section5 else (i + 1) * (k - i)
            lower[names[i + 1]] = w[i] * down
            raising[names[i]] = w[i + 1] * up
    return lower, raising, diag


def _linear_map(d: Derivation, role: str) -> Tuple[int, List[Dict[int, int]]]:
    """``(Dd, rows)``: ``d(x_i) = sum_j rows[i][j] * x_j / Dd``, from ``d._int_images``; a non-linear term raises."""
    rows: List[Dict[int, int]] = [{} for _ in d.vars]
    for i, image in d._int_images[1]:
        for c, e in image:
            if sum(e) != 1:
                raise ConstructionFailure(f"{role} image of {d.vars[i]} is not linear")
            rows[i][e.index(1)] = c
    return d._int_images[0], rows


def _check_brackets(low: Derivation, high: Derivation, diag: Derivation) -> None:
    """Assert ``[E, H] = 2E``, ``[D, H] = -2D`` and ``[D, E] = H`` on every generator.

    A derivation is fixed by its generator images, and on linear images a bracket on ``x_i``
    composes linear maps: each identity is an exact sparse integer product, with no polynomial built.
    """
    d, e, h = _linear_map(low, "lowering"), _linear_map(high, "raising"), _linear_map(diag, "diagonal")
    relations = (("diagonal/raising", e, h, 2, e), ("diagonal/lowering", d, h, -2, d), ("raising/lowering", d, e, 1, h))
    for i, name in enumerate(low.vars):
        for label, (da, a), (db, b), scale, (dc, c) in relations:
            # Da*Db*Dc * ([A, B](x_i) - scale * C(x_i)), with A(B(x_i)) = sum_j b_ij A(x_j)
            acc = {k: -scale * v * da * db for k, v in c[i].items()}
            for j, x in b[i].items():
                for k, y in a[j].items():
                    acc[k] = acc.get(k, 0) + x * y * dc
            for j, x in a[i].items():
                for k, y in b[j].items():
                    acc[k] = acc.get(k, 0) - x * y * dc
            if any(acc.values()):
                raise ConstructionFailure(f"{label} bracket fails on {name}")


@lru_cache(maxsize=None)
def sl2_triple(spec: RepSpec) -> Sl2Triple:
    """The operator triple attached to a representation.

    Monomial images from :func:`_ladder_images`, brackets asserted by :func:`_check_brackets` on
    their integer linear maps before the triple is cached; the one-parameter flow is a test oracle.
    """
    coords = spec.coord_names
    lower_images, raising_images, diag_images = _ladder_images(spec)
    raising = Derivation(coords, raising_images)
    diag = Derivation(coords, diag_images)
    lower = Derivation(coords, lower_images, weight_of=spec.weight_of, sl2_raise=raising)
    _check_brackets(lower, raising, diag)
    return Sl2Triple(lower=lower, raising=raising, diag=diag)


def build_derivation(spec: RepSpec) -> Derivation:
    """The locally nilpotent derivation of the additive-group action."""
    return sl2_triple(spec).lower


def _killed_by_triple(spec: RepSpec, p: Poly) -> bool:
    """Whether all three operators of the triple of ``spec`` kill ``p``.

    The diagonal operator ``H`` scales a monomial by its weight, so the
    answer is whether every monomial has weight 0 and the lowering
    operator ``D`` kills ``p``; the raising operator ``E`` is not
    applied.  If ``H(p) = D(p) = 0``, then ``D(E(p)) = E(D(p)) + H(p) = 0``
    (the bracket :func:`sl2_triple` asserts on every generator), so
    ``E(p)`` would be a highest-weight vector of weight ``-2`` in a
    degree piece of the ring, a finite-dimensional sl2-module.  None
    exists, so ``E(p) = 0`` (Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, §7).  Conversely, what ``D`` and ``E`` kill,
    their bracket ``H`` kills too.
    """
    weights = spec.weights
    return not any(sum(map(mul, e, weights)) for e in p.nums) and apply(build_derivation(spec), p).is_zero


def nonstable_coordinates(spec: RepSpec) -> Tuple[str, ...]:
    """Coordinates of strictly positive weight.

    Their common zero locus is the complement of the open set of points
    whose orbit closure meets no smaller stratum under the scaling
    subgroup; restriction to it drives the stability certificate.
    """
    return tuple(name for name, w in zip(spec.coord_names, spec.weights) if w > 0)


# ----------------------------------------------------------------------
# catalogued invariants


@dataclass(frozen=True)
class CatalogEntry:
    """A closed-form invariant under its label."""

    label: str
    poly: Poly


@lru_cache(maxsize=None)
def catalog_invariants(spec: RepSpec) -> Tuple[CatalogEntry, ...]:
    """Closed-form invariants for the supported block types, each built by ``derivations._transvectant``.

    With ``g`` and ``f`` top coordinates of summands: each pair of
    one-dimensional summands gives its minor ``τ_1(g_a, g_b)``; ``Sym^3``
    its discriminant ``τ_2(H, H)`` with ``H = τ_2(f, f)``; ``Sym^5`` its
    discriminant ``A^2 - 64*B`` with ``i = τ_4(f, f)``, ``A = τ_2(i, i)``,
    ``j = τ_2(f, i)`` and ``B = τ_2(i, τ_2(j, j))`` (Grace and Young,
    *The Algebra of Invariants*, 1903), both ``normalized()``.  Every
    polynomial is checked to be non-zero and killed by the whole triple
    (:func:`_killed_by_triple`).  A spec providing none of these raises
    :class:`UnsupportedBlock`.
    """
    tv = partial(_transvectant, build_derivation(spec))
    tops = [(idx, k, Poly.variable(spec.coord_names, names[0])) for idx, (k, names) in enumerate(spec.blocks())]
    planes = [(idx, g) for idx, k, g in tops if k == 1]
    entries = [CatalogEntry(f"minor[{a},{b}]", tv(ga, gb, 1)) for (a, ga), (b, gb) in combinations(planes, 2)]
    for idx, k, f in tops:
        if k == 3:
            h = tv(f, f, 2)
            entries.append(CatalogEntry(f"disc[{idx}]", tv(h, h, 2).normalized()))
        elif k == 5:
            i = tv(f, f, 4)
            j = tv(f, i, 2)
            entries.append(CatalogEntry(f"disc[{idx}]", (tv(i, i, 2) ** 2 - 64 * tv(i, tv(j, j, 2), 2)).normalized()))
    if not entries:
        raise UnsupportedBlock(
            f"no catalogued invariants for summands {spec.summands}; "
            "supported: paired one-dimensional blocks, odd symmetric powers up to five"
        )
    for entry in entries:
        if entry.poly.is_zero:
            raise ConstructionFailure(f"catalog entry {entry.label} vanishes")
        if not _killed_by_triple(spec, entry.poly):
            raise ConstructionFailure(f"catalog entry {entry.label} is not invariant")
    return tuple(entries)
