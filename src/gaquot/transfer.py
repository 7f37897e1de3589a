"""Extension of additive-group invariants to invariants of the full group.

An invariant ``f`` on the representation space extends uniquely to a
function ``F`` on the product of the standard plane (coordinates
``u, v``) with the representation space, invariant under the full
rank-one group acting diagonally.  ``F`` is ``f`` pulled back along the
inverse ``[[v, -u], [0, 1/v]] = U(-uv) * T(v)`` of a determinant-one
section whose second column is ``(u, v)``: the unipotent factor acts as
``exp(-uv * E)`` with ``E`` the raising operator, and the torus factor
scales a monomial of weight ``w`` by ``v^w``, so

    F = sum_j (-1)^j / j! * u^j * v^(j + wt(m)) * m

over the monomials ``m`` of ``E^j(f)``; the sum is finite because ``E``
is nilpotent.  Two checks guard the result: the derivation must kill
``f``, and every power of ``v`` must be non-negative, so a negative one
convicts the input of non-invariance.

The ladder stays in packed integers: ``f``'s numerators are packed for
its total degree, which ``E`` keeps; each step is one pass of the packed
Leibniz kernel of ``derivations`` over the images of ``E`` (denominator
``Dd``), so ``E^j(f)`` has numerators over ``(-1)^j * j! * den * Dd^j``.
Each term is unpacked once, and ``F`` is written over the divisor of
the last layer, which all the others divide.

The constant coefficient ``F00`` (the ``u^0 v^0`` part of ``F``, which is
the weight-zero part of ``f``) splits ``f = F00 + g`` and its shape
classifies how the closure of the lifted hypersurface meets the boundary
locus ``{u = v = 0}``:

* ``F00`` a non-zero constant -- the closure misses the boundary;
* ``F00 = 0`` -- the boundary is contained in the closure;
* anything else -- the closure meets the boundary properly.

``boundary_split`` reads ``F00`` off ``f`` alone; the ladder runs when
``TransferResult.extension`` is first read, and at once in ``extend``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import mul
from typing import Dict

from .derivations import _leibniz, _packed, apply
from .errors import NonInvariantInput, VariableTableMismatch
from .poly import Poly, _raw
from .reps import RepSpec, _killed_by_triple, sl2_triple

PLANE_COORDS = ("u", "v")


class BoundaryClass(enum.Enum):
    MISSES = "Misses"
    INTERSECTS = "Intersects"
    CONTAINS = "Contains"


class _ExtensionField:
    """``TransferResult.extension``: a value, or a zero-argument builder run when the field is first read."""

    def __get__(self, obj, owner=None):
        if obj is None:  # so the dataclass sees no default
            raise AttributeError("extension")
        value = vars(obj)["extension"]
        if callable(value):
            value = vars(obj)["extension"] = value()
        return value

    def __set__(self, obj, value) -> None:
        vars(obj)["extension"] = value


@dataclass(frozen=True)
class TransferResult:
    """The boundary split of an invariant and its extension, which ``repr`` and ``==`` read too."""

    extension: Poly = _ExtensionField()  # over ("u", "v") + coords
    f00: Poly             # over coords
    boundary_part: Poly   # over coords; f = f00 + boundary_part
    boundary: BoundaryClass

    def to_dict(self) -> Dict[str, str]:
        """JSON-ready fields; reading them runs the ladder if it has not run."""
        return {
            "extension": str(self.extension),
            "f00": str(self.f00),
            "boundaryPart": str(self.boundary_part),
            "boundary": self.boundary.value,
        }


@lru_cache(maxsize=None)
def extended_spec(spec: RepSpec) -> RepSpec:
    """The spec enlarged by the standard plane as a leading summand."""
    return RepSpec(
        (1,) + spec.summands,
        normalization=spec.normalization,
        coord_names=PLANE_COORDS + spec.coord_names,
    )


def boundary_split(spec: RepSpec, f: Poly) -> TransferResult:
    """Split ``f = F00 + boundary_part`` at the weight-zero terms and classify the boundary.

    The ladder waits for the first read of ``extension``; invariance is the caller's hypothesis.
    """
    if f.vars != spec.coord_names:
        raise VariableTableMismatch(
            f"polynomial table {f.vars} does not match the spec coordinates {spec.coord_names}"
        )
    collision = set(PLANE_COORDS) & set(spec.coord_names)
    if collision:
        raise ValueError(f"coordinates shadow the plane variables: {sorted(collision)}")
    weights = spec.weights
    parts = ({}, {})  # the numerators of weight zero, then of non-zero weight
    for e, n in f.nums.items():
        parts[bool(sum(map(mul, e, weights)))][e] = n
    f00, boundary_part = (_raw(spec.coord_names, nums, f.den) for nums in parts)
    if f00.is_zero:
        boundary = BoundaryClass.CONTAINS
    elif f00.is_constant():
        boundary = BoundaryClass.MISSES
    else:
        boundary = BoundaryClass.INTERSECTS
    return TransferResult(partial(_ladder, spec, f), f00, boundary_part, boundary)


def extend(spec: RepSpec, f: Poly) -> TransferResult:
    """Extend an invariant across the group and classify its boundary.

    With ``E`` the raising operator of ``spec``,
    ``F = sum_j (-1)^j/j! * u^j * v^(j + wt(m)) * m`` over the monomials
    ``m`` of ``E^j(f)``.  Raises :class:`NonInvariantInput` when the
    derivation does not kill ``f``; a negative power of ``v`` is the
    same defect and raises identically, here rather than on first read.
    """
    result = boundary_split(spec, f)
    if not apply(sl2_triple(spec).lower, f).is_zero:
        raise NonInvariantInput("transfer input is not killed by the derivation")
    result.extension  # the ladder runs now, so a negative power of v raises here
    return result


def _ladder(spec: RepSpec, f: Poly) -> Poly:
    """``F``, the sum of the ladder ``E^j(f)`` placed on the plane coordinates."""
    triple = sl2_triple(spec)
    weights = spec.weights
    raise_scale = triple.raising._int_images[0]
    key, unkey, images = _packed(triple.raising, f.total_degree())
    layer = [(e, key(e), n) for e, n in f.nums.items()]
    numerators: Dict[tuple, int] = {}
    divisors = [f.den]  # divisors[j] = (-1)^j * j! * den * Dd^j, under the numerators of E^j(f)
    while layer:
        j = len(divisors) - 1
        for exponent, _, n in layer:
            vexp = j + sum(map(mul, exponent, weights))
            if vexp < 0:
                raise NonInvariantInput(
                    f"term of E^{j}(f) needs v^{vexp}; input is not invariant"
                )
            numerators[(j, vexp) + exponent] = n
        acc: Dict[int, int] = {}
        _leibniz(acc, images, layer)
        layer = [(unkey(k), k, n) for k, n in acc.items() if n]
        if layer:
            divisors.append(divisors[j] * -(j + 1) * raise_scale)
    scales = [divisors[-1] // d for d in divisors]  # each divisor divides the next
    return _raw(PLANE_COORDS + spec.coord_names,
                {key: n * scales[key[0]] for key, n in numerators.items()}, divisors[-1])


def verify_invariance(spec: RepSpec, extension: Poly) -> bool:
    """Whether the operator triple of the enlarged spec kills ``extension``.

    The enlarged action puts weights ``+1`` and ``-1`` on ``u`` and ``v``
    and acts on the original coordinates as before; the test is
    ``reps._killed_by_triple`` on the enlarged spec.
    """
    enlarged = extended_spec(spec)
    if extension.vars != enlarged.coord_names:
        raise VariableTableMismatch(
            f"polynomial table {extension.vars} does not match {enlarged.coord_names}"
        )
    return _killed_by_triple(enlarged, extension)
