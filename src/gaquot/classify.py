"""The decision pipeline for invariant hypersurface quotients.

``classify`` runs the whole chain on one input: verify invariance,
certify stability by restricting to the non-stable coordinate subspace,
split off the boundary class (``boundary_split``; the extension is built
only when a report renders it), and record the graph check as a
crosscheck.  A graph of one dependent coordinate ``w_d = h`` is the
hypersurface ``w_d - h``, so with ``f`` the check is that ``f`` is a
scalar multiple of ``w_d - h``, by comparing terms; ``f = q*(w_d - h)``
with ``q`` non-constant is rejected, as the graph is then only one
component of ``V(f)``.  Given alone, it is the input ``w_d - h``
(``GraphPresentation.equation``), which ``D`` kills: ``D`` keeps the
graph, and a locally nilpotent derivation that maps ``g`` into ``(g)``
kills ``g`` (Freudenburg, *Algebraic Theory of Locally Nilpotent
Derivations*, ch. 1).  With more dependent coordinates ``f`` must
vanish on the graph, by composing it with the graph map.  The chain
rule (``restrict_to_graph``) checks that ``D`` keeps a graph only where
that is no theorem (no ``f``, or several dependent coordinates).  For a
certified input the quotient is affine exactly when ``F00``, the
weight-zero part of ``f``, is a non-zero constant ``c``; routes that
only restate this (the constant-removed extension, powers in the image)
are properties of the test suite, not report entries.  Then the ladder
gives ``r`` with ``D(r) = c - f``, and ``r/c`` on a graph, where ``f``
vanishes, is an exact slice (``D(s) = 1``, ibid.) of the restricted
derivation; the bounded slice search is the ``slice`` command's alone.
The boundary's smoothness is analysed only for a certified
``Intersects``: an uncertified input has no principal-bundle quotient.

Whether the input meets the non-stable subspace is asked once, by
``_nonstable_system``: equations on a graph's parameters left after
zeroing the free positive-weight ones (a bare polynomial is its identity
graph, and its one equation the certificate's restriction of ``f``).  A
non-zero constant equation certifies a graph given alone; otherwise the
witness search runs on exactly those parameters.

One rational-point search serves both the unstable witness and the
singular boundary points.  Its fixed table is a sequence of support
blocks (the origin, each axis, each axis pair, then the seeded
samples) over the polynomials' own variables, searched in that order;
a block on which some polynomial restricts to a non-zero constant is
passed over without evaluating it.  A miss is evidence, never proof.
The verdicts:

* ``Affine`` -- the lifted closure misses the boundary;
* ``StrictlyQuasiAffine`` -- stability is certified but the closure
  meets the boundary properly;
* ``NotEverywhereStable`` -- an exact rational point of the variety
  lies in the non-stable subspace;
* ``Unknown`` -- the certificate failed and the search found no
  *rational* witness (for a defining polynomial the variety then still
  meets the subspace over an algebraic closure), or a certified graph of
  several dependent coordinates is given alone, with no boundary test.

Disagreement between routes that are theorems of each other never
produces a verdict: it raises, because it can only mean broken code or
a falsified input.  No slice on a non-affine verdict is a property of
the test suite, not a run-time check.
"""

from __future__ import annotations

import enum
import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .derivations import GraphPresentation, SliceSearch, _ladder_membership, apply, restrict_to_graph
from .errors import (
    GraphInconsistency,
    InternalInconsistency,
    NonInvariantInput,
    VariableTableMismatch,
)
from .linalg import Row, rref, solve
from .poly import PointBlock, Poly, _cleared
from .reps import RepSpec, build_derivation, catalog_invariants, nonstable_coordinates
from .transfer import BoundaryClass, TransferResult, boundary_split, extend


# The seeded tail of every point search: how many samples, from which seed.
_SAMPLE_BUDGET = 64
_SAMPLE_SEED = 101


class Verdict(enum.Enum):
    AFFINE = "Affine"
    STRICTLY_QUASI_AFFINE = "StrictlyQuasiAffine"
    NOT_EVERYWHERE_STABLE = "NotEverywhereStable"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Bounds:
    """Search bounds; every bounded verdict cites the bound it honored."""

    slice_degree: int = 3
    invariant_degree: int = 2

    def as_dict(self) -> Dict[str, int]:
        return {
            "sliceDeg": self.slice_degree,
            "invariantDeg": self.invariant_degree,
        }


@dataclass(frozen=True)
class StabilityCertificate:
    """Restriction of the defining polynomial to the non-stable subspace, over the non-positive coordinates.

    ``certified`` means the restriction is a non-zero constant, so the
    variety avoids the subspace entirely.  For a single polynomial ``f``
    the test is also necessary over an algebraic closure: a non-constant
    restriction has a zero over Q-bar and a zero restriction vanishes on
    the whole subspace, so a failed certificate means the variety meets
    the subspace over Q-bar.  A rational point of it may still be out of
    reach of the witness search.
    """

    restriction: Poly
    certified: bool


@dataclass(frozen=True)
class UnstableWitness:
    """An exact rational point of the variety in the non-stable subspace."""

    subspace: Tuple[str, ...]
    point: Tuple[Tuple[str, Fraction], ...]

    def point_dict(self) -> Dict[str, Fraction]:
        return dict(self.point)


@dataclass(frozen=True)
class SmoothnessReport:
    """Bounded Jacobian analysis of the boundary-intersection polynomial."""

    outcome: str  # "SmoothProven" | "SmoothOnSamples" | "SingularWitness"
    witness: Optional[Tuple[Tuple[str, Fraction], ...]]
    samples: int


@dataclass(frozen=True)
class ClassificationReport:
    spec: RepSpec
    verdict: Verdict
    certificate: Optional[StabilityCertificate]
    transfer: Optional[TransferResult]
    slice_result: Optional[SliceSearch]
    witness: Optional[UnstableWitness]
    smoothness: Optional[SmoothnessReport]
    crosschecks: Tuple[Tuple[str, bool], ...]
    notes: Tuple[str, ...]
    bounds: Bounds

    def to_dict(self) -> Dict:
        """JSON-ready structure; polynomials and rationals become strings."""
        out: Dict = {
            "verdict": self.verdict.value,
            "bounds": self.bounds.as_dict(),
            "crosschecks": [[name, ok] for name, ok in self.crosschecks],
            "notes": list(self.notes),
        }
        if self.certificate is not None:
            out["certificate"] = {
                "restriction": str(self.certificate.restriction),
                "certified": self.certificate.certified,
            }
        if self.transfer is not None:
            out["transfer"] = self.transfer.to_dict()
        if self.slice_result is not None:
            out["slice"] = self.slice_result.to_dict()
        if self.witness is not None:
            out["witness"] = {
                "subspace": list(self.witness.subspace),
                "point": {name: str(value) for name, value in self.witness.point},
            }
        if self.smoothness is not None:
            out["smoothness"] = {
                "outcome": self.smoothness.outcome,
                "witness": None
                if self.smoothness.witness is None
                else {name: str(value) for name, value in self.smoothness.witness},
                "samples": self.smoothness.samples,
            }
        return out


# ----------------------------------------------------------------------
# stability


def certify_everywhere_stable(spec: RepSpec, f: Poly) -> StabilityCertificate:
    """Restrict ``f`` to the subspace killing all positive-weight coordinates."""
    derivation = build_derivation(spec)
    if f.vars != spec.coord_names:
        raise VariableTableMismatch(
            f"polynomial table {f.vars} does not match the spec coordinates"
        )
    if not apply(derivation, f).is_zero:
        raise NonInvariantInput("stability certificate expects an invariant polynomial")
    pinned = dict.fromkeys(nonstable_coordinates(spec), 0)
    restriction = f.coefficient(pinned)
    certified = (not restriction.is_zero) and restriction.is_constant()
    return StabilityCertificate(restriction=restriction, certified=certified)


# Axis values of the candidate table; the first four also fill the axis pairs.
_SMALL_RATIONALS = tuple(
    Fraction(a, b)
    for a, b in ((1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1),
                 (1, 2), (-1, 2), (1, 3), (-1, 3), (3, 2), (-3, 2))
)


@functools.lru_cache(maxsize=None)
def _candidate_blocks(n: int) -> Tuple[PointBlock, ...]:
    """Points of Q^n in search order, one ``PointBlock`` per support; built once per n.

    The blocks are the origin, one per axis (the twelve small
    rationals), one per axis pair (the first four, squared), then the
    seeded samples.
    """
    zero = (Fraction(0),) * n
    blocks = [[zero]]
    for i in range(n):
        blocks.append([zero[:i] + (value,) + zero[i + 1 :] for value in _SMALL_RATIONALS])
    for i, j in itertools.combinations(range(n), 2):
        blocks.append([
            zero[:i] + (a,) + zero[i + 1 : j] + (b,) + zero[j + 1 :]
            for a, b in itertools.product(_SMALL_RATIONALS[:4], repeat=2)
        ])
    rng = random.Random(_SAMPLE_SEED)
    blocks.append(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(_SAMPLE_BUDGET)]
    )
    return tuple(PointBlock([_cleared(point) for point in block]) for block in blocks)


def _rational_zero(
    polys: Sequence[Poly], table: Tuple[str, ...], more: Optional[Callable[[], List[Poly]]] = None
) -> Tuple[Optional[Dict[str, Fraction]], int]:
    """The first candidate over ``table`` killing every poly, and how many were tried.

    Every poly lies over ``table``.  The candidates are
    ``_candidate_blocks(len(table))``, searched one support block at a
    time.  ``PointBlock.common_zeros`` passes over a block on which some
    poly restricts to a non-zero constant, and otherwise narrows its
    points poly by poly; the first survivor is the hit, and only it
    becomes a ``Fraction`` point.  ``more``, when given, builds further
    polys that a hit must also kill: it runs on the first block where
    ``polys`` have a zero, narrowing only those, so the result is that
    of the search over ``[*polys, *more()]``.  The count ``tried`` is
    the hit's position in the flat table order, or the table's size on
    a miss.  A miss within the table is evidence, not proof, that no
    zero exists.
    """
    if any(p.vars != table for p in polys):
        raise VariableTableMismatch("rational-point search needs one variable table")
    tried = 0
    for block in _candidate_blocks(len(table)):
        zeros = block.common_zeros(polys)
        if zeros and more is not None:  # later blocks search every poly
            extra = more()
            zeros = block.common_zeros(extra, zeros)
            polys, more = [*polys, *extra], None
        if zeros:
            k = zeros[0]
            point = dict.fromkeys(table, Fraction(0))
            point.update((table[i], Fraction(column[k], block.qs[k])) for i, column in block.columns.items())
            return point, tried + k + 1
        tried += len(block)
    return None, tried


def _nonstable_system(
    spec: RepSpec, graph: Optional[GraphPresentation], restriction: Optional[Poly] = None
) -> Tuple[GraphPresentation, Tuple[str, ...], List[Poly]]:
    """The input's points in the non-stable subspace, as equations on its graph's parameters.

    Returns the graph, the free positive-weight coordinates, whose
    parameters are zeroed, and the dependent positive-weight images with
    those pinned, each over exactly the parameters left.  A bare
    polynomial is its identity graph, with ``restriction`` as its one
    equation.  A non-zero constant equation certifies stability.
    """
    positive = nonstable_coordinates(spec)
    if graph is None:
        identity = GraphPresentation(spec.coord_names, dict(zip(spec.coord_names, spec.coord_names)), {})
        return identity, positive, [restriction]
    free_positive = tuple(name for name in positive if name in graph.free)
    pinned = {graph.free[name]: 0 for name in free_positive}
    equations = [image.coefficient(pinned) for name, image in graph.dependent.items() if name in positive]
    return graph, free_positive, equations


def _find_unstable_point(
    spec: RepSpec, f: Optional[Poly], graph: GraphPresentation, free_positive: Tuple[str, ...], equations: List[Poly]
) -> Optional[UnstableWitness]:
    """Witness search on a ``_nonstable_system``: zero the parameters of ``free_positive``, solve ``equations``.

    When the equations vanish identically the witness subspace is cut
    by the free positive-weight coordinates alone.
    """
    positive = nonstable_coordinates(spec)
    zero_z = {graph.free[name]: Fraction(0) for name in free_positive}
    solution, _ = _rational_zero(equations, tuple(z for z in graph.zvars if z not in zero_z))
    if solution is None:
        return None
    zpoint = {**zero_z, **solution}
    ambient = {name: zpoint[z] for name, z in graph.free.items()}
    ambient.update((name, image.evaluate(zpoint)) for name, image in graph.dependent.items())
    if any(ambient[name] for name in positive):  # pragma: no cover - search post-condition
        raise InternalInconsistency("witness left a positive-weight coordinate alive")
    if f is not None and f.evaluate(ambient) != 0:  # pragma: no cover - ditto
        raise InternalInconsistency("witness is not on the hypersurface")
    subspace = free_positive if all(c.is_zero for c in equations) else positive
    point = tuple((name, ambient[name]) for name in spec.coord_names)
    return UnstableWitness(subspace=subspace, point=point)


# ----------------------------------------------------------------------
# the boundary


def crosscheck_constant_removed(spec: RepSpec, f: Poly) -> bool:
    """Agreement of the boundary route with its constant-removed variant.

    For a certified input, the closure misses the boundary exactly when
    the constant-removed polynomial's extension contains it.  ``extend``
    is linear, so this restates the boundary class; ``classify`` does not
    run it, and the test suite checks it as a property.
    """
    certificate = certify_everywhere_stable(spec, f)
    if not certificate.certified:
        raise ValueError("constant-removed crosscheck expects a certified input")
    reduced = f - Poly.const(spec.coord_names, f.constant_term())
    affine_by_boundary = extend(spec, f).boundary is BoundaryClass.MISSES
    return affine_by_boundary == extend(spec, reduced).f00.is_zero


def jacobian_boundary_smoothness(f00: Poly) -> SmoothnessReport:
    """Look for singular points: common zeros of ``f00`` and its gradient.

    At degree two or less every partial is linear: ``f00`` is a
    quadratic ``x^T A x + b.x + c`` with gradient ``2Ax + b``, and the
    critical locus is the affine subspace ``p + ker A`` for any particular
    solution ``p``.  On it ``f00`` is constant: for ``k`` in ``ker A``,
    ``f00(p + k) = f00(p) + (2Ap + b).k + k^T A k = f00(p)``.  So one
    exact solve and one evaluation at ``p`` decide smoothness, and the
    answer is a proof either way.  Otherwise the rational-point search
    over ``f00`` and its partials (built once ``f00`` vanishes on a block)
    gives either a definitive ``SingularWitness`` or ``SmoothOnSamples``,
    which is evidence only; ``samples`` counts the candidates tried.
    """
    if f00.is_constant():
        raise ValueError("smoothness analysis expects a non-constant polynomial")
    names = f00.vars
    if f00.total_degree() <= 2:
        return _linear_gradient_analysis(f00)
    point, tried = _rational_zero([f00], names, lambda: [f00.partial(name) for name in names])
    if point is None:
        return SmoothnessReport("SmoothOnSamples", None, tried)
    return SmoothnessReport("SingularWitness", tuple((name, point[name]) for name in names), tried)


def _linear_gradient_analysis(f00: Poly) -> SmoothnessReport:
    """Exact treatment when the gradient system is linear: one critical point decides."""
    names = f00.vars
    n = len(names)
    unit = {tuple(1 if j == i else 0 for j in range(n)): i for i in range(n)}
    rows: List[Row] = []
    rhs: List[int] = []
    for p in map(f00.partial, names):
        row: Row = {}
        constant = 0
        for exponent, coeff in p.nums.items():  # linalg takes int rows
            if sum(exponent) == 0:
                constant = coeff
            else:
                row[unit[exponent]] = coeff
        rows.append(row)
        rhs.append(-constant)
    outcome = solve(rows, rhs, n)
    if outcome is None:
        return SmoothnessReport("SmoothProven", None, 0)
    particular, _ = outcome
    if f00.evaluate(dict(zip(names, particular))) == 0:
        return SmoothnessReport("SingularWitness", tuple(zip(names, particular)), 0)
    return SmoothnessReport("SmoothProven", None, 0)


# ----------------------------------------------------------------------
# the pipeline


def _check_on_graph(f: Poly, graph: GraphPresentation) -> None:
    """Raise ``GraphInconsistency`` unless ``graph`` presents ``V(f)``, or lies on it for several dependent coordinates.

    A graph of one dependent coordinate ``w = h`` is the hypersurface
    ``w - h``, and ``f`` must be a scalar multiple of it
    (``GraphPresentation.defines``, a comparison of terms).  Only when
    that fails is ``f`` pulled back, to tell a residue from a factor
    ``q`` of ``f = q*(w - h)``.  Otherwise ``f`` must pull back to zero.
    """
    if len(graph.dependent) == 1 and graph.defines(f):
        return
    on_graph = graph.pull_back(f)
    if not on_graph.is_zero:
        raise GraphInconsistency(f"polynomial does not vanish on the graph; residue {on_graph}")
    if len(graph.dependent) == 1:
        ((name, h),) = graph.dependent.items()
        raise GraphInconsistency(
            f"polynomial vanishes on the graph {name} = {h} but is not a scalar multiple of "
            "its equation; the graph is only one component of V(f)"
        )


def classify(
    spec: RepSpec,
    f: Optional[Poly] = None,
    graph: Optional[GraphPresentation] = None,
    bounds: Bounds = Bounds(),
) -> ClassificationReport:
    """Full verdict pipeline; see the module docstring for the contract."""
    if f is None and graph is None:
        raise ValueError("classification needs a defining polynomial, a graph, or both")
    notes: List[str] = []
    crosschecks: List[Tuple[str, bool]] = []

    certificate: Optional[StabilityCertificate] = None
    if f is not None:
        certificate = certify_everywhere_stable(spec, f)  # also checks the table and D(f) = 0
        if f.is_constant():
            raise ValueError("a constant polynomial does not define a hypersurface")

    if graph is not None:
        # With f a scalar multiple of w_d - h, the graph is V(f), which the connected G_a keeps:
        # D(w_d - h) lies in (w_d - h), so the chain-rule check cannot fail.
        if f is None or len(graph.dependent) > 1:
            restrict_to_graph(build_derivation(spec), graph)  # raises unless D keeps the graph
        if f is not None:
            _check_on_graph(f, graph)
            crosschecks.append(("graph-lies-on-hypersurface", True))
        elif len(graph.dependent) == 1:  # D keeps w_d - h, so kills it: the graph is a polynomial input
            f = graph.equation(spec.coord_names)
            certificate = certify_everywhere_stable(spec, f)

    witness: Optional[UnstableWitness] = None
    system = None  # built at most once: for a graph-only certificate or for the witness search
    if certificate is not None:
        certified = certificate.certified
    else:
        system = _nonstable_system(spec, graph)
        certified = any(not c.is_zero and c.is_constant() for c in system[2])
        if certified:
            notes.append("graph avoids the non-stable subspace by a constant constraint")

    transfer_result = boundary_split(spec, f) if f is not None else None  # certify checked D(f) = 0

    if certified:
        if transfer_result is None:
            verdict = Verdict.UNKNOWN
            notes.append("stability certified from the graph alone; no defining polynomial, "
                         "so the boundary test cannot run")
        elif transfer_result.boundary is BoundaryClass.CONTAINS:
            raise InternalInconsistency(
                "certified input whose extension contains the boundary: "
                "the origin would lie on the variety"
            )
        elif transfer_result.boundary is BoundaryClass.MISSES:
            verdict = Verdict.AFFINE
        else:
            verdict = Verdict.STRICTLY_QUASI_AFFINE
    else:
        system = system or _nonstable_system(spec, graph, certificate.restriction)
        witness = _find_unstable_point(spec, f, *system)
        if witness is not None:
            verdict = Verdict.NOT_EVERYWHERE_STABLE
        else:
            verdict = Verdict.UNKNOWN
            notes.append("certificate failed and no rational point of the non-stable "
                         "subspace was found within the sample budget")

    slice_result: Optional[SliceSearch] = None
    if graph is not None and verdict is Verdict.AFFINE:
        c = transfer_result.f00  # a non-zero constant, so c - f has only positive weights
        r = _ladder_membership(build_derivation(spec), c - f)  # verifies D(r) = c - f
        slice_result = SliceSearch(graph.pull_back(r * (1 / c.constant_term())), bounds.slice_degree)
        crosschecks.append(("slice-agreement", True))

    smoothness: Optional[SmoothnessReport] = None
    if verdict is Verdict.STRICTLY_QUASI_AFFINE:  # a certified Intersects
        smoothness = jacobian_boundary_smoothness(transfer_result.f00)

    return ClassificationReport(
        spec=spec,
        verdict=verdict,
        certificate=certificate,
        transfer=transfer_result,
        slice_result=slice_result,
        witness=witness,
        smoothness=smoothness,
        crosschecks=tuple(crosschecks),
        notes=tuple(notes),
        bounds=bounds,
    )


# ----------------------------------------------------------------------
# families


# the Sylvester matrix of a degree-d parameter has 2d - 1 columns
MAX_PARAMETER_DEGREE = 100


@dataclass(frozen=True)
class FamilyMember:
    """One member of the hypersurface family ``1 + phi(invariant) - w0``."""

    spec: RepSpec
    phi: Poly
    delta_label: str


class FamilyOutcome(enum.Enum):
    NON_ISOMORPHIC = "NonIsomorphicBoundaryCounts"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class FamilyComparison:
    outcome: FamilyOutcome
    counts: Tuple[int, int]


def _catalog_invariant(spec: RepSpec, label: str) -> Poly:
    """The catalogued invariant named ``label``; an unknown label is a ``ValueError``."""
    catalog = {entry.label: entry.poly for entry in catalog_invariants(spec)}
    if label not in catalog:
        raise ValueError(f"unknown catalog invariant {label!r}; available: {sorted(catalog)}")
    return catalog[label]


def build_family_member(
    spec: RepSpec, phi: Poly, delta_label: str
) -> Tuple[Poly, GraphPresentation]:
    """Construct the member polynomial and its graph presentation.

    The defining polynomial is ``1 + phi(delta) - w0`` where ``w0`` is
    the invariant coordinate of the leading summand and ``delta`` is a
    catalogued invariant supported away from that summand; the graph
    realizes the hypersurface as affine space.
    """
    if len(phi.vars) != 1:
        raise ValueError("family parameter polynomial must be univariate")
    if phi.constant_term() == -1:
        raise ValueError(
            "family parameter value at zero is -1, placing the origin on the hypersurface"
        )
    first_k, first_names = spec.blocks()[0]
    if first_k < 1:
        raise ValueError("leading summand must be a positive symmetric power")
    delta = _catalog_invariant(spec, delta_label)
    overlap = set(delta.support()) & set(first_names)
    if overlap:
        raise ValueError(
            f"invariant {delta_label!r} touches the leading summand coordinates {sorted(overlap)}"
        )
    coords = spec.coord_names
    pivot = first_names[0]
    tname = phi.vars[0]
    h_phi = Poly.const(coords, 1) + phi.substitute({tname: delta})
    f = h_phi - Poly.variable(coords, pivot)
    others = [name for name in coords if name != pivot]
    zvars = tuple(f"z{i}" for i in range(1, len(coords)))
    free = {name: z for name, z in zip(others, zvars)}
    dependent = {pivot: Poly(zvars, h_phi.coefficient({pivot: 0}).terms)}  # others[i] is zvars[i]
    return f, GraphPresentation(zvars=zvars, free=free, dependent=dependent)


def squarefree_distinct_root_count(p: Poly) -> Tuple[int, bool]:
    """Distinct-root count of a univariate polynomial and a squarefree flag.

    The count is ``deg p - deg gcd(p, p')``, exact over the rationals, so
    it counts roots in an algebraic closure without ever factoring.  With
    ``m = deg p``, the Sylvester matrix of ``p`` and ``p'`` (``m - 1``
    shifted rows of ``p`` above ``m`` of ``p'``, integer numerators,
    columns by descending degree) has rank ``2m - 1 - deg gcd(p, p')``
    (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 6), so
    one :func:`rref` gives the count as ``rank - m + 1`` and the flag as
    full rank.
    """
    if p.is_constant():
        raise ValueError("root counting needs a non-constant univariate polynomial")
    sup = p.support()
    if len(sup) > 1:
        raise ValueError(f"expected a univariate polynomial, got one in {sup}")
    coeffs = {sum(e): n for e, n in p.nums.items()}  # one variable: the total degree is its exponent
    derivative = {d - 1: d * n for d, n in coeffs.items() if d}
    m = max(coeffs)
    size = 2 * m - 1
    rows = [{size - 1 - shift - d: n for d, n in part.items()}
            for part, shifts in ((coeffs, m - 1), (derivative, m)) for shift in range(shifts)]
    rank = len(rref(rows, size))
    return rank - m + 1, rank == size


def compare_family(m1: FamilyMember, m2: FamilyMember) -> FamilyComparison:
    """Compare two members by their boundary component counts.

    The count for a member is the number of distinct roots of its
    parameter polynomial over an algebraic closure; distinct counts
    prove the quotients non-isomorphic, equal counts decide nothing.
    Members must share the representation and a catalogued invariant
    choice and have squarefree parameters.  The comparison is arithmetic
    on the parameters alone and does not rebuild the members; stability
    of each member is the caller's hypothesis (the builder's origin guard
    is deliberately not repeated here, so parameters whose value at zero
    is -1 can still be compared).  A parameter above degree
    ``MAX_PARAMETER_DEGREE`` is refused before any Sylvester matrix is built.
    """
    if m1.spec != m2.spec or m1.delta_label != m2.delta_label:
        raise ValueError("family members must share a representation and invariant choice")
    _catalog_invariant(m1.spec, m1.delta_label)
    for member in (m1, m2):
        degree = member.phi.total_degree()
        if degree > MAX_PARAMETER_DEGREE:
            raise ValueError(f"family parameter has degree {degree}, above the cap of {MAX_PARAMETER_DEGREE}")
    counts: List[int] = []
    for member in (m1, m2):
        count, squarefree = squarefree_distinct_root_count(member.phi)
        if not squarefree:
            raise ValueError("family parameter polynomial must have no repeated roots")
        counts.append(count)
    outcome = (
        FamilyOutcome.NON_ISOMORPHIC if counts[0] != counts[1] else FamilyOutcome.INCONCLUSIVE
    )
    return FamilyComparison(outcome=outcome, counts=(counts[0], counts[1]))
