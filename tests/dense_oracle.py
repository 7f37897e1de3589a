"""Dense oracles shared by the tests.

A dense linear oracle for image membership and slices: each solve puts
every monomial of the candidate set into one system, with no grading,
and the derivation's own routes (the sl2 ladder for membership, the
weight-0 block for slices) must agree with it.

A kernel oracle for ``graded_kernel_generators``: every weight block of
a degree solved by a nullspace of its operator matrix, none skipped, and
products of the generators found so far reduced on ``Fraction``
coefficients; the derivation's own route spans each block by
transvectants and solves nothing.

A Sylvester oracle for the catalog's discriminants: the resultant of the
partials of the generic binary form, by a Laplace expansion, with no sl2
ladder; ``reps.catalog_invariants`` builds them as transvectants.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from gaquot.derivations import _operator_rows, _packed, weight_components
from gaquot.linalg import extend_rref, nullspace, reduce_against, rref, solve
from gaquot.poly import Poly, _cleared, exponents_of_degree, exponents_up_to_degree
from gaquot.reps import RepSpec, _basis_scale


def dense_solve(d, monos, target):
    """The single-group solve: every column of ``monos`` in one system, free coefficients zero."""
    top = max([x for e in [*monos, *target.terms] for x in e], default=0)
    rows = _operator_rows(d, monos, top)  # keyed by packed exponents
    pack = _packed(d, top)[0]
    packed = {pack(e): c for e, c in target.terms.items()}
    for k in packed:
        rows.setdefault(k, {})
    rhs = [packed.get(k, 0) * d._int_images[0] for k in rows]
    outcome = solve(list(rows.values()), rhs, len(monos))
    if outcome is None:
        return None
    return Poly(d.vars, {e: c for e, c in zip(monos, outcome[0]) if c})


def dense_slice(d, bound):
    """``s`` of degree at most ``bound`` with ``D(s) = 1``, or ``None``."""
    return dense_solve(d, list(exponents_up_to_degree(len(d.vars), bound)), Poly.const(d.vars, 1))


def dense_membership(d, p):
    """A preimage of ``p``, one dense solve per degree over every monomial of it, or ``None``."""
    parts = [
        dense_solve(d, list(exponents_of_degree(len(d.vars), degree)), piece) if degree else None
        for degree, piece in weight_components(p, dict.fromkeys(p.vars, 1)).items()
    ]
    return None if any(part is None for part in parts) else sum(parts, Poly.zero(d.vars))


def all_weight_blocks(d, monos):
    """``(source weight, group, nullspace)`` for every weight block of ``monos``, none skipped."""
    weights = [d.weight_of[name] for name in d.vars]
    groups = {}
    for j, c in enumerate(monos):
        groups.setdefault(sum(w * e for w, e in zip(weights, c)), []).append(j)
    blocks = []
    for weight, group in groups.items():
        columns = group[::-1]
        rows = _operator_rows(d, [monos[j] for j in columns], max(map(max, monos)))
        blocks.append((weight, group, nullspace(list(rows.values()), len(columns))))
    return blocks


def oracle_kernel_generators(d, maxdeg):
    """Kernel generators from every weight block, reduced modulo ``Fraction`` products of generators."""
    n = len(d.vars)
    generators = []
    for degree in range(1, maxdeg + 1):
        monos = list(exponents_of_degree(n, degree))
        canonical = sorted(
            (min(row), row)
            for _, group, basis in all_weight_blocks(d, monos)
            for row in ({group[::-1][c]: v for c, v in vector.items()} for vector in basis)
        )
        index = {e: i for i, e in enumerate(monos)}
        products = []

        def recurse(start, remaining, acc):
            for i in range(start, len(generators)):
                g = generators[i].total_degree()
                if g == remaining:
                    products.append(acc * generators[i])
                elif g < remaining:
                    recurse(i, remaining - g, acc * generators[i])

        recurse(0, degree, Poly.const(d.vars, 1))
        spanned = rref([dict(zip(map(index.get, p.terms), _cleared(list(p.terms.values()))[1])) for p in products],
                       len(monos))
        for _, row in canonical:
            remainder = reduce_against(row, spanned)
            if remainder:
                generators.append(Poly(d.vars, {monos[c]: v for c, v in remainder.items()}).normalized())
                extend_rref(spanned, remainder)
    return generators


def _binary_form_coefficients(spec: RepSpec, k: int, names: Tuple[str, ...]) -> List[Poly]:
    """Coefficients ``c_j`` of the generic form ``sum c_j x^(k-j) y^j``."""
    coords = spec.coord_names
    return [
        Poly.variable(coords, names[j]) * _basis_scale(k, j, spec.normalization)
        for j in range(k + 1)
    ]


def _determinant(matrix: Sequence[Sequence[Poly]], table: Tuple[str, ...]) -> Poly:
    """Determinant by Laplace expansion along the rows; it never divides.

    The rows are taken from the last one up.  The minor on the rows
    taken so far is kept under its set of columns, a bitmask, so an
    ``n x n`` matrix stores at most ``2^n`` minors (256 for the 8 x 8
    Sylvester matrix of the quintic).
    """
    minors = {0: Poly.const(table, 1)}
    for row in reversed(matrix):
        larger: Dict[int, Poly] = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or entry.is_zero:
                    continue
                term = entry * minor
                if (cols & ((1 << j) - 1)).bit_count() % 2:  # odd place among the larger minor's columns
                    term = -term
                key = cols | 1 << j
                larger[key] = larger[key] + term if key in larger else term
        minors = {cols: minor for cols, minor in larger.items() if not minor.is_zero}
    return minors.get((1 << len(matrix)) - 1, Poly.zero(table))


def _discriminant(spec: RepSpec, k: int, names: Tuple[str, ...]) -> Poly:
    """Discriminant of an odd binary form via the resultant of its partials, ``normalized()``."""
    c = _binary_form_coefficients(spec, k, names)
    fx = [(k - j) * c[j] for j in range(k)]
    fy = [(j + 1) * c[j + 1] for j in range(k)]
    m = k - 1
    size = 2 * m
    zero = Poly.zero(spec.coord_names)
    sylvester: List[List[Poly]] = []
    for shift in range(m):
        row = [zero] * size
        for idx, entry in enumerate(fx):
            row[shift + idx] = entry
        sylvester.append(row)
    for shift in range(m):
        row = [zero] * size
        for idx, entry in enumerate(fy):
            row[shift + idx] = entry
        sylvester.append(row)
    resultant = _determinant(sylvester, spec.coord_names)
    assert not resultant.is_zero, "vanishing discriminant resultant"
    return resultant.normalized()
