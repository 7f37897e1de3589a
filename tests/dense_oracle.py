"""A dense linear oracle for image membership and slices, shared by the tests.

Each solve puts every monomial of the candidate set into one system, with
no grading: the derivation's own routes (the sl2 ladder for membership,
the weight-0 block for slices) must agree with it.
"""

from __future__ import annotations

from gaquot.derivations import _operator_rows, _packed, weight_components
from gaquot.linalg import solve
from gaquot.poly import Poly, exponents_of_degree, exponents_up_to_degree


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
