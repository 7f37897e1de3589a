"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index to a nonzero ``Fraction``.  All
eliminations are exact, so rank, solvability and nullspaces are decided,
never estimated.  Pivot choice prefers the sparsest available row, which
keeps fill-in low on the operator matrices this package produces, and is
deterministic given the input row order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotDivisible
from .poly import Poly, exact_divide

Row = Dict[int, Fraction]


def rref(rows: Sequence[Row], ncols: int) -> List[Tuple[int, Row]]:
    """Reduced row echelon form.

    Returns ``(pivot_column, row)`` pairs with pivot columns strictly
    increasing, each row scaled to a unit pivot and fully reduced against
    the others.
    """
    work: List[Row] = [dict(r) for r in rows if r]
    pivots: List[Tuple[int, Row]] = []
    for col in range(ncols):
        best = -1
        for i, r in enumerate(work):
            if col in r and (best < 0 or len(r) < len(work[best])):
                best = i
        if best < 0:
            continue
        row = work.pop(best)
        inv = Fraction(1) / row[col]
        row = {c: v * inv for c, v in row.items()}
        for target in work:
            _eliminate(target, col, row)
        for _, done in pivots:
            _eliminate(done, col, row)
        work = [r for r in work if r]
        pivots.append((col, row))
    return pivots


def _eliminate(target: Row, col: int, unit_row: Row) -> None:
    factor = target.get(col)
    if factor is None:
        return
    for c, v in unit_row.items():
        acc = target.get(c)
        val = (acc if acc is not None else Fraction(0)) - factor * v
        if val:
            target[c] = val
        else:
            target.pop(c, None)


def solve(rows: Sequence[Row], rhs: Sequence[Fraction], ncols: int) -> Optional[Tuple[List[Fraction], List[int]]]:
    """One exact solution of ``A x = b`` with free variables pinned to zero.

    Returns ``(solution, free_columns)`` or ``None`` when inconsistent.
    """
    augmented: List[Row] = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[ncols] = Fraction(b)
        augmented.append(r)
    reduced = rref(augmented, ncols + 1)
    solution = [Fraction(0)] * ncols
    pivot_cols = set()
    for col, row in reduced:
        if col == ncols:
            return None
        pivot_cols.add(col)
        solution[col] = row.get(ncols, Fraction(0))
    free = [c for c in range(ncols) if c not in pivot_cols]
    return solution, free


def nullspace(rows: Sequence[Row], ncols: int) -> List[Row]:
    """Basis of the kernel of ``A``, one sparse vector per free column."""
    reduced = rref(rows, ncols)
    pivot_cols = {col for col, _ in reduced}
    basis: List[Row] = []
    for free_col in range(ncols):
        if free_col in pivot_cols:
            continue
        vec: Row = {free_col: Fraction(1)}
        for col, row in reduced:
            val = row.get(free_col)
            if val:
                vec[col] = -val
        basis.append(vec)
    return basis


def reduce_against(vector: Row, reduced: Sequence[Tuple[int, Row]]) -> Row:
    """Remainder of ``vector`` modulo the span of unit-pivot rows."""
    rem = dict(vector)
    for col, row in reduced:
        _eliminate(rem, col, row)
    return rem


def extend_rref(reduced: List[Tuple[int, Row]], remainder: Row) -> None:
    """Add a non-zero row already reduced modulo ``reduced``, in place.

    The row is scaled to a unit pivot at its first non-zero column and
    that column is cleared from the other rows, so ``reduced`` stays the
    (unordered) reduced row echelon form of the enlarged span.
    """
    pivot = min(remainder)
    inv = Fraction(1) / remainder[pivot]
    unit = {c: v * inv for c, v in remainder.items()}
    for _, row in reduced:
        _eliminate(row, pivot, unit)
    reduced.append((pivot, unit))


def det_bareiss(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Fraction-free determinant of a square matrix of polynomials.

    Bareiss two-step elimination; every division is exact, so the result
    and all intermediates stay polynomial.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    table = matrix[0][0].vars
    m = [[entry for entry in row] for row in matrix]
    sign = 1
    previous = Poly.const(table, 1)
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if swap is None:
                return Poly.zero(table)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                try:
                    m[i][j] = exact_divide(numerator, previous)
                except NotDivisible as exc:  # pragma: no cover - structural guarantee
                    raise AssertionError("Bareiss division must be exact") from exc
            m[i][k] = Poly.zero(table)
        previous = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign > 0 else -result
