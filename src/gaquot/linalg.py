"""Exact sparse linear algebra over the rationals, on integer rows.

Input rows are dicts mapping column index to a non-zero ``int`` or
``Fraction``.  Elimination is fraction-free (Bareiss, Math. Comp. 1968):
each row is scaled once to a primitive integer row (content one), a
pivot row ``r`` with pivot ``p`` clears the entry ``a`` of a row ``t``
as ``(p/g)*t - (a/g)*r`` with ``g = gcd(a, p)``, and the result is
divided by its content.  :func:`rref` returns primitive integer rows
with positive pivots; :func:`solve` and :func:`nullspace` read exact
``Fraction`` results off them.  Pivot choice prefers the sparsest
available row, first in input order: fill-in stays low and the result
is deterministic.  The pivot search goes through a column index, the
rows holding each column (fill-in added as it appears, rows that lost
the column skipped), so each column touches only its holders.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .errors import NotDivisible
from .poly import Poly, _cleared, exact_divide

Row = Dict[int, Union[int, Fraction]]
IntRow = Dict[int, int]


def _integer_row(row: Row) -> IntRow:
    """The primitive integer multiple of ``row``, signs kept, as a new dict."""
    _, numer = _cleared(list(row.values()))
    return _content_one({c: n for c, n in zip(row, numer) if n})


def _content_one(row: IntRow) -> IntRow:
    g = gcd(*row.values())
    return row if g <= 1 else {c: v // g for c, v in row.items()}


def _eliminate(target: IntRow, col: int, pivot_row: IntRow) -> IntRow:
    """``target`` with ``col`` cleared by ``pivot_row``, primitive again."""
    a = target[col]
    p = pivot_row[col]
    g = gcd(a, p)
    a //= g
    p //= g
    out = {c: v * p for c, v in target.items()} if p != 1 else dict(target)
    get = out.get
    for c, v in pivot_row.items():
        val = get(c, 0) - a * v
        if val:
            out[c] = val
        else:
            del out[c]
    return _content_one(out)


def _positive(row: IntRow, col: int) -> IntRow:
    return row if row[col] > 0 else {c: -v for c, v in row.items()}


def rref(rows: Sequence[Row], ncols: int) -> List[Tuple[int, IntRow]]:
    """Reduced row echelon form on primitive integer rows.

    Returns ``(pivot_column, row)`` pairs with pivot columns strictly
    increasing.  Each row has ``int`` entries with content one, a
    positive entry at its pivot and zeros at the other pivot columns.
    The input rows are not modified.
    """
    work: Dict[int, IntRow] = {}
    holders: Dict[int, Set[int]] = {}  # column -> rows that hold it, or once did
    for index, r in enumerate(rows):
        row = _integer_row(r)
        if row:
            work[index] = row
            for c in row:
                holders.setdefault(c, set()).add(index)
    pivots: List[Tuple[int, IntRow]] = []
    for col in range(ncols):
        held = [i for i in holders.pop(col, ()) if col in work.get(i, ())]
        if not held:
            continue
        chosen = min(held, key=lambda i: (len(work[i]), i))
        row = _positive(work.pop(chosen), col)
        for i in held:
            if i != chosen:
                target = work[i] = _eliminate(work[i], col, row)
                if not target:
                    del work[i]
                for c in target.keys() & row.keys():
                    holders[c].add(i)
        _clear(pivots, col, row)
        pivots.append((col, row))
    return pivots


def _clear(reduced: List[Tuple[int, IntRow]], col: int, row: IntRow) -> None:
    """Clear ``col`` from every row of ``reduced`` with the pivot row ``row``, in place."""
    for k, (c, done) in enumerate(reduced):
        if col in done:
            reduced[k] = (c, _eliminate(done, col, row))


def solve(rows: Sequence[Row], rhs: Sequence[Fraction], ncols: int) -> Optional[Tuple[List[Fraction], List[int]]]:
    """One exact solution of ``A x = b`` with free variables pinned to zero.

    Returns ``(solution, free_columns)`` or ``None`` when inconsistent.
    """
    reduced = rref([{**row, ncols: b} if b else row for row, b in zip(rows, rhs)], ncols + 1)
    solution = [Fraction(0)] * ncols
    pivot_cols = set()
    for col, row in reduced:
        if col == ncols:
            return None
        pivot_cols.add(col)
        solution[col] = Fraction(row.get(ncols, 0), row[col])
    free = [c for c in range(ncols) if c not in pivot_cols]
    return solution, free


def nullspace(rows: Sequence[Row], ncols: int) -> List[Dict[int, Fraction]]:
    """Basis of the kernel of ``A``, one sparse vector per free column.

    The vector of a free column is ``1`` there and zero at the other
    free columns.
    """
    reduced = rref(rows, ncols)
    pivot_cols = {col for col, _ in reduced}
    basis: List[Dict[int, Fraction]] = []
    for free_col in range(ncols):
        if free_col in pivot_cols:
            continue
        vec = {free_col: Fraction(1)}
        for col, row in reduced:
            val = row.get(free_col)
            if val:
                vec[col] = Fraction(-val, row[col])
        basis.append(vec)
    return basis


def reduce_against(vector: Row, reduced: Sequence[Tuple[int, IntRow]]) -> IntRow:
    """Remainder of ``vector`` modulo the span of :func:`rref`-form rows.

    It is a primitive integer row, a non-zero multiple of the rational
    remainder, and empty exactly when ``vector`` lies in the span.
    """
    rem = _integer_row(vector)
    for col, row in reduced:
        if col in rem:
            rem = _eliminate(rem, col, row)
    return rem


def extend_rref(reduced: List[Tuple[int, IntRow]], remainder: Row) -> None:
    """Add a non-zero row already reduced modulo ``reduced``, in place.

    The row is made primitive with a positive pivot at its first
    non-zero column and that column is cleared from the other rows, so
    ``reduced`` stays the (unordered) reduced row echelon form of the
    enlarged span, in the form :func:`rref` returns.
    """
    pivot = min(remainder)
    row = _positive(_integer_row(remainder), pivot)
    _clear(reduced, pivot, row)
    reduced.append((pivot, row))


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
