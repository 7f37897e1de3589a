"""Exact sparse linear algebra over the rationals, on integer rows.

Rows are dicts mapping column index to a non-zero ``int``.  Elimination
is fraction-free (Bareiss, Math. Comp. 1968): :func:`rref` divides each
row by its content, a pivot row ``r`` with pivot ``p`` clears the entry
``a`` of a row ``t`` as ``(p/g)*t - (a/g)*r`` with ``g = gcd(a, p)``,
and the result is divided by its content.  :func:`rref`,
:func:`nullspace`, :func:`reduce_against` and :func:`extend_rref` return
primitive integer rows (content one); only :func:`solve` reads
``Fraction`` results off them.  Pivot choice prefers the sparsest
available row, first in input order: fill-in stays low and the result
is deterministic.  The pivot search goes through a column index, the
rows holding each column (fill-in added as it appears, rows that lost
the column skipped), so each column touches only its holders.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .poly import _cleared

Row = Dict[int, int]


def _content_one(row: Row) -> Row:
    g = gcd(*row.values())
    return row if g <= 1 else {c: v // g for c, v in row.items()}


def _eliminate(target: Row, col: int, pivot_row: Row) -> Row:
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


def _positive(row: Row, col: int) -> Row:
    return row if row[col] > 0 else {c: -v for c, v in row.items()}


def rref(rows: Sequence[Row], ncols: int) -> List[Tuple[int, Row]]:
    """Reduced row echelon form on primitive integer rows.

    Returns ``(pivot_column, row)`` pairs with pivot columns strictly
    increasing.  Each row has ``int`` entries with content one, a
    positive entry at its pivot and zeros at the other pivot columns.
    The input rows are not modified (a primitive one may be returned).
    """
    work: Dict[int, Row] = {}
    holders: Dict[int, Set[int]] = {}  # column -> rows that hold it, or once did
    for index, r in enumerate(rows):
        row = _content_one(r)
        if row:
            work[index] = row
            for c in row:
                holders.setdefault(c, set()).add(index)
    pivots: List[Tuple[int, Row]] = []
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


def _clear(reduced: List[Tuple[int, Row]], col: int, row: Row) -> None:
    """Clear ``col`` from every row of ``reduced`` with the pivot row ``row``, in place."""
    for k, (c, done) in enumerate(reduced):
        if col in done:
            reduced[k] = (c, _eliminate(done, col, row))


def solve(rows: Sequence[Row], rhs: Sequence[Fraction], ncols: int) -> Optional[Tuple[List[Fraction], List[int]]]:
    """One exact solution of ``A x = b`` with free variables pinned to zero.

    ``b`` is cleared once, ``x = y/q`` for ``A y = q*b`` in integers.
    Returns ``(solution, free_columns)`` or ``None`` when inconsistent.
    """
    scale, numer = _cleared(list(rhs))
    reduced = rref([{**row, ncols: b} if b else row for row, b in zip(rows, numer)], ncols + 1)
    solution = [Fraction(0)] * ncols
    pivot_cols = set()
    for col, row in reduced:
        if col == ncols:
            return None
        pivot_cols.add(col)
        solution[col] = Fraction(row.get(ncols, 0), row[col] * scale)
    free = [c for c in range(ncols) if c not in pivot_cols]
    return solution, free


def nullspace(rows: Sequence[Row], ncols: int) -> List[Row]:
    """Basis of the kernel of ``A``, one primitive integer vector per free column.

    The vector of a free column is zero at the other free columns and,
    at its own, the lcm of ``p / gcd(v, p)`` over the rows with pivot
    ``p`` and entry ``v`` there: the least positive integer possible.
    """
    reduced = rref(rows, ncols)
    pivot_cols = {col for col, _ in reduced}
    basis: List[Row] = []
    for free_col in range(ncols):
        if free_col in pivot_cols:
            continue
        hits = [(col, row[free_col], row[col]) for col, row in reduced if free_col in row]
        scale = lcm(*[p // gcd(v, p) for _, v, p in hits])
        vec = {free_col: scale}
        for col, v, p in hits:
            vec[col] = -v * scale // p
        basis.append(vec)
    return basis


def reduce_against(vector: Row, reduced: Sequence[Tuple[int, Row]]) -> Row:
    """Remainder of the primitive row ``vector`` modulo the span of :func:`rref`-form rows.

    It is a primitive integer row, a non-zero multiple of the rational
    remainder, and empty exactly when ``vector`` lies in the span.
    """
    for col, row in reduced:
        if col in vector:
            vector = _eliminate(vector, col, row)
    return vector


def extend_rref(reduced: List[Tuple[int, Row]], remainder: Row) -> None:
    """Add a non-zero primitive row already reduced modulo ``reduced``, in place.

    The row gets a positive pivot at its first non-zero column and that
    column is cleared from the other rows, so ``reduced`` stays the
    (unordered) reduced row echelon form of the enlarged span, in the
    form :func:`rref` returns.
    """
    pivot = min(remainder)
    row = _positive(remainder, pivot)
    _clear(reduced, pivot, row)
    reduced.append((pivot, row))
