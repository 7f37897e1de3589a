from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from hypothesis import given
from hypothesis import strategies as st

from gaquot.linalg import extend_rref, nullspace, reduce_against, rref, solve
from gaquot.poly import _cleared


def _rows(dense):
    return [{j: value for j, value in enumerate(row) if value} for row in dense]


def _primitive(row):
    """``row`` divided by its content, the form ``reduce_against`` and ``extend_rref`` take."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _apply(dense_rows, vector):
    return [
        sum(row.get(j, Fraction(0)) * vector[j] for j in range(len(vector)))
        for row in dense_rows
    ]


class TestRref:
    def test_known_reduction(self):
        rows = _rows([[1, 2, 3], [2, 4, 7]])
        reduced = rref(rows, 3)
        pivots = [col for col, _ in reduced]
        assert pivots == [0, 2]
        assert reduced[0][1] == {0: 1, 1: 2}
        assert reduced[1][1] == {2: 1}

    def test_input_rows_not_mutated(self):
        rows = _rows([[2, 4], [1, 3]])
        snapshot = [dict(r) for r in rows]
        rref(rows, 2)
        assert rows == snapshot

    def test_zero_rows_dropped(self):
        assert rref(_rows([[0, 0], [0, 0]]), 2) == []


matrices = st.lists(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
    min_size=2,
    max_size=5,
)


class TestSolve:
    def test_unique_solution(self):
        rows = _rows([[2, 1], [1, -1]])
        solution, free = solve(rows, [Fraction(5), Fraction(1)], 2)
        assert free == []
        assert solution == [Fraction(2), Fraction(1)]

    def test_inconsistent_system(self):
        rows = _rows([[1, 1], [2, 2]])
        assert solve(rows, [Fraction(1), Fraction(3)], 2) is None

    def test_underdetermined_reports_free_columns(self):
        rows = _rows([[1, 1, 0]])
        solution, free = solve(rows, [Fraction(4)], 3)
        assert free == [1, 2]
        assert solution[0] + solution[1] == 4

    @given(matrices, st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4))
    def test_solution_satisfies_system(self, dense, coefficients):
        rows = _rows(dense)
        rhs = _apply(rows, [Fraction(c) for c in coefficients])
        outcome = solve(rows, rhs, 4)
        assert outcome is not None  # consistent by construction
        solution, _ = outcome
        assert _apply(rows, solution) == rhs


class TestNullspace:
    def test_rank_nullity(self):
        rows = _rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        basis = nullspace(rows, 3)
        assert len(basis) == 1
        vector = [basis[0].get(j, 0) for j in range(3)]
        assert _apply(rows, vector) == [0, 0, 0]
        assert basis[0] == {1: 1, 0: -2}

    @given(matrices)
    def test_vectors_annihilated(self, dense):
        rows = _rows(dense)
        reduced = rref(rows, 4)
        basis = nullspace(rows, 4)
        assert len(reduced) + len(basis) == 4
        for member in basis:
            vector = [member.get(j, 0) for j in range(4)]
            assert _apply(rows, vector) == [0] * len(rows)

    @given(matrices)
    def test_vectors_are_primitive_and_positive_at_their_free_column(self, dense):
        rows = _rows(dense)
        pivot_cols = {col for col, _ in rref(rows, 4)}
        free_cols = [c for c in range(4) if c not in pivot_cols]
        basis = nullspace(rows, 4)
        assert len(basis) == len(free_cols)
        for free_col, member in zip(free_cols, basis):
            assert all(type(v) is int and v for v in member.values())
            assert gcd(*member.values()) == 1
            assert member[free_col] > 0
            assert not any(c in member for c in free_cols if c != free_col)
            assert _apply(rows, [member.get(j, 0) for j in range(4)]) == [0] * len(rows)

    def test_free_entry_is_the_lcm_of_reduced_denominators(self):
        # the first row's pivot 2 divides its entry at column 2 but not the one at column 3
        basis = nullspace([{0: 2, 2: 2, 3: 1}, {1: 3, 2: 2}], 4)
        assert basis == [{2: 3, 0: -3, 1: -2}, {3: 2, 0: -1}]


class TestReduceAgainst:
    def test_reduction_to_zero_detects_membership(self):
        rows = _rows([[1, 0, 1], [0, 1, 2]])
        reduced = rref(rows, 3)
        inside = {0: 2, 1: 3, 2: 8}
        outside = {0: 1}
        assert reduce_against(dict(inside), reduced) == {}
        assert reduce_against(dict(outside), reduced) != {}

    @given(st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5), max_size=6))
    def test_extending_in_place_matches_a_fresh_rref(self, dense):
        reduced = []
        for row in _rows(dense):
            remainder = reduce_against(_primitive(row), reduced) if row else row
            if remainder:
                extend_rref(reduced, remainder)
        assert sorted(reduced, key=lambda pair: pair[0]) == rref(_rows(dense), 5)


# ----------------------------------------------------------------------
# the fraction-free core against a plain Fraction Gauss-Jordan reference


def _oracle_rref(rows, ncols):
    """Unit-pivot Gauss-Jordan in Fraction arithmetic, sparsest row first."""
    work = [{c: Fraction(v) for c, v in r.items() if v} for r in rows]
    work = [r for r in work if r]
    pivots = []
    for col in range(ncols):
        best = -1
        for i, r in enumerate(work):
            if col in r and (best < 0 or len(r) < len(work[best])):
                best = i
        if best < 0:
            continue
        row = work.pop(best)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        for target in work + [done for _, done in pivots]:
            factor = target.get(col)
            if factor is None:
                continue
            for c, v in row.items():
                val = target.get(c, Fraction(0)) - factor * v
                if val:
                    target[c] = val
                else:
                    target.pop(c, None)
        work = [r for r in work if r]
        pivots.append((col, row))
    return pivots


def _oracle_solve(rows, rhs, ncols):
    augmented = [{**row, ncols: b} if b else dict(row) for row, b in zip(rows, rhs)]
    reduced = _oracle_rref(augmented, ncols + 1)
    if reduced and reduced[-1][0] == ncols:
        return None
    solution = [Fraction(0)] * ncols
    for col, row in reduced:
        solution[col] = row.get(ncols, Fraction(0))
    pivot_cols = {col for col, _ in reduced}
    return solution, [c for c in range(ncols) if c not in pivot_cols]


def _oracle_nullspace(rows, ncols):
    reduced = _oracle_rref(rows, ncols)
    pivot_cols = {col for col, _ in reduced}
    basis = []
    for free_col in range(ncols):
        if free_col not in pivot_cols:
            vec = {free_col: Fraction(1)}
            vec.update((col, -row[free_col]) for col, row in reduced if free_col in row)
            basis.append(vec)
    return basis


def _unit(row, col):
    return {c: Fraction(v, row[col]) for c, v in row.items()}


rationals = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6))
integers = st.integers(min_value=-12, max_value=12)


@st.composite
def small_systems(draw):
    """Sparse integer rows (zero rows included, possibly none) and a rational right-hand side."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    dense = draw(st.lists(st.lists(integers, min_size=ncols, max_size=ncols), max_size=7))
    rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
    rhs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, ncols


@st.composite
def tall_sparse_systems(draw):
    """The shape of slice search: far more rows than columns, most of them repeats or zero.

    A few sparse integer rows are drawn, then each row of the system is
    an integer multiple of one of them or the zero row, so many rows
    share a column set and the pivot tie rule is exercised.
    """
    ncols = draw(st.integers(min_value=1, max_value=8))
    entries = st.dictionaries(
        st.integers(min_value=0, max_value=ncols - 1), integers.filter(bool), min_size=1, max_size=3
    )
    distinct = draw(st.lists(entries, min_size=1, max_size=ncols + 2))
    picks = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=len(distinct)), integers.filter(bool)),
            min_size=4 * ncols,
            max_size=6 * ncols,
        )
    )
    rows = [
        {c: v * scale for c, v in distinct[i].items()} if i < len(distinct) else {}
        for i, scale in picks
    ]
    rhs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, ncols


def rational_systems():
    return st.one_of(small_systems(), tall_sparse_systems())


def _hilbert(n):
    """The rows of the ``n x n`` Hilbert matrix cleared to integers, as ``(q_i, q_i * row_i)``."""
    return [_cleared([Fraction(1, i + j + 1) for j in range(n)]) for i in range(n)]


def _hilbert_inverse(n):
    """The integer inverse of the ``n x n`` Hilbert matrix, in closed form."""
    return [
        [
            (-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1) * comb(n + j, n - i - 1) * comb(i + j, i) ** 2
            for j in range(n)
        ]
        for i in range(n)
    ]


class TestIntegerElimination:
    @given(rational_systems())
    def test_rref_agrees_with_fraction_reference(self, system):
        rows, _, ncols = system
        reduced = rref(rows, ncols)
        expected = _oracle_rref(rows, ncols)
        assert [col for col, _ in reduced] == [col for col, _ in expected]
        assert [_unit(row, col) for col, row in reduced] == [row for _, row in expected]

    @given(rational_systems())
    def test_solve_and_nullspace_agree_with_fraction_reference(self, system):
        rows, rhs, ncols = system
        assert solve(rows, rhs, ncols) == _oracle_solve(rows, rhs, ncols)
        expected = _oracle_nullspace(rows, ncols)
        free_cols = [next(iter(vec)) for vec in expected]
        assert [_unit(vec, c) for vec, c in zip(nullspace(rows, ncols), free_cols)] == expected

    @given(rational_systems())
    def test_rows_are_primitive_with_positive_pivots(self, system):
        rows, _, ncols = system
        reduced = rref(rows, ncols)
        pivot_cols = [col for col, _ in reduced]
        assert pivot_cols == sorted(set(pivot_cols))
        for col, row in reduced:
            assert all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1
            assert row[col] > 0 and min(row) == col
            assert all(other == col or other not in row for other in pivot_cols)

    @given(rational_systems())
    def test_incremental_span_keeps_the_row_contract(self, system):
        rows, _, ncols = system
        reduced = []
        for row in map(_primitive, filter(None, rows)):
            remainder = reduce_against(row, reduced)
            assert all(type(v) is int for v in remainder.values())
            if remainder:
                assert gcd(*remainder.values()) == 1
                extend_rref(reduced, remainder)
        assert sorted(reduced, key=lambda pair: pair[0]) == rref(rows, ncols)

    @given(rational_systems())
    def test_int_and_fraction_inputs_not_mutated(self, system):
        rows, rhs, ncols = system
        primitive = [_primitive(row) for row in rows]
        snapshots = [[list(r.items()) for r in given_rows] for given_rows in (rows, primitive)]
        rhs_snapshot = list(rhs)
        for given_rows in (rows, primitive):
            reduced = rref(given_rows, ncols)
            solve(given_rows, rhs, ncols)
            nullspace(given_rows, ncols)
            for row in primitive:
                reduce_against(row, reduced)
                if row:
                    extend_rref([], row)
        for given_rows, snapshot in zip((rows, primitive), snapshots):
            assert [list(r.items()) for r in given_rows] == snapshot
            # an int replaced by an equal Fraction would pass the equality above
            assert all(type(v) is type(w) for r, s in zip(given_rows, snapshot) for v, (_, w) in zip(r.values(), s))
        assert rhs == rhs_snapshot
        assert all(type(v) is type(w) for v, w in zip(rhs, rhs_snapshot))

    def test_int_and_fraction_rows_give_the_same_form(self):
        # a caller with Fraction rows clears each one itself; any scale of a row gives the same form
        ints = [{0: 2, 1: 4, 2: 6}, {0: 1, 2: -3}]
        fractions = [{c: Fraction(v, 7 + i) for c, v in row.items()} for i, row in enumerate(ints)]
        cleared = [dict(zip(row, _cleared(list(row.values()))[1])) for row in fractions]
        expected = [(0, {0: 1, 2: -3}), (1, {1: 1, 2: 3})]
        assert rref(ints, 3) == expected
        assert rref(cleared, 3) == expected
        assert rref([{c: -5 * v for c, v in row.items()} for row in ints], 3) == expected

    def test_hilbert_solve_against_integer_inverse(self):
        n = 8
        inverse = _hilbert_inverse(n)
        cleared = _hilbert(n)
        rows = [dict(enumerate(numer)) for _, numer in cleared]
        for k in range(n):
            # row i was scaled by q_i, so the unit right-hand side is too
            rhs = [Fraction(q * (i == k)) for i, (q, _) in enumerate(cleared)]
            solution, free = solve(rows, rhs, n)
            assert free == []
            assert solution == [inverse[i][k] for i in range(n)]
        assert max(abs(v) for row in inverse for v in row) > 10**9
