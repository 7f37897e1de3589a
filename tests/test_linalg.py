from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from gaquot.linalg import det_bareiss, extend_rref, nullspace, reduce_against, rref, solve
from gaquot.poly import Poly, ring


def _rows(dense):
    return [
        {j: Fraction(value) for j, value in enumerate(row) if value}
        for row in dense
    ]


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
        vector = [basis[0].get(j, Fraction(0)) for j in range(3)]
        assert _apply(rows, vector) == [0, 0, 0]

    @given(matrices)
    def test_vectors_annihilated(self, dense):
        rows = _rows(dense)
        reduced = rref(rows, 4)
        basis = nullspace(rows, 4)
        assert len(reduced) + len(basis) == 4
        for member in basis:
            vector = [member.get(j, Fraction(0)) for j in range(4)]
            assert _apply(rows, vector) == [0] * len(rows)


class TestReduceAgainst:
    def test_reduction_to_zero_detects_membership(self):
        rows = _rows([[1, 0, 1], [0, 1, 2]])
        reduced = rref(rows, 3)
        inside = {0: Fraction(2), 1: Fraction(3), 2: Fraction(8)}
        outside = {0: Fraction(1)}
        assert reduce_against(dict(inside), reduced) == {}
        assert reduce_against(dict(outside), reduced) != {}

    @given(st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5), max_size=6))
    def test_extending_in_place_matches_a_fresh_rref(self, dense):
        reduced = []
        for row in _rows(dense):
            remainder = reduce_against(row, reduced)
            if remainder:
                extend_rref(reduced, remainder)
        assert sorted(reduced, key=lambda pair: pair[0]) == rref(_rows(dense), 5)


class TestDeterminant:
    def test_polynomial_entries(self):
        a, b, c, d = ring(("a", "b", "c", "d"))
        assert det_bareiss([[a, b], [c, d]]) == a * d - b * c

    def test_integer_matrix_against_permutation_expansion(self):
        table = ("x",)
        dense = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        matrix = [[Poly.const(table, v) for v in row] for row in dense]
        expected = Fraction(0)
        for perm in itertools.permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            product = Fraction(1)
            for i in range(3):
                product *= dense[i][perm[i]]
            expected += sign * product
        assert det_bareiss(matrix).constant_term() == expected

    def test_singular_matrix(self):
        x, y = ring(("x", "y"))
        assert det_bareiss([[x, y], [x, y]]).is_zero
