import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import raw_after
from pfakit import (
    DomainError,
    Distribution,
    ProbAutomaton,
    UnknownLetter,
    ValidationError,
    accept_prob,
    dirac,
)
from pfakit.core import accept_steps, word_matrix
from pfakit.matrices import int_mat_mul, int_mat_pow, solve_sparse


def fractions(ints, den):
    return [[F(x, den) for x in row] for row in ints]


def letter_table(pa, letter):
    """The letter's transition table as Fractions, read straight off delta."""
    return [[pa.delta[(s, letter)][t] for t in pa.states] for s in pa.states]


class TestWordMatrix:
    def test_empty_word_is_identity(self, seesaw_fast):
        n = len(seesaw_fast.states)
        assert word_matrix(seesaw_fast, []) == (
            [[int(i == j) for j in range(n)] for i in range(n)],
            1,
        )

    def test_matches_propagation(self, seesaw_fast):
        rng = random.Random(6)
        states = seesaw_fast.states
        for _ in range(25):
            word = [rng.choice(seesaw_fast.alphabet) for _ in range(rng.randrange(0, 7))]
            ints, den = word_matrix(seesaw_fast, word)
            for i, s in enumerate(states):
                want = raw_after(dataclasses.replace(seesaw_fast, initial=s), word)
                assert [F(x, den) for x in ints[i]] == [want.get(t, F(0)) for t in states]

    def test_rows_are_stochastic(self, seesaw_fast):
        for word in (["i", "a", "f"], ["a"] * 5, ["f", "i", "i"]):
            ints, den = word_matrix(seesaw_fast, word)
            for row in ints:
                assert sum(row) == den

    def test_mat_mul_associates_with_concatenation(self, seesaw_fast):
        u, v = ["i", "a"], ["a", "f"]
        (mu, du), (mv, dv) = word_matrix(seesaw_fast, u), word_matrix(seesaw_fast, v)
        assert fractions(int_mat_mul(mu, mv), du * dv) == fractions(
            *word_matrix(seesaw_fast, u + v)
        )

    def test_matrix_steps_stand_for_their_words(self, seesaw_fast):
        u, v = ["i", "a", "a"], ["f", "i"]
        mu = word_matrix(seesaw_fast, u)
        assert word_matrix(seesaw_fast, [mu] + v) == word_matrix(seesaw_fast, u + v)
        assert accept_steps(seesaw_fast, v + [mu]) == accept_prob(seesaw_fast, v + u)

    def test_bad_steps_rejected(self, seesaw_fast, tiny_pa):
        with pytest.raises(UnknownLetter):
            word_matrix(seesaw_fast, ["z"])
        wrong_shape, wrong_sum = ([[1]], 1), ([[1, 0], [1, 1]], 1)
        negative, zero_den = ([[2, -1], [0, 1]], 1), ([[0, 0], [0, 0]], 0)
        for bad in (wrong_shape, wrong_sum, negative, zero_den):
            with pytest.raises(ValidationError):
                accept_steps(tiny_pa, [bad])


class TestIntegerForm:
    def test_round_trip(self, seesaw_fast):
        ints, den = word_matrix(seesaw_fast, ["a"])
        table = letter_table(seesaw_fast, "a")
        assert fractions(ints, den) == table
        assert all(isinstance(v, int) for row in ints for v in row)
        # The smallest common denominator: no larger integers than needed.
        assert den == math.lcm(*(p.denominator for row in table for p in row))
        assert math.gcd(den, *(v for row in ints for v in row)) == 1

    def test_merged_splits_leave_no_common_factor(self):
        # s splits over p and q, which both move to r: "b b" is Dirac on r.
        delta = {
            ("s", "b"): Distribution({"p": F(1, 2), "q": F(1, 2)}),
            ("p", "b"): dirac("r"),
            ("q", "b"): dirac("r"),
            ("r", "b"): dirac("r"),
        }
        pa = ProbAutomaton(("s", "p", "q", "r"), ("b",), "s", delta, {"r"})
        assert word_matrix(pa, ["b", "b"]) == ([[0, 0, 0, 1]] * 4, 1)

    def test_int_mul_matches_fraction_mul(self, seesaw_fast):
        m = letter_table(seesaw_fast, "a")
        ints, den = word_matrix(seesaw_fast, ["a"])
        want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in m]
        assert fractions(int_mat_mul(ints, ints), den * den) == want


class TestMatPow:
    def test_matches_repeated_multiplication(self, seesaw_fast):
        ints, den = word_matrix(seesaw_fast, ["a"])
        acc, acc_den = word_matrix(seesaw_fast, [])
        for e in range(6):
            assert fractions(*int_mat_pow(ints, den, e)) == fractions(acc, acc_den)
            assert fractions(*int_mat_pow(ints, den, e)) == fractions(
                *word_matrix(seesaw_fast, ["a"] * e)
            )
            acc, acc_den = int_mat_mul(acc, ints), acc_den * den

    def test_large_exponent(self, tiny_pa):
        p, den = int_mat_pow(*word_matrix(tiny_pa, ["a"]), 200)
        # q0 -> q1 mass after 200 letters is 1 - 2^-200
        assert F(p[0][1], den) == 1 - F(1, 2**200)

    def test_negative_exponent_rejected(self, tiny_pa):
        with pytest.raises(DomainError):
            int_mat_pow(*word_matrix(tiny_pa, ["a"]), -1)


class TestSolveLinear:
    """The sparse integer solver; each x[j] comes back as (num, den)."""

    def test_solves_known_system(self):
        rows = [{0: 2, 1: 1}, {0: 1, 1: 3}]
        assert solve_sparse(rows, [5, 10]) == [(1, 1), (3, 1)]

    def test_permuted_pivot(self):
        # Column 0's only nonzero is in row 1: the pivot search must find it.
        rows = [{0: 0, 1: 1}, {0: 1, 1: 0}]
        assert solve_sparse(rows, [7, 9]) == [(9, 1), (7, 1)]

    def test_singular_rejected(self):
        rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
        with pytest.raises(DomainError):
            solve_sparse(rows, [1, 2])

    def test_solution_in_lowest_terms(self):
        # -6 x = 4 and 4 y - 2 x = 0: x = -2/3, y = -1/3, denominators positive.
        assert solve_sparse([{0: -6}, {0: -2, 1: 4}], [4, 0]) == [(-2, 3), (-1, 3)]


def fraction_gauss_jordan(rows, rhs):
    """Dense Fraction Gauss-Jordan, the reference for solve_sparse; None if singular."""
    n = len(rows)
    m = [[F(row.get(j, 0)) for j in range(n)] + [F(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        p = next((r for r in range(col, n) if m[r][col]), None)
        if p is None:
            return None
        m[col], m[p] = m[p], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


@st.composite
def sparse_systems(draw):
    n = draw(st.integers(1, 8))
    entry = st.integers(-6, 6)
    rows = []
    for i in range(n):
        cols = draw(st.sets(st.integers(0, n - 1), max_size=3))
        if draw(st.integers(0, 9)):  # usually a diagonal entry, so most draws are nonsingular
            cols.add(i)
        rows.append({j: draw(entry) for j in sorted(cols)})
    return rows, [draw(entry) for _ in range(n)]


class TestSolveSparseDifferential:
    @given(sparse_systems())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_gauss_jordan(self, system):
        rows, rhs = system
        want = fraction_gauss_jordan(rows, rhs)
        if want is None:
            with pytest.raises(DomainError, match="singular"):
                solve_sparse(rows, rhs)
        else:
            got = solve_sparse(rows, rhs)
            assert [F(num, den) for num, den in got] == want
            assert all(den > 0 and math.gcd(num, den) == 1 for num, den in got)

    @given(sparse_systems(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_dependent_row_is_singular(self, system, data):
        # Replace one row by a combination of the others: the matrix is singular
        # whatever the right-hand side says.
        rows, rhs = system
        n = len(rows)
        k = data.draw(st.integers(0, n - 1))
        coef = [data.draw(st.integers(-3, 3)) if i != k else 0 for i in range(n)]
        rows[k] = {j: sum(c * rows[i].get(j, 0) for i, c in enumerate(coef)) for j in range(n)}
        with pytest.raises(DomainError, match="singular"):
            solve_sparse(rows, rhs)

    def test_long_banded_system(self):
        # x[i] - x[i+1] = -1 and x[n-1] = n: x[i] = i + 1, on 2000 rows of at
        # most two entries; the back substitution does all the work.
        n = 2000
        rows = [{i: 1, i + 1: -1} for i in range(n - 1)] + [{n - 1: 1}]
        assert solve_sparse(rows, [-1] * (n - 1) + [n]) == [(i + 1, 1) for i in range(n)]
