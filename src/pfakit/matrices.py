"""Exact matrix routines.

Word matrices are integer matrices over one common denominator, ``(ints,
den)``, indexed by state declaration order; :func:`pfakit.core.word_matrix`
builds them from the compiled kernel. Products and powers multiply integers,
never Fractions. :func:`solve_linear` is the one routine over Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import IntMatrix
from .errors import DomainError

Matrix = list[list[Fraction]]


def int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def int_mat_pow(ints: IntMatrix, den: int, e: int) -> tuple[IntMatrix, int]:
    """``(ints / den) ** e`` as ``(integers, denominator)``, by repeated squaring."""
    if e < 0:
        raise DomainError(f"exponent must be >= 0, got {e}")
    n = len(ints)
    if e == 0:
        return [[int(i == j) for j in range(n)] for i in range(n)], 1
    acc: IntMatrix | None = None
    acc_den = 1
    while True:
        if e & 1:
            acc = ints if acc is None else int_mat_mul(acc, ints)
            acc_den *= den
        e >>= 1
        if not e:
            break
        ints = int_mat_mul(ints, ints)
        den *= den
    assert acc is not None
    return acc, acc_den


def solve_linear(a: Matrix, b: Sequence[Fraction]) -> list[Fraction]:
    """Solve a @ x == b exactly by Gaussian elimination. ``a`` must be square
    and nonsingular."""
    n = len(a)
    rows = [list(row) + [bi] for row, bi in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise DomainError("singular linear system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][n] for r in range(n)]
