"""Exact integer matrix routines; nothing here builds a ``Fraction``.

Word matrices are integer matrices over one common denominator, ``(ints,
den)``, indexed by state declaration order; :func:`pfakit.core.word_matrix`
builds them from the compiled kernel. :func:`solve_sparse` solves a square
linear system given as sparse integer rows.
"""

from __future__ import annotations

import math

from .core import IntMatrix
from .errors import DomainError


def int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def int_mat_pow(ints: IntMatrix, den: int, e: int) -> tuple[IntMatrix, int]:
    """``(ints / den) ** e`` as ``(integers, denominator)``, by repeated squaring."""
    if e < 0:
        raise DomainError(f"exponent must be >= 0, got {e}")
    n = len(ints)
    acc, acc_den = [[int(i == j) for j in range(n)] for i in range(n)], 1
    while e:
        if e & 1:
            acc, acc_den = int_mat_mul(acc, ints), acc_den * den
        e >>= 1
        if e:
            ints, den = int_mat_mul(ints, ints), den * den
    return acc, acc_den


def _reduced(row: dict[int, int]) -> dict[int, int]:
    """The row without its zeros, divided by the gcd of the rest."""
    g = math.gcd(*row.values()) or 1
    return {j: x // g for j, x in row.items() if x}


def solve_sparse(rows: list[dict[int, int]], rhs: list[int]) -> list[tuple[int, int]]:
    """Solve ``sum_j rows[i][j] * x[j] == rhs[i]`` (``rows[i]`` maps columns to
    integers) as ``x[j] = (num, den)`` in lowest terms with ``den > 0``.

    Fraction-free Gauss-Jordan: each column's pivot is searched among the rows
    not used yet, every other row is cross-multiplied against it and divided
    by the gcd of its entries. :class:`DomainError` if the system is singular.
    """
    n = len(rows)
    eqs = [_reduced({**row, n: b}) for row, b in zip(rows, rhs)]  # rhs is column n
    used: set[int] = set()
    for col in range(n):
        p = next((r for r in range(n) if r not in used and col in eqs[r]), None)
        if p is None:
            raise DomainError("singular linear system")
        used.add(p)
        pivot, a = eqs[p], eqs[p][col]
        for r, eq in enumerate(eqs):
            c = eq.get(col)
            if c is not None and r != p:
                new = {j: a * x for j, x in eq.items()}
                for j, x in pivot.items():
                    new[j] = new.get(j, 0) - c * x
                eqs[r] = _reduced(new)
    # Each row is now a * x[col] == b for its own pivot column.
    out = {col: (eq.get(n, 0), eq[col]) for eq in eqs for col in eq if col < n}
    return [(-b, -a) if a < 0 else (b, a) for _col, (b, a) in sorted(out.items())]
