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

    Fraction-free elimination: a column -> rows index finds each column's
    pivot, the first unused row holding it, and the rows it is
    cross-multiplied out of: the unused ones, then, in reverse pivot order,
    the used ones (back substitution). Each new row is divided by the gcd of
    its entries, and the work follows the nonzeros, so a banded system takes
    linearly many row operations. :class:`DomainError` if it is singular.
    """
    n = len(rows)
    eqs = [_reduced({**row, n: b}) for row, b in zip(rows, rhs)]  # rhs is column n
    holders: list[set[int]] = [set() for _ in range(n + 1)]  # column -> rows
    for r, eq in enumerate(eqs):
        for j in eq:
            holders[j].add(r)

    def eliminate(col: int, p: int, targets: list[int]) -> None:
        pivot, a = eqs[p], eqs[p][col]
        for r in targets:
            c = eqs[r][col]
            new = {j: a * x for j, x in eqs[r].items()}
            for j, x in pivot.items():
                new[j] = new.get(j, 0) - c * x
            eqs[r] = new = _reduced(new)
            for j in pivot:
                (holders[j].add if j in new else holders[j].discard)(r)

    free = set(range(n))
    pivots: list[tuple[int, int]] = []
    for col in range(n):
        p = min((r for r in holders[col] if r in free), default=None)
        if p is None:
            raise DomainError("singular linear system")
        free.discard(p)
        pivots.append((col, p))
        eliminate(col, p, [r for r in holders[col] if r in free])
    for col, p in reversed(pivots):
        eliminate(col, p, [r for r in holders[col] if r != p])
    # Each pivot row is now a * x[col] == b.
    solved = [(eqs[p].get(n, 0), eqs[p][col]) for col, p in pivots]
    return [(-b, -a) if a < 0 else (b, a) for b, a in solved]
