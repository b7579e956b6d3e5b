"""Exact integer linear algebra: the dense Smith normal form, with the two
transforms that homology coordinates read or with none.

Entries are Python ints, so no overflow.  The pivot rule picks a smallest
nonzero entry to limit coefficient growth during elimination.  Homology
hands it only the core of a chain complex whose unit entries were reduced
away sparsely (see ``homology.HomologyResult``).
"""

from __future__ import annotations

from dataclasses import dataclass

Matrix = list[list[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v)) if v[j]) for row in a]


@dataclass
class SNFResult:
    """P @ original == diag(diagonal) @ Qinv, with P and Qinv unimodular.

    P is the row transform and Qinv the inverse of the column transform;
    their inverses are not formed, because nothing in the package reads
    them."""

    diagonal: list[int]
    rank: int
    P: Matrix
    Qinv: Matrix


def smith_normal_form(matrix: Matrix, cols: int | None = None) -> SNFResult:
    m = len(matrix)
    n = cols if cols is not None else (len(matrix[0]) if matrix else 0)
    p, qinv = identity(m), identity(n)
    diagonal = _eliminate([row[:] for row in matrix], m, n, p, qinv)
    rank = sum(1 for d in diagonal if d)
    return SNFResult(diagonal, rank, p, qinv)


def _eliminate(
    a: Matrix, m: int, n: int, p: Matrix | None, qinv: Matrix | None
) -> list[int]:
    """Reduce the m x n matrix ``a`` in place to Smith form and return its
    diagonal.  The row transform ``p`` takes every row operation and
    ``qinv`` the inverse of every column operation, each when given; the
    operations on ``a`` do not depend on which transforms are tracked."""

    def row_add(dst: int, src: int, c: int) -> None:
        if c == 0:
            return
        a[dst] = [x + c * y if y else x for x, y in zip(a[dst], a[src])]
        if p is not None:
            p[dst] = [x + c * y if y else x for x, y in zip(p[dst], p[src])]

    def col_add(dst: int, src: int, c: int) -> None:
        if c == 0:
            return
        for row in a:
            row[dst] += c * row[src]
        if qinv is not None:
            qinv[src] = [x - c * y if y else x for x, y in zip(qinv[src], qinv[dst])]

    def row_swap(i: int, j: int) -> None:
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        if p is not None:
            p[i], p[j] = p[j], p[i]

    def col_swap(i: int, j: int) -> None:
        if i == j:
            return
        for r in a:
            r[i], r[j] = r[j], r[i]
        if qinv is not None:
            qinv[i], qinv[j] = qinv[j], qinv[i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        if p is not None:
            p[i] = [-x for x in p[i]]

    def eliminate_at(t: int) -> None:
        # Clear the pivot column, then the pivot row; any nonzero remainder
        # has smaller absolute value than the pivot and is swapped in, so the
        # pivot strictly shrinks and the loop terminates.
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // a[t][t]))
            moved = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_swap(t, i)
                    moved = True
                    break
            if moved:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // a[t][t]))
            moved = False
            for j in range(t + 1, n):
                if a[t][j]:
                    col_swap(t, j)
                    moved = True
                    break
            if not moved:
                return

    t = 0
    limit = min(m, n)
    while t < limit:
        # The pivot is the first entry of smallest absolute value in row-major
        # order.  Rows from t on are zero left of column t, so whole rows
        # can be searched.
        pivot, best = None, None
        for i in range(t, m):
            for j, x in enumerate(a[i]):
                if x and (best is None or abs(x) < best):
                    pivot, best = (i, j), abs(x)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])

        while True:
            eliminate_at(t)
            # Force the divisibility chain: a non-divisible leftover is pulled
            # into the pivot row, and re-elimination strictly shrinks |pivot|.
            # A unit pivot divides everything, so it needs no sweep.
            d = a[t][t]
            if d in (1, -1):
                break
            fixed = False
            for i in range(t + 1, m):
                if fixed:
                    break
                for j in range(t + 1, n):
                    if a[i][j] % d:
                        row_add(t, i, 1)
                        fixed = True
                        break
            if not fixed:
                break
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    return [a[i][i] for i in range(limit)]
