"""Exact integer linear algebra: the dense Smith normal form with the two
transforms that homology coordinates read, and the sparse Smith diagonal
that Betti numbers and torsion read.

Entries are Python ints, so no overflow.  The dense pivot rule picks a
smallest nonzero entry to limit coefficient growth during elimination.  The
sparse diagonal eliminates unit entries first, each of which splits off an
invariant factor 1, and makes only the unit-free remainder dense (Dumas,
Saunders and Villard, "On efficient sparse integer matrix Smith normal form
computations", J. Symbolic Comput. 2001).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def smith_diagonal(
    columns: list[list[tuple[int, int]]],
    rows: int,
    check: Callable[[int, int], None] | None = None,
) -> tuple[list[int], int]:
    """The diagonal and rank that ``smith_normal_form`` gives for the
    ``rows`` x ``len(columns)`` matrix whose column j holds the (row, entry)
    pairs of ``columns[j]``.

    Rows and columns are kept sparse.  Each pass takes the columns in order
    and pivots on a unit of the column that lies in the row with the fewest
    nonzeros: the pivot clears its column by row operations, and its row and
    column are dropped, a factor 1 split off.  Passes repeat until no unit
    is left.  The remainder, without its zero rows and columns, is reduced
    densely; ``check`` is called with its shape before it is allocated."""
    cols = [{r: x for r, x in column if x} for column in columns]
    support: list[set[int]] = [set() for _ in range(rows)]  # nonzero columns of each row
    for j, col in enumerate(cols):
        for r in col:
            support[r].add(j)
    units = 0
    found = True
    while found:
        found = False
        for col in cols:
            pivot = None
            for r, x in col.items():
                if (x == 1 or x == -1) and (pivot is None or len(support[r]) < len(support[pivot])):
                    pivot = r
            if pivot is None:
                continue
            found = True
            units += 1
            prow, sign = support[pivot], col[pivot]
            for r, x in list(col.items()):
                if r == pivot:
                    continue
                f = x * sign  # x / sign, as sign is a unit
                rrow = support[r]
                for c in prow:
                    cc = cols[c]
                    y = cc.get(r, 0) - f * cc[pivot]
                    if y:
                        cc[r] = y
                        rrow.add(c)
                    else:
                        del cc[r]
                        rrow.discard(c)
            for c in prow:
                del cols[c][pivot]
            prow.clear()
    live_rows = [r for r, s in enumerate(support) if s]
    live_cols = [col for col in cols if col]
    m, n = len(live_rows), len(live_cols)
    if check is not None:
        check(m, n)
    at = {r: i for i, r in enumerate(live_rows)}
    a = zeros(m, n)
    for j, col in enumerate(live_cols):
        for r, x in col.items():
            a[at[r]][j] = x
    diagonal = [1] * units + _eliminate(a, m, n, None, None)
    diagonal += [0] * (min(rows, len(columns)) - len(diagonal))
    return diagonal, sum(1 for d in diagonal if d)


def _eliminate(
    a: Matrix, m: int, n: int, p: Matrix | None, qinv: Matrix | None
) -> list[int]:
    """Reduce the m x n matrix ``a`` in place to Smith form and return its
    diagonal.  The row transform ``p`` takes every row operation and
    ``qinv`` the inverse of every column operation, each when given; the
    operations on ``a`` do not depend on which transforms are tracked."""

    def row_add(dst: int, src: int, c: int, support: list[int] | None = None) -> None:
        # ``support`` lists the nonzero columns of row src, when known.
        if c == 0:
            return
        if support is None:
            a[dst] = [x + c * y if y else x for x, y in zip(a[dst], a[src])]
        else:
            arow, srow = a[dst], a[src]
            for j in support:
                arow[j] += c * srow[j]
        if p is not None:
            p[dst] = [x + c * y if y else x for x, y in zip(p[dst], p[src])]

    def col_add(dst: int, src: int, c: int, support: list[int]) -> None:
        # ``support`` lists the nonzero rows of column src.
        if c == 0:
            return
        for i in support:
            a[i][dst] += c * a[i][src]
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
            support = [j for j, x in enumerate(a[t]) if x]
            for i in range(t + 1, m):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // a[t][t]), support)
            moved = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_swap(t, i)
                    moved = True
                    break
            if moved:
                continue
            support = [i for i, row in enumerate(a) if row[t]]
            for j in range(t + 1, n):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // a[t][t]), support)
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
        # can be searched, and a unit, the usual case, is found by list scans.
        pivot = None
        for i in range(t, m):
            row = a[i]
            if 1 in row or -1 in row:
                pivot = (i, min(row.index(u) for u in (1, -1) if u in row))
                break
        else:
            best = None
            for i in range(t, m):
                if not any(a[i]):
                    continue
                for j, x in enumerate(a[i]):
                    if x and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
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
