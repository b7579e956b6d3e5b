"""Independent integer homology for checking ``homology`` answers.

Shares no code with the library.  Boundary matrices are kept sparse; every
entry equal to +1 or -1 is used as a pivot and eliminated, which removes an
invariant factor 1 without changing the others.  The small remainder is
reduced densely to its Smith normal form diagonal.
"""

from __future__ import annotations

import itertools


def _faces(facets) -> set[tuple[int, ...]]:
    out = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(1, len(f) + 1):
            out.update(itertools.combinations(f, r))
    return out


def _dense_diagonal(a: list[list[int]]) -> list[int]:
    """Nonzero Smith invariant factors of a small dense integer matrix."""
    diag = []
    while a and a[0]:
        entries = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        dirty = False
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            dirty |= a[i][0] != 0
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[0]
            dirty |= a[0][j] != 0
        if dirty:
            continue  # a smaller remainder is now the pivot candidate
        offender = next((i for i in range(1, len(a)) for x in a[i][1:] if x % p), None)
        if offender is not None:
            a[0] = [x + y for x, y in zip(a[0], a[offender])]
            continue
        diag.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return diag


def _eliminate(rows, cols, r: int, c: int) -> None:
    """Clear column c with the unit pivot at (r, c), then drop row r and
    column c: the pivot splits off as an invariant factor 1."""
    prow = rows.pop(r)
    u = prow[c]
    for r2, v2 in list(cols[c].items()):
        if r2 == r:
            continue
        q = v2 * u  # u is its own inverse
        row2 = rows[r2]
        for c2, v in prow.items():
            nv = row2.get(c2, 0) - q * v
            if nv:
                row2[c2] = nv
                cols[c2][r2] = nv
            else:
                row2.pop(c2, None)
                cols[c2].pop(r2, None)
        if not row2:
            del rows[r2]
    for c2 in prow:
        cols[c2].pop(r, None)
    del cols[c]


def invariant_factors(columns: list[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors of the matrix given by sparse columns."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for c, column in enumerate(columns):
        for r, v in column.items():
            if v:
                rows.setdefault(r, {})[c] = v
                cols.setdefault(c, {})[r] = v
    units = 0
    progress = True
    while progress:
        progress = False
        for c in sorted(cols):
            col = cols.get(c)
            if not col:
                continue
            candidates = [r for r, v in col.items() if v in (1, -1)]
            if not candidates:
                continue
            r = min(candidates, key=lambda r: len(rows[r]))
            _eliminate(rows, cols, r, c)
            units += 1
            progress = True
    rest_rows = sorted(rows)
    rest_cols = sorted(c for c, col in cols.items() if col)
    dense = [[rows[r].get(c, 0) for c in rest_cols] for r in rest_rows]
    return [1] * units + _dense_diagonal(dense)


def integer_homology(facets, rel=None) -> tuple[list[int], dict[str, list[int]]]:
    """Betti numbers and torsion of the complex, relative to the closure of
    ``rel`` when given, in the CLI's ``homology`` report format."""
    faces = _faces(facets)
    excluded = _faces(rel) if rel else set()
    dim = max(len(s) for s in faces) - 1
    basis = {d: sorted(s for s in faces if len(s) == d + 1 and s not in excluded)
             for d in range(dim + 2)}
    factors = {0: []}
    for d in range(1, dim + 2):
        index = {s: i for i, s in enumerate(basis[d - 1])}
        columns = []
        for s in basis[d]:
            col = {}
            for i in range(len(s)):
                r = index.get(s[:i] + s[i + 1:])
                if r is not None:
                    col[r] = (-1) ** i
            columns.append(col)
        factors[d] = invariant_factors(columns)
    betti = [len(basis[d]) - len(factors[d]) - len(factors[d + 1]) for d in range(dim + 1)]
    torsion = {str(d): sorted(x for x in factors[d + 1] if x > 1)
               for d in range(dim + 1) if any(x > 1 for x in factors[d + 1])}
    return betti, torsion
