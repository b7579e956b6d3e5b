"""Independent brute-force oracles used to check the optimized paths.

The Smith-form oracle here is a deliberately plain recursive dense
elimination with first-nonzero pivoting and no transform tracking; it shares
no code with the library implementation.
"""

from __future__ import annotations

from circuitsmith import Simplex, SimplicialComplex


def oracle_snf_diagonal(matrix: list[list[int]]) -> list[int]:
    a = [row[:] for row in matrix]
    m = len(a)
    n = len(a[0]) if a else 0
    diag: list[int] = []
    top = 0
    while top < m and top < n:
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i0, j0 = pivot
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        while True:
            changed = False
            for i in range(top + 1, m):
                while a[i][top]:
                    q = a[i][top] // a[top][top]
                    for j in range(n):
                        a[i][j] -= q * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        changed = True
            for j in range(top + 1, n):
                while a[top][j]:
                    q = a[top][j] // a[top][top]
                    for i in range(m):
                        a[i][j] -= q * a[i][top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        changed = True
            if not changed:
                break
        # pull a non-divisible remainder into the working row
        d = a[top][top]
        offender = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(n):
                a[top][j] += a[offender][j]
            continue
        diag.append(abs(d))
        top += 1
    return diag


def oracle_boundary_matrix(
    K: SimplicialComplex, k: int, excluded: frozenset
) -> list[list[int]]:
    rows = [s for s in K.simplices_of_dim(k - 1) if s not in excluded]
    cols = [s for s in K.simplices_of_dim(k) if s not in excluded]
    index = {s: i for i, s in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    if k == 0:
        return mat
    for j, s in enumerate(cols):
        vs = s.vertices
        for i in range(len(vs)):
            r = index.get(Simplex(vs[:i] + vs[i + 1 :]))
            if r is not None:
                mat[r][j] = (-1) ** i
    return mat


def oracle_homology(
    K: SimplicialComplex, A: SimplicialComplex | None = None
) -> tuple[list[int], dict[int, list[int]]]:
    """Betti numbers and torsion via rank counting over plain dense SNF."""
    excluded = A.simplices if A is not None else frozenset()
    dims = range(0, max(K.dim, 0) + 1) if K.simplices else range(0)
    counts = {
        k: len([s for s in K.simplices_of_dim(k) if s not in excluded]) for k in dims
    }
    diags = {}
    for k in dims:
        diags[k] = oracle_snf_diagonal(oracle_boundary_matrix(K, k, excluded))
    top = max(K.dim, 0) if K.simplices else -1
    diags[top + 1] = []
    betti = []
    torsion: dict[int, list[int]] = {}
    for k in dims:
        rank_out = len([d for d in diags[k] if d])
        rank_in = len([d for d in diags[k + 1] if d])
        betti.append(counts[k] - rank_out - rank_in)
        tors = [d for d in diags[k + 1] if d > 1]
        if tors:
            torsion[k] = sorted(tors)
    return betti, torsion


def oracle_link(s: Simplex, K: SimplicialComplex) -> frozenset[Simplex]:
    """The link by its definition: simplices of K disjoint from s whose
    vertex union with s is again a simplex of K, found by scanning K."""
    sv = set(s.vertices)
    return frozenset(
        t
        for t in K.simplices
        if not sv & set(t.vertices) and Simplex.of(sv | set(t.vertices)) in K.simplices
    )


def oracle_star(members, K: SimplicialComplex) -> frozenset[Simplex]:
    """The open star by its definition: simplices of K having a face among
    the members, found by scanning K."""
    faces = [set(f.vertices) for f in members]
    return frozenset(t for t in K.simplices if any(f <= set(t.vertices) for f in faces))
