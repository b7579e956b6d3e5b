"""Independent brute-force oracles used to check the optimized paths.

The Smith-form oracle here is a deliberately plain recursive dense
elimination with first-nonzero pivoting and no transform tracking; it shares
no code with the library implementation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from circuitsmith import (
    CompactifiedMap,
    Coordinates,
    HomologyResult,
    IntChain,
    OpenSimplexSet,
    OrientationAssignment,
    PointClass,
    PseudocycleCertificate,
    PuncturedComplex,
    RelativeCircuitData,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    chain_boundary,
    classify_point,
    limit_set,
    restrict_closed,
)
from circuitsmith.limits import ProductMapResult
from circuitsmith.snf import smith_normal_form


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


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The integer matrix product a @ b."""
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def oracle_inverse(matrix: list[list[int]]) -> list[list[int]] | None:
    """The inverse of a square integer matrix when it is again an integer
    matrix (the matrix is unimodular), else None; plain Gauss-Jordan over
    the rationals."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[col])]
    inverse = [row[n:] for row in a]
    if any(x.denominator != 1 for row in inverse for x in row):
        return None
    return [[int(x) for x in row] for row in inverse]


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


def _oracle_degree(K: SimplicialComplex, A: SimplicialComplex, k: int):
    """The full-size coordinate path: the relative basis of degree k, the
    rank r and Qinv of the tracked Smith form of the whole outgoing
    boundary, and the tracked Smith form of the kernel coordinates, rows
    r.. of Qinv times the whole incoming boundary."""
    excluded = A.simplices
    basis = [s for s in K.simplices_of_dim(k) if s not in excluded]
    out = smith_normal_form(oracle_boundary_matrix(K, k, excluded), cols=len(basis))
    above = len([s for s in K.simplices_of_dim(k + 1) if s not in excluded])
    kernel = mat_mul(out.Qinv[out.rank:], oracle_boundary_matrix(K, k + 1, excluded))
    return basis, out.rank, out.Qinv, smith_normal_form(kernel, cols=above)


def oracle_coordinates(
    K: SimplicialComplex, A: SimplicialComplex | None, z: IntChain
) -> Coordinates:
    """Homology coordinates of a relative cycle by the full-size path, the
    reference for the library's reduction to a core."""
    k = z.degree
    if not 0 <= k <= K.dim:
        return Coordinates(k, (), (), ())
    basis, r, qinv, inc = _oracle_degree(K, A or SimplicialComplex.empty(), k)
    vec = [z.coefficients.get(s, 0) for s in basis]
    u = [sum(x * y for x, y in zip(row, vec)) for row in qinv]
    assert not any(u[:r]), "chain is not a relative cycle"
    w = [sum(x * y for x, y in zip(row, u[r:])) for row in inc.P]
    diagonal = [d for d in inc.diagonal if d]
    orders = tuple(d for d in diagonal if d > 1)
    residues = tuple(w[i] % d for i, d in enumerate(diagonal) if d > 1)
    return Coordinates(k, tuple(w[len(diagonal):]), residues, orders)


def oracle_generators(
    K: SimplicialComplex, A: SimplicialComplex | None, k: int
) -> tuple[list[IntChain], list[IntChain]]:
    """The free and torsion generators of degree k that ``oracle_coordinates``
    reads off: columns r.. of the inverse of Qinv, combined by the columns
    of the inverse of the kernel row transform."""
    basis, r, qinv, inc = _oracle_degree(K, A or SimplicialComplex.empty(), k)
    q, p2inv = oracle_inverse(qinv), oracle_inverse(inc.P)
    assert q is not None and p2inv is not None
    n = len(basis)

    def chain(j: int) -> IntChain:
        return IntChain(k, {basis[i]: sum(q[i][r + t] * p2inv[t][j] for t in range(n - r))
                            for i in range(n)})

    diagonal = [d for d in inc.diagonal if d]
    free = [chain(j) for j in range(len(diagonal), n - r)]
    torsion = [chain(i) for i, d in enumerate(diagonal) if d > 1]
    return free, torsion


def connecting_coordinates(
    H_pair: HomologyResult, H_sub: HomologyResult, z: IntChain
) -> Coordinates:
    """Image of a relative cycle under the connecting map: coordinates of its
    boundary inside the subcomplex."""
    bz = chain_boundary(z)
    assert bz.support <= H_pair.A.simplices, "chain boundary is not carried by the subcomplex"
    return H_sub.coordinates(bz)


def complex_isomorphism(K: SimplicialComplex, L: SimplicialComplex) -> dict[int, int] | None:
    """A vertex bijection inducing a simplex bijection, or None; a
    backtracking search for small fixtures."""
    if len(K.simplices) != len(L.simplices) or K.dim != L.dim:
        return None

    def profile(C: SimplicialComplex, v: int) -> tuple:
        counts = [0] * (C.dim + 1)
        for s in C.simplices:
            if v in s.vertices:
                counts[s.dim] += 1
        return tuple(counts)

    kv = list(K.vertices)
    lv = list(L.vertices)
    if len(kv) != len(lv):
        return None
    k_prof = {v: profile(K, v) for v in kv}
    l_prof = {v: profile(L, v) for v in lv}
    if sorted(k_prof.values()) != sorted(l_prof.values()):
        return None
    kv.sort(key=lambda v: (k_prof[v], v))

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def consistent(v: int, w: int) -> bool:
        for s in K.simplices:
            if v not in s.vertices:
                continue
            if all(u in assignment or u == v for u in s.vertices):
                img = Simplex.of(assignment.get(u, w) for u in s.vertices)
                if img not in L.simplices:
                    return False
        return True

    def search(i: int) -> bool:
        if i == len(kv):
            mapped = {
                Simplex.of(assignment[u] for u in s.vertices) for s in K.simplices
            }
            return mapped == set(L.simplices)
        v = kv[i]
        for w in lv:
            if w in used or l_prof[w] != k_prof[v]:
                continue
            assignment[v] = w
            used.add(w)
            if consistent(v, w) and search(i + 1):
                return True
            del assignment[v]
            used.discard(w)
        return False

    return dict(assignment) if search(0) else None


def assert_face_closed(K: SimplicialComplex, what: str = "complex") -> None:
    """Every facet of every simplex of K is again a simplex of K."""
    missing = [(f, s) for s in K.simplices for f in s.facets() if f not in K.simplices]
    assert not missing, f"{what} is not face-closed: {missing[0][0]} missing under {missing[0][1]}"


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


def oracle_orientation(Q: RelativeCircuitData) -> OrientationAssignment:
    """Orientation propagation over a facet-to-cofaces map built from the
    top simplices, independent of the link table: each facet outside the
    singular set lists its top cofaces with their incidence signs, and a
    facet with exactly two passes the sign across."""
    tops = list(Q.L.simplices_of_dim(Q.k))
    facet_cofaces: dict[Simplex, list[tuple[Simplex, int]]] = {}
    for t in tops:
        for i, f in enumerate(t.facets()):
            if f not in Q.S.simplices:
                facet_cofaces.setdefault(f, []).append((t, (-1) ** i))

    signs: dict[Simplex, int] = {}
    parent: dict[Simplex, Simplex | None] = {}

    def path(t: Simplex) -> list[Simplex]:
        out = [t]
        while parent[t] is not None:
            t = parent[t]
            out.append(t)
        return out

    for root in tops:
        if root in signs:
            continue
        signs[root] = 1
        parent[root] = None
        stack = [root]
        while stack:
            t = stack.pop()
            for i, f in enumerate(t.facets()):
                pairs = facet_cofaces.get(f)
                if not pairs or len(pairs) != 2:
                    continue
                for u, inc_u in pairs:
                    if u == t:
                        continue
                    needed = -signs[t] * (-1) ** i * inc_u
                    if u not in signs:
                        signs[u] = needed
                        parent[u] = t
                        stack.append(u)
                    elif signs[u] != needed:
                        pa, pb = path(t), path(u)
                        common = set(pa) & set(pb)
                        cut_a = next(i for i, s in enumerate(pa) if s in common)
                        cut_b = next(i for i, s in enumerate(pb) if s in common)
                        return OrientationAssignment({}, False, tuple(pa[: cut_a + 1] + pb[:cut_b][::-1]))
    return OrientationAssignment(signs, True)


def _component_count(vertices, edges) -> int:
    """Number of connected components of a graph, by depth-first search."""
    neighbours = {v: set() for v in vertices}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen: set = set()
    count = 0
    for start in neighbours:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        todo = [start]
        while todo:
            for w in neighbours[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
    return count


def _graph_class(lk: frozenset[Simplex]) -> PointClass:
    """A 1-dimensional link: a cycle (interior) or a path (boundary)."""
    vertices = [t.vertices[0] for t in lk if t.dim == 0]
    edges = [t.vertices for t in lk if t.dim == 1]
    if _component_count(vertices, edges) != 1:
        return PointClass.NON_MANIFOLD
    degree = Counter(v for e in edges for v in e)
    degrees = sorted(degree[v] for v in vertices)
    if all(d == 2 for d in degrees):
        return PointClass.INTERIOR_MANIFOLD
    if degrees[:2] == [1, 1] and all(d == 2 for d in degrees[2:]):
        return PointClass.BOUNDARY_MANIFOLD
    return PointClass.NON_MANIFOLD


def _surface_class(lk: frozenset[Simplex]) -> PointClass:
    """A 2-dimensional link: every vertex link a circle or an arc, connected,
    then a sphere (Euler characteristic 2, no boundary) or a disk (Euler
    characteristic 1, one boundary cycle)."""
    C = SimplicialComplex(lk)
    vertices = [t.vertices[0] for t in lk if t.dim == 0]
    for v in vertices:
        if _graph_class(oracle_link(Simplex((v,)), C)) is PointClass.NON_MANIFOLD:
            return PointClass.NON_MANIFOLD
    edges = [t.vertices for t in lk if t.dim == 1]
    if _component_count(vertices, edges) != 1:
        return PointClass.NON_MANIFOLD
    triangles = [t for t in lk if t.dim == 2]
    chi = len(vertices) - len(edges) + len(triangles)
    on_edge = Counter(f for t in triangles for f in t.facets())
    rim = [f.vertices for f, n in on_edge.items() if n == 1]
    cycles = _component_count({v for e in rim for v in e}, rim)
    if cycles == 0 and chi == 2:
        return PointClass.INTERIOR_MANIFOLD
    if cycles == 1 and chi == 1:
        return PointClass.BOUNDARY_MANIFOLD
    return PointClass.NON_MANIFOLD


def _screen(lk: frozenset[Simplex], ell: int) -> PointClass:
    """A link of dimension 3 or more: the necessary conditions only."""
    tops = [t for t in lk if t.dim == ell]
    if not all(any(set(s.vertices) <= set(t.vertices) for t in tops) for s in lk):
        return PointClass.NON_MANIFOLD
    on_ridge = Counter(f for t in tops for f in t.facets())
    if any(n > 2 for n in on_ridge.values()):
        return PointClass.NON_MANIFOLD
    vertices = [t.vertices[0] for t in lk if t.dim == 0]
    if _component_count(vertices, [t.vertices for t in lk if t.dim == 1]) != 1:
        return PointClass.NON_MANIFOLD
    chi = sum((-1) ** t.dim for t in lk)
    if chi != (1 if 1 in on_ridge.values() else 1 + (-1) ** ell):
        return PointClass.NON_MANIFOLD
    return PointClass.UNKNOWN


def oracle_point_class(s: Simplex, K: SimplicialComplex, k: int) -> PointClass:
    """Class of the points of the open simplex s in the k-complex |K|, from
    the definitions: the link must be a sphere or a ball of dimension
    k - dim(s) - 1, recognised as a cycle or a path in dimension 1 and by
    surface classification in dimension 2; above that only the necessary
    conditions are checked, and a link that passes is Unknown."""
    lk = oracle_link(s, K)
    if not lk:
        return PointClass.INTERIOR_MANIFOLD if s.dim == k else PointClass.NON_MANIFOLD
    ell = k - s.dim - 1
    if max(t.dim for t in lk) != ell:
        return PointClass.NON_MANIFOLD
    if ell == 0:
        return {2: PointClass.INTERIOR_MANIFOLD, 1: PointClass.BOUNDARY_MANIFOLD}.get(
            len(lk), PointClass.NON_MANIFOLD
        )
    if ell == 1:
        return _graph_class(lk)
    if ell == 2:
        return _surface_class(lk)
    return _screen(lk, ell)


@dataclass(frozen=True)
class ManifoldReport:
    classification: dict[Simplex, PointClass]
    non_manifold_subcomplex: SimplicialComplex
    exact: bool


def non_manifold_set(K: SimplicialComplex) -> ManifoldReport:
    """Per-simplex ``classify_point`` in the dimension of K, and the
    face-closed non-manifold locus."""
    classification = {s: classify_point(s, K, K.dim) for s in K.sorted_simplices}
    bad = [s for s, c in classification.items() if c is PointClass.NON_MANIFOLD]
    exact = PointClass.UNKNOWN not in classification.values()
    return ManifoldReport(classification, SimplicialComplex.from_simplices(bad), exact)


def _compactified_carrier(
    a: SimplicialMap, W: SimplicialComplex, punctures: SimplicialComplex
) -> OpenSimplexSet:
    """``limit_set`` of ``a`` restricted to W, presented with the given
    punctures in W and an unpunctured (compact) target."""
    g = SimplicialMap.from_dict(W, a.target, {v: a.apply_vertex(v) for v in W.vertices})
    f = CompactifiedMap(PuncturedComplex(W, punctures), PuncturedComplex.compact(a.target), g)
    return limit_set(f).carrier


def assert_carriers_are_limit_sets(cert) -> None:
    """Both carriers of a pseudocycle or bordism certificate equal the limit
    sets of the compactified maps: the map on the whole complex and on the
    boundary (or the side boundary), punctured at the singular set."""
    if isinstance(cert, PseudocycleCertificate):
        whole, part = cert.circuit.L, cert.circuit.K
        carriers = (cert.limit_carrier, cert.boundary_limit_carrier)
    else:
        R = cert.bordism
        whole, part = R.N, SimplicialComplex.from_simplices(R.M.simplices - R.L.simplices)
        carriers = (cert.limit_carrier, cert.side_limit_carrier)
    sigma = cert.sigma.complex
    assert carriers == tuple(
        _compactified_carrier(cert.map, W, sigma.intersection(W)) for W in (whole, part)
    )


# The calculus of limit sets.  L(f) is the limit set of f; each law is
# checked on the maps the library built, from limit_set alone.


def _image_closure(f: CompactifiedMap) -> frozenset[Simplex]:
    """Closure, in the target compactification, of the image of the
    represented space."""
    return SimplicialComplex.from_simplices(f.apply(s) for s in f.domain.interior_simplices).simplices


def product_limit_prediction(
    f: CompactifiedMap, f2: CompactifiedMap, result: ProductMapResult
) -> frozenset[Simplex]:
    """L(f x f2) by the product law: the open simplices of the target space
    that project into L(f) x cl(im f2) or into cl(im f) x L(f2)."""
    proj = result.target_product
    left_limit, right_limit = limit_set(f).members(), limit_set(f2).members()
    left_closure, right_closure = _image_closure(f), _image_closure(f2)
    return frozenset(
        s
        for s in result.map.target.interior_simplices
        if (proj.project_left(s) in left_limit and proj.project_right(s) in right_closure)
        or (proj.project_left(s) in left_closure and proj.project_right(s) in right_limit)
    )


def assert_product_laws(f: CompactifiedMap, f2: CompactifiedMap, result: ProductMapResult) -> None:
    """The product law, and dim L(f x f2) <= dim L(f) + dim of the domain of
    f2 when f2 is proper."""
    limit = limit_set(result.map)
    assert limit.members() == product_limit_prediction(f, f2, result)
    if limit_set(f2).is_empty:
        assert limit.limit_dimension <= max(-1, limit_set(f).limit_dimension + f2.domain.W.dim)


def assert_composition_laws(f: CompactifiedMap, h: CompactifiedMap, composite: CompactifiedMap) -> None:
    """h(L(f)) <= L(h o f) <= h(L(f)) | L(h), with equality on the left when
    h is proper."""
    inner_image = frozenset(h.apply(s) for s in limit_set(f).members())
    outer = limit_set(h).members()
    both = limit_set(composite).members()
    assert inner_image <= both
    assert both <= inner_image | outer
    if not outer:
        assert both == inner_image


def assert_restriction_laws(f: CompactifiedMap, restricted: CompactifiedMap) -> None:
    """A closed restriction shrinks the limit set and its dimension."""
    assert limit_set(restricted).members() <= limit_set(f).members()
    assert limit_set(restricted).limit_dimension <= limit_set(f).limit_dimension


def assert_cover_law(
    f: CompactifiedMap, W1: SimplicialComplex, W2: SimplicialComplex
) -> tuple[frozenset[Simplex], frozenset[Simplex]]:
    """For a closed cover W1, W2 of the domain, L(f) is the union of the
    limit sets of the two restrictions, which are returned."""
    assert W1.simplices | W2.simplices == f.domain.W.simplices
    left, right = (limit_set(restrict_closed(f, W)).members() for W in (W1, W2))
    assert left | right == limit_set(f).members()
    return left, right


def assert_preimage_law(
    f: CompactifiedMap, A: SimplicialComplex, restricted: CompactifiedMap
) -> None:
    """Restricting to the preimage of a closed A limits inside L(f) and A."""
    assert limit_set(restricted).members() <= limit_set(f).members() & A.simplices
