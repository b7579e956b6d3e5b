"""Manifold-point recognition for finite complexes.

Points are classified per open simplex through their links: a point is a
manifold point exactly when the link is a PL sphere (interior) or PL ball
(boundary) of the complementary dimension.  Recognition is exact for links
of dimension at most two (surface classification); higher-dimensional links
are screened against necessary conditions and otherwise reported Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable

from .complexes import OpenSimplexSet, Simplex, SimplicialComplex, link
from .errors import ContractError, NotFoundError


class PointClass(Enum):
    INTERIOR_MANIFOLD = "interior-manifold"
    BOUNDARY_MANIFOLD = "boundary-manifold"
    NON_MANIFOLD = "non-manifold"
    UNKNOWN = "unknown"


class RegionVerdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def _components(items: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]) -> int:
    """Number of classes of the equivalence on items generated by pairs."""
    parent = {x: x for x in items}

    def find(x: Hashable) -> Hashable:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(x) for x in parent})


def _connected_pieces(C: SimplicialComplex) -> int:
    return _components(C.vertices, (e.vertices for e in C.simplices_of_dim(1)))


def _is_circle(C: SimplicialComplex) -> bool:
    if not C.simplices or C.dim != 1:
        return False
    degree = {v: 0 for v in C.vertices}
    for e in C.simplices_of_dim(1):
        for v in e.vertices:
            degree[v] += 1
    return all(d == 2 for d in degree.values()) and _connected_pieces(C) == 1


def _is_arc(C: SimplicialComplex) -> bool:
    if not C.simplices or C.dim != 1:
        return False
    edges = C.simplices_of_dim(1)
    degree = {v: 0 for v in C.vertices}
    for e in edges:
        for v in e.vertices:
            degree[v] += 1
    if any(d > 2 for d in degree.values()):
        return False
    leaves = sum(1 for d in degree.values() if d == 1)
    return leaves == 2 and len(edges) == len(C.vertices) - 1 and _connected_pieces(C) == 1


@dataclass(frozen=True)
class SurfaceReport:
    is_surface: bool
    connected: bool
    euler: int
    boundary_cycles: int

    @property
    def is_sphere(self) -> bool:
        # A closed connected surface with Euler characteristic 2 is S^2 by the
        # classification of surfaces, so it is orientable without a check.
        return (
            self.is_surface
            and self.connected
            and self.boundary_cycles == 0
            and self.euler == 2
        )

    @property
    def is_disk(self) -> bool:
        return (
            self.is_surface
            and self.connected
            and self.boundary_cycles == 1
            and self.euler == 1
        )


def surface_report(C: SimplicialComplex) -> SurfaceReport:
    """Classify a 2-complex as a surface (with boundary) and compute its type
    invariants.  Exact: dimension-two classification is complete."""
    bad = SurfaceReport(False, False, C.euler_characteristic, 0)
    if not C.simplices or C.dim != 2:
        return bad
    triangles = C.simplices_of_dim(2)
    edge_count: dict[Simplex, int] = {}
    for t in triangles:
        for f in t.facets():
            edge_count[f] = edge_count.get(f, 0) + 1
    # Purity: every vertex and edge under a triangle.
    for s in C.simplices:
        if s.dim == 1 and s not in edge_count:
            return bad
        if s.dim == 0 and not any(s.vertices[0] in t for t in triangles):
            return bad
    if any(n > 2 for n in edge_count.values()):
        return bad
    for v in C.vertices:
        lk = link(Simplex((v,)), C)
        if not (_is_circle(lk) or _is_arc(lk)):
            return bad
    boundary_edges = [e for e, n in edge_count.items() if n == 1]
    cycles = 0
    if boundary_edges:
        boundary = SimplicialComplex.from_simplices(boundary_edges)
        cycles = _connected_pieces(boundary)
    connected = _connected_pieces(C) == 1
    return SurfaceReport(True, connected, C.euler_characteristic, cycles)


def _screen_high_dim_link(lk: SimplicialComplex, ell: int) -> PointClass:
    """Necessary-condition screening for links of dimension >= 3."""
    tops = lk.simplices_of_dim(ell)
    for s in lk.simplices:
        if s.dim < ell and not any(s.is_face_of(t) for t in tops):
            return PointClass.NON_MANIFOLD
    facet_count: dict[Simplex, int] = {}
    for t in tops:
        for f in t.facets():
            facet_count[f] = facet_count.get(f, 0) + 1
    if any(n > 2 for n in facet_count.values()):
        return PointClass.NON_MANIFOLD
    if _connected_pieces(lk) != 1:
        return PointClass.NON_MANIFOLD
    has_boundary = any(n == 1 for n in facet_count.values())
    chi = lk.euler_characteristic
    if has_boundary:
        if chi != 1:
            return PointClass.NON_MANIFOLD
    elif chi != 1 + (-1) ** ell:
        return PointClass.NON_MANIFOLD
    return PointClass.UNKNOWN


def classify_point(s: Simplex, K: SimplicialComplex, k: int) -> PointClass:
    """Class of the points of the open simplex s inside the k-complex |K|."""
    if s not in K.simplices:
        raise NotFoundError(f"{s} is not a simplex of the complex")
    lk = link(s, K)
    d = s.dim
    if not lk.simplices:
        return PointClass.INTERIOR_MANIFOLD if d == k else PointClass.NON_MANIFOLD
    if d >= k:
        return PointClass.NON_MANIFOLD
    ell = k - d - 1
    if lk.dim != ell:
        return PointClass.NON_MANIFOLD
    if ell == 0:
        n = len(lk.vertices)
        if n == 2:
            return PointClass.INTERIOR_MANIFOLD
        if n == 1:
            return PointClass.BOUNDARY_MANIFOLD
        return PointClass.NON_MANIFOLD
    if ell == 1:
        if _is_circle(lk):
            return PointClass.INTERIOR_MANIFOLD
        if _is_arc(lk):
            return PointClass.BOUNDARY_MANIFOLD
        return PointClass.NON_MANIFOLD
    if ell == 2:
        report = surface_report(lk)
        if report.is_sphere:
            return PointClass.INTERIOR_MANIFOLD
        if report.is_disk:
            return PointClass.BOUNDARY_MANIFOLD
        return PointClass.NON_MANIFOLD
    return _screen_high_dim_link(lk, ell)


def _classified(s: Simplex, K: SimplicialComplex, k: int) -> PointClass:
    """``classify_point``, memoised on the complex per (simplex, k)."""
    memo = K._point_classes
    c = memo.get((s, k))
    if c is None:
        c = memo[s, k] = classify_point(s, K, k)
    return c


@dataclass(frozen=True)
class ManifoldReport:
    classification: dict[Simplex, PointClass]
    non_manifold_subcomplex: SimplicialComplex
    exact: bool


def non_manifold_set(K: SimplicialComplex) -> ManifoldReport:
    """Per-simplex classification and the (face-closed) non-manifold locus."""
    k = K.dim
    classification = {s: _classified(s, K, k) for s in K.sorted_simplices}
    bad = [s for s, c in classification.items() if c is PointClass.NON_MANIFOLD]
    sub = SimplicialComplex.from_simplices(bad)
    exact = all(c is not PointClass.UNKNOWN for c in classification.values())
    return ManifoldReport(classification, sub, exact)


@dataclass(frozen=True)
class PseudomanifoldReport:
    k: int
    pure: bool
    purity_witnesses: tuple[Simplex, ...]
    facet_incidence_ok: bool
    incidence_witnesses: tuple[Simplex, ...]
    strongly_connected: bool
    component_count: int

    @property
    def passed(self) -> bool:
        return self.pure and self.facet_incidence_ok


def pseudomanifold_check(K: SimplicialComplex, k: int) -> PseudomanifoldReport:
    """Purity, facet incidence at most two, and strong connectivity."""
    tops = K.simplices_of_dim(k)
    purity_witnesses = tuple(s for s in K.maximal_simplices if s.dim != k)
    facet_count: dict[Simplex, list[Simplex]] = {}
    for t in tops:
        for f in t.facets():
            facet_count.setdefault(f, []).append(t)
    incidence_witnesses = tuple(
        sorted((f for f, ts in facet_count.items() if len(ts) > 2), key=lambda s: s.sort_key)
    )
    # Strong connectivity: top simplices linked through shared facets.
    components = _components(tops, (p for ts in facet_count.values() for p in zip(ts, ts[1:])))
    return PseudomanifoldReport(
        k=k,
        pure=not purity_witnesses,
        purity_witnesses=purity_witnesses,
        facet_incidence_ok=not incidence_witnesses,
        incidence_witnesses=incidence_witnesses,
        strongly_connected=components <= 1,
        component_count=components,
    )


@dataclass(frozen=True)
class RegionReport:
    verdict: RegionVerdict
    witness: Simplex | None
    classification: dict[Simplex, PointClass]
    boundary: frozenset[Simplex]
    unknowns: frozenset[Simplex]

    @property
    def yes(self) -> bool:
        return self.verdict is RegionVerdict.YES


def region_is_pl_manifold(U: OpenSimplexSet, k: int) -> RegionReport:
    """Decide whether the union of open simplices U is a PL k-manifold.

    U must be open in its host (complement face-closed).  Then every coface
    of a member is a member, so the link of a member in the closure of U is
    its link in the host, and each open simplex is classified in the host
    directly (memoised there, so repeated checks on one host are free).
    Boundary simplices are reported so callers can match boundaries.
    """
    if not U.members:
        return RegionReport(RegionVerdict.YES, None, {}, frozenset(), frozenset())
    if not U.is_open:
        raise ContractError("region check requires an open set (complement must be face-closed)")
    classification = {s: _classified(s, U.host, k) for s in U.sorted_members}
    witness = None
    for s in U.sorted_members:
        if classification[s] is PointClass.NON_MANIFOLD:
            witness = s
            break
    unknowns = frozenset(s for s, c in classification.items() if c is PointClass.UNKNOWN)
    boundary = frozenset(s for s, c in classification.items() if c is PointClass.BOUNDARY_MANIFOLD)
    if witness is not None:
        verdict = RegionVerdict.NO
    elif unknowns:
        verdict = RegionVerdict.UNKNOWN
    else:
        verdict = RegionVerdict.YES
    return RegionReport(verdict, witness, classification, boundary, unknowns)
