"""Manifold-point recognition for finite complexes.

Points are classified per open simplex through their links: a point is a
manifold point exactly when the link is a PL sphere (interior) or PL ball
(boundary) of the complementary dimension.  One rule, stated on
``classify_point``, checks every link of dimension at least one: purity,
at most two facets on each ridge, connectivity and the Euler characteristic
of a sphere or a ball, plus, for 2-dimensional links, the classes of the
larger simplices whose links are the vertex links of the link.  The rule is
exact for links of dimension at most two; a higher-dimensional link that
passes it is reported Unknown.

Each link is read as vertex tuples off the complex's link table, and classes
are memoised on the complex per (vertex tuple, k): no link complex is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable

from .complexes import OpenSimplexSet, Simplex, SimplicialComplex
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


def classify_point(s: Simplex, K: SimplicialComplex, k: int) -> PointClass:
    """Class of the points of the open simplex s inside the k-complex |K|.

    The link must have dimension l = k - dim(s) - 1.  At l = 0 it must be
    one point (boundary) or two (interior).  For l >= 1 one rule serves
    every dimension: the link is pure, each ridge lies in at most two facets,
    the link is connected, and its Euler characteristic is 1 when some ridge
    lies in a single facet (boundary) and 1 + (-1)^l otherwise (interior).
    At l = 1 that makes the link a path or a cycle.  At l = 2 each vertex w
    of the link must also have a circle or an arc as its link in the link,
    which is the link of s + w in K, classified (and memoised by its vertex
    tuple) as a point of K; the link is then a connected surface, a sphere by
    its Euler characteristic or, with boundary and Euler characteristic 1, a
    disk.
    Above l = 2 a link that passes is reported Unknown.
    """
    faces = K._links.get(s.vertices)
    if faces is None:
        raise NotFoundError(f"{s} is not a simplex of the complex")
    if not faces:
        return PointClass.INTERIOR_MANIFOLD if s.dim == k else PointClass.NON_MANIFOLD
    ell = k - s.dim - 1
    if max(map(len, faces)) != ell + 1:
        return PointClass.NON_MANIFOLD
    if ell == 0:
        n = len(faces)
        if n == 2:
            return PointClass.INTERIOR_MANIFOLD
        if n == 1:
            return PointClass.BOUNDARY_MANIFOLD
        return PointClass.NON_MANIFOLD
    # In a face-closed complex, a simplex with a proper coface is a facet of
    # some simplex, so the link is pure when every lower simplex is a facet.
    covered = {t[:i] + t[i + 1 :] for t in faces for i in range(len(t))}
    if any(len(t) <= ell and t not in covered for t in faces):
        return PointClass.NON_MANIFOLD
    ridge_count: dict[tuple[int, ...], int] = {}
    for t in faces:
        if len(t) == ell + 1:
            for i in range(ell + 1):
                f = t[:i] + t[i + 1 :]
                ridge_count[f] = ridge_count.get(f, 0) + 1
    if any(n > 2 for n in ridge_count.values()):
        return PointClass.NON_MANIFOLD
    vertices = sorted(t[0] for t in faces if len(t) == 1)
    if _components(vertices, (t for t in faces if len(t) == 2)) != 1:
        return PointClass.NON_MANIFOLD
    has_boundary = 1 in ridge_count.values()
    euler = sum(1 if len(t) % 2 else -1 for t in faces)
    if euler != (1 if has_boundary else 1 + (-1) ** ell):
        return PointClass.NON_MANIFOLD
    if ell >= 3:
        return PointClass.UNKNOWN
    if ell == 2 and any(
        _classified(tuple(sorted(s.vertices + (w,))), K, k) is PointClass.NON_MANIFOLD
        for w in vertices
    ):
        return PointClass.NON_MANIFOLD
    return PointClass.BOUNDARY_MANIFOLD if has_boundary else PointClass.INTERIOR_MANIFOLD


def _classified(vs: tuple[int, ...], K: SimplicialComplex, k: int) -> PointClass:
    """``classify_point`` of the simplex of K on the vertex tuple vs,
    memoised on the complex per (vs, k)."""
    memo = K._point_classes
    c = memo.get((vs, k))
    if c is None:
        c = memo[vs, k] = classify_point(Simplex._trusted(vs), K, k)
    return c


@dataclass(frozen=True)
class RegionReport:
    verdict: RegionVerdict
    witness: Simplex | None
    classification: dict[Simplex, PointClass]
    boundary: frozenset[Simplex]


def region_is_pl_manifold(U: OpenSimplexSet, k: int) -> RegionReport:
    """Decide whether the union of open simplices U is a PL k-manifold.

    U must be open in its host (complement face-closed).  Then every coface
    of a member is a member, so the link of a member in the closure of U is
    its link in the host, and each open simplex is classified in the host
    directly (memoised there, so repeated checks on one host are free).
    Boundary simplices are reported so callers can match boundaries.  The
    witness is the first non-manifold simplex, else the first Unknown one.
    """
    if not U.members:
        return RegionReport(RegionVerdict.YES, None, {}, frozenset())
    if not U.is_open:
        raise ContractError("region check requires an open set (complement must be face-closed)")
    classification = {s: _classified(s.vertices, U.host, k) for s in U.sorted_members}
    boundary = frozenset(s for s, c in classification.items() if c is PointClass.BOUNDARY_MANIFOLD)
    for verdict, point in ((RegionVerdict.NO, PointClass.NON_MANIFOLD),
                           (RegionVerdict.UNKNOWN, PointClass.UNKNOWN)):
        witness = next((s for s in U.sorted_members if classification[s] is point), None)
        if witness is not None:
            return RegionReport(verdict, witness, classification, boundary)
    return RegionReport(RegionVerdict.YES, None, classification, boundary)
