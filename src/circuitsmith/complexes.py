"""Finite simplicial complexes and the PL primitives everything else consumes.

Vertices are non-negative integers, simplices are strictly increasing vertex
tuples, and complexes are face-closed finite sets of simplices.  All values
are immutable after construction and every operation is a pure function, so
results may be computed concurrently and are deterministic.

A simplex is validated once, where it enters: the public ``Simplex``
constructor, ``Simplex.of``, ``build_complex`` and the loaders.  Faces and
link simplices cut from a valid simplex are valid by construction and are
built unchecked.

Each complex indexes its incidences on first use, in one table freed with
it: the link table maps each simplex's vertex tuple to the vertex tuples of
its link, built in one pass.  Links and point classification read a row as
it stands; stars, subdivision chains and circuit orientation read the proper
cofaces of a simplex as the simplex merged with each tuple of its row.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ContractError,
    MalformedInputError,
    MapError,
    NotFoundError,
    ResourceLimitError,
)

DEFAULT_MAX_SIMPLICES = 100_000
_MAX_SIMPLICES_ENV = "CIRCUITSMITH_MAX_SIMPLICES"


def max_simplices() -> int:
    """Instance-size cap, configurable via CIRCUITSMITH_MAX_SIMPLICES."""
    raw = os.environ.get(_MAX_SIMPLICES_ENV)
    if raw is None:
        return DEFAULT_MAX_SIMPLICES
    try:
        return int(raw)
    except ValueError:
        raise MalformedInputError(f"{_MAX_SIMPLICES_ENV} must be an integer, got {raw!r}")


def _check_cap(count: int) -> None:
    cap = max_simplices()
    if count > cap:
        raise ResourceLimitError(f"instance has {count} simplices, cap is {cap}")


@dataclass(frozen=True)
class Simplex:
    """A simplex given by its strictly increasing tuple of vertex ids."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = self.vertices
        if not isinstance(vs, tuple):
            object.__setattr__(self, "vertices", tuple(vs))
            vs = self.vertices
        if len(vs) == 0:
            raise MalformedInputError("a simplex needs at least one vertex")
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise MalformedInputError(f"vertex ids must be non-negative integers, got {v!r}")
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise MalformedInputError(f"vertices must be strictly increasing, got {vs}")

    @classmethod
    def _trusted(cls, vs: tuple[int, ...]) -> "Simplex":
        """A simplex on vs without validation.  Only for tuples that are valid
        by construction, such as a subtuple of a valid simplex's vertices."""
        s = object.__new__(cls)
        object.__setattr__(s, "vertices", vs)
        return s

    @classmethod
    def of(cls, vertices: Iterable[int]) -> "Simplex":
        """Canonicalize an unordered, duplicate-free vertex collection."""
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise MalformedInputError(f"duplicate vertex in simplex {vs}")
        return cls(tuple(sorted(vs)))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.vertices), self.vertices)

    def __lt__(self, other: "Simplex") -> bool:
        return self.sort_key < other.sort_key

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.vertices

    def facets(self) -> list["Simplex"]:
        """Codimension-one faces, in the order opposite vertex 0, 1, ..."""
        if self.dim == 0:
            return []
        vs = self.vertices
        return [Simplex._trusted(vs[:i] + vs[i + 1 :]) for i in range(len(vs))]

    def faces(self, include_self: bool = True) -> list["Simplex"]:
        """All nonempty faces."""
        vs = self.vertices
        stop = len(vs) + 1 if include_self else len(vs)
        return [Simplex._trusted(c) for r in range(1, stop) for c in itertools.combinations(vs, r)]

    def is_face_of(self, other: "Simplex") -> bool:
        return set(self.vertices) <= set(other.vertices)

    def __repr__(self) -> str:
        return f"Simplex{self.vertices}"


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite, face-closed set of simplices.

    The constructor takes the set as given: it must already be face-closed.
    Data from outside the program enters through ``build_complex``,
    ``from_simplices`` and the ``serialize`` loaders, which take the face
    closure.  Every other complex the package builds is face-closed by
    construction, and ``tests/test_complexes.py::TestInvariants`` asserts it
    for each construction site.  All incidences live in one table, ``_links``.
    """

    simplices: frozenset[Simplex]

    @classmethod
    def from_simplices(cls, simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """Build from a simplex collection, taking its face closure."""
        closure: set[Simplex] = set()
        for s in simplices:
            closure.add(s)
            closure.update(s.faces(include_self=False))
        _check_cap(len(closure))
        return cls(frozenset(closure))

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls(frozenset())

    @cached_property
    def dim(self) -> int:
        return max((s.dim for s in self.simplices), default=-1)

    @cached_property
    def sorted_simplices(self) -> tuple[Simplex, ...]:
        return tuple(sorted(self.simplices, key=lambda s: s.sort_key))

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for s in self.simplices for v in s.vertices}))

    def simplices_of_dim(self, d: int) -> tuple[Simplex, ...]:
        return tuple(s for s in self.sorted_simplices if s.dim == d)

    @cached_property
    def maximal_simplices(self) -> tuple[Simplex, ...]:
        # In a face-closed complex, a simplex with a proper coface is a facet
        # of some simplex, so one pass over all facets finds every such one.
        covered = {
            vs[:i] + vs[i + 1 :]
            for vs in (s.vertices for s in self.simplices)
            for i in range(len(vs))
        }
        return tuple(s for s in self.sorted_simplices if s.vertices not in covered)

    @cached_property
    def _links(self) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        """The link table: for the vertex tuple of each simplex, the vertex
        tuples of its link (empty for a maximal simplex).

        One pass over the simplices: each proper nonempty face s of a simplex
        t gets t minus s in its row.  That is sum(2^|t| - 2) steps, and no
        star is filtered.  A face missing from self, which a set that is not
        face-closed would have, raises ``ContractError``."""
        links = {s.vertices: [] for s in self.simplices}
        for s in self.simplices:
            vs = s.vertices
            # combinations() lists the r-subsets in lexicographic order, and
            # their complements are the (n - r)-subsets in reverse order.
            layers = [list(itertools.combinations(vs, r)) for r in range(1, len(vs))]
            for faces, rests in zip(layers, reversed(layers)):
                for face, rest in zip(faces, reversed(rests)):
                    row = links.get(face)
                    if row is None:
                        raise ContractError(
                            f"{s} has the face {list(face)}, which is not in the complex: "
                            "the simplex set must be face-closed"
                        )
                    row.append(rest)
        return links

    def _proper_cofaces(self, s: Simplex) -> list[Simplex]:
        """The proper cofaces of s: s merged with each row of its link."""
        return [Simplex._trusted(tuple(sorted(s.vertices + rest))) for rest in self._links[s.vertices]]

    @cached_property
    def _point_classes(self) -> dict:
        """Point classes of simplices of self, keyed by (vertex tuple, k);
        filled by ``recognition`` and freed with the complex."""
        return {}

    def __contains__(self, s: Simplex) -> bool:
        return s in self.simplices

    def __len__(self) -> int:
        return len(self.simplices)

    def __bool__(self) -> bool:
        return bool(self.simplices)

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.simplices <= other.simplices

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        return SimplicialComplex(self.simplices | other.simplices)

    def intersection(self, other: "SimplicialComplex") -> "SimplicialComplex":
        return SimplicialComplex(self.simplices & other.simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex(dim={self.dim}, n={len(self.simplices)})"


@dataclass(frozen=True)
class OpenSimplexSet:
    """A subset of a complex's simplices read as a union of open simplices."""

    host: SimplicialComplex
    members: frozenset[Simplex]

    def __post_init__(self) -> None:
        stray = self.members - self.host.simplices
        if stray:
            raise NotFoundError(f"members not hosted: e.g. {sorted(stray)[0]}")

    @classmethod
    def of(cls, host: SimplicialComplex, members: Iterable[Simplex]) -> "OpenSimplexSet":
        return cls(host, frozenset(members))

    @cached_property
    def dim(self) -> int:
        return max((s.dim for s in self.members), default=-1)

    @cached_property
    def is_open(self) -> bool:
        """True iff the complement in the host is face-closed."""
        comp = self.host.simplices - self.members
        return all(f in comp for s in comp for f in s.facets())

    @cached_property
    def sorted_members(self) -> tuple[Simplex, ...]:
        return tuple(sorted(self.members, key=lambda s: s.sort_key))

    def closure(self) -> SimplicialComplex:
        return SimplicialComplex.from_simplices(self.members)

    def complement(self) -> "OpenSimplexSet":
        return OpenSimplexSet(self.host, self.host.simplices - self.members)

    def __contains__(self, s: Simplex) -> bool:
        return s in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"OpenSimplexSet(dim={self.dim}, n={len(self.members)})"


@dataclass(frozen=True)
class SimplicialMap:
    """A simplicial map given by its vertex assignment.

    The assignment must send the vertex set of every source simplex to a
    (possibly degenerate) spanning set of some target simplex.
    """

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_assignment: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(
        cls,
        source: SimplicialComplex,
        target: SimplicialComplex,
        mapping: Mapping[int, int],
    ) -> "SimplicialMap":
        return cls(source, target, tuple(sorted(mapping.items())))

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_assignment", tuple(sorted(self.vertex_assignment)))
        vm = dict(self.vertex_assignment)
        missing = [v for v in self.source.vertices if v not in vm]
        if missing:
            raise MapError(f"vertex assignment misses source vertices {missing[:5]}")
        tverts = set(self.target.vertices)
        bad_targets = sorted({w for w in vm.values() if w not in tverts})
        if bad_targets and self.target.simplices:
            raise MapError(f"assignment hits vertices outside the target: {bad_targets[:5]}")
        for s in self.source.maximal_simplices:
            img = Simplex.of({vm[v] for v in s.vertices})
            if img not in self.target.simplices:
                raise MapError(f"image of {s} spans {img}, not a target simplex")

    @cached_property
    def mapping(self) -> dict[int, int]:
        return dict(self.vertex_assignment)

    def apply_vertex(self, v: int) -> int:
        return self.mapping[v]

    def apply(self, s: Simplex) -> Simplex:
        """Image simplex (dimension drops when the map degenerates on s)."""
        return Simplex.of({self.mapping[v] for v in s.vertices})

    def compose(self, outer: "SimplicialMap") -> "SimplicialMap":
        """outer after self; requires self.target == outer.source."""
        if self.target.simplices != outer.source.simplices:
            raise MapError("composition mismatch: target of inner is not source of outer")
        vm = {v: outer.mapping[w] for v, w in self.vertex_assignment}
        return SimplicialMap.from_dict(self.source, outer.target, vm)

    def restrict(self, sub: SimplicialComplex) -> "SimplicialMap":
        if not sub.is_subcomplex_of(self.source):
            raise NotFoundError("restriction domain is not a subcomplex of the source")
        vm = {v: self.mapping[v] for v in sub.vertices}
        return SimplicialMap.from_dict(sub, self.target, vm)

    @classmethod
    def identity(cls, K: SimplicialComplex) -> "SimplicialMap":
        return cls.from_dict(K, K, {v: v for v in K.vertices})

    def is_vertex_injective(self) -> bool:
        vals = [w for _, w in self.vertex_assignment]
        return len(set(vals)) == len(vals)


def build_complex(maximal_simplices: Sequence[Sequence[int]]) -> SimplicialComplex:
    """Face closure of the given simplices, with canonical vertex ordering."""
    gens = [Simplex.of(vs) for vs in maximal_simplices]
    return SimplicialComplex.from_simplices(gens)


def star(S: OpenSimplexSet, K: SimplicialComplex) -> OpenSimplexSet:
    """All simplices of K having some face in S (an open set in |K|)."""
    if S.host is not K and S.host.simplices != K.simplices:
        raise NotFoundError("star: S must be hosted in K")
    members: set[tuple[int, ...]] = set()
    for s in S.members:
        # A member already reached is a coface of an earlier one, and so are
        # all of its own cofaces.
        vs = s.vertices
        if vs not in members:
            members.add(vs)
            members.update(tuple(sorted(vs + rest)) for rest in K._links[vs])
    return OpenSimplexSet(K, frozenset(map(Simplex._trusted, members)))


def link(s: Simplex, K: SimplicialComplex) -> SimplicialComplex:
    """Simplices of K disjoint from s whose union with s is again in K.

    These are the proper cofaces of s with the vertices of s removed: the
    row of s in the link table of K."""
    row = K._links.get(s.vertices)
    if row is None:
        raise NotFoundError(f"link: {s} is not a simplex of the complex")
    return SimplicialComplex(frozenset(map(Simplex._trusted, row)))


@dataclass(frozen=True)
class SubdivisionResult:
    """Barycentric subdivision with its vertex-to-original-simplex chart."""

    complex: SimplicialComplex
    barycenter_of: Mapping[int, Simplex]       # new vertex id -> original simplex
    vertex_for: Mapping[Simplex, int]          # original simplex -> new vertex id

    def chain_of(self, s: Simplex) -> tuple[Simplex, ...]:
        """The face-ordered chain of original simplices behind a subdivision simplex."""
        originals = [self.barycenter_of[v] for v in s.vertices]
        originals.sort(key=lambda t: t.sort_key)
        return tuple(originals)


def barycentric_subdivision(K: SimplicialComplex) -> SubdivisionResult:
    """Chains of proper faces, one new vertex per original simplex."""
    order = K.sorted_simplices
    vertex_for = {s: i for i, s in enumerate(order)}
    barycenter_of = {i: s for s, i in vertex_for.items()}
    chains: set[Simplex] = set()

    def extend(chain: list[Simplex]) -> None:
        chains.add(Simplex.of({vertex_for[t] for t in chain}))
        for t in K._proper_cofaces(chain[-1]):
            chain.append(t)
            extend(chain)
            chain.pop()

    for s in order:
        extend([s])
    _check_cap(len(chains))
    sd = SimplicialComplex(frozenset(chains))
    return SubdivisionResult(sd, barycenter_of, vertex_for)


def join_decompose(
    chain: Sequence[Simplex], r: int
) -> tuple[tuple[Simplex, ...], tuple[Simplex, ...]]:
    """Split a subdivision chain at dimension r.

    Returns (prefix of simplices of dim <= r, suffix of simplices of dim > r);
    the join of the two parts reconstitutes the input chain, and the split is
    the unique one with this dimension profile.
    """
    parts = tuple(sorted(chain, key=lambda t: t.sort_key))
    for a, b in zip(parts, parts[1:]):
        if not a.is_face_of(b) or a == b:
            raise MalformedInputError(f"not a chain of proper faces: {a} then {b}")
    cut = 0
    while cut < len(parts) and parts[cut].dim <= r:
        cut += 1
    return parts[:cut], parts[cut:]


@dataclass(frozen=True)
class ProductResult:
    """Staircase triangulation of a product with its projection charts."""

    complex: SimplicialComplex
    vertex_pairs: Mapping[int, tuple[int, int]]   # product vertex id -> (u, v)
    pair_ids: Mapping[tuple[int, int], int]
    left: SimplicialComplex
    right: SimplicialComplex

    def project_left(self, s: Simplex) -> Simplex:
        return Simplex.of({self.vertex_pairs[v][0] for v in s.vertices})

    def project_right(self, s: Simplex) -> Simplex:
        return Simplex.of({self.vertex_pairs[v][1] for v in s.vertices})

    def lift(self, u: int, v: int) -> int:
        return self.pair_ids[(u, v)]


def product_complex(
    K: SimplicialComplex,
    L: SimplicialComplex,
    left_key=None,
    right_key=None,
) -> ProductResult:
    """Staircase (ordered-product) triangulation of |K| x |L|.

    The optional key functions override the vertex order used for the
    monotone-chain construction; any linear order yields a valid
    triangulation, and callers that need a map out of the product to stay
    simplicial can pass an adapted order.
    """
    if not K.simplices or not L.simplices:
        empty = SimplicialComplex.empty()
        return ProductResult(empty, {}, {}, K, L)
    lk = left_key or (lambda v: v)
    rk = right_key or (lambda v: v)
    pairs = sorted(
        ((u, v) for u in K.vertices for v in L.vertices),
        key=lambda uv: (lk(uv[0]), rk(uv[1]), uv),
    )
    pair_ids = {uv: i for i, uv in enumerate(pairs)}
    vertex_pairs = {i: uv for uv, i in pair_ids.items()}

    tops: set[Simplex] = set()
    for s in K.maximal_simplices:
        su = sorted(s.vertices, key=lk)
        for t in L.maximal_simplices:
            tv = sorted(t.vertices, key=rk)
            p, q = len(su) - 1, len(tv) - 1
            for moves in itertools.combinations(range(p + q), p):
                i = j = 0
                path = [pair_ids[(su[0], tv[0])]]
                for step in range(p + q):
                    if step in moves:
                        i += 1
                    else:
                        j += 1
                    path.append(pair_ids[(su[i], tv[j])])
                tops.add(Simplex.of(path))
    prod = SimplicialComplex.from_simplices(tops)
    return ProductResult(prod, vertex_pairs, pair_ids, K, L)


@dataclass(frozen=True)
class PrismResult:
    """Triangulated prism over a complex whose top copy is the barycentric
    subdivision; the bottom copy is the original complex."""

    complex: SimplicialComplex
    base: SimplicialComplex
    bottom_vertex: Mapping[int, int]          # original vertex -> prism vertex
    top_vertex: Mapping[Simplex, int]         # original simplex -> prism vertex
    subdivision: SubdivisionResult

    @cached_property
    def bottom(self) -> SimplicialComplex:
        m = self.bottom_vertex
        return SimplicialComplex(
            frozenset(
                Simplex.of(m[v] for v in s.vertices)
                for s in self.base.simplices
            )
        )

    @cached_property
    def top(self) -> SimplicialComplex:
        t = self.top_vertex
        return SimplicialComplex(
            frozenset(
                Simplex.of(t[u] for u in self.subdivision.chain_of(s))
                for s in self.subdivision.complex.simplices
            )
        )

    def over(self, A: SimplicialComplex) -> SimplicialComplex:
        """The sub-prism lying over a subcomplex A of the base."""
        if not A.simplices:
            return SimplicialComplex.empty()
        keep = set()
        for s in self.complex.simplices:
            if self.carrier(s) in A.simplices:
                keep.add(s)
        return SimplicialComplex(frozenset(keep))

    def carrier(self, s: Simplex) -> Simplex:
        """Smallest base simplex whose prism contains the given simplex."""
        verts: set[int] = set()
        for v in s.vertices:
            verts.update(self._carrier(v).vertices)
        return Simplex.of(verts)

    def _carrier(self, prism_vertex: int) -> Simplex:
        s = self._carrier_chart.get(prism_vertex)
        if s is None:
            raise NotFoundError(f"vertex {prism_vertex} is not a prism vertex")
        return s

    @cached_property
    def _carrier_chart(self) -> dict[int, Simplex]:
        chart = {pv: Simplex((v,)) for v, pv in self.bottom_vertex.items()}
        chart.update({pv: s for s, pv in self.top_vertex.items()})
        return chart


def subdivision_prism(K: SimplicialComplex) -> PrismResult:
    """Triangulate |K| x [0,1] with K at the bottom and sd(K) at the top.

    Built simplex by simplex: the prism over a simplex is the cone from its
    top barycenter over (bottom copy + prisms over proper faces).
    """
    sd = barycentric_subdivision(K)
    n_bottom = len(K.vertices)
    bottom_vertex = {v: i for i, v in enumerate(K.vertices)}
    top_vertex = {s: n_bottom + sd.vertex_for[s] for s in K.sorted_simplices}

    tops_of: dict[Simplex, list[Simplex]] = {}
    all_simplices: set[Simplex] = set()
    for s in sorted(K.simplices, key=lambda t: t.sort_key):
        apex = top_vertex[s]
        base_tops: list[Simplex] = [Simplex.of(bottom_vertex[v] for v in s.vertices)]
        for f in s.facets():
            base_tops.extend(tops_of[f])
        cone = [Simplex.of(set(b.vertices) | {apex}) for b in base_tops]
        tops_of[s] = cone
        all_simplices.update(cone)
    prism = SimplicialComplex.from_simplices(all_simplices)
    return PrismResult(prism, K, bottom_vertex, top_vertex, sd)


def relabel(K: SimplicialComplex, mapping: Mapping[int, int]) -> SimplicialComplex:
    """Rename vertices through an injective mapping."""
    vals = list(mapping.values())
    if len(set(vals)) != len(vals):
        raise MalformedInputError("relabeling must be injective")
    return SimplicialComplex(
        frozenset(Simplex.of(mapping[v] for v in s.vertices) for s in K.simplices)
    )


def offset_labels(K: SimplicialComplex, offset: int) -> tuple[SimplicialComplex, dict[int, int]]:
    mapping = {v: v + offset for v in K.vertices}
    return relabel(K, mapping), mapping
