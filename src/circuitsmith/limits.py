"""Limit sets and limit dimensions of maps presented via compactifications.

A noncompact space is presented as a compact complex with a closed puncture
subcomplex; a map is presented by a simplicial extension between the
compactifications.  The limit set is then the image of the puncture set,
read inside the target's actual space, and the calculus of limit sets
(restriction, union, product, composition, preimage) becomes a collection
of exact, checkable set identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import (
    OpenSimplexSet,
    ProductResult,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    product_complex,
)
from .errors import InternalInvariantError, MapError, StructureError


@dataclass(frozen=True)
class PuncturedComplex:
    """A compact complex W with a closed puncture subcomplex S; the space
    represented is |W| minus |S|, which is dense and open."""

    W: SimplicialComplex
    S: SimplicialComplex

    def __post_init__(self) -> None:
        if not self.S.is_subcomplex_of(self.W):
            raise StructureError("punctures must form a subcomplex of the compactification")
        for s in self.W.maximal_simplices:
            if s in self.S.simplices:
                raise StructureError(
                    f"density violated: maximal simplex {s} is entirely at infinity"
                )

    @classmethod
    def compact(cls, W: SimplicialComplex) -> "PuncturedComplex":
        return cls(W, SimplicialComplex.empty())

    @cached_property
    def interior_simplices(self) -> frozenset[Simplex]:
        return self.W.simplices - self.S.simplices

    @property
    def space_dim(self) -> int:
        return self.W.dim

    def same_as(self, other: "PuncturedComplex") -> bool:
        return self.W.simplices == other.W.simplices and self.S.simplices == other.S.simplices


@dataclass(frozen=True)
class CompactifiedMap:
    """A map of punctured complexes: a simplicial extension sending the
    represented space into the represented space."""

    domain: PuncturedComplex
    target: PuncturedComplex
    g: SimplicialMap

    def __post_init__(self) -> None:
        if self.g.source.simplices != self.domain.W.simplices:
            raise MapError("extension source must be the domain compactification")
        if self.g.target.simplices != self.target.W.simplices:
            raise MapError("extension target must be the target compactification")
        for s in self.domain.interior_simplices:
            if self.g.apply(s) in self.target.S.simplices:
                raise MapError(
                    f"interior simplex {s} maps into the punctures at {self.g.apply(s)}"
                )

    def apply(self, s: Simplex) -> Simplex:
        return self.g.apply(s)

    @classmethod
    def identity(cls, X: PuncturedComplex) -> "CompactifiedMap":
        return cls(X, X, SimplicialMap.identity(X.W))


@dataclass(frozen=True)
class LimitSetResult:
    """Open-simplex carrier of the limit set, with its dimension."""

    carrier: OpenSimplexSet

    @property
    def limit_dimension(self) -> int:
        return self.carrier.dim

    @property
    def is_empty(self) -> bool:
        return not self.carrier.members

    def members(self) -> frozenset[Simplex]:
        return self.carrier.members


def limit_set(f: CompactifiedMap) -> LimitSetResult:
    """Images of the puncture simplices that land in the target's space."""
    tgt_punctures = f.target.S.simplices
    members = {
        f.apply(s) for s in f.domain.S.simplices if f.apply(s) not in tgt_punctures
    }
    return LimitSetResult(OpenSimplexSet(f.target.W, frozenset(members)))


def is_proper(f: CompactifiedMap) -> bool:
    return limit_set(f).is_empty


def equal_at_infinity(f: CompactifiedMap, h: CompactifiedMap) -> bool:
    """Extensions agree on every puncture vertex (hence on the whole puncture
    set, by affineness).  Equal-at-infinity maps have equal limit sets."""
    if not f.domain.same_as(h.domain) or not f.target.same_as(h.target):
        raise StructureError("equality at infinity needs a common domain and target")
    return all(f.g.apply_vertex(v) == h.g.apply_vertex(v) for v in f.domain.S.vertices)


def closure_of_image(f: CompactifiedMap) -> SimplicialComplex:
    """Closure, in the target compactification, of the image of the
    represented space."""
    return SimplicialComplex.from_simplices(f.apply(s) for s in f.domain.interior_simplices)


def is_surjective(f: CompactifiedMap) -> bool:
    """Every open simplex of the target space is an image of an open simplex
    of the domain space."""
    images = {f.apply(s) for s in f.domain.interior_simplices}
    return f.target.interior_simplices <= images


@dataclass(frozen=True)
class CompositionRecord:
    """Verified composition laws: image of the inner limit set, the composite
    limit set, and the outer limit set."""

    inner_image: frozenset[Simplex]
    composite: frozenset[Simplex]
    outer: frozenset[Simplex]
    lower_inclusion: bool
    upper_inclusion: bool
    outer_proper: bool
    equality_when_proper: bool


@dataclass(frozen=True)
class CompositionResult:
    map: CompactifiedMap
    record: CompositionRecord


def compose(f: CompactifiedMap, h: CompactifiedMap) -> CompositionResult:
    """Composite map with the sandwich laws checked on the nose."""
    if not f.target.same_as(h.domain):
        raise StructureError("composition needs matching middle punctured complexes")
    g = f.g.compose(h.g)
    composite = CompactifiedMap(f.domain, h.target, g)

    inner = limit_set(f).members()
    # Carriers avoid punctures, and the outer map sends interior to interior,
    # so the image of the inner limit set stays inside the target space.
    inner_image = frozenset(h.apply(s) for s in inner)
    comp_members = limit_set(composite).members()
    outer = limit_set(h).members()
    lower = inner_image <= comp_members
    upper = comp_members <= (inner_image | outer)
    outer_proper = not outer
    equality = (not outer_proper) or (comp_members == inner_image)
    record = CompositionRecord(
        inner_image, comp_members, outer, lower, upper, outer_proper, equality
    )
    if not (lower and upper and equality):
        raise InternalInvariantError("composition law failed; this is a library bug")
    return CompositionResult(composite, record)


@dataclass(frozen=True)
class ProductRecord:
    """Verified product law: the limit set of a product is built from the
    factor limit sets and image closures."""

    left_limit: frozenset[Simplex]
    right_limit: frozenset[Simplex]
    predicted: frozenset[Simplex]
    actual: frozenset[Simplex]
    law_holds: bool
    right_proper: bool
    dimension_bound_ok: bool


@dataclass(frozen=True)
class ProductMapResult:
    map: CompactifiedMap
    source_product: ProductResult
    target_product: ProductResult
    record: ProductRecord


def _punctured_product(
    left: PuncturedComplex,
    right: PuncturedComplex,
    left_key=None,
    right_key=None,
) -> tuple[PuncturedComplex, ProductResult]:
    prod = product_complex(left.W, right.W, left_key=left_key, right_key=right_key)
    punctures = frozenset(
        s
        for s in prod.complex.simplices
        if prod.project_left(s) in left.S.simplices
        or prod.project_right(s) in right.S.simplices
    )
    S = SimplicialComplex(punctures)
    return PuncturedComplex(prod.complex, S), prod


def product(f: CompactifiedMap, f2: CompactifiedMap) -> ProductMapResult:
    """Product map on product compactifications, with the limit-set law
    verified exactly.

    The source product is triangulated with a vertex order adapted to the
    two extensions (sorting by image first), which keeps the product of
    simplicial maps simplicial; the target product uses the canonical order.
    """
    lk = lambda v: (f.g.apply_vertex(v), v)
    rk = lambda v: (f2.g.apply_vertex(v), v)
    source, sprod = _punctured_product(f.domain, f2.domain, left_key=lk, right_key=rk)
    target, tprod = _punctured_product(f.target, f2.target)

    vm = {
        i: tprod.lift(f.g.apply_vertex(u), f2.g.apply_vertex(v))
        for i, (u, v) in sprod.vertex_pairs.items()
    }
    g = SimplicialMap.from_dict(source.W, target.W, vm)
    pmap = CompactifiedMap(source, target, g)

    left_limit = limit_set(f).members()
    right_limit = limit_set(f2).members()
    left_closure = closure_of_image(f).simplices
    right_closure = closure_of_image(f2).simplices
    predicted = frozenset(
        s
        for s in target.interior_simplices
        if (
            tprod.project_left(s) in left_limit
            and tprod.project_right(s) in right_closure
        )
        or (
            tprod.project_left(s) in left_closure
            and tprod.project_right(s) in right_limit
        )
    )
    actual = limit_set(pmap).members()
    law = predicted == actual
    right_proper = not right_limit
    dim_ok = True
    if right_proper:
        bound = limit_set(f).limit_dimension + f2.domain.space_dim
        actual_dim = limit_set(pmap).limit_dimension
        dim_ok = actual_dim <= max(-1, bound)
    record = ProductRecord(
        left_limit, right_limit, predicted, actual, law, right_proper, dim_ok
    )
    if not law or not dim_ok:
        raise InternalInvariantError("product limit law failed; this is a library bug")
    return ProductMapResult(pmap, sprod, tprod, record)


@dataclass(frozen=True)
class RestrictionResult:
    map: CompactifiedMap
    inclusion_holds: bool
    dimension_bound_ok: bool


def restrict_closed(f: CompactifiedMap, W1: SimplicialComplex) -> RestrictionResult:
    """Restriction to the closed subspace carried by a subcomplex.

    Puncture simplices of W1 that support no interior simplex are dropped so
    the restricted compactification stays dense.
    """
    if not W1.is_subcomplex_of(f.domain.W):
        raise StructureError("restriction needs a subcomplex of the domain compactification")
    interior = [s for s in W1.simplices if s not in f.domain.S.simplices]
    W1_dense = SimplicialComplex.from_simplices(interior)
    S1 = SimplicialComplex(frozenset(W1_dense.simplices & f.domain.S.simplices))
    dom = PuncturedComplex(W1_dense, S1)
    rmap = CompactifiedMap(dom, f.target, f.g.restrict(W1_dense))
    inclusion = limit_set(rmap).members() <= limit_set(f).members()
    dim_ok = limit_set(rmap).limit_dimension <= limit_set(f).limit_dimension
    if not inclusion or not dim_ok:
        raise InternalInvariantError("restriction law failed; this is a library bug")
    return RestrictionResult(rmap, inclusion, dim_ok)


@dataclass(frozen=True)
class UnionRecord:
    left: frozenset[Simplex]
    right: frozenset[Simplex]
    whole: frozenset[Simplex]
    equality: bool


def union_restriction_law(
    f: CompactifiedMap, W1: SimplicialComplex, W2: SimplicialComplex
) -> UnionRecord:
    """For a closed cover of the domain, the limit set is the union of the
    restricted limit sets."""
    if W1.simplices | W2.simplices != f.domain.W.simplices:
        raise StructureError("subcomplexes must cover the domain compactification")
    left = limit_set(restrict_closed(f, W1).map).members()
    right = limit_set(restrict_closed(f, W2).map).members()
    whole = limit_set(f).members()
    equality = (left | right) == whole
    if not equality:
        raise InternalInvariantError("union law failed; this is a library bug")
    return UnionRecord(left, right, whole, equality)


@dataclass(frozen=True)
class PreimageResult:
    limit: LimitSetResult
    map: CompactifiedMap
    inclusion_holds: bool


def preimage_restrict(f: CompactifiedMap, A: SimplicialComplex) -> PreimageResult:
    """Limit set of the restriction to the preimage of a closed target set,
    with the intersection bound verified."""
    if not A.is_subcomplex_of(f.target.W):
        raise StructureError("preimage restriction needs a subcomplex of the target")
    pre = frozenset(s for s in f.domain.W.simplices if f.apply(s) in A.simplices)
    sub = SimplicialComplex(pre)
    restriction = restrict_closed(f, sub)
    lim = limit_set(restriction.map)
    inclusion = lim.members() <= (limit_set(f).members() & A.simplices)
    if not inclusion:
        raise InternalInvariantError("preimage law failed; this is a library bug")
    return PreimageResult(lim, restriction.map, inclusion)


def is_pair_isomorphism(f: CompactifiedMap) -> bool:
    """Vertex-injective extension matching punctures to punctures; such maps
    restrict to homeomorphisms of the represented spaces and are proper."""
    if not f.g.is_vertex_injective():
        return False
    if len(f.domain.W.vertices) != len(f.target.W.vertices):
        return False
    image = {f.apply(s) for s in f.domain.W.simplices}
    if image != set(f.target.W.simplices):
        return False
    return {f.apply(s) for s in f.domain.S.simplices} == set(f.target.S.simplices)
