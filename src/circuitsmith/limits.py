"""Limit sets and limit dimensions of maps presented via compactifications.

A noncompact space is presented as a compact complex with a closed puncture
subcomplex; a map is presented by a simplicial extension between the
compactifications.  The limit set is then the image of the puncture set,
read inside the target's actual space, and the calculus of limit sets
(restriction, union, product, composition, preimage) becomes a collection
of exact set identities, which the test suite asserts.
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
from .errors import MapError, StructureError


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


def is_surjective(f: CompactifiedMap) -> bool:
    """Every open simplex of the target space is an image of an open simplex
    of the domain space."""
    images = {f.apply(s) for s in f.domain.interior_simplices}
    return f.target.interior_simplices <= images


def compose(f: CompactifiedMap, h: CompactifiedMap) -> CompactifiedMap:
    """The composite map h after f, punctured where f is."""
    if not f.target.same_as(h.domain):
        raise StructureError("composition needs matching middle punctured complexes")
    return CompactifiedMap(f.domain, h.target, f.g.compose(h.g))


@dataclass(frozen=True)
class ProductMapResult:
    map: CompactifiedMap
    source_product: ProductResult
    target_product: ProductResult


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
    """Product map on product compactifications.

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
    return ProductMapResult(CompactifiedMap(source, target, g), sprod, tprod)


def restrict_closed(f: CompactifiedMap, W1: SimplicialComplex) -> CompactifiedMap:
    """Restriction to the closed subspace carried by a subcomplex.

    Puncture simplices of W1 that support no interior simplex are dropped so
    the restricted compactification stays dense.
    """
    if not W1.is_subcomplex_of(f.domain.W):
        raise StructureError("restriction needs a subcomplex of the domain compactification")
    interior = [s for s in W1.simplices if s not in f.domain.S.simplices]
    W1_dense = SimplicialComplex.from_simplices(interior)
    S1 = SimplicialComplex(frozenset(W1_dense.simplices & f.domain.S.simplices))
    return CompactifiedMap(PuncturedComplex(W1_dense, S1), f.target, f.g.restrict(W1_dense))


def preimage_restrict(f: CompactifiedMap, A: SimplicialComplex) -> CompactifiedMap:
    """Restriction to the preimage of a closed target set."""
    if not A.is_subcomplex_of(f.target.W):
        raise StructureError("preimage restriction needs a subcomplex of the target")
    pre = frozenset(s for s in f.domain.W.simplices if f.apply(s) in A.simplices)
    return restrict_closed(f, SimplicialComplex(pre))
