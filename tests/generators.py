"""Seeded random instance generators shared by the property and acceptance
suites."""

from __future__ import annotations

import random

from circuitsmith import (
    CompactifiedMap,
    IntChain,
    OpenSimplexSet,
    PuncturedComplex,
    RelativeCircuitData,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    build_complex,
    glue,
)
from circuitsmith.circuits import GlueResult


def random_complex(
    rng: random.Random,
    n_vertices: int = 10,
    n_generators: int = 8,
    max_dim: int = 3,
) -> SimplicialComplex:
    gens = []
    for _ in range(rng.randint(1, n_generators)):
        d = rng.randint(0, max_dim)
        gens.append(rng.sample(range(n_vertices), d + 1))
    return build_complex(gens)


def random_subcomplex(rng: random.Random, K: SimplicialComplex) -> SimplicialComplex:
    pool = list(K.sorted_simplices)
    if not pool:
        return SimplicialComplex.empty()
    picked = [s for s in pool if rng.random() < 0.3]
    if not picked:
        return SimplicialComplex.empty()
    return SimplicialComplex.from_simplices(picked)


def random_punctured(rng: random.Random, **kwargs) -> PuncturedComplex:
    """Random dense punctures.  A quarter of the vertices (at least one) are
    never punctured, so the represented space keeps interior vertices."""
    W = random_complex(rng, **kwargs)
    maximal = set(W.maximal_simplices)
    kept = set(rng.sample(W.vertices, max(1, len(W.vertices) // 4)))
    pool = [s for s in W.sorted_simplices if s not in maximal and kept.isdisjoint(s.vertices)]
    picked = [s for s in pool if rng.random() < 0.35]
    S = SimplicialComplex.from_simplices(picked) if picked else SimplicialComplex.empty()
    return PuncturedComplex(W, S)


def skeleton(K: SimplicialComplex, i: int) -> SimplicialComplex:
    """All simplices of dimension at most i."""
    return SimplicialComplex(frozenset(s for s in K.simplices if s.dim <= i))


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** s.dim for s in K.simplices)


def whole(host: SimplicialComplex) -> OpenSimplexSet:
    """Every simplex of the host, as an open set."""
    return OpenSimplexSet(host, frozenset(host.simplices))


def scale(z: IntChain, c: int) -> IntChain:
    return IntChain(z.degree, {s: c * v for s, v in z.coefficients.items()})


def disjoint_union(A: RelativeCircuitData, B: RelativeCircuitData) -> GlueResult:
    """A and B glued along nothing, B relabelled past the vertices of A."""
    empty = SimplicialComplex.empty()
    return glue(A, B, empty, empty, {}, reverse_orientation=False)


def full_simplex(m: int, offset: int = 0) -> SimplicialComplex:
    return build_complex([list(range(offset, offset + m + 1))])


def receptive_target(m: int, dim: int, offset: int = 0) -> SimplicialComplex:
    """Skeleton of a full simplex: accepts every vertex assignment from a
    complex of dimension at most ``dim`` while staying polynomial in size."""
    import itertools

    verts = range(offset, offset + m + 1)
    size = min(dim, m) + 1
    return build_complex([list(c) for c in itertools.combinations(verts, size)])


def _admissible_punctures(
    rng: random.Random, target: SimplicialComplex, forbidden: set[Simplex]
) -> SimplicialComplex:
    """Random face-closed puncture set avoiding the forbidden simplices and
    every maximal simplex (density)."""
    maximal = set(target.maximal_simplices)
    admissible = []
    for s in target.sorted_simplices:
        if s in maximal:
            continue
        if any(f in forbidden for f in s.faces()):
            continue
        admissible.append(s)
    picked = [s for s in admissible if rng.random() < 0.4]
    if not picked:
        return SimplicialComplex.empty()
    return SimplicialComplex.from_simplices(picked)


def random_compactified_map(
    rng: random.Random,
    domain: PuncturedComplex | None = None,
    target_size: int | None = None,
    vertex_injective: bool = False,
) -> CompactifiedMap:
    """Random map into a (punctured) full simplex.

    Full-simplex targets accept every vertex assignment, and the target
    punctures are sampled from simplices whose closures avoid the image of
    the domain's interior.
    """
    dom = domain or random_punctured(rng)
    n_dom = max(len(dom.W.vertices), 1)
    if target_size is not None:
        m = target_size
    else:
        m = rng.randint(max(1, dom.W.dim), min(n_dom + 2, 7))
    target_cx = receptive_target(m, max(dom.W.dim, 0), offset=1000)
    tverts = list(target_cx.vertices)
    if vertex_injective and len(tverts) >= n_dom:
        images = rng.sample(tverts, n_dom)
        vm = {v: images[i] for i, v in enumerate(dom.W.vertices)}
    else:
        vm = {v: rng.choice(tverts) for v in dom.W.vertices}
    g0 = SimplicialMap.from_dict(dom.W, target_cx, vm)
    interior_images = {g0.apply(s) for s in dom.interior_simplices}
    S_t = _admissible_punctures(rng, target_cx, interior_images)
    target = PuncturedComplex(target_cx, S_t)
    return CompactifiedMap(dom, target, g0)


def small_map_for_products(rng: random.Random) -> CompactifiedMap:
    """A random compactified map small enough that product compactifications
    stay well under the instance cap."""
    dom = random_punctured(rng, n_vertices=5, n_generators=3, max_dim=2)
    return random_compactified_map(rng, domain=dom, target_size=max(dom.W.dim, 1) + 1)


def random_outer_map(
    rng: random.Random,
    middle: PuncturedComplex,
    proper: bool = False,
    vertex_injective: bool = False,
) -> CompactifiedMap:
    """Random map whose domain is the given punctured complex; optionally
    proper (every puncture lands in a target puncture)."""
    n_mid = max(len(middle.W.vertices), 1)
    mid_dim = max(middle.W.dim, 0)
    if proper:
        # Puncture vertices go injectively into a reserved block and the
        # target punctures are exactly the image copies of the domain
        # punctures; interior simplices land on non-punctured copies.
        m = 2 * n_mid + 1
        target_cx = receptive_target(m, mid_dim, offset=2000)
        tverts = list(target_cx.vertices)
        s_verts = list(middle.S.vertices)
        reserved = {v: tverts[i] for i, v in enumerate(s_verts)}
        free_pool = tverts[len(s_verts) :]
        vm = {}
        for v in middle.W.vertices:
            vm[v] = reserved.get(v, rng.choice(free_pool))
        g0 = SimplicialMap.from_dict(middle.W, target_cx, vm)
        puncture_images = {g0.apply(s) for s in middle.S.simplices}
        S_t = (
            SimplicialComplex.from_simplices(puncture_images)
            if puncture_images
            else SimplicialComplex.empty()
        )
        interior_images = {g0.apply(s) for s in middle.interior_simplices}
        assert not (S_t.simplices & interior_images)
        return CompactifiedMap(middle, PuncturedComplex(target_cx, S_t), g0)
    m = n_mid + 2
    target_cx = receptive_target(m, mid_dim, offset=2000)
    tverts = list(target_cx.vertices)
    if vertex_injective:
        images = rng.sample(tverts, n_mid)
        vm = {v: images[i] for i, v in enumerate(middle.W.vertices)}
    else:
        vm = {v: rng.choice(tverts) for v in middle.W.vertices}
    g0 = SimplicialMap.from_dict(middle.W, target_cx, vm)
    interior_images = {g0.apply(s) for s in middle.interior_simplices}
    S_t = _admissible_punctures(rng, target_cx, interior_images)
    target = PuncturedComplex(target_cx, S_t)
    return CompactifiedMap(middle, target, g0)


def stellar_moves(rng: random.Random, facets: list[list[int]], moves: int) -> list[list[int]]:
    """``moves`` stellar subdivisions of the pure complex with these facets,
    each at a random face and a new vertex past the largest one."""
    first = 1 + max(v for t in facets for v in t)
    for new in range(first, first + moves):
        sigma = rng.choice(build_complex(facets).sorted_simplices).vertices
        starred = [t for t in facets if set(sigma) <= set(t)]
        facets = [t for t in facets if t not in starred] + [
            sorted({new, *t} - {u}) for t in starred for u in sigma
        ]
    return facets


def stellar_sphere(rng: random.Random, n: int, moves: int) -> list[list[int]]:
    """Facets of the boundary of the (n+1)-simplex after ``moves`` stellar
    subdivisions, each at a random face and a new vertex: an n-sphere."""
    verts = list(range(n + 2))
    return stellar_moves(rng, [verts[:i] + verts[i + 1 :] for i in range(n + 2)], moves)


def stellar_disk(rng: random.Random, n: int, moves: int) -> list[list[int]]:
    """Facets of the n-simplex after ``moves`` stellar subdivisions: an
    n-disk."""
    return stellar_moves(rng, [list(range(n + 1))], moves)
