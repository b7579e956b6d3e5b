"""Seeded input corpus for the benchmark workloads, with known answers.

Complexes are built here from facet lists in plain Python, so the inputs do
not depend on the code under measurement.  The only exceptions are the
bordism inputs of ``certify-surfaces``, which are the library's own
``cylinder`` and ``subdivision_bordism`` constructions (the workload measures
how the library certifies them).

Every instance carries the answer the CLI must give:

* stellar subdivisions come with a carrier map that sends each new vertex to
  a vertex of its carrier in the original complex; that map is a simplicial
  approximation of the identity, so the certified coordinate is +1 or -1;
* expected rejections name the pipeline stage that must reject them;
* homology queries are checked against ``oracle.integer_homology`` on the
  written input files after the timed loop.

Instance ``i`` of a workload is a pure function of ``(workload, seed, i)``.
A workload is a fixed cyclic schedule of instance kinds, so every run issues
the same mix whatever the seed, and only the random choices inside a kind
change with the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Facet = tuple[int, ...]


# ---------------------------------------------------------------------------
# Plain complexes: facet lists of sorted vertex tuples.


def simplex_boundary(n: int, offset: int = 0) -> list[Facet]:
    """Facets of the boundary of the n-simplex on offset..offset+n."""
    verts = range(offset, offset + n + 1)
    return [c for c in itertools.combinations(verts, n)]


def full_simplex(n: int, offset: int = 0) -> list[Facet]:
    return [tuple(range(offset, offset + n + 1))]


# Minimal 6-vertex real projective plane.
PROJECTIVE_PLANE: list[Facet] = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def klein_bottle(n: int = 4) -> list[Facet]:
    """An n-by-n grid on the square with the Klein-bottle identifications:
    (0, j) ~ (n, j) and (i, 0) ~ (n - i, n)."""

    def label(i: int, j: int) -> int:
        i %= n
        if j == n:
            i, j = (n - i) % n, 0
        return i * n + j

    facets = set()
    for i in range(n):
        for j in range(n):
            a, b = label(i, j), label(i + 1, j)
            c, d = label(i + 1, j + 1), label(i, j + 1)
            facets.add(tuple(sorted((a, b, c))))
            facets.add(tuple(sorted((a, c, d))))
    return sorted(facets)


def vertices_of(facets: list[Facet]) -> list[int]:
    return sorted({v for f in facets for v in f})


def all_faces(facets: list[Facet]) -> set[Facet]:
    out: set[Facet] = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            out.update(itertools.combinations(f, r))
    return out


def f_vector(facets: list[Facet]) -> list[int]:
    faces = all_faces(facets)
    dim = max((len(s) for s in faces), default=0) - 1
    counts = [0] * (dim + 1)
    for s in faces:
        counts[len(s) - 1] += 1
    return counts


@dataclass
class Subdivided:
    """A subdivision of an original complex with each vertex's carrier: the
    vertex set of the smallest original simplex that contains it."""

    facets: list[Facet]
    carrier: dict[int, frozenset[int]]
    next_vertex: int

    @classmethod
    def of(cls, facets: list[Facet]) -> "Subdivided":
        verts = vertices_of(facets)
        return cls(sorted(facets), {v: frozenset((v,)) for v in verts}, max(verts) + 1)

    def stellar(self, sigma: Facet) -> None:
        """Stellar subdivision at the face sigma: every facet f containing
        sigma becomes the cone from a new vertex over (f minus one vertex of
        sigma), for each vertex of sigma."""
        w = self.next_vertex
        self.next_vertex += 1
        s = set(sigma)
        out = []
        for f in self.facets:
            if s <= set(f):
                fs = set(f)
                out.extend(tuple(sorted((fs - {v}) | {w})) for v in sigma)
            else:
                out.append(f)
        self.facets = sorted(out)
        self.carrier[w] = frozenset().union(*(self.carrier[v] for v in sigma))

    def random_stellar(self, rng: random.Random, moves: int) -> "Subdivided":
        """Stellar moves at random faces; the face dimensions cycle through
        1, 2, ..., dim, so the size of the result varies little by seed."""
        for m in range(moves):
            f = rng.choice(self.facets)
            size = 2 + m % (len(f) - 1)
            self.stellar(tuple(sorted(rng.sample(f, size))))
        return self

    def carrier_map(self, rng: random.Random) -> dict[int, int]:
        """Each vertex to a vertex of its carrier: a simplicial approximation
        of the identity onto the original complex, hence of degree one."""
        return {v: rng.choice(sorted(c)) for v, c in sorted(self.carrier.items())}

    def boundary_faces(self, ambient: frozenset[int]) -> list[Facet]:
        """Codimension-one faces lying in the boundary of the original
        simplex on ``ambient``: those whose carriers span a proper face."""
        out = set()
        for f in self.facets:
            for g in itertools.combinations(f, len(f) - 1):
                if frozenset().union(*(self.carrier[v] for v in g)) != ambient:
                    out.add(g)
        return sorted(out)


def barycentric(facets: list[Facet], rng: random.Random) -> tuple[list[Facet], dict[int, int]]:
    """Barycentric subdivision with a carrier map back to the original.

    New vertex ids number the original simplices in (dimension, vertices)
    order; the map sends each barycenter to a random vertex of its simplex.
    """
    faces = sorted(all_faces(facets), key=lambda s: (len(s), s))
    vid = {s: i for i, s in enumerate(faces)}
    out = []
    for f in facets:
        for perm in itertools.permutations(f):
            out.append(tuple(sorted(vid[tuple(sorted(perm[:r]))] for r in range(1, len(f) + 1))))
    vmap = {vid[s]: rng.choice(s) for s in faces}
    return sorted(set(out)), vmap


def relabel(facets: list[Facet], mapping: dict[int, int]) -> list[Facet]:
    return sorted(tuple(sorted(mapping.get(v, v) for v in f)) for f in facets)


def shift(facets: list[Facet], offset: int) -> list[Facet]:
    return [tuple(v + offset for v in f) for f in facets]


# ---------------------------------------------------------------------------
# Instances and ops.


@dataclass
class Op:
    """One CLI call.  ``args`` other than flags name files of the instance;
    the runner turns them into paths.  ``expect`` is the known answer checked
    after the loop.  ``needs_cert`` ops run only when the instance's ``psi``
    issued a certificate.  ``key_files`` hold the complex the op works on;
    two ops with equal contents there repeat each other's input."""

    kind: str
    args: list[str]
    expect: dict
    key_files: tuple[str, ...]
    needs_cert: bool = False


@dataclass
class Instance:
    label: str
    files: dict[str, object] | None  # None once written to disk
    ops: list[Op]
    f_vector: list[int]


def _complex(facets: list[Facet]) -> dict:
    return {"maximal": [list(f) for f in facets]}


def _target(facets: list[Facet], sub: list[Facet] = ()) -> dict:
    return {"complex": _complex(facets), "subcomplex": [list(f) for f in sub]}


def _vmap(mapping: dict[int, int]) -> dict:
    return {"vertex_map": {str(v): w for v, w in sorted(mapping.items())}}


def certify_instance(
    label: str,
    facets: list[Facet],
    k: int,
    vmap: dict[int, int],
    target: dict,
    expect: dict,
    boundary: list[Facet] = (),
    singular: list[Facet] = (),
) -> Instance:
    """``psi … --out cert.json``, then ``verify-cert`` on that certificate."""
    circuit = {
        "complex": _complex(facets),
        "boundary": [list(f) for f in boundary],
        "singular": [list(f) for f in singular],
        "k": k,
    }
    files = {"circuit.json": circuit, "map.json": _vmap(vmap), "target.json": target}
    ops = [
        Op("psi", ["circuit.json", "map.json", "target.json", "--out", "cert.json"], expect,
           ("circuit.json",)),
        Op("verify-cert", ["cert.json"], {"exit": 0, "reproduced": True}, ("circuit.json",),
           needs_cert=True),
    ]
    return Instance(label, files, ops, f_vector(facets))


def _degree_one(k: int) -> dict:
    return {"exit": 0, "coordinate": k, "unknown_ok": k >= 4}


def _reject(stage: str) -> dict:
    return {"exit": 1, "stage": stage}


def stellar_sphere(rng: random.Random, k: int, moves: int) -> Instance:
    base = simplex_boundary(k + 1)
    sub = Subdivided.of(base).random_stellar(rng, moves)
    return certify_instance(
        f"stellar S^{k} ({moves} moves)", sub.facets, k, sub.carrier_map(rng),
        _target(base), _degree_one(k),
    )


def stellar_ball(rng: random.Random, k: int, moves: int) -> Instance:
    base = full_simplex(k)
    sub = Subdivided.of(base).random_stellar(rng, moves)
    rim = simplex_boundary(k)
    return certify_instance(
        f"stellar B^{k} rel boundary ({moves} moves)", sub.facets, k, sub.carrier_map(rng),
        _target(base, rim), _degree_one(k), boundary=sub.boundary_faces(frozenset(range(k + 1))),
    )


def sphere_wedge(rng: random.Random, spheres: int, moves: int) -> Instance:
    """Stellar 2-spheres sharing vertex 0, with that vertex singular.  The
    first sphere maps by its carrier map onto the boundary of the 3-simplex
    and the others collapse to vertex 0, so the coordinate stays +-1."""
    first = Subdivided.of(simplex_boundary(3)).random_stellar(rng, moves)
    facets = list(first.facets)
    vmap = first.carrier_map(rng)
    offset = first.next_vertex
    for _ in range(spheres - 1):
        other = Subdivided.of(simplex_boundary(3)).random_stellar(rng, moves)
        shifted = shift(other.facets, offset)
        facets += relabel(shifted, {offset: 0})
        for v in vertices_of(shifted):
            vmap.setdefault(v if v != offset else 0, 0)
        offset += other.next_vertex
    return certify_instance(
        f"wedge of {spheres} stellar S^2", sorted(facets), 2, vmap,
        _target(simplex_boundary(3)), _degree_one(2), singular=[(0,)],
    )


def stellar_projective_plane(rng: random.Random, moves: int) -> Instance:
    sub = Subdivided.of(PROJECTIVE_PLANE).random_stellar(rng, moves)
    return certify_instance(
        f"stellar RP^2 ({moves} moves)", sub.facets, 2, sub.carrier_map(rng),
        _target(PROJECTIVE_PLANE), _reject("orientation"),
    )


def spheres_glued_along_edge(rng: random.Random, moves: int) -> Instance:
    """Two stellar 2-spheres sharing one edge: the edge's link has four
    points, so the circuit axioms fail."""
    a = Subdivided.of(simplex_boundary(3)).random_stellar(rng, moves)
    b = Subdivided.of(simplex_boundary(3)).random_stellar(rng, moves)
    offset = a.next_vertex
    b_facets = shift(b.facets, offset)
    edge_a = sorted({e for f in a.facets for e in itertools.combinations(f, 2)})
    edge_b = sorted({e for f in b_facets for e in itertools.combinations(f, 2)})
    ea, eb = rng.choice(edge_a), rng.choice(edge_b)
    facets = sorted(a.facets + relabel(b_facets, {eb[0]: ea[0], eb[1]: ea[1]}))
    vmap = {v: v % 4 for v in vertices_of(facets)}
    return certify_instance(
        f"two stellar S^2 glued along an edge ({moves} moves)", facets, 2, vmap,
        _target(simplex_boundary(3)), _reject("verify-circuit"),
    )


def barycentric_sphere(rng: random.Random, k: int, times: int) -> Instance:
    base = simplex_boundary(k + 1)
    facets, vmap = base, {v: v for v in vertices_of(base)}
    for _ in range(times):
        facets, step = barycentric(facets, rng)
        vmap = {v: vmap[w] for v, w in step.items()}
    return certify_instance(
        f"sd^{times}(boundary of the {k + 1}-simplex)", facets, k, vmap,
        _target(base), _degree_one(k),
    )


def bordism_instance(rng: random.Random, kind: str, moves: int, disk: bool) -> Instance:
    """``check-bordism … --out`` on the library's cylinder or subdivision
    prism over a small stellar 2-sphere or 2-disk, mapped through the
    carrier map of the circuit."""
    from circuitsmith import cylinder, serialize, subdivision_bordism

    base = full_simplex(2) if disk else simplex_boundary(3)
    sub = Subdivided.of(base).random_stellar(rng, moves)
    boundary = sub.boundary_faces(frozenset(range(3))) if disk else []
    circuit = serialize.circuit_from_json({
        "complex": _complex(sub.facets), "boundary": [list(f) for f in boundary], "k": 2,
    })
    vmap = sub.carrier_map(rng)
    if kind == "cylinder":
        result = cylinder(circuit)
        d = {pv: vmap[uv[0]] for pv, uv in result.product.vertex_pairs.items()}
    else:
        result = subdivision_bordism(circuit)
        prism = result.prism
        d = {pv: vmap[v] for v, pv in prism.bottom_vertex.items()}
        d.update({pv: vmap[rng.choice(s.vertices)] for s, pv in prism.top_vertex.items()})
    payload = serialize.bordism_to_json(result.bordism)
    target = _target(base, simplex_boundary(2) if disk else [])
    files = {"bordism.json": payload, "map.json": _vmap(d), "target.json": target}
    ops = [Op("check-bordism", ["bordism.json", "map.json", "target.json", "--out", "bcert.json"],
              {"exit": 0, "valid": True}, ("bordism.json",))]
    facets = [tuple(s) for s in payload["complex"]["maximal"]]
    shape = "disk" if disk else "sphere"
    return Instance(f"{kind} bordism over a stellar {shape} ({moves} moves)", files, ops,
                    f_vector(facets))


# ---------------------------------------------------------------------------
# homology-batch


def random_complex(rng: random.Random, size: int, max_dim: int = 3) -> list[Facet]:
    """Random simplices of dimension <= max_dim on a vertex pool that grows
    with the requested size, added until the face closure has ``size``
    simplices or more."""
    n_vertices = max(6, size // 6)
    facets: list[Facet] = []
    faces: set[Facet] = set()
    while len(faces) < size:
        d = rng.randint(1, max_dim)
        f = tuple(sorted(rng.sample(range(n_vertices), d + 1)))
        facets.append(f)
        for r in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, r))
    # Keep only the maximal generators.
    fs = [set(f) for f in facets]
    return sorted({f for f, s in zip(facets, fs) if not any(s < t for t in fs)})


def homology_instance(label: str, facets: list[Facet], rel: list[Facet] | None = None) -> Instance:
    files = {"complex.json": _complex(facets)}
    args = ["complex.json"]
    if rel is not None:
        files["rel.json"] = [list(f) for f in rel]
        args += ["--rel", "rel.json"]
    expect = {"exit": 0, "homology": True}
    op = Op("homology", args, expect, tuple(a for a in args if a.endswith(".json")))
    return Instance(label, files, [op], f_vector(facets))


def random_homology(rng: random.Random, size: int) -> Instance:
    return homology_instance(f"random complex (~{size} simplices)", random_complex(rng, size))


def random_relative(rng: random.Random, size: int) -> Instance:
    facets = random_complex(rng, size)
    pool = sorted(all_faces(facets))
    rel = [s for s in pool if rng.random() < 0.3] or [pool[0]]
    return homology_instance(f"random pair (~{size} simplices)", facets, rel)


def torsion_surface(rng: random.Random, moves: int, klein: bool) -> Instance:
    if klein:
        name, base = "Klein bottle", klein_bottle()
    else:
        name, base = "RP^2", PROJECTIVE_PLANE
    sub = Subdivided.of(base).random_stellar(rng, moves)
    return homology_instance(f"stellar {name} ({moves} moves)", sub.facets)


def evaluate_instance(rng: random.Random, k: int, moves: int, extra: int) -> Instance:
    """A stellar k-sphere carried into a coarser stellar sphere that it
    subdivides: the target is large, so the target's homology and its
    coordinate transforms dominate."""
    coarse = Subdivided.of(simplex_boundary(k + 1)).random_stellar(rng, moves)
    fine = Subdivided.of(coarse.facets).random_stellar(rng, extra)
    circuit = {"complex": _complex(fine.facets), "boundary": [], "singular": [], "k": k}
    files = {
        "circuit.json": circuit,
        "map.json": _vmap(fine.carrier_map(rng)),
        "target.json": _target(coarse.facets),
    }
    ops = [Op("evaluate", ["circuit.json", "map.json", "target.json"],
              {"exit": 0, "coordinate": k}, ("circuit.json", "target.json"))]
    return Instance(f"stellar S^{k} into a coarser subdivision ({moves}+{extra} moves)", files,
                    ops, f_vector(coarse.facets))


# ---------------------------------------------------------------------------
# Workload schedules.


# Size classes cycle with the block count t, each slot through all of them,
# so that every stretch of a run sees every size, and the latency of each op
# kind spreads over many sizes instead of a few lumps whose edges could fall
# on a percentile.


def _certify_surfaces(rng: random.Random, i: int) -> Instance:
    if i == 0:
        return barycentric_sphere(rng, 2, 2)
    slot = (i - 1) % 10
    t = (i - 1) // 10
    if slot in (0, 6):
        return stellar_sphere(rng, 2, 2 + (t + slot) % 11)
    if slot in (2, 8):
        return stellar_ball(rng, 2, 2 + (t + slot) % 11)
    if slot == 4:  # one psi in ten is a wedge or an expected rejection
        if t % 4 == 1:
            return stellar_projective_plane(rng, 2 + t % 11)
        if t % 4 == 3:
            return spheres_glued_along_edge(rng, 1 + t % 5)
        return sphere_wedge(rng, 2 + t % 4 // 2, 1 + t % 3)
    if slot in (1, 9):
        return bordism_instance(rng, "cylinder", (t + slot) % 3, disk=False)
    if slot in (3, 7):
        return bordism_instance(rng, "cylinder", (t + slot) % 5, disk=True)
    return bordism_instance(rng, "subdivision", 0, disk=True)


def _certify_highdim(rng: random.Random, i: int) -> Instance:
    if i == 0:
        inst = barycentric_sphere(rng, 3, 1)
        inst.ops = inst.ops[:1]  # psi only: verify-cert would rerun the same psi
        return inst
    slot = (i - 1) % 10
    t = (i - 1) // 10
    if slot in (4, 9):
        return stellar_sphere(rng, 4, (t + slot) % 3)
    if slot % 2 == 0:
        return stellar_sphere(rng, 3, (t + slot) % 5)
    return stellar_ball(rng, 3, (t + slot) % 5)


def _homology_batch(rng: random.Random, i: int) -> Instance:
    slot = i % 8
    u = (3 * (i // 8) + 24 * slot) % 64  # size step 0..63; a block of eight spans them
    if slot in (0, 2):
        return random_homology(rng, 60 + 5 * u)
    if slot == 4:
        return random_relative(rng, 60 + 5 * u)
    if slot == 6:
        return torsion_surface(rng, 4 + 35 * u // 63, klein=u % 2 == 1)
    if slot in (1, 5):
        return evaluate_instance(rng, 2, 2 + 42 * u // 63, 3)
    return evaluate_instance(rng, 3, 1 + 14 * u // 63, 3)


# Instances generated during set-up: sd^k first, then four blocks of ten
# (certify), or eight blocks of eight (homology); the rest are generated
# between timed ops.
SETUP_INSTANCES = {"certify-surfaces": 41, "certify-highdim": 41, "homology-batch": 64}


def warmup(workload: str) -> list[Instance]:
    """Tiny instances that issue every op kind of the workload once, run
    before timing so that first-call costs land in set-up."""
    rng = random.Random(0)
    if workload == "certify-surfaces":
        return [stellar_sphere(rng, 2, 1), bordism_instance(rng, "cylinder", 0, disk=True)]
    if workload == "certify-highdim":
        return [stellar_ball(rng, 3, 0), stellar_sphere(rng, 4, 0)]
    return [torsion_surface(rng, 0, klein=False), evaluate_instance(rng, 2, 0, 1)]


SCHEDULES = {
    "certify-surfaces": _certify_surfaces,
    "certify-highdim": _certify_highdim,
    "homology-batch": _homology_batch,
}

WORKLOADS = tuple(SCHEDULES)


def instance(workload: str, seed: int, i: int) -> Instance:
    rng = random.Random(f"{workload}/{seed}/{i}")
    return SCHEDULES[workload](rng, i)
