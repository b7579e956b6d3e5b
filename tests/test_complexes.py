from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitsmith import (
    OpenSimplexSet,
    RelativeCircuitData,
    Simplex,
    SimplicialComplex,
    barycentric_subdivision,
    build_complex,
    cylinder,
    dual_complex,
    join_decompose,
    link,
    preimage_restrict,
    product,
    product_complex,
    region_is_pl_manifold,
    restrict_closed,
    singular_set,
    star,
    subdivision_bordism,
    subdivision_prism,
)
from circuitsmith import recognition
from circuitsmith.complexes import offset_labels, relabel
from circuitsmith.errors import MalformedInputError, NotFoundError

from .conftest import simplex_boundary_complex
from .generators import (
    disjoint_union,
    euler_characteristic as euler,
    random_compactified_map,
    random_complex,
    random_subcomplex,
    skeleton,
    small_map_for_products,
    stellar_sphere,
    whole,
)
from .oracles import assert_face_closed, complex_isomorphism, oracle_link, oracle_star


def relabelled_by_decreasing_star(rng: random.Random) -> list[SimplicialComplex]:
    """Random complexes with vertices renamed by decreasing star size.

    The first vertex of every simplex then has the largest star among its
    vertices, so a coface scan of the smallest star reads the star of
    another vertex.  Over a hundred simplices of the draw have a first
    vertex whose star is strictly the largest."""
    complexes = []
    scanned_elsewhere = 0
    for _ in range(30):
        n = rng.randint(3, 9)
        K = random_complex(rng, n_vertices=n, max_dim=rng.randint(1, min(4, n - 1)))
        size = {v: len(oracle_star([Simplex((v,))], K)) for v in K.vertices}
        order = sorted(K.vertices, key=lambda v: (-size[v], v))
        K = relabel(K, {v: i for i, v in enumerate(order)})
        size = {v: len(oracle_star([Simplex((v,))], K)) for v in K.vertices}
        for s in K.sorted_simplices:
            first, *rest = s.vertices
            assert all(size[first] >= size[v] for v in rest), s
            scanned_elsewhere += any(size[first] > size[v] for v in rest)
        complexes.append(K)
    assert scanned_elsewhere > 100
    return complexes


class TestBuildComplex:
    def test_face_closure_of_triangle(self):
        K = build_complex([[0, 1, 2]])
        assert len(K) == 7
        assert len(K.simplices_of_dim(1)) == 3
        assert len(K.simplices_of_dim(0)) == 3

    def test_triangle_boundary(self):
        K = build_complex([[0, 1], [1, 2], [0, 2]])
        assert len(K) == 6
        assert K.dim == 1

    def test_empty(self):
        K = build_complex([])
        assert K.dim == -1
        assert len(K) == 0

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(MalformedInputError):
            build_complex([[0, 1, 1]])

    def test_unsorted_input_canonicalized(self):
        K = build_complex([[2, 0, 1]])
        assert Simplex((0, 1, 2)) in K

    def test_bool_vertex_rejected(self):
        with pytest.raises(MalformedInputError):
            Simplex((True, 2))
        with pytest.raises(MalformedInputError):
            build_complex([[False, 1]])


class TestMaximalSimplices:
    def test_matches_definition_on_random_complexes(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 9)
            K = random_complex(rng, n_vertices=n, max_dim=rng.randint(0, min(4, n - 1)))
            expected = tuple(
                s
                for s in K.sorted_simplices
                if not any(s != t and s.is_face_of(t) for t in K.simplices)
            )
            assert K.maximal_simplices == expected

    def test_empty_complex_has_none(self):
        assert SimplicialComplex.empty().maximal_simplices == ()


class TestSkeleton:
    def test_vertices_of_tetra_boundary(self, tetra_boundary):
        assert len(skeleton(tetra_boundary, 0)) == 4

    def test_one_skeleton_is_k4(self, tetra_boundary):
        sk = skeleton(tetra_boundary, 1)
        assert len(sk.simplices_of_dim(0)) == 4
        assert len(sk.simplices_of_dim(1)) == 6

    def test_full_skeleton_is_identity(self, tetra_boundary):
        assert skeleton(tetra_boundary, tetra_boundary.dim).simplices == tetra_boundary.simplices


class TestStar:
    def test_star_of_vertex_in_circle(self, triangle_boundary):
        S = OpenSimplexSet.of(triangle_boundary, [Simplex((0,))])
        st_ = star(S, triangle_boundary)
        assert st_.members == frozenset(
            {Simplex((0,)), Simplex((0, 1)), Simplex((0, 2))}
        )

    def test_star_of_empty(self, tetra_boundary):
        S = OpenSimplexSet.of(tetra_boundary, [])
        assert not star(S, tetra_boundary).members

    def test_star_of_all_vertices_is_everything(self, tetra_boundary):
        verts = [s for s in tetra_boundary.simplices if s.dim == 0]
        S = OpenSimplexSet.of(tetra_boundary, verts)
        assert star(S, tetra_boundary).members == tetra_boundary.simplices

    def test_star_complement_is_face_closed(self, wedge_spheres):
        rng = random.Random(3)
        simplices = list(wedge_spheres.sorted_simplices)
        for _ in range(10):
            sub = [s for s in simplices if rng.random() < 0.3]
            if not sub:
                continue
            closed = SimplicialComplex.from_simplices(sub)
            S = OpenSimplexSet.of(wedge_spheres, closed.simplices)
            assert star(S, wedge_spheres).is_open

    def test_indexed_star_matches_definition_random(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 9)
            K = random_complex(rng, n_vertices=n, max_dim=rng.randint(0, min(4, n - 1)))
            for s in K.sorted_simplices:
                assert star(OpenSimplexSet.of(K, [s]), K).members == oracle_star([s], K), s
            for _ in range(5):
                members = [s for s in K.sorted_simplices if rng.random() < 0.2]
                got = star(OpenSimplexSet.of(K, members), K).members
                assert got == oracle_star(members, K)

    def test_smallest_star_scan_matches_definition(self):
        for K in relabelled_by_decreasing_star(random.Random(53)):
            for s in K.sorted_simplices:
                assert star(OpenSimplexSet.of(K, [s]), K).members == oracle_star([s], K), s

    def test_star_in_an_equal_host(self, triangle):
        twin = build_complex([[0, 1, 2]])
        S = OpenSimplexSet.of(twin, [Simplex((0, 1))])
        assert star(S, triangle).members == {Simplex((0, 1)), Simplex((0, 1, 2))}


class TestLink:
    def test_link_of_vertex_in_tetra_boundary(self, tetra_boundary):
        lk = link(Simplex((0,)), tetra_boundary)
        assert lk.dim == 1
        assert len(lk.simplices_of_dim(1)) == 3
        assert euler(lk) == 0

    def test_link_of_edge_is_two_points(self, tetra_boundary):
        lk = link(Simplex((0, 1)), tetra_boundary)
        assert lk.dim == 0 and len(lk) == 2

    def test_link_of_top_simplex_is_empty(self, tetra_boundary):
        lk = link(Simplex((0, 1, 2)), tetra_boundary)
        assert not lk.simplices

    def test_link_of_absent_simplex_raises(self, tetra_boundary):
        with pytest.raises(NotFoundError):
            link(Simplex((0, 9)), tetra_boundary)

    def test_links_are_face_closed_random(self):
        rng = random.Random(11)
        for _ in range(15):
            K = random_complex(rng)
            for s in K.sorted_simplices:
                lk = link(s, K)
                assert all(f in lk.simplices for t in lk.simplices for f in t.facets())
                assert all(t.vertices == tuple(sorted(set(t.vertices))) for t in lk.simplices)

    def test_indexed_link_matches_definition_random(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 9)
            K = random_complex(rng, n_vertices=n, max_dim=rng.randint(0, min(4, n - 1)))
            for s in K.sorted_simplices:
                assert link(s, K).simplices == oracle_link(s, K), s


    def test_smallest_star_scan_matches_definition(self):
        for K in relabelled_by_decreasing_star(random.Random(53)):
            for s in K.sorted_simplices:
                assert link(s, K).simplices == oracle_link(s, K), s


class TestTrustedConstruction:
    """Faces, link simplices, proper cofaces and classified simplices are
    built without validation; every one must still be a simplex the public
    constructor accepts.  (Oriented top simplices are compared with the
    validated ones in ``TestOrientationOracle``.)"""

    @staticmethod
    def assert_valid(simplices, what):
        for t in simplices:
            vs = t.vertices
            assert type(vs) is tuple and vs, (what, t)
            assert all(type(v) is int and v >= 0 for v in vs), (what, t)
            assert all(a < b for a, b in zip(vs, vs[1:])), (what, t)
            assert Simplex(vs) == t, (what, t)

    def test_unvalidated_simplices_are_valid(self):
        rng = random.Random(61)
        complexes = [random_complex(rng, n_vertices=9, max_dim=4) for _ in range(20)]
        complexes += [build_complex(stellar_sphere(rng, n, moves=4)) for n in (1, 2, 3) for _ in range(3)]
        for K in complexes:
            for s in K.sorted_simplices:
                self.assert_valid(s.facets(), f"facets of {s}")
                self.assert_valid(s.faces(), f"faces of {s}")
                self.assert_valid(s.faces(include_self=False), f"proper faces of {s}")
                self.assert_valid(link(s, K).simplices, f"link of {s}")
                cofaces = K._proper_cofaces(s)
                self.assert_valid(cofaces, f"proper cofaces of {s}")
                assert all(s.is_face_of(t) and t != s and t in K for t in cofaces), s
            closure = SimplicialComplex.from_simplices(K.maximal_simplices)
            assert closure.simplices == K.simplices
            self.assert_valid(closure.simplices, "from_simplices")

    def test_classified_simplices_are_valid(self, monkeypatch):
        # Classification rebuilds each simplex it classifies from a vertex
        # tuple: a region member, or at l = 2 a simplex s plus a vertex of
        # its link.
        seen = []
        plain = recognition.classify_point

        def recorded(s, K, k):
            seen.append((s, K))
            return plain(s, K, k)

        monkeypatch.setattr(recognition, "classify_point", recorded)
        rng = random.Random(67)
        complexes = [build_complex(stellar_sphere(rng, 3, moves=4)) for _ in range(3)]
        complexes += [random_complex(rng, n_vertices=8, max_dim=3) for _ in range(10)]
        for K in complexes:
            region_is_pl_manifold(whole(K), 3)
        self.assert_valid([s for s, _ in seen], "classified")
        assert all(s in K.simplices for s, K in seen)
        assert any(s.dim == 1 for s, _ in seen[:10])

    @pytest.mark.parametrize("vertices", [(), (2, 1), (0, 0), (-1, 3), (True, 2), (0, 1.0)])
    def test_public_constructor_validates(self, vertices):
        with pytest.raises(MalformedInputError):
            Simplex(vertices)


class TestBarycentricSubdivision:
    def test_edge_becomes_path(self):
        sd = barycentric_subdivision(build_complex([[0, 1]]))
        assert len(sd.complex.vertices) == 3
        assert len(sd.complex.simplices_of_dim(1)) == 2

    def test_triangle_boundary_becomes_hexagon(self, triangle_boundary):
        sd = barycentric_subdivision(triangle_boundary)
        assert len(sd.complex.vertices) == 6
        assert len(sd.complex.simplices_of_dim(1)) == 6

    def test_vertices_biject_with_simplices(self, tetra_boundary):
        sd = barycentric_subdivision(tetra_boundary)
        assert len(sd.complex.vertices) == len(tetra_boundary)

    @pytest.mark.parametrize("n", [2, 3])
    def test_preserves_euler_and_dimension(self, n):
        K = simplex_boundary_complex(n)
        sd = barycentric_subdivision(K)
        assert euler(sd.complex) == euler(K)
        assert sd.complex.dim == K.dim

    def test_random_preserves_euler(self):
        rng = random.Random(5)
        for _ in range(8):
            K = random_complex(rng, n_vertices=7, n_generators=5, max_dim=2)
            sd = barycentric_subdivision(K)
            assert euler(sd.complex) == euler(K)
            assert sd.complex.dim == K.dim


class TestJoinDecompose:
    def test_vertex_edge_triangle_chain_split_at_zero(self, triangle):
        chain = (Simplex((0,)), Simplex((0, 1)), Simplex((0, 1, 2)))
        low, high = join_decompose(chain, 0)
        assert low == (Simplex((0,)),)
        assert high == (Simplex((0, 1)), Simplex((0, 1, 2)))

    def test_all_above(self):
        chain = (Simplex((0, 1)), Simplex((0, 1, 2)))
        low, high = join_decompose(chain, 0)
        assert low == ()
        assert high == chain

    def test_all_below(self):
        chain = (Simplex((0,)), Simplex((0, 1)))
        low, high = join_decompose(chain, 1)
        assert high == ()
        assert low == chain

    @pytest.mark.parametrize("n", [2, 3])
    def test_bijection_over_subdivision(self, n):
        K = simplex_boundary_complex(n)
        sd = barycentric_subdivision(K)
        for r in range(0, K.dim + 1):
            seen = {}
            for s in sd.complex.sorted_simplices:
                chain = sd.chain_of(s)
                low, high = join_decompose(chain, r)
                assert low + high == chain
                assert all(t.dim <= r for t in low)
                assert all(t.dim > r for t in high)
                assert (low, high) not in seen
                seen[(low, high)] = s
            # every split pair comes from exactly one subdivision simplex
            assert len(seen) == len(sd.complex)


class TestProduct:
    def test_vertex_times_complex_is_isomorphic(self, triangle_boundary):
        pt = build_complex([[99]])
        pr = product_complex(pt, triangle_boundary)
        assert complex_isomorphism(pr.complex, triangle_boundary) is not None

    def test_square_splits_into_two_triangles(self):
        e = build_complex([[0, 1]])
        pr = product_complex(e, e)
        assert len(pr.complex.simplices_of_dim(2)) == 2
        assert euler(pr.complex) == 1

    def test_euler_multiplicativity(self, triangle_boundary):
        e = build_complex([[0, 1]])
        pr = product_complex(triangle_boundary, e)
        assert euler(pr.complex) == euler(triangle_boundary) * euler(e)

    def test_projections_are_simplicial(self, triangle_boundary):
        e = build_complex([[0, 1]])
        pr = product_complex(triangle_boundary, e)
        for s in pr.complex.sorted_simplices:
            assert pr.project_left(s) in triangle_boundary.simplices
            assert pr.project_right(s) in e.simplices


class TestSubdivisionPrism:
    def test_prism_over_edge(self):
        prm = subdivision_prism(build_complex([[0, 1]]))
        assert len(prm.complex.simplices_of_dim(2)) == 3
        assert euler(prm.complex) == 1

    def test_bottom_is_base_and_top_is_subdivision(self, triangle_boundary):
        prm = subdivision_prism(triangle_boundary)
        assert complex_isomorphism(prm.bottom, triangle_boundary) is not None
        assert complex_isomorphism(prm.top, barycentric_subdivision(triangle_boundary).complex) is not None

    def test_prism_euler_matches_base(self, triangle_boundary):
        prm = subdivision_prism(triangle_boundary)
        assert euler(prm.complex) == euler(triangle_boundary)


@st.composite
def complexes(draw):
    n_gens = draw(st.integers(min_value=1, max_value=6))
    gens = []
    for _ in range(n_gens):
        size = draw(st.integers(min_value=1, max_value=4))
        verts = draw(
            st.lists(
                st.integers(min_value=0, max_value=9),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        gens.append(verts)
    return build_complex(gens)


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(complexes())
    def test_every_construction_is_face_closed(self, K):
        assert_face_closed(K)

    @settings(max_examples=30, deadline=None)
    @given(complexes())
    def test_links_face_closed(self, K):
        for s in sorted(K.simplices, key=lambda t: t.sort_key)[:20]:
            assert_face_closed(link(s, K), f"link of {s}")

    def test_raw_constructions_are_face_closed(self):
        """The raw ``SimplicialComplex`` constructor trusts that its set is
        face-closed.  Every site in the package that calls it is checked
        here on seeded instances: complex operations, subdivision prisms,
        singular sets, circuit and bordism constructions, dual complexes and
        the puncture complexes of the limit calculus."""
        rng = random.Random(29)
        for round_ in range(6):
            K = random_complex(rng, n_vertices=7, n_generators=5, max_dim=3)
            A = random_subcomplex(rng, K)
            other = random_complex(rng, n_vertices=9, n_generators=4, max_dim=2)
            prism = subdivision_prism(K)
            built = {
                "union": K.union(other),
                "intersection": K.intersection(other),
                "barycentric_subdivision": barycentric_subdivision(K).complex,
                "relabel": relabel(K, {v: 3 * v + 1 for v in K.vertices}),
                "prism.complex": prism.complex,
                "prism.bottom": prism.bottom,
                "prism.top": prism.top,
                "prism.over": prism.over(A),
            }
            built.update({f"link of {s}": link(s, K) for s in K.sorted_simplices})
            built.update({f"dual_complex {r}": dual_complex(K, r).complex for r in range(K.dim + 1)})
            # Checked before the circuit constructions, which recognise
            # manifolds through links and would fail first on a bad link.
            for what, C in built.items():
                assert_face_closed(C, what)

            built = {}
            k = round_ % 3 + 1
            sphere = stellar_sphere(rng, k, moves=3)
            closed = RelativeCircuitData.closed(build_complex(sphere), k)
            apex = sphere[0][0]
            ball = RelativeCircuitData(
                build_complex([t for t in sphere if apex not in t]),
                link(Simplex((apex,)), closed.L),
                k,
                SimplicialComplex.empty(),
            )
            sigma_b = singular_set("b", ball).complex
            singular_ball = RelativeCircuitData(ball.L, ball.K, k, sigma_b)
            built["singular_set a"] = singular_set("a", closed).complex
            built["singular_set b"] = sigma_b

            cyl = cylinder(singular_ball)
            sb = subdivision_bordism(singular_ball)
            for name, R in (("cylinder", cyl.bordism), ("subdivision_bordism", sb.bordism)):
                built.update({f"{name}.{part}": getattr(R, part) for part in "NMLKS"})
                built[f"singular_set c of {name}"] = singular_set("c", R).complex
            built.update({"cylinder.bottom": cyl.bottom, "cylinder.top": cyl.top})
            for name, Q in (("bottom", sb.bottom_circuit), ("top", sb.top_circuit)):
                built.update({f"subdivision_bordism.{name}.{part}": getattr(Q, part) for part in "LKS"})

            shifted, _ = offset_labels(closed.L, 100)
            glued = disjoint_union(
                RelativeCircuitData.closed(closed.L, k, skeleton(closed.L, k - 2)),
                RelativeCircuitData.closed(shifted, k, skeleton(shifted, k - 2)),
            )
            built.update({f"glue.{part}": getattr(glued.data, part) for part in "LKS"})

            prod = product(small_map_for_products(rng), small_map_for_products(rng)).map
            built["product source punctures"] = prod.domain.S
            built["product target punctures"] = prod.target.S
            f = random_compactified_map(rng)
            tops = [s for s in f.domain.W.maximal_simplices if rng.random() < 0.6]
            W1 = SimplicialComplex.from_simplices(tops or f.domain.W.maximal_simplices)
            built["restrict_closed punctures"] = restrict_closed(f, W1).domain.S
            image = SimplicialComplex.from_simplices(f.apply(s) for s in W1.simplices)
            built["preimage_restrict punctures"] = preimage_restrict(f, image).domain.S

            for what, C in built.items():
                assert_face_closed(C, what)

    @settings(max_examples=20, deadline=None)
    @given(complexes())
    def test_subdivision_preserves_invariants(self, K):
        sd = barycentric_subdivision(K)
        assert euler(sd.complex) == euler(K)
        assert sd.complex.dim == K.dim
