from __future__ import annotations

import functools
import random
from collections import Counter

import pytest

from circuitsmith import (
    OpenSimplexSet,
    PointClass,
    RegionVerdict,
    Simplex,
    SimplicialComplex,
    build_complex,
    classify_point,
    homology,
    region_is_pl_manifold,
    star,
)
from circuitsmith import recognition
from circuitsmith.errors import ContractError, NotFoundError

from .conftest import simplex_boundary_complex
from .generators import euler_characteristic, random_complex, random_subcomplex, stellar_sphere, whole
from .oracles import non_manifold_set, oracle_point_class


class TestClassifyPoint:
    def test_sphere_vertex_is_interior(self, tetra_boundary):
        assert classify_point(Simplex((0,)), tetra_boundary, 2) is PointClass.INTERIOR_MANIFOLD

    def test_wedge_apex_is_non_manifold(self, wedge_spheres):
        assert classify_point(Simplex((3,)), wedge_spheres, 2) is PointClass.NON_MANIFOLD

    def test_disk_vertex_is_boundary(self, triangle):
        assert classify_point(Simplex((0,)), triangle, 2) is PointClass.BOUNDARY_MANIFOLD

    def test_disk_interior_is_interior(self, triangle):
        assert classify_point(Simplex((0, 1, 2)), triangle, 2) is PointClass.INTERIOR_MANIFOLD

    def test_dangling_edge_is_non_manifold(self):
        K = build_complex([[0, 1, 2], [2, 3]])
        assert classify_point(Simplex((2, 3)), K, 2) is PointClass.NON_MANIFOLD

    def test_three_triangles_edge_is_non_manifold(self):
        K = build_complex([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        assert classify_point(Simplex((0, 1)), K, 2) is PointClass.NON_MANIFOLD

    def test_missing_simplex_raises(self, tetra_boundary):
        with pytest.raises(NotFoundError):
            classify_point(Simplex((0, 9)), tetra_boundary, 2)

    def test_four_sphere_boundary_vertices_interior(self, four_simplex_boundary):
        # links are 2-spheres; recognition is exact in this range
        for v in four_simplex_boundary.vertices:
            assert (
                classify_point(Simplex((v,)), four_simplex_boundary, 3)
                is PointClass.INTERIOR_MANIFOLD
            )

    def test_solid_tetra_classes(self):
        K = build_complex([[0, 1, 2, 3]])
        assert classify_point(Simplex((0,)), K, 3) is PointClass.BOUNDARY_MANIFOLD
        assert classify_point(Simplex((0, 1, 2, 3)), K, 3) is PointClass.INTERIOR_MANIFOLD

    def test_orbit_constancy_on_sphere_vertices(self):
        for n in (2, 3, 4):
            K = simplex_boundary_complex(n)
            classes = {classify_point(Simplex((v,)), K, n - 1) for v in K.vertices}
            assert classes == {PointClass.INTERIOR_MANIFOLD}


class TestOracleAgreement:
    """``classify_point`` against the definitions, at every k from 0 to
    dim + 1, so links of every dimension up to four are met."""

    @staticmethod
    def assert_agrees(K):
        for k in range(K.dim + 2):
            for s in K.sorted_simplices:
                assert classify_point(s, K, k) is oracle_point_class(s, K, k), (s, k)

    def test_random_complexes(self):
        rng = random.Random(61)
        for _ in range(40):
            self.assert_agrees(random_complex(rng, n_vertices=8, n_generators=8, max_dim=4))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stellar_spheres(self, n):
        rng = random.Random(n)
        for moves in (1, 2):
            facets = stellar_sphere(rng, n, moves)
            sphere = build_complex(facets)
            assert not non_manifold_set(sphere).non_manifold_subcomplex.simplices
            extra = sorted(rng.sample(sorted(sphere.vertices), n + 1))
            for K in (sphere, build_complex(facets[1:]), build_complex(facets + [extra])):
                self.assert_agrees(K)

    def test_cone_over_wedge_of_surfaces(self):
        # The apex link, S^2 v S^2 v T^2 wedged at vertex 0, is pure and
        # connected, has every edge in two triangles and Euler characteristic
        # 2, as a 2-sphere does.  Only the link of the wedge vertex inside it,
        # three disjoint circles, shows that it is no surface.
        torus = [sorted({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
        torus += [sorted({i, (i + 2) % 7, (i + 3) % 7}) for i in range(7)]
        spheres = [[0, 7, 8], [0, 7, 9], [0, 8, 9], [7, 8, 9],
                   [0, 10, 11], [0, 10, 12], [0, 11, 12], [10, 11, 12]]
        wedge = build_complex(torus + spheres)
        assert all(t.dim == 2 for t in wedge.maximal_simplices)
        ridges = Counter(f for t in wedge.simplices_of_dim(2) for f in t.facets())
        assert set(ridges.values()) == {2}
        assert euler_characteristic(wedge) == 2
        assert homology(wedge).betti_numbers()[0] == 1
        cone = build_complex([t + [13] for t in torus + spheres])
        for s in (Simplex((13,)), Simplex((0,)), Simplex((0, 13))):
            assert classify_point(s, cone, 3) is PointClass.NON_MANIFOLD
            assert oracle_point_class(s, cone, 3) is PointClass.NON_MANIFOLD


class TestNonManifoldSet:
    def test_sphere_has_none(self, tetra_boundary):
        report = non_manifold_set(tetra_boundary)
        assert report.exact
        assert not report.non_manifold_subcomplex.simplices

    def test_wedge_has_exactly_the_apex(self, wedge_spheres):
        report = non_manifold_set(wedge_spheres)
        assert report.non_manifold_subcomplex.simplices == frozenset({Simplex((3,))})

    def test_disk_has_none(self, triangle):
        report = non_manifold_set(triangle)
        assert not report.non_manifold_subcomplex.simplices

    def test_randomized_locus_is_face_closed(self):
        rng = random.Random(23)
        for _ in range(25):
            K = random_complex(rng, n_vertices=8, n_generators=6, max_dim=3)
            if len(K) > 200:
                continue
            report = non_manifold_set(K)
            bad = {
                s
                for s, c in report.classification.items()
                if c is PointClass.NON_MANIFOLD
            }
            for s in bad:
                for f in s.facets():
                    assert report.classification[f] is PointClass.NON_MANIFOLD
            assert bad <= report.non_manifold_subcomplex.simplices


class TestRegion:
    def test_whole_sphere_is_manifold(self, tetra_boundary):
        report = region_is_pl_manifold(whole(tetra_boundary), 2)
        assert report.verdict is RegionVerdict.YES
        assert not report.boundary

    def test_punctured_wedge_is_manifold(self, wedge_spheres):
        U = OpenSimplexSet.of(
            wedge_spheres, wedge_spheres.simplices - {Simplex((3,))}
        )
        report = region_is_pl_manifold(U, 2)
        assert report.verdict is RegionVerdict.YES

    def test_unpunctured_wedge_is_not(self, wedge_spheres):
        report = region_is_pl_manifold(whole(wedge_spheres), 2)
        assert report.verdict is RegionVerdict.NO
        assert report.witness == Simplex((3,))

    def test_empty_region_vacuously_yes(self, tetra_boundary):
        report = region_is_pl_manifold(OpenSimplexSet.of(tetra_boundary, []), 2)
        assert report.verdict is RegionVerdict.YES

    def test_non_open_set_rejected(self, triangle):
        U = OpenSimplexSet.of(triangle, [Simplex((0, 1))])
        with pytest.raises(ContractError):
            region_is_pl_manifold(U, 1)

    def test_disk_region_reports_boundary(self, triangle):
        report = region_is_pl_manifold(whole(triangle), 2)
        assert report.verdict is RegionVerdict.YES
        assert Simplex((0, 1)) in report.boundary
        assert Simplex((0, 1, 2)) not in report.boundary


class TestHostClassification:
    def test_host_equals_star_closure_classification(self):
        # Each member of an open U is classified in U.host directly; that must
        # agree with classifying it in the closed star of U, for every k.
        rng = random.Random(47)
        for _ in range(30):
            K = random_complex(rng, n_vertices=8, n_generators=6, max_dim=3)
            for _ in range(3):
                U = OpenSimplexSet.of(K, K.simplices - random_subcomplex(rng, K).simplices)
                local = star(U, K).closure()
                for k in range(K.dim + 2):
                    expected = {s: classify_point(s, local, k) for s in U.members}
                    assert region_is_pl_manifold(U, k).classification == expected


class TestClassificationMemo:
    def test_two_values_of_k_do_not_collide(self, tetra_boundary):
        U = whole(tetra_boundary)
        as_surface = region_is_pl_manifold(U, 2).classification
        as_solid = region_is_pl_manifold(U, 3).classification
        assert set(as_surface.values()) == {PointClass.INTERIOR_MANIFOLD}
        assert set(as_solid.values()) == {PointClass.NON_MANIFOLD}
        assert region_is_pl_manifold(U, 2).classification == as_surface
        assert region_is_pl_manifold(U, 3).classification == as_solid

    def test_each_simplex_classified_once_per_host_and_k(self, monkeypatch, wedge_spheres):
        calls = []
        plain = recognition.classify_point

        def counted(s, K, k):
            calls.append((s, k))
            return plain(s, K, k)

        monkeypatch.setattr(recognition, "classify_point", counted)
        U = OpenSimplexSet.of(wedge_spheres, wedge_spheres.simplices - {Simplex((3,))})
        first = region_is_pl_manifold(U, 2)
        assert len(calls) == len(U)
        assert region_is_pl_manifold(U, 2) == first
        everything = region_is_pl_manifold(whole(wedge_spheres), 2)
        assert everything.classification[Simplex((3,))] is PointClass.NON_MANIFOLD
        assert len(calls) == len(wedge_spheres)
        assert len(set(calls)) == len(calls)

    def test_no_link_of_a_link(self, monkeypatch, four_simplex_boundary):
        # Vertex links of the 3-sphere are 2-spheres, and their own vertex
        # links are rows of the same table, classified through the memo: the
        # host's link table is built once, each simplex is classified once,
        # and no complex at all (no link complex) is built.
        U = whole(four_simplex_boundary)
        classified = []
        plain = recognition.classify_point

        def counted(s, K, k):
            classified.append(s)
            return plain(s, K, k)

        monkeypatch.setattr(recognition, "classify_point", counted)
        tables = []
        build = SimplicialComplex.__dict__["_links"].func

        def counted_build(K):
            tables.append(K)
            return build(K)

        table = functools.cached_property(counted_build)
        table.__set_name__(SimplicialComplex, "_links")
        monkeypatch.setattr(SimplicialComplex, "_links", table)
        complexes = []
        init = SimplicialComplex.__init__

        def counted_init(K, *args, **kwargs):
            complexes.append(K)
            init(K, *args, **kwargs)

        monkeypatch.setattr(SimplicialComplex, "__init__", counted_init)
        assert region_is_pl_manifold(U, 3).verdict is RegionVerdict.YES
        assert len(tables) == 1 and tables[0] is four_simplex_boundary
        assert complexes == []
        assert sorted(classified) == list(four_simplex_boundary.sorted_simplices)

    def test_memo_is_per_host_object(self, tetra_boundary):
        twin = simplex_boundary_complex(3)
        region_is_pl_manifold(whole(tetra_boundary), 2)
        assert tetra_boundary._point_classes
        assert "_point_classes" not in vars(twin)


class TestUnknownScreening:
    def test_four_sphere_vertex_is_unknown(self):
        K = simplex_boundary_complex(5)
        assert classify_point(Simplex((0,)), K, 4) is PointClass.UNKNOWN
        report = non_manifold_set(K)
        assert not report.exact

    def test_a_non_manifold_witness_comes_before_an_undecided_one(self):
        # two copies of the boundary of the 5-simplex wedged at vertex 5:
        # vertex 0 is undecided, and vertex 5, whose link is two 3-spheres,
        # is not a manifold point
        verts = list(range(6))
        faces = [verts[:i] + verts[i + 1 :] for i in range(6)]
        K = build_complex(faces + [[v + 5 for v in f] for f in faces])
        report = region_is_pl_manifold(whole(K), 4)
        assert report.classification[Simplex((0,))] is PointClass.UNKNOWN
        assert report.verdict is RegionVerdict.NO and report.witness == Simplex((5,))

    def test_necessary_condition_failure_is_conclusive(self):
        # two 4-simplices sharing a 3-face triple-covered: force an incidence
        # failure inside a 3-dimensional link
        K = build_complex([[0, 1, 2, 3, 4], [0, 1, 2, 3, 5], [0, 1, 2, 3, 6]])
        assert classify_point(Simplex((0,)), K, 4) is PointClass.NON_MANIFOLD


class TestExactnessGuarantee:
    def test_no_unknown_up_to_dimension_three(self):
        rng = random.Random(31)
        complexes = [
            simplex_boundary_complex(2),
            simplex_boundary_complex(3),
            simplex_boundary_complex(4),
            build_complex([[0, 1, 2, 3]]),
        ]
        complexes += [random_complex(rng, n_vertices=7, max_dim=3) for _ in range(10)]
        for K in complexes:
            assert K.dim <= 3
            assert non_manifold_set(K).exact

    def test_clean_pseudomanifolds_are_manifold_regions(self):
        for n in (2, 3, 4):
            K = simplex_boundary_complex(n)
            assert not non_manifold_set(K).non_manifold_subcomplex.simplices
            report = region_is_pl_manifold(whole(K), n - 1)
            assert report.verdict is RegionVerdict.YES

    def test_surface_catalog_is_manifold(self, triangle_boundary, projective_plane):
        from circuitsmith import product_complex

        surfaces = [projective_plane]
        torus = product_complex(
            triangle_boundary, build_complex([[5, 6], [6, 7], [5, 7]])
        ).complex
        surfaces.append(torus)
        for K in surfaces:
            assert not non_manifold_set(K).non_manifold_subcomplex.simplices
            report = region_is_pl_manifold(whole(K), 2)
            assert report.verdict is RegionVerdict.YES
            assert not report.boundary
