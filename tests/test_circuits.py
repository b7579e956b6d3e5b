from __future__ import annotations

import pytest

from circuitsmith import (
    BordismData,
    RelativeCircuitData,
    Simplex,
    SimplicialComplex,
    barycentric_subdivision,
    boundary_circuit,
    build_complex,
    cw_dimension_bound,
    cylinder,
    glue,
    product_complex,
    singular_set,
    skeleton_complement_inclusions,
    subdivision_bordism,
    verify_circuit,
    verify_manifold_complement,
    verify_nullbordism,
)
from circuitsmith.circuits import SingularSet
from circuitsmith.complexes import relabel
from circuitsmith.errors import ContractError, MapError, StructureError

from .conftest import simplex_boundary_complex
from .generators import disjoint_union, euler_characteristic
from .oracles import complex_isomorphism


def subdivided_disk():
    """Barycentric subdivision of the triangle with its hexagon boundary."""
    triangle = build_complex([[0, 1, 2]])
    boundary = build_complex([[0, 1], [1, 2], [0, 2]])
    sd = barycentric_subdivision(triangle)
    K = SimplicialComplex(
        frozenset(
            s
            for s in sd.complex.simplices
            if all(sd.barycenter_of[u] in boundary.simplices for u in s.vertices)
        )
    )
    return RelativeCircuitData(sd.complex, K, 2, SimplicialComplex.empty()), sd


class TestVerifyCircuit:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sphere_boundaries_are_closed_circuits(self, n):
        K = simplex_boundary_complex(n)
        verdict = verify_circuit(RelativeCircuitData.closed(K, n - 1))
        assert verdict.valid and not verdict.unknown

    def test_disk_pair_is_relative_circuit(self, disk_pair):
        assert verify_circuit(disk_pair).valid

    def test_wedge_with_apex_singular_set(self, wedge_circuit):
        assert verify_circuit(wedge_circuit).valid

    def test_wedge_without_singular_set_fails(self, wedge_spheres):
        verdict = verify_circuit(RelativeCircuitData.closed(wedge_spheres, 2))
        assert not verdict.valid
        assert Simplex((3,)) in verdict.witnesses()

    def test_butterfly_rejected_through_boundary_recursion(self, butterfly):
        outer = build_complex([[0, 1], [0, 2], [1, 2], [2, 3], [2, 4], [3, 4]])
        data = RelativeCircuitData(butterfly, outer, 2, build_complex([[2]]))
        verdict = verify_circuit(data)
        assert not verdict.valid
        failed = {c.name for c in verdict.failures()}
        assert "boundary/singular-dimension" in failed
        assert Simplex((2,)) in verdict.witnesses()

    def test_dimension_mismatch_raises_before_checks(self, triangle):
        with pytest.raises(StructureError):
            verify_circuit(RelativeCircuitData.closed(triangle, 3))

    def test_empty_circuit_is_vacuously_valid(self):
        data = RelativeCircuitData.closed(SimplicialComplex.empty(), 1)
        assert verify_circuit(data).valid

    def test_set_that_is_not_face_closed_raises(self):
        # An edge without its vertices: the raw constructor takes the set as
        # given, and classification meets the missing faces.
        edge = SimplicialComplex(frozenset({Simplex((0, 1))}))
        with pytest.raises(ContractError, match=r"Simplex\(0, 1\) has the face"):
            verify_circuit(RelativeCircuitData.closed(edge, 1))

    def test_four_circuit_reports_unknown(self):
        # vertex links are three-dimensional, beyond exact recognition
        data = RelativeCircuitData.closed(simplex_boundary_complex(5), 4)
        verdict = verify_circuit(data)
        assert verdict.unknown
        assert not verdict.valid


class TestBoundaryCircuit:
    def test_disk_boundary_is_circle(self, disk_pair):
        b = boundary_circuit(disk_pair)
        assert b.k == 1 and not b.K.simplices
        assert verify_circuit(b).valid

    def test_closed_circuit_has_empty_boundary(self, sphere_circuit):
        b = boundary_circuit(sphere_circuit)
        assert not b.L.simplices

    def test_solid_tetra_boundary_is_sphere(self):
        solid = build_complex([[0, 1, 2, 3]])
        data = RelativeCircuitData(solid, simplex_boundary_complex(3), 3, SimplicialComplex.empty())
        assert verify_circuit(data).valid
        b = boundary_circuit(data)
        assert b.L.simplices == simplex_boundary_complex(3).simplices
        assert verify_circuit(b).valid

    def test_invalid_circuit_raises_contract_error(self, wedge_spheres):
        data = RelativeCircuitData.closed(wedge_spheres, 2)
        with pytest.raises(ContractError):
            boundary_circuit(data)

    def test_boundary_of_valid_circuit_is_valid(self, disk_pair, wedge_circuit):
        for data in (disk_pair, wedge_circuit):
            assert verify_circuit(boundary_circuit(data)).valid


class TestNullbordism:
    def test_solid_tetra_bounds_its_sphere(self, sphere_circuit, tetra_boundary):
        solid = build_complex([[0, 1, 2, 3]])
        R = BordismData(solid, tetra_boundary, tetra_boundary,
                        SimplicialComplex.empty(), 2, SimplicialComplex.empty())
        assert verify_nullbordism(R, sphere_circuit).valid

    def test_mislabeled_circuit_rejected(self, circle_circuit):
        cyl = cylinder(circle_circuit)
        verdict = verify_nullbordism(cyl.bordism, circle_circuit)
        assert not verdict.valid
        assert verdict.checks[0].name == "designation"
        assert not verdict.checks[0].passed

    def test_cylinder_is_bordism_between_its_ends(self, circle_circuit):
        cyl = cylinder(circle_circuit)
        ends = cyl.bordism.designated_circuit()
        assert verify_nullbordism(cyl.bordism, ends).valid

    def test_corrupted_singular_set_rejected_with_witness(self, sphere_circuit, tetra_boundary):
        solid = build_complex([[0, 1, 2, 3]])
        bad_S = build_complex([[0]])
        R = BordismData(solid, tetra_boundary, tetra_boundary,
                        SimplicialComplex.empty(), 2, bad_S)
        verdict = verify_nullbordism(R, sphere_circuit)
        assert not verdict.valid
        names = {c.name for c in verdict.failures()}
        assert "singular-compatibility" in names
        assert Simplex((0,)) in verdict.witnesses()


class TestSingularSet:
    def test_case_a_on_sphere_is_vertex_skeleton(self, sphere_circuit):
        sigma = singular_set("a", sphere_circuit)
        assert sigma.complex.simplices == frozenset(
            Simplex((v,)) for v in sphere_circuit.L.vertices
        )
        assert sigma.codim == 2

    def test_case_b_trivial_disk_is_empty(self, disk_pair):
        sigma = singular_set("b", disk_pair)
        assert not sigma.complex.simplices

    def test_case_b_subdivided_disk_is_the_barycenter(self):
        data, sd = subdivided_disk()
        sigma = singular_set("b", data)
        barycenter = sd.vertex_for[Simplex((0, 1, 2))]
        assert sigma.complex.simplices == frozenset({Simplex((barycenter,))})
        assert sigma.dim == 0 == data.k - 2

    def test_case_c_formula_on_solid_tetra(self, tetra_boundary):
        solid = build_complex([[0, 1, 2, 3]])
        R = BordismData(solid, tetra_boundary, tetra_boundary,
                        SimplicialComplex.empty(), 2, SimplicialComplex.empty())
        sigma = singular_set("c", R)
        # boundary strips the edges; the interior has no extra low simplices
        assert sigma.complex.simplices == frozenset(Simplex((v,)) for v in solid.vertices)

    def test_sigma_always_face_closed_and_codim_two(self, sphere_circuit, disk_pair, wedge_circuit):
        fixtures_ab = [
            ("a", sphere_circuit),
            ("a", wedge_circuit),
            ("b", disk_pair),
            ("b", wedge_circuit),
            ("b", subdivided_disk()[0]),
        ]
        for case, data in fixtures_ab:
            sigma = singular_set(case, data)
            for s in sigma.complex.simplices:
                for f in s.facets():
                    assert f in sigma.complex.simplices
            assert sigma.dim <= sigma.ambient_dim - 2

    def test_invariant_violation_raises(self, disk_pair):
        with pytest.raises(StructureError):
            SingularSet("b", disk_pair.L, 2)


class TestManifoldComplement:
    def test_case_a_punctured_sphere(self, sphere_circuit):
        sigma = singular_set("a", sphere_circuit)
        verdict = verify_manifold_complement("a", sphere_circuit, sigma)
        assert verdict.valid

    def test_case_b_disk_boundary_matches(self, disk_pair):
        sigma = singular_set("b", disk_pair)
        verdict = verify_manifold_complement("b", disk_pair, sigma)
        assert verdict.valid

    def test_case_b_subdivided_wedge_hides_the_apex(self, wedge_circuit):
        sigma = singular_set("b", wedge_circuit)
        assert Simplex((3,)) in sigma.complex.simplices
        verdict = verify_manifold_complement("b", wedge_circuit, sigma)
        assert verdict.valid

    def test_case_c_solid_tetra(self, sphere_circuit, tetra_boundary):
        solid = build_complex([[0, 1, 2, 3]])
        R = BordismData(solid, tetra_boundary, tetra_boundary,
                        SimplicialComplex.empty(), 2, SimplicialComplex.empty())
        sigma = singular_set("c", R)
        verdict = verify_manifold_complement("c", R, sigma)
        assert verdict.valid

    def test_high_dimensional_complements_stay_exact(self):
        # the singular set strips everything below codimension two, so the
        # complement only contains simplices with low-dimensional links and
        # the manifold conclusions are decided exactly even at dimension four
        data = RelativeCircuitData.closed(simplex_boundary_complex(5), 4)
        sigma = singular_set("a", data)
        verdict = verify_manifold_complement("a", data, sigma)
        assert verdict.valid and not verdict.unknown

    def test_skeleton_complement_inclusions(self, sphere_circuit, disk_pair, wedge_circuit, tetra_boundary):
        for case, data in [("a", sphere_circuit), ("b", disk_pair), ("b", wedge_circuit)]:
            sigma = singular_set(case, data)
            assert skeleton_complement_inclusions(case, data, sigma)
        solid = build_complex([[0, 1, 2, 3]])
        R = BordismData(solid, tetra_boundary, tetra_boundary,
                        SimplicialComplex.empty(), 2, SimplicialComplex.empty())
        assert skeleton_complement_inclusions("c", R, singular_set("c", R))


class TestCaseErrors:
    """Each singular-set case takes one kind of data; anything else is a
    StructureError from every function that reads the case."""

    @pytest.fixture
    def solid_bordism(self, tetra_boundary):
        empty = SimplicialComplex.empty()
        return BordismData(build_complex([[0, 1, 2, 3]]), tetra_boundary, tetra_boundary, empty, 2, empty)

    @pytest.mark.parametrize(
        "case, right, wrong",
        [
            ("a", "sphere_circuit", "solid_bordism"),
            ("a", "sphere_circuit", "disk_pair"),  # a relative circuit
            ("b", "sphere_circuit", "solid_bordism"),
            ("c", "solid_bordism", "sphere_circuit"),
        ],
    )
    def test_wrong_data_rejected(self, request, case, right, wrong):
        sigma = singular_set(case, request.getfixturevalue(right))
        wrong = request.getfixturevalue(wrong)
        for call in (
            lambda: singular_set(case, wrong),
            lambda: verify_manifold_complement(case, wrong, sigma),
            lambda: skeleton_complement_inclusions(case, wrong, sigma),
            lambda: cw_dimension_bound(case, wrong),
        ):
            with pytest.raises(StructureError):
                call()

    def test_singular_set_of_another_case_rejected(self, sphere_circuit):
        sigma_b = singular_set("b", sphere_circuit)
        with pytest.raises(StructureError):
            skeleton_complement_inclusions("a", sphere_circuit, sigma_b)
        with pytest.raises(StructureError):
            verify_manifold_complement("a", sphere_circuit, sigma_b)

    def test_unknown_case_rejected(self, sphere_circuit):
        for call in (
            lambda: singular_set("d", sphere_circuit),
            lambda: cw_dimension_bound("d", sphere_circuit),
        ):
            with pytest.raises(StructureError):
                call()


class TestGlue:
    def two_subdivided_disks(self):
        left, _ = subdivided_disk()
        offset = max(left.L.vertices) + 1
        mapping = {v: v + offset for v in left.L.vertices}
        right = RelativeCircuitData(
            relabel(left.L, mapping), relabel(left.K, mapping), 2, SimplicialComplex.empty()
        )
        iso = {v: v + offset for v in left.K.vertices}
        return left, right, iso

    def test_double_of_disk_is_a_sphere(self):
        left, right, iso = self.two_subdivided_disks()
        result = glue(left, right, left.K, right.K, iso)
        assert result.verdict.valid
        assert not result.data.K.simplices
        assert euler_characteristic(result.data.L) == 2

    def test_collapsing_identification_rejected(self, disk_pair):
        other = RelativeCircuitData(
            build_complex([[10, 11, 12]]),
            build_complex([[10, 11], [11, 12], [10, 12]]),
            2,
            SimplicialComplex.empty(),
        )
        with pytest.raises(StructureError):
            glue(disk_pair, other, disk_pair.K, other.K, {0: 10, 1: 11, 2: 12})

    def test_non_simplicial_iso_rejected(self):
        left, right, iso = self.two_subdivided_disks()
        keys = sorted(iso)
        broken = dict(iso)
        # swap two image vertices so edges stop matching edges
        broken[keys[0]], broken[keys[-1]] = broken[keys[-1]], broken[keys[0]]
        with pytest.raises(MapError):
            glue(left, right, left.K, right.K, broken)

    def test_glue_along_empty_is_disjoint_union(self, sphere_circuit):
        result = disjoint_union(sphere_circuit, sphere_circuit)
        assert result.verdict.valid
        assert len(result.data.L) == 2 * len(sphere_circuit.L)
        assert euler_characteristic(result.data.L) == 4

    def test_glue_then_cut_recovers_inputs(self):
        left, right, iso = self.two_subdivided_disks()
        result = glue(left, right, left.K, right.K, iso)
        image_left = relabel(left.L, result.left_vertex_map)
        image_right = relabel(right.L, result.right_vertex_map)
        assert image_left.simplices == left.L.simplices
        assert image_left.union(image_right).simplices == result.data.L.simplices
        assert image_left.intersection(image_right).simplices == left.K.simplices

    def test_glue_rejects_iso_off_the_left_interface(self):
        left, right, iso = self.two_subdivided_disks()
        del iso[min(iso)]
        with pytest.raises(MapError, match="exactly on the left interface vertices"):
            glue(left, right, left.K, right.K, iso)

    def test_glue_is_associative_up_to_isomorphism(self):
        # three arcs glued end to end, in both association orders
        def arc(a, b, c):
            L = build_complex([[a, b], [b, c]])
            K = build_complex([[a], [c]])
            return RelativeCircuitData(L, K, 1, SimplicialComplex.empty())

        def end(data, v):
            return SimplicialComplex.from_simplices([Simplex((v,))])

        a1, a2, a3 = arc(0, 1, 2), arc(10, 11, 12), arc(20, 21, 22)
        left_first = glue(a1, a2, end(a1, 2), end(a2, 10), {2: 10})
        lf = glue(
            left_first.data,
            a3,
            SimplicialComplex.from_simplices([Simplex((left_first.left_vertex_map[0],))]),
            end(a3, 22),
            {left_first.left_vertex_map[0]: 22},
        )
        right_first = glue(a2, a3, end(a2, 12), end(a3, 20), {12: 20})
        rf = glue(
            a1,
            right_first.data,
            end(a1, 2),
            SimplicialComplex.from_simplices([Simplex((right_first.left_vertex_map[10],))]),
            {2: right_first.left_vertex_map[10]},
        )
        assert complex_isomorphism(lf.data.L, rf.data.L) is not None


class TestCylinder:
    def test_cylinder_of_circle_is_annulus(self, circle_circuit):
        cyl = cylinder(circle_circuit)
        assert euler_characteristic(cyl.bordism.N) == 0
        assert verify_nullbordism(cyl.bordism, cyl.bordism.designated_circuit()).valid

    def test_cylinder_of_point_is_edge(self):
        pt = RelativeCircuitData.closed(build_complex([[0]]), 0)
        cyl = cylinder(pt)
        assert cyl.bordism.N.dim == 1
        assert len(cyl.bordism.N.simplices_of_dim(1)) == 1

    def test_cylinder_of_wedge_has_low_singular_set(self, wedge_circuit):
        cyl = cylinder(wedge_circuit)
        verdict = verify_nullbordism(cyl.bordism, cyl.bordism.designated_circuit())
        assert verdict.valid
        sigma = singular_set("c", cyl.bordism)
        assert sigma.dim <= wedge_circuit.k - 1
        assert verify_manifold_complement("c", cyl.bordism, sigma).valid

    def test_cylinder_requires_valid_circuit(self, wedge_spheres):
        with pytest.raises(ContractError):
            cylinder(RelativeCircuitData.closed(wedge_spheres, 2))


class TestSubdivisionBordism:
    def test_circle_prism_verifies(self, circle_circuit):
        sb = subdivision_bordism(circle_circuit)
        assert verify_nullbordism(sb.bordism, sb.bordism.designated_circuit()).valid
        assert verify_circuit(sb.bottom_circuit).valid
        assert verify_circuit(sb.top_circuit).valid

    def test_disk_prism_respects_boundary(self, disk_pair):
        sb = subdivision_bordism(disk_pair)
        verdict = verify_nullbordism(sb.bordism, sb.bordism.designated_circuit())
        assert verdict.valid
        assert complex_isomorphism(
            sb.top_circuit.L, barycentric_subdivision(disk_pair.L).complex
        ) is not None
