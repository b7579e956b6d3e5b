from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from circuitsmith import (
    BordismData,
    OrientationAssignment,
    RelativeCircuitData,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    TargetPair,
    barycentric_subdivision,
    bordism_invariance_check,
    boundary_circuit,
    build_complex,
    cylinder,
    homology,
    psi,
    singular_set,
    subdivision_bordism,
    verify_bordism_certificate,
    verify_circuit,
    verify_nullbordism,
)
from circuitsmith import pipeline, recognition
from circuitsmith.errors import PipelineError
from circuitsmith.serialize import (
    bordism_certificate_to_json,
    dumps,
    pseudocycle_certificate_to_json,
    reverify_certificate,
)

from .conftest import simplex_boundary_complex
from .generators import disjoint_union, full_simplex, stellar_sphere
from .oracles import assert_carriers_are_limit_sets, connecting_coordinates


def subdivided_disk_pair():
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


def last_vertex_map(sd, target):
    return {v: max(sd.barycenter_of[v].vertices) for v in sd.complex.vertices}


class TestPsi:
    def test_disk_identity_certificate(self, disk_pair):
        target = TargetPair(disk_pair.L, disk_pair.K)
        cert = psi(disk_pair, SimplicialMap.identity(disk_pair.L), target)
        assert cert.valid
        assert_carriers_are_limit_sets(cert)
        assert not cert.sigma.complex.simplices
        assert cert.bound_main.limit_dimension == -1
        assert cert.bound_boundary.limit_dimension == -1
        assert cert.bound_main.max_allowed == 0
        assert cert.bound_boundary.max_allowed == -1
        assert cert.homology_coordinates.free in ((1,), (-1,))

    def test_subdivided_disk_into_original(self, disk_pair):
        data, sd = subdivided_disk_pair()
        target = TargetPair(disk_pair.L, disk_pair.K)
        a = SimplicialMap.from_dict(data.L, disk_pair.L, last_vertex_map(sd, disk_pair.L))
        cert = psi(data, a, target)
        assert cert.valid
        assert_carriers_are_limit_sets(cert)
        barycenter = sd.vertex_for[Simplex((0, 1, 2))]
        assert cert.sigma.complex.simplices == frozenset({Simplex((barycenter,))})
        # the carrier is exactly the image of the singular set
        assert cert.limit_carrier.members == frozenset(
            {a.apply(Simplex((barycenter,)))}
        )
        assert cert.bound_main.limit_dimension == 0 <= cert.bound_main.max_allowed

    def test_wedge_identity_certificate(self, wedge_circuit):
        target = TargetPair.absolute(wedge_circuit.L)
        cert = psi(wedge_circuit, SimplicialMap.identity(wedge_circuit.L), target)
        assert cert.valid
        assert_carriers_are_limit_sets(cert)
        assert Simplex((3,)) in cert.sigma.complex.simplices
        assert cert.bound_main.limit_dimension == 0 == cert.k - 2
        assert cert.bound_boundary.limit_dimension == -1
        assert sorted(abs(c) for c in cert.homology_coordinates.free) == [1, 1]

    def test_low_dimensional_floor(self, circle_circuit):
        target = TargetPair.absolute(circle_circuit.L)
        cert = psi(circle_circuit, SimplicialMap.identity(circle_circuit.L), target)
        assert cert.valid
        assert_carriers_are_limit_sets(cert)
        assert not cert.sigma.complex.simplices
        assert cert.bound_main.max_allowed == -1
        assert cert.bound_boundary.max_allowed == -1

    def test_invalid_circuit_aborts_at_first_stage(self, wedge_spheres):
        bad = RelativeCircuitData.closed(wedge_spheres, 2)
        target = TargetPair.absolute(wedge_spheres)
        with pytest.raises(PipelineError) as err:
            psi(bad, SimplicialMap.identity(wedge_spheres), target)
        assert err.value.stage == "verify-circuit"
        assert Simplex((3,)) in err.value.witnesses

    def test_non_orientable_aborts_at_orientation(self, projective_plane):
        data = RelativeCircuitData.closed(projective_plane, 2)
        target = TargetPair.absolute(projective_plane)
        with pytest.raises(PipelineError) as err:
            psi(data, SimplicialMap.identity(projective_plane), target)
        assert err.value.stage == "orientation"
        assert err.value.witnesses

    @pytest.mark.parametrize(
        "signs",
        [
            {Simplex((0, 1, 2)): 7},
            {Simplex((0, 1, 2)): 1, Simplex((7, 8, 9)): 1},
            {Simplex((0, 1, 2)): 1, Simplex((0, 1)): -1},
            {},
        ],
        ids=["sign-seven", "foreign-simplex", "lower-simplex", "no-signs"],
    )
    def test_given_orientation_checked_at_orientation(self, disk_pair, signs):
        target = TargetPair(disk_pair.L, disk_pair.K)
        with pytest.raises(PipelineError) as err:
            psi(disk_pair, SimplicialMap.identity(disk_pair.L), target,
                orientation=OrientationAssignment(signs, True))
        assert err.value.stage == "orientation"

    def test_map_of_pairs_enforced(self, disk_pair):
        target = TargetPair(disk_pair.L, build_complex([[0]]))
        with pytest.raises(PipelineError) as err:
            psi(disk_pair, SimplicialMap.identity(disk_pair.L), target)
        assert err.value.stage == "evaluate"

    def test_additivity_on_disjoint_union(self, sphere_circuit):
        target = TargetPair.absolute(sphere_circuit.L)
        cert_single = psi(sphere_circuit, SimplicialMap.identity(sphere_circuit.L), target)
        union = disjoint_union(sphere_circuit, sphere_circuit)
        fold_vm = {}
        for v, w in union.left_vertex_map.items():
            fold_vm[w] = v
        for v, w in union.right_vertex_map.items():
            fold_vm[w] = v
        fold = SimplicialMap.from_dict(union.data.L, sphere_circuit.L, fold_vm)
        cert_union = psi(union.data, fold, target)
        assert_carriers_are_limit_sets(cert_single)
        assert_carriers_are_limit_sets(cert_union)
        # both components carry the canonical propagated orientation, so the
        # union evaluates to exactly the sum of the single evaluations
        single = cert_single.homology_coordinates.free
        assert cert_union.homology_coordinates.free == tuple(2 * c for c in single)

    def test_subdivided_three_sphere_certificate(self):
        # a dimension-three run: the singular set is a whole 1-skeleton and
        # recognition stays exact
        sphere3 = simplex_boundary_complex(4)
        sd = barycentric_subdivision(sphere3)
        data = RelativeCircuitData.closed(sd.complex, 3)
        last_vertex = {v: max(sd.barycenter_of[v].vertices) for v in sd.complex.vertices}
        a = SimplicialMap.from_dict(sd.complex, sphere3, last_vertex)
        cert = psi(data, a, TargetPair.absolute(sphere3))
        assert cert.valid
        assert_carriers_are_limit_sets(cert)
        assert cert.sigma.dim == 1 == cert.k - 2
        assert cert.bound_main.limit_dimension <= 1
        assert cert.homology_coordinates.degree == 3
        assert cert.homology_coordinates.free in ((1,), (-1,))

    def test_boundary_commutation(self, disk_pair):
        target = TargetPair(disk_pair.L, disk_pair.K)
        cert = psi(disk_pair, SimplicialMap.identity(disk_pair.L), target)
        b = boundary_circuit(disk_pair)
        from circuitsmith import induced_boundary_orientation

        ob = induced_boundary_orientation(disk_pair, cert.orientation)
        cert_b = psi(
            b,
            SimplicialMap.identity(b.L).__class__.from_dict(
                b.L, disk_pair.K, {v: v for v in b.L.vertices}
            ),
            TargetPair.absolute(disk_pair.K),
            orientation=ob,
        )
        assert_carriers_are_limit_sets(cert)
        assert_carriers_are_limit_sets(cert_b)
        H_pair = homology(disk_pair.L, disk_pair.K)
        H_sub = homology(disk_pair.K)
        connecting = connecting_coordinates(H_pair, H_sub, cert.fundamental)
        assert connecting == cert_b.homology_coordinates


class TestBordismCertificates:
    def test_cylinder_projection_certificate(self, circle_circuit):
        cyl = cylinder(circle_circuit)
        proj_vm = {pid: uv[0] for pid, uv in cyl.product.vertex_pairs.items()}
        proj = SimplicialMap.from_dict(cyl.bordism.N, circle_circuit.L, proj_vm)
        cert = verify_bordism_certificate(
            cyl.bordism, proj, TargetPair.absolute(circle_circuit.L)
        )
        assert cert.valid
        assert_carriers_are_limit_sets(cert)
        assert cert.bound_main.limit_dimension <= cert.bound_main.max_allowed

    def test_solid_tetra_certificate(self, sphere_circuit, tetra_boundary):
        solid = build_complex([[0, 1, 2, 3]])
        R = BordismData(
            solid, tetra_boundary, tetra_boundary,
            SimplicialComplex.empty(), 2, SimplicialComplex.empty(),
        )
        cert = verify_bordism_certificate(
            R, SimplicialMap.identity(solid), TargetPair.absolute(solid)
        )
        assert cert.valid
        assert_carriers_are_limit_sets(cert)
        assert cert.bound_main.limit_dimension == 0 <= 1

    def test_corrupted_singular_set_rejected_before_sigma(self, sphere_circuit, tetra_boundary):
        solid = build_complex([[0, 1, 2, 3]])
        R = BordismData(
            solid, tetra_boundary, tetra_boundary,
            SimplicialComplex.empty(), 2, build_complex([[0]]),
        )
        # the bordism singular set touches the circuit at a point the circuit
        # does not declare singular
        verdict = verify_nullbordism(R, sphere_circuit)
        assert not verdict.valid
        assert Simplex((0,)) in verdict.witnesses()

        # a singular set of dimension 2 fails the bordism's own axioms, so the
        # pipeline stops before building the case-c singular set
        R2 = BordismData(
            solid, tetra_boundary, tetra_boundary,
            SimplicialComplex.empty(), 2, build_complex([[0, 1, 2]]),
        )
        with pytest.raises(PipelineError) as err:
            verify_bordism_certificate(R2, SimplicialMap.identity(solid), TargetPair.absolute(solid))
        assert err.value.stage == "verify-nullbordism"
        assert Simplex((0, 1, 2)) in err.value.witnesses


def _random_map(rng, L, m=4):
    """A random vertex map from L into the full m-simplex."""
    X = full_simplex(m)
    return SimplicialMap.from_dict(L, X, {v: rng.randint(0, m) for v in L.vertices})


class TestConstructionTheorems:
    """The dimension bounds and the vanishing of the smoothing obstructions
    are theorems of the construction, which the pipelines record without
    checking: the singular set has codimension two and holds no
    codimension-two simplex of the boundary, a simplicial map never raises
    dimension, and every CW bound is at most 3, where each group of sphere
    diffeomorphisms is trivial."""

    @staticmethod
    def circuits(rng):
        for n in (1, 2, 2, 3):
            for _ in range(3):
                facets = stellar_sphere(rng, n, moves=rng.randint(0, 3))
                sphere = build_complex(facets)
                yield RelativeCircuitData.closed(sphere, n)
                hole = facets.pop(rng.randrange(len(facets)))
                disk = build_complex(facets)
                rim = SimplicialComplex.from_simplices(Simplex(tuple(hole)).facets())
                yield RelativeCircuitData(disk, rim, n, SimplicialComplex.empty())

    @staticmethod
    def assert_theorems(cert, bounds, allowed):
        assert [b.max_allowed for b in bounds] == [max(-1, d) for d in allowed]
        assert all(b.ok for b in bounds)
        assert cert.obstruction.cw_dimension_bound <= 3
        assert cert.obstruction.all_vanish
        assert cert.valid

    def test_psi_certificates(self):
        rng = random.Random(20261018)
        count = 0
        for data in self.circuits(rng):
            a = _random_map(rng, data.L)
            image_of_K = SimplicialComplex.from_simplices(a.apply(s) for s in data.K.simplices)
            cert = psi(data, a, TargetPair(a.target, image_of_K))
            self.assert_theorems(
                cert, (cert.bound_main, cert.bound_boundary), (data.k - 2, data.k - 3)
            )
            count += 1
        assert count == 24

    def test_bordism_certificates(self):
        rng = random.Random(20261019)
        count = 0
        for data in self.circuits(rng):
            if data.k == 3:
                continue  # a 4-dimensional bordism has links recognition leaves Unknown
            for R in (cylinder(data).bordism, subdivision_bordism(data).bordism):
                a = _random_map(rng, R.N)
                cert = verify_bordism_certificate(R, a, TargetPair.absolute(a.target))
                self.assert_theorems(cert, (cert.bound_main, cert.bound_side), (R.k - 1, R.k - 2))
                count += 1
        assert count == 36


class TestCaseBComplementTheorem:
    """``psi`` records the case-b complement verdict without recognition.
    On a circuit that passes the axioms, L minus S is a PL k-manifold with
    boundary K minus S, and the case-b singular set contains S (S has
    dimension at most k - 2 and meets K in dimension at most k - 3), so its
    complement is an open part of that manifold with the predicted
    boundary."""

    @staticmethod
    def candidate(rng, L, K, forced=()):
        """A singular candidate: ``forced`` and a random set of the
        (k-2)-simplices of L outside K, closed under faces."""
        k = L.dim
        picked = [s for s in L.sorted_simplices if s.dim == k - 2 and s not in K and rng.random() < 0.3]
        return SimplicialComplex.from_simplices([*forced, *picked])

    @staticmethod
    def wedge(a, b, v):
        """The facets of a and of b, b relabelled so that the two share
        exactly vertex v of a, which b's vertex 0 becomes."""
        shift = 1 + max(u for t in a for u in t)
        return a + [sorted(v if u == 0 else u + shift for u in t) for t in b]

    @classmethod
    def circuits(cls, rng):
        for n in (1, 2, 2, 3):
            for _ in range(3):
                facets = stellar_sphere(rng, n, moves=rng.randint(0, 4))
                sphere = build_complex(facets)
                yield RelativeCircuitData.closed(sphere, n, cls.candidate(rng, sphere, SimplicialComplex.empty()))
                hole = facets.pop(rng.randrange(len(facets)))
                disk = build_complex(facets)
                rim = SimplicialComplex.from_simplices(Simplex(tuple(hole)).facets())
                yield RelativeCircuitData(disk, rim, n, cls.candidate(rng, disk, rim))
        for n in (2, 2, 2, 2, 3, 3, 3, 3):
            # spheres wedged at a vertex, which the candidate must hold
            a, b = (stellar_sphere(rng, n, moves=rng.randint(0, 3)) for _ in range(2))
            v = rng.choice(sorted({u for t in a for u in t}))
            L = build_complex(cls.wedge(a, b, v))
            yield RelativeCircuitData.closed(L, n, cls.candidate(rng, L, SimplicialComplex.empty(), [Simplex((v,))]))
        for wedged in (False, True) * 4:
            # 3-disks, alone or wedged at a boundary vertex that the
            # candidate holds: S meets K
            facets = stellar_sphere(rng, 3, moves=rng.randint(1, 4))
            v = rng.choice(facets.pop(rng.randrange(len(facets))))
            if wedged:
                other = stellar_sphere(rng, 3, moves=rng.randint(0, 2))
                other.remove(next(t for t in other if 0 in t))
                facets = cls.wedge(facets, other, v)
            L = build_complex(facets)
            ridges = Counter(f for t in L.simplices_of_dim(3) for f in t.facets())
            K = SimplicialComplex.from_simplices(f for f, c in ridges.items() if c == 1)
            yield RelativeCircuitData(L, K, 3, cls.candidate(rng, L, K, [Simplex((v,))]))

    def test_psi_records_what_the_complement_check_finds(self, monkeypatch, circle_circuit):
        checked = []
        plain = pipeline.verify_manifold_complement

        def counted(case, data, sigma):
            checked.append(case)
            return plain(case, data, sigma)

        monkeypatch.setattr(pipeline, "verify_manifold_complement", counted)
        rng = random.Random(20261020)
        count = 0
        for data in self.circuits(rng):
            assert verify_circuit(data).valid
            cert = psi(data, SimplicialMap.identity(data.L), TargetPair(data.L, data.K))
            assert checked == []
            assert cert.complement_verdict == plain("b", data, singular_set("b", data))
            count += 1
        assert count == 40
        R = cylinder(circle_circuit).bordism
        verify_bordism_certificate(R, SimplicialMap.identity(R.N), TargetPair.absolute(R.N))
        assert checked == ["c"]


class TestClassificationOnce:
    """A pipeline run classifies each simplex of each host once per k."""

    @pytest.fixture
    def classify_calls(self, monkeypatch):
        calls = []
        hosts = []  # held, so that no id is reused during the run
        plain = recognition.classify_point

        def counted(s, K, k):
            hosts.append(K)
            calls.append((id(K), s, k))
            return plain(s, K, k)

        monkeypatch.setattr(recognition, "classify_point", counted)
        return calls

    def test_psi(self, classify_calls, disk_pair):
        data, sd = subdivided_disk_pair()
        target = TargetPair(disk_pair.L, disk_pair.K)
        a = SimplicialMap.from_dict(data.L, disk_pair.L, last_vertex_map(sd, disk_pair.L))
        assert psi(data, a, target).valid
        # verify_circuit classifies all of L (the input singular set is
        # empty); the complement of sigma in L is then read from the memo.
        on_L = [c for c in classify_calls if c[0] == id(data.L)]
        assert len(on_L) == len(data.L)
        assert len(set(classify_calls)) == len(classify_calls)

    def test_check_bordism(self, classify_calls, circle_circuit):
        cyl = cylinder(circle_circuit)
        proj_vm = {pid: uv[0] for pid, uv in cyl.product.vertex_pairs.items()}
        proj = SimplicialMap.from_dict(cyl.bordism.N, circle_circuit.L, proj_vm)
        classify_calls.clear()
        cert = verify_bordism_certificate(
            cyl.bordism, proj, TargetPair.absolute(circle_circuit.L)
        )
        assert cert.valid
        assert len(set(classify_calls)) == len(classify_calls)


class TestAtScale:
    def test_fourfold_subdivided_sphere_onto_the_original(self):
        # sd^4 of the boundary of the 3-simplex has 15 554 simplices.  Each
        # barycenter goes where the largest vertex of its simplex goes, a
        # carrier map onto the original sphere, so the degree is +-1.
        base = simplex_boundary_complex(3)
        K, vm = base, {v: v for v in base.vertices}
        for _ in range(4):
            sd = barycentric_subdivision(K)
            vm = {v: vm[max(sd.barycenter_of[v].vertices)] for v in sd.complex.vertices}
            K = sd.complex
        assert len(K) == 15_554
        a = SimplicialMap.from_dict(K, base, vm)
        cert = psi(RelativeCircuitData.closed(K, 2), a, TargetPair.absolute(base))
        assert cert.valid
        assert cert.homology_coordinates.free in ((1,), (-1,))
        payload = json.loads(dumps(pseudocycle_certificate_to_json(cert)))
        ok, mismatches = reverify_certificate(payload)
        assert ok and not mismatches

    @pytest.mark.parametrize("n, m, size", [(3, 4, 15_554), (4, 2, 12_600)])
    def test_identity_of_a_subdivided_sphere(self, n, m, size):
        # The homology of the target is the cost here.  Dense coordinates
        # over the whole complex would need a 7 776 x 7 776 row transform on
        # sd^4 of the boundary of the 3-simplex, over the dense limit; the
        # reduced core has one cell in degree 0 and one in degree n - 1.
        K = simplex_boundary_complex(n)
        for _ in range(m):
            K = barycentric_subdivision(K).complex
        assert len(K) == size
        cert = psi(RelativeCircuitData.closed(K, n - 1), SimplicialMap.identity(K), TargetPair.absolute(K))
        assert cert.valid
        assert cert.homology_coordinates.free in ((1,), (-1,))
        ok, mismatches = reverify_certificate(json.loads(json.dumps(pseudocycle_certificate_to_json(cert))))
        assert ok and not mismatches


class TestBordismInvariance:
    def test_cylinder_connects_a_circuit_to_itself(self, circle_circuit):
        target = TargetPair.absolute(circle_circuit.L)
        cyl = cylinder(circle_circuit)
        proj_vm = {pid: uv[0] for pid, uv in cyl.product.vertex_pairs.items()}
        proj = SimplicialMap.from_dict(cyl.bordism.N, circle_circuit.L, proj_vm)
        bcert = verify_bordism_certificate(cyl.bordism, proj, target)

        def end_cert(end_complex, chart):
            data = RelativeCircuitData.closed(end_complex, 1)
            a = SimplicialMap.from_dict(
                end_complex, circle_circuit.L, {chart[v]: v for v in circle_circuit.L.vertices}
            )
            return data, psi(data, a, target)

        data0, cert0 = end_cert(cyl.bottom, cyl.bottom_vertex_map)
        data1, cert1 = end_cert(cyl.top, cyl.top_vertex_map)
        e0 = SimplicialMap.from_dict(
            data0.L, cyl.bordism.N, {v: v for v in data0.L.vertices}
        )
        e1 = SimplicialMap.from_dict(
            data1.L, cyl.bordism.N, {v: v for v in data1.L.vertices}
        )
        verdict = bordism_invariance_check(cert0, cert1, bcert, e0, e1)
        assert verdict.verdict
        assert cert0.homology_coordinates == cert1.homology_coordinates

    def test_subdivision_cylinder_connects_original_and_subdivided(self, circle_circuit):
        target = TargetPair.absolute(circle_circuit.L)
        sb = subdivision_bordism(circle_circuit)
        vm = {pv: v for v, pv in sb.bottom_vertex_map.items()}
        vm.update({pv: max(s.vertices) for pv, s in sb.top_carrier.items()})
        dmap = SimplicialMap.from_dict(sb.bordism.N, circle_circuit.L, vm)
        bcert = verify_bordism_certificate(sb.bordism, dmap, target)
        assert bcert.valid

        cert_b = psi(sb.bottom_circuit, dmap.restrict(sb.bottom_circuit.L), target)
        cert_t = psi(sb.top_circuit, dmap.restrict(sb.top_circuit.L), target)
        e_b = SimplicialMap.from_dict(
            sb.bottom_circuit.L, sb.bordism.N, {v: v for v in sb.bottom_circuit.L.vertices}
        )
        e_t = SimplicialMap.from_dict(
            sb.top_circuit.L, sb.bordism.N, {v: v for v in sb.top_circuit.L.vertices}
        )
        verdict = bordism_invariance_check(cert_b, cert_t, bcert, e_b, e_t)
        assert verdict.verdict
        assert cert_b.homology_coordinates == cert_t.homology_coordinates

    def test_different_degrees_have_no_bordism(self, hexagon, triangle_boundary, circle_circuit):
        target = TargetPair.absolute(triangle_boundary)
        hex_circuit = RelativeCircuitData.closed(hexagon, 1)
        degree_two = SimplicialMap.from_dict(
            hexagon, triangle_boundary, {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2}
        )
        cert2 = psi(hex_circuit, degree_two, target)
        cert1 = psi(circle_circuit, SimplicialMap.identity(triangle_boundary), target)
        assert cert1.homology_coordinates != cert2.homology_coordinates

        # any purported bordism fails the invariance check
        cyl = cylinder(circle_circuit)
        proj_vm = {pid: uv[0] for pid, uv in cyl.product.vertex_pairs.items()}
        proj = SimplicialMap.from_dict(cyl.bordism.N, triangle_boundary, proj_vm)
        bcert = verify_bordism_certificate(cyl.bordism, proj, target)
        e1 = SimplicialMap.from_dict(
            circle_circuit.L, cyl.bordism.N,
            {v: cyl.bottom_vertex_map[v] for v in circle_circuit.L.vertices},
        )
        e2_vm = {v: cyl.top_vertex_map[v % 3] for v in hexagon.vertices}
        verdict = bordism_invariance_check(
            cert1,
            cert2,
            bcert,
            e1,
            SimplicialMap.from_dict(hexagon, cyl.bordism.N, e2_vm),
        )
        assert not verdict.verdict
        assert not verdict.coordinates_equal


class TestCertificateSerialization:
    def test_byte_identical_across_runs(self, wedge_circuit):
        target = TargetPair.absolute(wedge_circuit.L)
        a = SimplicialMap.identity(wedge_circuit.L)
        one = dumps(pseudocycle_certificate_to_json(psi(wedge_circuit, a, target)))
        two = dumps(pseudocycle_certificate_to_json(psi(wedge_circuit, a, target)))
        assert one == two

    def test_reverify_pseudocycle_certificate(self, disk_pair):
        target = TargetPair(disk_pair.L, disk_pair.K)
        cert = psi(disk_pair, SimplicialMap.identity(disk_pair.L), target)
        payload = json.loads(dumps(pseudocycle_certificate_to_json(cert)))
        ok, mismatches = reverify_certificate(payload)
        assert ok and not mismatches

    def test_reverify_bordism_certificate(self, tetra_boundary):
        solid = build_complex([[0, 1, 2, 3]])
        R = BordismData(
            solid, tetra_boundary, tetra_boundary,
            SimplicialComplex.empty(), 2, SimplicialComplex.empty(),
        )
        cert = verify_bordism_certificate(
            R, SimplicialMap.identity(solid), TargetPair.absolute(solid)
        )
        payload = json.loads(dumps(bordism_certificate_to_json(cert)))
        ok, mismatches = reverify_certificate(payload)
        assert ok and not mismatches

    def test_tampered_certificate_detected(self, disk_pair):
        target = TargetPair(disk_pair.L, disk_pair.K)
        cert = psi(disk_pair, SimplicialMap.identity(disk_pair.L), target)
        payload = json.loads(dumps(pseudocycle_certificate_to_json(cert)))
        payload["homology_coordinates"]["free"] = [5]
        ok, mismatches = reverify_certificate(payload)
        assert not ok
        assert "homology_coordinates" in mismatches
