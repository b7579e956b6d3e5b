from __future__ import annotations

import importlib
import random
import tracemalloc
from collections import Counter

import pytest

from circuitsmith import (
    HomologyResult,
    IntChain,
    OrientationAssignment,
    RelativeCircuitData,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    boundary_circuit,
    build_complex,
    chain_boundary,
    evaluate,
    fundamental_class,
    homology,
    induced_boundary_orientation,
    orient_circuit,
    pushforward,
    verify_circuit,
)
from circuitsmith.errors import ContractError, OrientationError, ResourceLimitError
from circuitsmith.snf import smith_diagonal, smith_normal_form

from .conftest import simplex_boundary_complex
from .generators import (
    disjoint_union,
    random_complex,
    random_subcomplex,
    scale,
    stellar_disk,
    stellar_moves,
    stellar_sphere,
)
from .oracles import (
    connecting_coordinates,
    mat_mul,
    oracle_boundary_matrix,
    oracle_homology,
    oracle_inverse,
    oracle_orientation,
)


def kept_generators(H, k):
    """Free and torsion generators of degree k, built from the two transforms
    that H keeps for coordinates: Qinv of the outgoing boundary, whose
    inverse's columns from the rank on span the relative cycles, and P of
    the kernel coordinates, whose inverse's columns are the generators in
    that span.  Both transforms must be unimodular, and each generator must
    be a relative cycle."""
    data = H._degree(k)
    basis = H._bases[k]
    q, p2inv = oracle_inverse(data.qinv), oracle_inverse(data.p2)
    assert q is not None and p2inv is not None
    r, n = data.rank_boundary_out, len(basis)

    def chain(j):
        z = IntChain(k, {
            basis[i]: sum(q[i][r + t] * p2inv[t][j] for t in range(n - r))
            for i in range(n)
        })
        if k:
            assert chain_boundary(z).support <= H.A.simplices
        return z

    free = [chain(j) for j in range(len(data.diagonal), n - r)]
    torsion = [chain(i) for i, d in enumerate(data.diagonal) if d > 1]
    return free, torsion


class TestBoundaryOperator:
    def test_edge_column(self):
        K = build_complex([[0, 1]])
        mat = HomologyResult(K)._boundary_matrix(1)
        assert [row[0] for row in mat] == [-1, 1]

    def test_triangle_column(self, triangle):
        mat = HomologyResult(triangle)._boundary_matrix(2)
        # rows are the canonically sorted edges (0,1),(0,2),(1,2)
        assert [row[0] for row in mat] == [1, -1, 1]

    def test_boundary_squared_is_zero(self, tetra_boundary):
        H = HomologyResult(tetra_boundary)
        for k in range(1, tetra_boundary.dim + 1):
            dk = H._boundary_matrix(k)
            dk1 = H._boundary_matrix(k + 1)
            prod = mat_mul(dk, dk1)
            assert all(all(x == 0 for x in row) for row in prod)

    def test_matches_oracle_randomized(self):
        rng = random.Random(23)
        for _ in range(15):
            K = random_complex(rng, n_vertices=8, n_generators=6, max_dim=3)
            for k in range(0, K.dim + 2):
                assert HomologyResult(K)._boundary_matrix(k) == oracle_boundary_matrix(
                    K, k, frozenset()
                )

    def test_boundary_squared_is_zero_randomized(self):
        rng = random.Random(17)
        for _ in range(20):
            K = random_complex(rng, n_vertices=9, n_generators=7, max_dim=3)
            z = IntChain(
                K.dim,
                {s: rng.randint(-3, 3) for s in K.simplices_of_dim(K.dim)},
            )
            if z.degree >= 2:
                assert not chain_boundary(chain_boundary(z))


    def test_relative_boundaries_have_zero_coordinates(self):
        """Boundaries are cycles rel A with zero class: the kernel
        coordinates of the incoming boundary never form the rows above the
        outgoing rank, because they vanish."""
        rng = random.Random(19)
        for _ in range(15):
            K = random_complex(rng, n_vertices=8, n_generators=6, max_dim=3)
            A = random_subcomplex(rng, K)
            H = homology(K, A)
            for k in range(0, K.dim):
                for s in K.simplices_of_dim(k + 1):
                    if s in A.simplices:
                        continue
                    c = H.coordinates(chain_boundary(IntChain(k + 1, {s: 1})))
                    assert not any(c.free) and not any(c.torsion), (K, A, s)


class TestSmithTransforms:
    def test_transforms_are_unimodular_and_carry_matrix_to_diagonal(self):
        # P A Q = D with Q unimodular reads P A = D Qinv
        for mat, n in _seeded_matrices():
            m = len(mat)
            res = smith_normal_form(mat, cols=n)
            d = [
                [res.diagonal[i] if i == j and i < len(res.diagonal) else 0 for j in range(n)]
                for i in range(m)
            ]
            assert mat_mul(res.P, mat) == mat_mul(d, res.Qinv)
            assert oracle_inverse(res.P) is not None
            assert oracle_inverse(res.Qinv) is not None

    def test_divisibility_chain(self):
        rng = random.Random(9)
        for _ in range(15):
            mat = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            res = smith_normal_form(mat, cols=5)
            nonzero = [d for d in res.diagonal if d]
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0

    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(13)
        for _ in range(10):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
            mine = [d for d in smith_normal_form(mat, cols=n).diagonal if d]
            theirs = [int(abs(x)) for x in invariant_factors(sympy.Matrix(mat)) if x != 0]
            assert mine == theirs


def _seeded_matrices():
    """The seeded matrices the Smith-transform tests above draw."""
    rng = random.Random(5)
    for _ in range(15):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        yield [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)], n
    rng = random.Random(9)
    for _ in range(15):
        yield [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)], 5
    rng = random.Random(13)
    for _ in range(10):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        yield [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)], n


def _as_columns(mat, n):
    """The (row, entry) columns of a dense matrix with n columns."""
    return [[(i, row[j]) for i, row in enumerate(mat) if row[j]] for j in range(n)]


class TestSmithDiagonal:
    def test_matches_tracked_form_on_seeded_matrices(self):
        for mat, n in _seeded_matrices():
            res = smith_normal_form(mat, cols=n)
            assert smith_diagonal(_as_columns(mat, n), len(mat)) == (res.diagonal, res.rank)

    def test_matches_tracked_form_on_boundary_matrices(self):
        rng = random.Random(17)
        for _ in range(20):
            K = random_complex(rng, n_vertices=8, max_dim=3)
            for A in (None, random_subcomplex(rng, K)):
                H = HomologyResult(K, A)
                for k in range(1, K.dim + 1):
                    d = H._boundary_matrix(k)
                    res = smith_normal_form(d, cols=len(H._bases[k]))
                    assert smith_diagonal(H._columns(k), len(d)) == (res.diagonal, res.rank)

    def test_empty_shapes(self):
        assert smith_diagonal([], 3) == ([], 0)
        assert smith_diagonal([[], []], 0) == ([], 0)

    def test_input_is_not_modified(self):
        for columns in ([[(0, 2), (1, 6)], [(0, 4), (1, 9)]], [[(0, 1), (1, 1)], [(0, 1), (1, -1)]]):
            copy = [list(column) for column in columns]
            smith_diagonal(columns, 2)
            assert columns == copy


class TestTrackedEliminationOnDemand:
    @pytest.fixture
    def eliminations(self, monkeypatch):
        """Column counts of each tracked and each sparse elimination, and
        the row count of each transform that a tracked elimination returns."""
        # the package's ``homology`` attribute is the function, not the module
        homology_module = importlib.import_module("circuitsmith.homology")
        calls = {"tracked": [], "diagonal": [], "transforms": []}

        def counting_tracked(matrix, cols=None):
            calls["tracked"].append(cols)
            res = smith_normal_form(matrix, cols)
            calls["transforms"].append(
                {name: len(v) for name, v in vars(res).items() if name not in ("diagonal", "rank")}
            )
            return res

        def counting_diagonal(columns, rows, check=None):
            calls["diagonal"].append(len(columns))
            return smith_diagonal(columns, rows, check)

        monkeypatch.setattr(homology_module, "smith_normal_form", counting_tracked)
        monkeypatch.setattr(homology_module, "smith_diagonal", counting_diagonal)
        return calls

    @pytest.fixture
    def tracked_calls(self, eliminations):
        return eliminations["tracked"]

    def test_construction_eliminates_nothing(self, eliminations, projective_plane):
        homology(projective_plane)
        assert eliminations == {"tracked": [], "diagonal": [], "transforms": []}

    def test_betti_eliminates_only_adjacent_boundaries(self, eliminations, projective_plane):
        H = homology(projective_plane)
        n0, n1, n2 = (len(projective_plane.simplices_of_dim(d)) for d in range(3))
        assert H.betti(1) == 0
        # the boundary out of degree 1 (n1 columns), then the one into it
        assert eliminations["diagonal"] == [n1, n2]
        H.betti(1)
        H.torsion(1)
        H.betti(2)
        assert eliminations["diagonal"] == [n1, n2, 0]
        assert H.betti_numbers() == (1, 0, 0)
        assert eliminations["diagonal"] == [n1, n2, 0, n0]
        assert eliminations["tracked"] == []

    def test_coordinates_and_evaluate_skip_betti_numbers(self, eliminations, sphere_circuit):
        H = homology(sphere_circuit.L)
        H.coordinates(IntChain(1, {}))
        identity = SimplicialMap.identity(sphere_circuit.L)
        z = fundamental_class(sphere_circuit, orient_circuit(sphere_circuit))
        assert evaluate(identity, z).free in ((1,), (-1,))
        assert eliminations["diagonal"] == []
        assert eliminations["tracked"]

    def test_betti_and_torsion_track_nothing(self, tracked_calls, projective_plane):
        H = homology(projective_plane)
        assert H.betti_numbers() == (1, 0, 0)
        assert H.torsion(1) == (2,)
        assert all(H.torsion(k) == () for k in (0, 2))
        assert tracked_calls == []

    def test_betti_and_torsion_build_no_dense_boundary(self, monkeypatch, projective_plane, triangle,
                                                      triangle_boundary):
        def refuse(self, k):
            raise AssertionError(f"dense boundary matrix of degree {k} built")

        monkeypatch.setattr(HomologyResult, "_boundary_matrix", refuse)
        H = homology(projective_plane)
        assert H.betti_numbers() == (1, 0, 0)
        assert [H.torsion(k) for k in range(3)] == [(), (2,), ()]
        assert homology(triangle, triangle_boundary).betti_numbers() == (0, 0, 1)

    def test_coordinates_build_only_their_degree(self, eliminations, tetra_boundary):
        H = homology(tetra_boundary)
        H.betti_numbers()
        z = IntChain(1, {})
        H.coordinates(z)
        # the outgoing boundary of degree 1 (6 edges), then the kernel
        # coordinates of the incoming boundary (4 triangles)
        assert eliminations["tracked"] == [6, 4]
        # each returns P and Qinv only: P of the 4 x 6 boundary, then P of
        # the 3 x 4 kernel coordinates (the 6 - 3 cycle coordinates)
        assert eliminations["transforms"] == [{"P": 4, "Qinv": 6}, {"P": 3, "Qinv": 4}]
        H.coordinates(z)
        assert eliminations["tracked"] == [6, 4]
        H.coordinates(IntChain(2, {}))
        assert eliminations["tracked"] == [6, 4, 4, 0]


class TestDenseCellGuard:
    def test_boundary_over_the_dense_limit_is_eliminated_sparsely(self):
        n = 7100  # a cycle graph: a dense boundary of degree 1 would have 7100 x 7100 cells
        H = homology(build_complex([[i, (i + 1) % n] for i in range(n)]))
        tracemalloc.start()
        try:
            assert H.betti_numbers() == (1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense matrix would take over 4 * 10**8 bytes
        assert peak < 2 * 10**7

    def test_boundary_remainder_is_guarded(self, monkeypatch, projective_plane):
        # Unit pivots reduce the boundary of degree 1 to nothing and the
        # boundary of degree 2 to one column, the factor 2, on three rows.
        monkeypatch.setattr(importlib.import_module("circuitsmith.homology"), "MAX_DENSE_CELLS", 2)
        H = homology(projective_plane)
        with pytest.raises(ResourceLimitError, match="boundary remainder of degree 2 has shape 3 x 1"):
            H.betti_numbers()
        assert H.betti(0) == 1

    def test_transforms_are_guarded(self, monkeypatch):
        # Degree 0 of a 100-vertex cycle has an empty boundary out, but its
        # coordinates need a 100 x 100 column transform.
        monkeypatch.setattr(importlib.import_module("circuitsmith.homology"), "MAX_DENSE_CELLS", 1000)
        H = homology(build_complex([[i, (i + 1) % 100] for i in range(100)]))
        with pytest.raises(ResourceLimitError, match="column transform of degree 0 has shape 100 x 100"):
            H.coordinates(IntChain(0, {Simplex((0,)): 1}))

    def test_kernel_coordinates_are_guarded(self, monkeypatch):
        # Degree 0 of the complete graph on 12 vertices: the 12 x 12 column
        # transform passes a 500-cell limit, the 12 x 66 kernel-coordinate
        # matrix does not.
        monkeypatch.setattr(importlib.import_module("circuitsmith.homology"), "MAX_DENSE_CELLS", 500)
        H = homology(build_complex([[i, j] for i in range(12) for j in range(i + 1, 12)]))
        with pytest.raises(ResourceLimitError, match="kernel-coordinate matrix of degree 0 has shape 12 x 66"):
            H.coordinates(IntChain(0, {Simplex((0,)): 1}))


def _subdivide(K, m):
    for _ in range(m):
        K = barycentric_subdivision(K).complex
    return K


class TestHomology:
    def test_set_that_is_not_face_closed_raises(self):
        # An edge without its vertices: the raw constructor takes the set as
        # given, and the boundary columns meet the missing faces.
        edge = SimplicialComplex(frozenset({Simplex((0, 1))}))
        with pytest.raises(ContractError, match=r"Simplex\(0, 1\) has the face \[1\], which is not in the complex"):
            homology(edge).betti_numbers()

    def test_sphere(self, tetra_boundary):
        H = homology(tetra_boundary)
        assert H.betti_numbers() == (1, 0, 1)
        assert all(not H.torsion(k) for k in range(3))

    def test_disk_pair(self, triangle, triangle_boundary):
        H = homology(triangle, triangle_boundary)
        assert H.betti_numbers() == (0, 0, 1)

    def test_wedge(self, wedge_spheres):
        H = homology(wedge_spheres)
        assert H.betti_numbers() == (1, 0, 2)

    def test_projective_plane_torsion(self, projective_plane):
        H = homology(projective_plane)
        assert H.betti_numbers() == (1, 0, 0)
        assert H.torsion(1) == (2,)

    def test_torus_from_circle_product(self, triangle_boundary):
        from circuitsmith import product_complex

        pr = product_complex(triangle_boundary, build_complex([[5, 6], [6, 7], [5, 7]]))
        H = homology(pr.complex)
        assert H.betti_numbers() == (1, 2, 1)
        assert not H.torsion(1)

    def test_klein_bottle_from_reversed_gluing(self, klein_bottle):
        klein = RelativeCircuitData.closed(klein_bottle, 2)
        assert verify_circuit(klein).valid
        H = homology(klein.L)
        assert H.betti_numbers() == (1, 1, 0)
        assert H.torsion(1) == (2,)
        o = orient_circuit(klein)
        assert not o.orientable
        assert o.witness_cycle

    def test_subdivided_spheres_beyond_the_dense_oracle(self, tetra_boundary, four_simplex_boundary):
        assert homology(_subdivide(tetra_boundary, 4)).betti_numbers() == (1, 0, 1)
        assert homology(_subdivide(four_simplex_boundary, 2)).betti_numbers() == (1, 0, 0, 1)

    def test_subdivided_projective_plane_beyond_the_dense_oracle(self, projective_plane):
        K = _subdivide(projective_plane, 3)
        assert len(K) == 6481
        H = homology(K)
        assert H.betti_numbers() == (1, 0, 0)
        assert [H.torsion(k) for k in range(3)] == [(), (2,), ()]

    def test_subdivided_disk_relative_to_its_boundary(self, triangle, triangle_boundary):
        K, A = triangle, triangle_boundary
        for _ in range(3):
            sd = barycentric_subdivision(K)
            K, A = sd.complex, SimplicialComplex(frozenset(
                s for s in sd.complex.simplices
                if all(sd.barycenter_of[v] in A.simplices for v in s.vertices)
            ))
        H = homology(K, A)
        assert H.betti_numbers() == (0, 0, 1)
        assert all(H.torsion(k) == () for k in range(3))

    def test_agrees_with_dense_oracle_randomized(self):
        rng = random.Random(41)
        for _ in range(30):
            K = random_complex(rng, n_vertices=9, n_generators=7, max_dim=3)
            H = homology(K)
            betti, torsion = oracle_homology(K)
            assert list(H.betti_numbers()) == betti
            for k in range(0, max(K.dim, 0) + 1):
                assert sorted(H.torsion(k)) == torsion.get(k, [])

    def test_relative_agrees_with_oracle_randomized(self):
        rng = random.Random(43)
        for _ in range(15):
            K = random_complex(rng, n_vertices=8, n_generators=6, max_dim=3)
            A = random_subcomplex(rng, K)
            H = homology(K, A)
            betti, torsion = oracle_homology(K, A)
            assert list(H.betti_numbers()) == betti
            for k in range(0, max(K.dim, 0) + 1):
                assert sorted(H.torsion(k)) == torsion.get(k, [])

    def test_generator_coordinates_roundtrip(self, tetra_boundary):
        H = homology(tetra_boundary)
        gens, _ = kept_generators(H, 2)
        assert len(gens) == 1
        coords = H.coordinates(gens[0])
        assert coords.free == (1,)

    def test_non_cycle_rejected(self, triangle):
        H = homology(triangle)
        chain = IntChain(1, {Simplex((0, 1)): 1})
        with pytest.raises(ContractError):
            H.coordinates(chain)

    def test_relative_subcomplex_must_be_contained(self, triangle):
        from circuitsmith.errors import StructureError

        with pytest.raises(StructureError):
            homology(triangle, build_complex([[7, 8]]))

    def test_coordinates_are_a_homomorphism(self):
        # a random combination of generators plus a random boundary must
        # come back with exactly the chosen coefficients
        rng = random.Random(59)
        checked = 0
        for _ in range(40):
            K = random_complex(rng, n_vertices=8, n_generators=6, max_dim=3)
            H = homology(K)
            for k in range(0, K.dim + 1):
                free, tors = kept_generators(H, k)
                if not free and not tors:
                    continue
                coeffs = [rng.randint(-4, 4) for _ in free]
                tcoeffs = [rng.randint(-4, 4) for _ in tors]
                z = IntChain.zero(k)
                for c, g in zip(coeffs, free):
                    z = z + scale(g, c)
                for c, g in zip(tcoeffs, tors):
                    z = z + scale(g, c)
                above = K.simplices_of_dim(k + 1)
                if above:
                    noise = IntChain(
                        k + 1, {s: rng.randint(-2, 2) for s in above}
                    )
                    z = z + chain_boundary(noise)
                coords = H.coordinates(z)
                assert coords.free == tuple(coeffs)
                orders = coords.torsion_orders
                assert coords.torsion == tuple(
                    c % d for c, d in zip(tcoeffs, orders)
                )
                checked += 1
        assert checked >= 30

    def test_torsion_coordinates_on_projective_plane(self, projective_plane):
        H = homology(projective_plane)
        _, tors = kept_generators(H, 1)
        assert len(tors) == 1
        g = tors[0]
        assert H.coordinates(g).torsion == (1,)
        assert H.coordinates(scale(g, 2)).torsion == (0,)
        assert H.coordinates(scale(g, 3)).torsion == (1,)
        assert H.coordinates(scale(g, -1)).torsion == (1,)

    def test_euler_characteristic_bookkeeping(self):
        rng = random.Random(47)
        for _ in range(10):
            K = random_complex(rng, n_vertices=8, n_generators=6, max_dim=3)
            A = random_subcomplex(rng, K)
            HK, HA, HKA = homology(K), homology(A), homology(K, A)
            def chi(H, top):
                return sum((-1) ** k * H.betti(k) for k in range(0, top + 1))
            top = max(K.dim, 0)
            assert chi(HK, top) == chi(HA, top) + chi(HKA, top)


class TestOrientation:
    def test_sphere_orients_with_cancelling_boundary(self, sphere_circuit):
        o = orient_circuit(sphere_circuit)
        assert o.orientable
        z = fundamental_class(sphere_circuit, o)
        assert not chain_boundary(z)
        assert len(z.coefficients) == 4

    def test_projective_plane_not_orientable(self, projective_plane):
        data = RelativeCircuitData.closed(projective_plane, 2)
        o = orient_circuit(data)
        assert not o.orientable
        assert len(o.witness_cycle) >= 3
        with pytest.raises(OrientationError):
            fundamental_class(data, o)

    def test_disjoint_union_components_oriented_independently(self, sphere_circuit):
        union = disjoint_union(sphere_circuit, sphere_circuit).data
        o = orient_circuit(union)
        assert o.orientable
        assert len(o.signs) == 8


def _facets(K):
    return [list(t.vertices) for t in K.maximal_simplices]


def _relabelled(rng, facets):
    """The facets under a random injective relabelling into a wider range,
    so the vertex order, and with it every incidence sign, changes; and the
    relabelling."""
    verts = sorted({v for t in facets for v in t})
    new = dict(zip(verts, rng.sample(range(3 * len(verts)), len(verts))))
    return [sorted(new[v] for v in t) for t in facets], new


def _boundary(facets):
    """The ridges that lie in exactly one facet, closed under faces."""
    count = Counter(tuple(t[:i] + t[i + 1 :]) for t in facets for i in range(len(t)))
    ridges = [list(r) for r, c in count.items() if c == 1]
    return build_complex(ridges) if ridges else SimplicialComplex.empty()


def _orientation_instances(family, rng, projective_plane, klein_bottle):
    """Twenty seeded circuits of one family."""
    surfaces = [_facets(projective_plane), _facets(klein_bottle)]
    out = []
    for _ in range(20):
        if family == "stellar-sphere":
            n = rng.randint(1, 3)
            facets, _ = _relabelled(rng, stellar_sphere(rng, n, rng.randint(0, 8)))
            out.append(RelativeCircuitData.closed(build_complex(facets), n))
        elif family == "stellar-disk":
            n = rng.randint(1, 3)
            facets, _ = _relabelled(rng, stellar_disk(rng, n, rng.randint(0, 8)))
            out.append(RelativeCircuitData(build_complex(facets), _boundary(facets), n, SimplicialComplex.empty()))
        elif family in ("projective-plane", "klein-bottle"):
            base = surfaces[family == "klein-bottle"]
            facets, _ = _relabelled(rng, stellar_moves(rng, base, rng.randint(0, 6)))
            out.append(RelativeCircuitData.closed(build_complex(facets), 2))
        elif family == "wedge":
            # Two closed surfaces, each subdivided, the second relabelled past
            # the first except its vertex 0, which becomes the first's apex.
            pieces = [stellar_sphere(rng, 2, 0)] + surfaces
            left = stellar_moves(rng, rng.choice(pieces), rng.randint(0, 4))
            right = stellar_moves(rng, rng.choice(pieces), rng.randint(0, 4))
            apex, shift = left[0][0], 1 + max(v for t in left for v in t)
            right = [sorted(apex if v == 0 else v + shift for v in t) for t in right]
            facets, new = _relabelled(rng, left + right)
            singular = build_complex([[new[apex]]])
            out.append(RelativeCircuitData.closed(build_complex(facets), 2, singular))
        else:
            # A closed circuit with a singular candidate that holds ridges, so
            # propagation has to stop at some facets.
            n = rng.randint(2, 3)
            base = rng.choice([stellar_sphere(rng, n, 0)] + (surfaces if n == 2 else []))
            facets, _ = _relabelled(rng, stellar_moves(rng, base, rng.randint(0, 6)))
            L = build_complex(facets)
            ridges = [s for s in L.simplices_of_dim(n - 1) if rng.random() < 0.3] or [L.simplices_of_dim(n - 1)[0]]
            out.append(RelativeCircuitData.closed(L, n, SimplicialComplex.from_simplices(ridges)))
    return out


class TestOrientationOracle:
    @pytest.mark.parametrize(
        "family",
        ["stellar-sphere", "stellar-disk", "projective-plane", "klein-bottle", "wedge", "singular-candidate"],
    )
    def test_matches_facet_map_propagation(self, family, projective_plane, klein_bottle):
        instances = _orientation_instances(family, random.Random(family), projective_plane, klein_bottle)
        verdicts = set()
        for Q in instances:
            got, want = orient_circuit(Q), oracle_orientation(Q)
            assert got.orientable == want.orientable
            assert list(got.signs.items()) == list(want.signs.items())
            assert got.witness_cycle == want.witness_cycle
            verdicts.add(got.orientable)
        assert len(instances) == 20
        expected = {"projective-plane": {False}, "klein-bottle": {False}, "wedge": {True, False},
                    "singular-candidate": {True, False}}
        assert verdicts == expected.get(family, {True})


class TestFundamentalClass:
    def test_sphere_generates_top_homology(self, sphere_circuit):
        H = homology(sphere_circuit.L)
        z = fundamental_class(sphere_circuit, orient_circuit(sphere_circuit))
        assert H.coordinates(z).free in ((1,), (-1,))

    def test_disk_pair_generates_relative_homology(self, disk_pair):
        H = homology(disk_pair.L, disk_pair.K)
        o = orient_circuit(disk_pair)
        z = fundamental_class(disk_pair, o)
        assert H.coordinates(z).free in ((1,), (-1,))

    def test_boundary_of_class_is_class_of_boundary(self, disk_pair):
        o = orient_circuit(disk_pair)
        z = fundamental_class(disk_pair, o)
        b = boundary_circuit(disk_pair)
        ob = induced_boundary_orientation(disk_pair, o)
        zb = fundamental_class(b, ob)
        assert chain_boundary(z) == zb

    def test_boundary_relation_on_solid_tetra(self):
        solid = build_complex([[0, 1, 2, 3]])
        data = RelativeCircuitData(
            solid, simplex_boundary_complex(3), 3, SimplicialComplex.empty()
        )
        o = orient_circuit(data)
        z = fundamental_class(data, o)
        zb = fundamental_class(boundary_circuit(data), induced_boundary_orientation(data, o))
        assert chain_boundary(z) == zb

    def test_induced_matches_propagated_up_to_component_sign(self, disk_pair):
        o = orient_circuit(disk_pair)
        induced = induced_boundary_orientation(disk_pair, o)
        propagated = orient_circuit(boundary_circuit(disk_pair))
        ratio = {
            s: induced.signs[s] * propagated.signs[s] for s in induced.signs
        }
        assert set(ratio.values()) <= {1, -1}
        # single component: the ratio is constant
        assert len(set(ratio.values())) == 1

    def test_induced_non_unit_coefficient_is_an_orientation_error(self):
        # both triangles induce +1 on the shared edge, which K lists, so the
        # fundamental chain is a relative cycle whose boundary is 2 there
        L = build_complex([[0, 1, 2], [0, 1, 3]])
        K = build_complex([[0, 1], [1, 2], [0, 2], [1, 3], [0, 3]])
        data = RelativeCircuitData(L, K, 2, SimplicialComplex.empty())
        signs = {Simplex((0, 1, 2)): 1, Simplex((0, 1, 3)): 1}
        o = OrientationAssignment(signs, True)
        assert fundamental_class(data, o)
        with pytest.raises(OrientationError) as err:
            induced_boundary_orientation(data, o)
        assert err.value.witness == (Simplex((0, 1)),)

    def test_wedge_class_has_unit_coordinates(self, wedge_circuit):
        H = homology(wedge_circuit.L)
        z = fundamental_class(wedge_circuit, orient_circuit(wedge_circuit))
        coords = H.coordinates(z)
        assert sorted(abs(c) for c in coords.free) == [1, 1]


class TestEvaluate:
    def test_identity_on_sphere_is_generator(self, sphere_circuit):
        z = fundamental_class(sphere_circuit, orient_circuit(sphere_circuit))
        coords = evaluate(SimplicialMap.identity(sphere_circuit.L), z)
        assert coords.free in ((1,), (-1,))

    def test_constant_map_kills_the_class(self, sphere_circuit):
        pt = build_complex([[9]])
        const = SimplicialMap.from_dict(
            sphere_circuit.L, pt, {v: 9 for v in sphere_circuit.L.vertices}
        )
        z = fundamental_class(sphere_circuit, orient_circuit(sphere_circuit))
        coords = evaluate(const, z)
        assert coords.free == () and coords.torsion == ()

    def test_degree_two_wrap(self, hexagon, triangle_boundary):
        data = RelativeCircuitData.closed(hexagon, 1)
        z = fundamental_class(data, orient_circuit(data))
        wrap = SimplicialMap.from_dict(
            hexagon, triangle_boundary, {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2}
        )
        coords = evaluate(wrap, z)
        assert coords.free in ((2,), (-2,))

    def test_pair_condition_enforced(self, disk_pair):
        z = fundamental_class(disk_pair, orient_circuit(disk_pair))
        target = disk_pair.L
        bad_A = build_complex([[0]])
        with pytest.raises(Exception):
            evaluate(SimplicialMap.identity(target), z, bad_A, disk_pair.K)

    def test_naturality_on_composable_pairs(self, hexagon, triangle_boundary):
        data = RelativeCircuitData.closed(hexagon, 1)
        z = fundamental_class(data, orient_circuit(data))
        rotations = [
            {0: 0, 1: 1, 2: 2},
            {0: 1, 1: 2, 2: 0},
            {0: 2, 1: 0, 2: 1},
            {0: 0, 1: 2, 2: 1},
        ]
        wraps = [
            {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2},
            {0: 0, 1: 2, 2: 1, 3: 0, 4: 2, 5: 1},
            {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1},
        ]
        checked = 0
        for wm in wraps:
            a = SimplicialMap.from_dict(hexagon, triangle_boundary, wm)
            for rot in rotations:
                g = SimplicialMap.from_dict(triangle_boundary, triangle_boundary, rot)
                composite = a.compose(g)
                assert pushforward(g, pushforward(a, z)) == pushforward(composite, z)
                H = homology(triangle_boundary)
                assert H.coordinates(pushforward(composite, z)) == H.coordinates(
                    pushforward(g, pushforward(a, z))
                )
                checked += 1
        assert checked >= 10

    def test_connecting_map_on_disk_pair(self, disk_pair):
        H_pair = homology(disk_pair.L, disk_pair.K)
        H_sub = homology(disk_pair.K)
        z = fundamental_class(disk_pair, orient_circuit(disk_pair))
        image = connecting_coordinates(H_pair, H_sub, z)
        assert image.degree == 1
        assert image.free in ((1,), (-1,))
