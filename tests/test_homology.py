from __future__ import annotations

import copy
import importlib
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

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
from circuitsmith.snf import _eliminate, smith_normal_form

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
    oracle_coordinates,
    oracle_generators,
    oracle_homology,
    oracle_inverse,
    oracle_orientation,
)


def kept_generators(H, k):
    """Free and torsion generators of degree k, built from the two transforms
    that H keeps for coordinates on its core: Qinv of the core's outgoing
    boundary, whose inverse's columns from the rank on span the core
    cycles, and P of the kernel coordinates, whose inverse's columns are the
    generators in that span.  Both transforms must be unimodular.  Each core
    generator is lifted to a relative cycle of the whole complex."""
    data = H._degree(k)
    cells = H._reduction().cells[k]
    q, p2inv = oracle_inverse(data.qinv), oracle_inverse(data.p2)
    assert q is not None and p2inv is not None
    r, n = data.rank_boundary_out, len(cells)

    def chain(j):
        core_chain = {cells[i]: sum(q[i][r + t] * p2inv[t][j] for t in range(n - r)) for i in range(n)}
        return lift(H, k, core_chain)

    free = [chain(j) for j in range(len(data.diagonal), n - r)]
    torsion = [chain(i) for i, d in enumerate(data.diagonal) if d > 1]
    return free, torsion


def lift(H, k, core_chain):
    """The image of a core cycle, given as basis index -> coefficient, under
    the reduction's inclusion map: the relative cycle that agrees with it on
    the core, is zero on the rows of the pairs logged under degree k, and is
    otherwise carried by the cells paired downward.  Those cells have
    independent boundaries, so the combination is unique; it is solved for
    over the rationals and must be integral."""
    R = H._reduction()
    columns = H._columns(k)
    skip = set(R.cells[k]) | {r for r, _, _ in R.log[k]}
    down = [i for i in range(len(columns)) if i not in skip]
    rows = len(H._bases.get(k - 1, ()))
    # The augmented system: the boundaries of the downward cells against
    # minus the boundary of the core chain.
    aug = [[Fraction(0)] * (len(down) + 1) for _ in range(rows)]
    for j, i in enumerate(down):
        for r, sign in columns[i]:
            aug[r][j] = Fraction(sign)
    for i, c in core_chain.items():
        for r, sign in columns[i]:
            aug[r][-1] -= sign * c
    coefficients = dict(core_chain)
    top = 0
    for j, i in enumerate(down):
        pivot = next(t for t in range(top, rows) if aug[t][j])  # independent boundaries
        aug[top], aug[pivot] = aug[pivot], aug[top]
        aug[top] = [x / aug[top][j] for x in aug[top]]
        for t in range(rows):
            if t != top and aug[t][j]:
                f = aug[t][j]
                aug[t] = [x - f * y for x, y in zip(aug[t], aug[top])]
        top += 1
    assert not any(row[-1] for row in aug[top:]), "the core chain does not lift to a cycle"
    for j, i in enumerate(down):
        assert aug[j][-1].denominator == 1
        coefficients[i] = int(aug[j][-1])
    z = IntChain(k, {H._bases[k][i]: c for i, c in coefficients.items()})
    assert chain_boundary(z).support <= H.A.simplices
    return z


def boundary_from_columns(H, k):
    """The dense relative boundary from degree k to k-1, built from H's
    sparse columns."""
    mat = [[0] * len(H._bases.get(k, ())) for _ in H._bases.get(k - 1, ())]
    for j, column in enumerate(H._columns(k)):
        for r, sign in column:
            mat[r][j] = sign
    return mat


class TestBoundaryOperator:
    def test_edge_column(self):
        K = build_complex([[0, 1]])
        mat = boundary_from_columns(HomologyResult(K), 1)
        assert [row[0] for row in mat] == [-1, 1]

    def test_triangle_column(self, triangle):
        mat = boundary_from_columns(HomologyResult(triangle), 2)
        # rows are the canonically sorted edges (0,1),(0,2),(1,2)
        assert [row[0] for row in mat] == [1, -1, 1]

    def test_boundary_squared_is_zero(self, tetra_boundary):
        H = HomologyResult(tetra_boundary)
        for k in range(1, tetra_boundary.dim + 1):
            dk = boundary_from_columns(H, k)
            dk1 = boundary_from_columns(H, k + 1)
            prod = mat_mul(dk, dk1)
            assert all(all(x == 0 for x in row) for row in prod)

    def test_matches_oracle_randomized(self):
        rng = random.Random(23)
        for _ in range(15):
            K = random_complex(rng, n_vertices=8, n_generators=6, max_dim=3)
            for k in range(0, K.dim + 2):
                assert boundary_from_columns(HomologyResult(K), k) == oracle_boundary_matrix(
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


class TestSmithDiagonal:
    """Betti numbers and torsion read the untracked elimination of the core
    left by the unit reductions."""

    def test_matches_tracked_form_on_seeded_matrices(self):
        for mat, n in _seeded_matrices():
            m = len(mat)
            untracked = _eliminate([row[:] for row in mat], m, n, None, None)
            assert untracked == smith_normal_form(mat, cols=n).diagonal

    def test_matches_tracked_form_on_boundary_matrices(self):
        # Each pair logged under degree k-1 splits off a factor 1 of the
        # boundary from degree k; the core's diagonal holds the rest.
        rng = random.Random(17)
        for _ in range(20):
            K = random_complex(rng, n_vertices=8, max_dim=3)
            for A in (None, random_subcomplex(rng, K)):
                H = HomologyResult(K, A)
                excluded = H.A.simplices
                for k in range(1, K.dim + 1):
                    d = oracle_boundary_matrix(K, k, excluded)
                    res = smith_normal_form(d, cols=len(H._bases[k]))
                    units = [1] * len(H._reduction().log[k - 1])
                    assert units + H._diagonal(k) == [x for x in res.diagonal if x]

    def test_empty_shapes(self, tetra_boundary):
        assert _eliminate([], 0, 3, None, None) == []
        assert _eliminate([[], []], 2, 0, None, None) == []
        # the core of a sphere has no cell of degree 1
        H = homology(tetra_boundary)
        assert [H._core_boundary(k)[1:] for k in range(4)] == [(0, 1), (0, 0), (0, 1), (0, 0)]
        assert homology(SimplicialComplex.empty()).betti_numbers() == (0,)

    def test_input_is_not_modified(self, projective_plane):
        # coordinates replay the log on a copy of the chain: neither the
        # chain nor the log changes, so a second query reads the same log
        H = homology(projective_plane)
        _, (g,) = kept_generators(H, 1)
        chain = IntChain(1, dict(g.coefficients))
        log = copy.deepcopy(H._reduction().log)
        assert H.coordinates(g).torsion == (1,)
        assert H.betti_numbers() == (1, 0, 0)
        assert g == chain and H._reduction().log == log
        assert H.coordinates(g).torsion == (1,)


class TestTrackedEliminationOnDemand:
    @pytest.fixture
    def eliminations(self, monkeypatch):
        """Column counts of each tracked elimination, the shape of each
        untracked one, the row count of each transform that a tracked
        elimination keeps, and the number of reductions run."""
        # the package's ``homology`` attribute is the function, not the module
        homology_module = importlib.import_module("circuitsmith.homology")
        calls = {"tracked": [], "untracked": [], "transforms": [], "reductions": 0}

        def counting_tracked(matrix, cols=None):
            calls["tracked"].append(cols)
            res = smith_normal_form(matrix, cols)
            calls["transforms"].append(
                {name: len(v) for name, v in vars(res).items() if name not in ("diagonal", "rank")}
            )
            return res

        def counting_eliminate(a, m, n, p, qinv):
            if p is None and qinv is None:
                calls["untracked"].append((m, n))
            else:
                calls["tracked"].append(n)
                calls["transforms"].append(
                    {name: len(t) for name, t in (("P", p), ("Qinv", qinv)) if t is not None}
                )
            return _eliminate(a, m, n, p, qinv)

        reduction = HomologyResult._reduction

        def counting_reduction(self):
            calls["reductions"] += self._reduced is None
            return reduction(self)

        monkeypatch.setattr(homology_module, "smith_normal_form", counting_tracked)
        monkeypatch.setattr(homology_module, "_eliminate", counting_eliminate)
        monkeypatch.setattr(HomologyResult, "_reduction", counting_reduction)
        return calls

    @pytest.fixture
    def tracked_calls(self, eliminations):
        return eliminations["tracked"]

    def test_construction_eliminates_nothing(self, eliminations, projective_plane):
        homology(projective_plane)
        assert eliminations == {"tracked": [], "untracked": [], "transforms": [], "reductions": 0}

    def test_betti_eliminates_only_adjacent_boundaries(self, eliminations, projective_plane):
        # The core of RP^2 has one cell in each degree; its boundary of
        # degree 2 is the factor 2, and that of degree 1 meets no row.
        H = homology(projective_plane)
        assert H.betti(1) == 0
        # one reduction of every degree, then the core boundary out of
        # degree 1 and the one into it
        assert eliminations["reductions"] == 1
        assert eliminations["untracked"] == [(0, 1), (1, 1)]
        H.betti(1)
        H.torsion(1)
        H.betti(2)
        assert eliminations["untracked"] == [(0, 1), (1, 1), (0, 0)]
        assert H.betti_numbers() == (1, 0, 0)
        assert eliminations["untracked"] == [(0, 1), (1, 1), (0, 0), (0, 1)]
        assert eliminations["reductions"] == 1
        assert eliminations["tracked"] == []

    def test_coordinates_and_evaluate_skip_betti_numbers(self, eliminations, sphere_circuit):
        H = homology(sphere_circuit.L)
        H.coordinates(IntChain(1, {}))
        identity = SimplicialMap.identity(sphere_circuit.L)
        z = fundamental_class(sphere_circuit, orient_circuit(sphere_circuit))
        assert evaluate(identity, z).free in ((1,), (-1,))
        assert eliminations["untracked"] == []
        assert eliminations["tracked"]

    def test_betti_and_torsion_track_nothing(self, tracked_calls, projective_plane):
        H = homology(projective_plane)
        assert H.betti_numbers() == (1, 0, 0)
        assert H.torsion(1) == (2,)
        assert all(H.torsion(k) == () for k in (0, 2))
        assert tracked_calls == []

    def test_betti_and_torsion_build_no_dense_boundary(self, monkeypatch, projective_plane, triangle,
                                                      triangle_boundary):
        # Every dense matrix is a core boundary, of at most one cell here.
        homology_module = importlib.import_module("circuitsmith.homology")
        zeros = homology_module.zeros
        shapes = []

        def recording_zeros(rows, cols):
            shapes.append((rows, cols))
            return zeros(rows, cols)

        monkeypatch.setattr(homology_module, "zeros", recording_zeros)
        H = homology(projective_plane)
        assert H.betti_numbers() == (1, 0, 0)
        assert [H.torsion(k) for k in range(3)] == [(), (2,), ()]
        assert homology(triangle, triangle_boundary).betti_numbers() == (0, 0, 1)
        assert shapes and all(rows * cols <= 1 for rows, cols in shapes)

    def test_coordinates_build_only_their_degree(self, eliminations, projective_plane):
        H = homology(projective_plane)
        H.betti_numbers()
        z = IntChain(1, {})
        H.coordinates(z)
        # the core boundary out of degree 1 (one core edge), then the kernel
        # coordinates of the core boundary into it (one core triangle)
        assert eliminations["tracked"] == [1, 1]
        # the outgoing elimination keeps Qinv only; the kernel one keeps P
        # and Qinv of the 1 x 1 kernel coordinates
        assert eliminations["transforms"] == [{"Qinv": 1}, {"P": 1, "Qinv": 1}]
        H.coordinates(z)
        assert eliminations["tracked"] == [1, 1]
        H.coordinates(IntChain(2, {}))
        assert eliminations["tracked"] == [1, 1, 1, 0]


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
        # Unit reductions leave one cell of RP^2 in each degree; the core
        # boundary of degree 2 is the factor 2, one cell, and no other core
        # boundary meets a row.
        monkeypatch.setattr(importlib.import_module("circuitsmith.homology"), "MAX_DENSE_CELLS", 0)
        H = homology(projective_plane)
        with pytest.raises(ResourceLimitError, match="core boundary of degree 2 has shape 1 x 1"):
            H.betti_numbers()
        assert H.betti(0) == 1

    def test_transforms_are_guarded(self, monkeypatch):
        # The complete graph on 12 vertices reduces to one vertex and 55
        # edges with no boundary, so degree-1 coordinates need a 55 x 55
        # column transform.
        monkeypatch.setattr(importlib.import_module("circuitsmith.homology"), "MAX_DENSE_CELLS", 1000)
        H = homology(build_complex([[i, j] for i in range(12) for j in range(i + 1, 12)]))
        cycle = IntChain(1, {Simplex((0, 1)): 1, Simplex((1, 2)): 1, Simplex((0, 2)): -1})
        with pytest.raises(ResourceLimitError, match="column transform of degree 1 has shape 55 x 55"):
            H.coordinates(cycle)

    def test_kernel_coordinates_are_guarded(self, monkeypatch):
        # Degree 0 of the same core: the 1 x 1 column transform passes a
        # 50-cell limit, the 1 x 55 kernel-coordinate matrix does not.
        monkeypatch.setattr(importlib.import_module("circuitsmith.homology"), "MAX_DENSE_CELLS", 50)
        H = homology(build_complex([[i, j] for i in range(12) for j in range(i + 1, 12)]))
        with pytest.raises(ResourceLimitError, match="kernel-coordinate matrix of degree 0 has shape 1 x 55"):
            H.coordinates(IntChain(0, {Simplex((0,)): 1}))


def _is_zero(c):
    return not any(c.free) and not any(c.torsion)


class TestCoordinateOracle:
    def test_agrees_with_the_full_size_path_randomized(self, projective_plane, klein_bottle):
        """Random integer combinations of the full-size path's generators,
        plus a boundary, get the same free rank, torsion orders, zero-ness
        and gcd of the free coordinates from the reduction as from the
        full-size path; the basis of the free part may differ."""
        rng = random.Random(61)
        surfaces = [_facets(projective_plane), _facets(klein_bottle)]
        checked = Counter()
        for i in range(200):
            if i % 4 == 0:
                K = build_complex(stellar_moves(rng, rng.choice(surfaces), rng.randint(0, 3)))
            else:
                K = random_complex(rng, n_vertices=8, n_generators=6, max_dim=3)
            A = random_subcomplex(rng, K) if i % 2 else None
            H = homology(K, A)
            for k in range(K.dim + 1):
                free, tors = oracle_generators(K, A, k)
                above = K.simplices_of_dim(k + 1)
                for _ in range(2):
                    z = chain_boundary(IntChain(k + 1, {s: rng.randint(-2, 2) for s in above}))
                    for g in free + tors:
                        z = z + scale(g, rng.randint(-3, 3))
                    mine, ref = H.coordinates(z), oracle_coordinates(K, A, z)
                    assert len(mine.free) == len(ref.free)
                    assert mine.torsion_orders == ref.torsion_orders
                    assert _is_zero(mine) == _is_zero(ref)
                    assert math.gcd(*mine.free) == math.gcd(*ref.free)
                    checked["relative" if A else "absolute"] += 1
                    checked["torsion"] += bool(any(ref.torsion))
                    checked["free"] += bool(any(ref.free))
        assert min(checked.values()) >= 40, checked


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
