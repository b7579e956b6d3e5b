from __future__ import annotations

import random

import pytest

from circuitsmith import (
    BordismData,
    RelativeCircuitData,
    SimplicialComplex,
    build_complex,
    cw_dimension_bound,
    cylinder,
    dual_complex,
)
from circuitsmith.errors import MalformedInputError, StructureError
from circuitsmith.obstructions import GAMMA_GROUPS

from .conftest import simplex_boundary_complex
from .generators import random_complex

CATALOG = {
    "triangle": lambda: build_complex([[0, 1, 2]]),
    "solid-tetra": lambda: build_complex([[0, 1, 2, 3]]),
    "sphere": lambda: simplex_boundary_complex(3),
    "three-sphere": lambda: simplex_boundary_complex(4),
}


def _case_data(case: str, host: SimplicialComplex, k: int):
    """Case data whose obstruction host is ``host``, with circuit dimension k."""
    empty = SimplicialComplex.empty()
    if case == "c":
        return BordismData(host, empty, empty, empty, k, empty)
    return RelativeCircuitData(host, empty, k, empty)


def assert_bound_is_dual_complex_dim(host: SimplicialComplex) -> int:
    """For every case and every k whose skeleton dimension r lies in
    0..dim host, the reported witness dimension equals the dimension of the
    dual complex above the r-skeleton, or the report refuses when that
    exceeds the case bound.  Returns the number of equalities checked."""
    dual_dims = {r: dual_complex(host, r).dim for r in range(0, host.dim + 1)}
    checked = 0
    for case, bound in (("a", 1), ("b", 2), ("c", 3)):
        for k in range(0, host.dim + 4):
            r = k - 2 if case == "a" else k - 3
            if r not in dual_dims:
                continue
            expected = dual_dims[r]
            data = _case_data(case, host, k)
            if expected > bound:
                with pytest.raises(StructureError):
                    cw_dimension_bound(case, data)
                continue
            assert cw_dimension_bound(case, data).dual_complex_dim == expected, (case, k)
            checked += 1
    return checked


class TestDualComplex:
    def test_triangle_at_zero_is_a_tree(self, triangle):
        result = dual_complex(triangle, 0)
        # chains through the three edges and the face barycenter
        assert result.dim == 1
        assert len(result.complex.vertices) == 4
        assert result.dim <= triangle.dim - 0 - 1

    def test_top_dimension_gives_empty(self, triangle):
        result = dual_complex(triangle, triangle.dim)
        assert result.dim == -1
        assert not result.complex.simplices

    def test_sphere_at_zero_is_a_graph(self, tetra_boundary):
        result = dual_complex(tetra_boundary, 0)
        assert result.dim <= 1

    @pytest.mark.parametrize(
        "K_builder",
        [
            lambda: build_complex([[0, 1, 2]]),
            lambda: build_complex([[0, 1, 2, 3]]),
            lambda: simplex_boundary_complex(3),
            lambda: simplex_boundary_complex(4),
        ],
    )
    def test_dimension_bound_for_all_r(self, K_builder):
        K = K_builder()
        for r in range(0, K.dim + 1):
            result = dual_complex(K, r)
            assert result.dim <= K.dim - r - 1

    def test_r_out_of_range_rejected(self, triangle):
        with pytest.raises(MalformedInputError):
            dual_complex(triangle, -1)
        with pytest.raises(MalformedInputError):
            dual_complex(triangle, 5)


class TestCwDimensionBound:
    def test_case_a_on_sphere(self, sphere_circuit):
        report = cw_dimension_bound("a", sphere_circuit)
        assert report.cw_dimension_bound == 1
        assert report.required_gamma == (0, 1)
        assert report.all_vanish
        assert report.dual_complex_dim == dual_complex(sphere_circuit.L, 0).dim

    def test_case_b_on_disk(self, disk_pair):
        report = cw_dimension_bound("b", disk_pair)
        assert report.cw_dimension_bound == 2
        assert report.required_gamma == (0, 1, 2)
        assert report.all_vanish
        assert report.dual_complex_dim <= 2

    def test_case_c_on_cylinder(self, circle_circuit):
        cyl = cylinder(circle_circuit)
        report = cw_dimension_bound("c", cyl.bordism)
        assert report.cw_dimension_bound == 3
        assert report.required_gamma == (0, 1, 2, 3)
        assert report.all_vanish
        assert report.dual_complex_dim <= 3

    def test_case_c_on_three_ball_cylinder(self):
        # k = 3, so r = 0 and the witness is a genuine dual complex
        ball = RelativeCircuitData(
            build_complex([[0, 1, 2, 3]]), simplex_boundary_complex(3), 3,
            SimplicialComplex.empty(),
        )
        cyl = cylinder(ball)
        report = cw_dimension_bound("c", cyl.bordism)
        assert report.all_vanish
        assert report.dual_complex_dim == dual_complex(cyl.bordism.N, 0).dim == 3

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_bound_equals_dual_complex_dim_on_catalog(self, name):
        assert assert_bound_is_dual_complex_dim(CATALOG[name]()) > 0

    def test_bound_equals_dual_complex_dim_on_random_complexes(self):
        rng = random.Random(20260)
        checked = 0
        for _ in range(30):
            checked += assert_bound_is_dual_complex_dim(random_complex(rng))
        assert checked > 30

    def test_case_a_on_three_sphere(self, four_simplex_boundary):
        data = RelativeCircuitData.closed(four_simplex_boundary, 3)
        report = cw_dimension_bound("a", data)
        assert report.cw_dimension_bound == 1
        assert report.dual_complex_dim == dual_complex(four_simplex_boundary, 1).dim

    def test_vanishing_is_derived_from_the_table(self, sphere_circuit):
        report = cw_dimension_bound("a", sphere_circuit)
        assert report.required_gamma == (0, 1)
        assert report.gamma_groups == tuple(GAMMA_GROUPS[d] for d in report.required_gamma)
        assert report.gamma_groups == ("0", "0")
        assert report.all_vanish

    def test_case_data_mismatch_rejected(self, sphere_circuit):
        with pytest.raises(StructureError):
            cw_dimension_bound("c", sphere_circuit)
