from __future__ import annotations

import pytest

from circuitsmith import (
    RelativeCircuitData,
    SimplicialComplex,
    build_complex,
)


def simplex_boundary_complex(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex on vertices 0..n."""
    verts = list(range(n + 1))
    return build_complex([verts[:i] + verts[i + 1 :] for i in range(n + 1)])


@pytest.fixture
def triangle():
    return build_complex([[0, 1, 2]])


@pytest.fixture
def triangle_boundary():
    return build_complex([[0, 1], [1, 2], [0, 2]])


@pytest.fixture
def tetra_boundary():
    return simplex_boundary_complex(3)


@pytest.fixture
def four_simplex_boundary():
    return simplex_boundary_complex(4)


@pytest.fixture
def wedge_spheres():
    """Two tetrahedron boundaries sharing vertex 3."""
    return build_complex(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
         [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6]]
    )


@pytest.fixture
def butterfly():
    """Two triangles sharing exactly one vertex."""
    return build_complex([[0, 1, 2], [2, 3, 4]])


@pytest.fixture
def projective_plane():
    """Minimal 6-vertex triangulation."""
    return build_complex(
        [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
         [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
    )


@pytest.fixture
def klein_bottle():
    """The annulus over the triangle boundary and a path of three edges,
    its two end circles identified through a reflection."""
    return build_complex(
        [[0, 1, 4], [0, 1, 7], [0, 2, 3], [0, 2, 6], [0, 3, 4], [0, 6, 7],
         [1, 2, 5], [1, 2, 8], [1, 4, 5], [1, 7, 8], [2, 3, 8], [2, 5, 6],
         [3, 4, 7], [3, 5, 6], [3, 5, 8], [3, 6, 7], [4, 5, 8], [4, 7, 8]]
    )


@pytest.fixture
def hexagon():
    return build_complex([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]])


@pytest.fixture
def disk_pair(triangle, triangle_boundary):
    return RelativeCircuitData(triangle, triangle_boundary, 2, SimplicialComplex.empty())


@pytest.fixture
def sphere_circuit(tetra_boundary):
    return RelativeCircuitData.closed(tetra_boundary, 2)


@pytest.fixture
def circle_circuit(triangle_boundary):
    return RelativeCircuitData.closed(triangle_boundary, 1)


@pytest.fixture
def wedge_circuit(wedge_spheres):
    return RelativeCircuitData.closed(wedge_spheres, 2, build_complex([[3]]))
