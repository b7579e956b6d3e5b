"""Golden certificate corpus: every certificate below must re-emit byte for
byte and re-verify.  The files under ``tests/golden/`` are fixed; a change
that alters any of them changes the certificate format or its content and
must say so."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from circuitsmith import (
    BordismCertificate,
    PseudocycleCertificate,
    RelativeCircuitData,
    SimplicialComplex,
    SimplicialMap,
    TargetPair,
    barycentric_subdivision,
    build_complex,
    cylinder,
    psi,
    pushforward,
    subdivision_bordism,
    verify_bordism_certificate,
)
from circuitsmith.cli import main
from circuitsmith.serialize import (
    bordism_certificate_to_json,
    dumps,
    pseudocycle_certificate_to_json,
    reverify_certificate,
)

from .conftest import simplex_boundary_complex
from .oracles import assert_carriers_are_limit_sets, oracle_coordinates

GOLDEN = Path(__file__).parent / "golden"


def _disk() -> RelativeCircuitData:
    return RelativeCircuitData(
        build_complex([[0, 1, 2]]),
        build_complex([[0, 1], [1, 2], [0, 2]]),
        2,
        SimplicialComplex.empty(),
    )


def _disk_target() -> TargetPair:
    disk = _disk()
    return TargetPair(disk.L, disk.K)


def _identity_psi(circuit: RelativeCircuitData, target: TargetPair) -> PseudocycleCertificate:
    return psi(circuit, SimplicialMap.identity(circuit.L), target)


def disk() -> PseudocycleCertificate:
    return _identity_psi(_disk(), _disk_target())


def subdivided_disk() -> PseudocycleCertificate:
    disk = _disk()
    triangle, boundary = disk.L, disk.K
    sd = barycentric_subdivision(triangle)
    K = SimplicialComplex(
        frozenset(
            s
            for s in sd.complex.simplices
            if all(sd.barycenter_of[u] in boundary.simplices for u in s.vertices)
        )
    )
    circuit = RelativeCircuitData(sd.complex, K, 2, SimplicialComplex.empty())
    last_vertex = {v: max(sd.barycenter_of[v].vertices) for v in sd.complex.vertices}
    a = SimplicialMap.from_dict(sd.complex, triangle, last_vertex)
    return psi(circuit, a, _disk_target())


def wedge() -> PseudocycleCertificate:
    wedge = build_complex(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
         [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6]]
    )
    circuit = RelativeCircuitData.closed(wedge, 2, build_complex([[3]]))
    return _identity_psi(circuit, TargetPair.absolute(wedge))


def three_sphere() -> PseudocycleCertificate:
    sphere = simplex_boundary_complex(4)
    return _identity_psi(RelativeCircuitData.closed(sphere, 3), TargetPair.absolute(sphere))


def three_ball() -> PseudocycleCertificate:
    solid = build_complex([[0, 1, 2, 3]])
    rim = simplex_boundary_complex(3)
    circuit = RelativeCircuitData(solid, rim, 3, SimplicialComplex.empty())
    return _identity_psi(circuit, TargetPair(solid, rim))


def stellar_sphere() -> PseudocycleCertificate:
    """The 2-sphere with the face [0, 1, 2] starred at a new vertex 4, mapped
    to the boundary of the tetrahedron by sending 4 to a carrier vertex."""
    sphere = simplex_boundary_complex(3)
    stellar = build_complex(
        [[0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 4], [0, 2, 4], [1, 2, 4]]
    )
    circuit = RelativeCircuitData.closed(stellar, 2)
    a = SimplicialMap.from_dict(stellar, sphere, {0: 0, 1: 1, 2: 2, 3: 3, 4: 0})
    return psi(circuit, a, TargetPair.absolute(sphere))


def disk_cylinder() -> BordismCertificate:
    disk = _disk()
    cyl = cylinder(disk)
    d = {pv: uv[0] for pv, uv in cyl.product.vertex_pairs.items()}
    dmap = SimplicialMap.from_dict(cyl.bordism.N, disk.L, d)
    return verify_bordism_certificate(cyl.bordism, dmap, _disk_target())


def disk_subdivision_bordism() -> BordismCertificate:
    disk = _disk()
    sb = subdivision_bordism(disk)
    d = {pv: v for v, pv in sb.prism.bottom_vertex.items()}
    d.update({pv: max(s.vertices) for s, pv in sb.prism.top_vertex.items()})
    dmap = SimplicialMap.from_dict(sb.bordism.N, disk.L, d)
    return verify_bordism_certificate(sb.bordism, dmap, _disk_target())


CASES = {
    "psi_disk": disk,
    "psi_subdivided_disk": subdivided_disk,
    "psi_wedge": wedge,
    "psi_three_sphere": three_sphere,
    "psi_three_ball": three_ball,
    "psi_stellar_sphere": stellar_sphere,
    "bordism_disk_cylinder": disk_cylinder,
    "bordism_disk_subdivision": disk_subdivision_bordism,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_certificate(name):
    golden = (GOLDEN / f"{name}.json").read_text()
    cert = CASES[name]()
    if isinstance(cert, PseudocycleCertificate):
        payload = pseudocycle_certificate_to_json(cert)
    else:
        payload = bordism_certificate_to_json(cert)
    assert payload["valid"]
    assert dumps(payload) == golden
    assert reverify_certificate(json.loads(golden)) == (True, [])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_carriers_are_limit_sets(name):
    assert_carriers_are_limit_sets(CASES[name]())


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("psi_")))
def test_golden_coordinates_match_the_full_size_oracle(name):
    """The coordinates of each golden target, which the library reads off a
    reduced core, are exactly those of the full-size path."""
    cert = CASES[name]()
    pushed = pushforward(cert.map, cert.fundamental)
    assert oracle_coordinates(cert.target.X, cert.target.A, pushed) == cert.homology_coordinates


def test_foreign_sign_is_rejected(tmp_path, capsys):
    """A certificate whose orientation signs a simplex outside the circuit
    does not re-verify."""
    cert = json.loads((GOLDEN / "psi_disk.json").read_text())
    cert["orientation"]["signs"].append([[7, 8, 9], 1])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["verify-cert", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["stage"] == "orientation"


def test_flipped_sign_names_the_leaking_facet(tmp_path, capsys):
    """One flipped sign is an orientation whose fundamental chain leaks off
    the boundary; the report names the first facet where it leaks."""
    cert = json.loads((GOLDEN / "psi_subdivided_disk.json").read_text())
    cert["orientation"]["signs"][0][1] *= -1
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["verify-cert", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["stage"] == "fundamental-class"
    assert report["witnesses"] == [[0, 6]]


def test_corpus_has_no_stray_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
