"""Canonical JSON forms for complexes, maps, verdicts and certificates.

Everything is emitted from sorted iterations and dumped with sorted keys, so
serialization is byte-identical across runs on equal inputs.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .circuits import (
    BordismData,
    CheckResult,
    CircuitVerdict,
    RelativeCircuitData,
    SingularSet,
)
from .complexes import OpenSimplexSet, Simplex, SimplicialComplex, SimplicialMap
from .errors import MalformedInputError
from .homology import Coordinates, IntChain, OrientationAssignment
from .obstructions import ObstructionReport
from .pipeline import (
    BordismCertificate,
    DimensionBound,
    PseudocycleCertificate,
    TargetPair,
)

PSEUDOCYCLE_KIND = "pseudocycle-certificate"
BORDISM_KIND = "bordism-certificate"


def dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def simplex_to_json(s: Simplex) -> list[int]:
    return list(s.vertices)


def simplices_to_json(simplices) -> list[list[int]]:
    return [simplex_to_json(s) for s in sorted(simplices, key=lambda t: t.sort_key)]


def complex_to_json(K: SimplicialComplex) -> dict:
    return {"maximal": simplices_to_json(K.maximal_simplices)}


def _vertex_lists(payload: Any, what: str) -> list[list[int]]:
    """``payload`` checked to be a list of lists of integer vertex ids."""
    if not isinstance(payload, list) or not all(
        isinstance(vs, list) and all(isinstance(v, int) for v in vs) for vs in payload
    ):
        raise MalformedInputError(f"{what} must be a list of lists of integer vertex ids")
    return payload


def _object(payload: Any, what: str) -> Mapping:
    """``payload`` checked to be a JSON object."""
    if not isinstance(payload, Mapping):
        raise MalformedInputError(f"{what} JSON must be an object, got {type(payload).__name__}")
    return payload


def _int(value: Any, what: str) -> int:
    """``value`` checked to be an integer (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedInputError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _int_map(raw: Any, what: str) -> dict[int, int]:
    """``raw`` checked to be an object from vertex ids to integer vertex ids."""
    if not isinstance(raw, Mapping):
        raise MalformedInputError(f"{what} must be an object")
    try:
        keys = [int(k) for k in raw]
    except (TypeError, ValueError):
        raise MalformedInputError(f"{what} must be keyed by vertex ids")
    each = f"each value of {what}"
    return {k: _int(v, each) for k, v in zip(keys, raw.values())}


def _field(payload: Mapping, key: str, what: str) -> Any:
    if key not in payload:
        raise MalformedInputError(f"{what} JSON needs a {key!r} field")
    return payload[key]


def complex_from_json(payload: Mapping) -> SimplicialComplex:
    if not isinstance(payload, Mapping) or "maximal" not in payload:
        raise MalformedInputError("complex JSON needs a 'maximal' list")
    from .complexes import build_complex

    return build_complex(_vertex_lists(payload["maximal"], "'maximal'"))


def subcomplex_from_json(payload, host: SimplicialComplex) -> SimplicialComplex:
    """A subcomplex given by a simplex list (closed up inside the host)."""
    simplices = [Simplex.of(vs) for vs in _vertex_lists(payload, "a subcomplex")]
    for s in simplices:
        if s not in host.simplices:
            raise MalformedInputError(f"{s} is not a simplex of the host complex")
    return SimplicialComplex.from_simplices(simplices)


def vertex_map_to_json(m: SimplicialMap) -> dict:
    return {"vertex_map": {str(v): w for v, w in m.vertex_assignment}}


def vertex_map_from_json(
    payload: Mapping, source: SimplicialComplex, target: SimplicialComplex
) -> SimplicialMap:
    mapping = _int_map(_object(payload, "map").get("vertex_map"), "map JSON 'vertex_map'")
    return SimplicialMap.from_dict(source, target, mapping)


def circuit_to_json(data: RelativeCircuitData) -> dict:
    return {
        "complex": complex_to_json(data.L),
        "boundary": simplices_to_json(data.K.simplices),
        "singular": simplices_to_json(data.S.simplices),
        "k": data.k,
    }


def circuit_from_json(payload: Mapping, k: int | None = None) -> RelativeCircuitData:
    _object(payload, "circuit")
    L = complex_from_json(payload.get("complex", payload))
    K = subcomplex_from_json(payload.get("boundary", []), L)
    S = subcomplex_from_json(payload.get("singular", []), L)
    kk = k if k is not None else payload.get("k")
    if kk is None:
        kk = L.dim
    return RelativeCircuitData(L, K, _int(kk, "circuit dimension 'k'"), S)


def bordism_to_json(data: BordismData) -> dict:
    return {
        "complex": complex_to_json(data.N),
        "boundary": simplices_to_json(data.M.simplices),
        "circuit": simplices_to_json(data.L.simplices),
        "circuit_boundary": simplices_to_json(data.K.simplices),
        "singular": simplices_to_json(data.S.simplices),
        "k": data.k,
    }


def bordism_from_json(payload: Mapping) -> BordismData:
    _object(payload, "bordism")
    N = complex_from_json(payload.get("complex", payload))
    M = subcomplex_from_json(payload.get("boundary", []), N)
    L = subcomplex_from_json(payload.get("circuit", []), N)
    K = subcomplex_from_json(payload.get("circuit_boundary", []), N)
    S = subcomplex_from_json(payload.get("singular", []), N)
    k = payload.get("k")
    if k is None:
        raise MalformedInputError("bordism JSON needs the circuit dimension 'k'")
    return BordismData(N, M, L, K, _int(k, "circuit dimension 'k'"), S)


def punctured_from_json(payload: Mapping):
    from .limits import PuncturedComplex

    _object(payload, "punctured complex")
    W = complex_from_json(payload.get("complex", payload))
    S = subcomplex_from_json(payload.get("punctures", []), W)
    return PuncturedComplex(W, S)


def punctured_to_json(p) -> dict:
    return {
        "complex": complex_to_json(p.W),
        "punctures": simplices_to_json(p.S.simplices),
    }


def compactified_map_from_json(payload: Mapping):
    from .limits import CompactifiedMap

    _object(payload, "compactified map")
    domain = punctured_from_json(_field(payload, "domain", "compactified map"))
    target = punctured_from_json(_field(payload, "target", "compactified map"))
    g = vertex_map_from_json(payload, domain.W, target.W)
    return CompactifiedMap(domain, target, g)


def compactified_map_to_json(f) -> dict:
    out = {"domain": punctured_to_json(f.domain), "target": punctured_to_json(f.target)}
    out.update(vertex_map_to_json(f.g))
    return out


def open_set_to_json(u: OpenSimplexSet) -> dict:
    return {"simplices": simplices_to_json(u.members), "dim": u.dim}


def chain_to_json(z: IntChain) -> dict:
    return {
        "degree": z.degree,
        "coefficients": [[simplex_to_json(s), c] for s, c in z.items()],
    }


def orientation_to_json(o: OrientationAssignment) -> dict:
    items = sorted(o.signs.items(), key=lambda sc: sc[0].sort_key)
    return {
        "orientable": o.orientable,
        "signs": [[simplex_to_json(s), c] for s, c in items],
        "witness_cycle": simplices_to_json(o.witness_cycle),
    }


def orientation_from_json(payload: Mapping) -> OrientationAssignment:
    _object(payload, "orientation")
    pairs = payload.get("signs", [])
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise MalformedInputError("'signs' must be a list of [simplex, sign] pairs")
    _vertex_lists([vs for vs, _ in pairs], "the simplices in 'signs'")
    signs = {Simplex.of(vs): _int(c, "a sign in 'signs'") for vs, c in pairs}
    cycle = _vertex_lists(payload.get("witness_cycle", []), "'witness_cycle'")
    orientable = payload.get("orientable", True)
    if not isinstance(orientable, bool):
        raise MalformedInputError("'orientable' must be true or false")
    return OrientationAssignment(signs, orientable, tuple(Simplex.of(vs) for vs in cycle))


def coordinates_to_json(c: Coordinates) -> dict:
    return {
        "degree": c.degree,
        "free": list(c.free),
        "torsion": list(c.torsion),
        "torsion_orders": list(c.torsion_orders),
    }


def check_to_json(c: CheckResult) -> dict:
    return {
        "name": c.name,
        "passed": c.passed,
        "unknown": c.unknown,
        "witnesses": simplices_to_json(c.witnesses),
        "detail": c.detail,
    }


def verdict_to_json(v: CircuitVerdict) -> dict:
    return {
        "valid": v.valid,
        "unknown": v.unknown,
        "checks": [check_to_json(c) for c in v.checks],
    }


def singular_set_to_json(s: SingularSet) -> dict:
    return {
        "case": s.case,
        "simplices": simplices_to_json(s.complex.simplices),
        "dim": s.dim,
        "codim": s.codim,
        "ambient_dim": s.ambient_dim,
    }


def obstruction_to_json(o: ObstructionReport) -> dict:
    return {
        "case": o.case,
        "cw_dimension_bound": o.cw_dimension_bound,
        "required_gamma": list(o.required_gamma),
        "gamma_groups": list(o.gamma_groups),
        "all_vanish": o.all_vanish,
        "dual_complex_dim": o.dual_complex_dim,
    }


def bound_to_json(b: DimensionBound) -> dict:
    return {
        "name": b.name,
        "limit_dimension": b.limit_dimension,
        "max_allowed": b.max_allowed,
        "ok": b.ok,
    }


def target_to_json(t: TargetPair) -> dict:
    return {
        "complex": complex_to_json(t.X),
        "subcomplex": simplices_to_json(t.A.simplices),
    }


def target_from_json(payload: Mapping) -> TargetPair:
    _object(payload, "target")
    X = complex_from_json(payload.get("complex", payload))
    A = subcomplex_from_json(payload.get("subcomplex", []), X)
    return TargetPair(X, A)


def pseudocycle_certificate_to_json(cert: PseudocycleCertificate) -> dict:
    return {
        "kind": PSEUDOCYCLE_KIND,
        "k": cert.k,
        "circuit": circuit_to_json(cert.circuit),
        "target": target_to_json(cert.target),
        "vertex_map": vertex_map_to_json(cert.map)["vertex_map"],
        "circuit_verdict": verdict_to_json(cert.circuit_verdict),
        "singular_set": singular_set_to_json(cert.sigma),
        "complement_verdict": verdict_to_json(cert.complement_verdict),
        "orientation": orientation_to_json(cert.orientation),
        "fundamental_class": chain_to_json(cert.fundamental),
        "homology_coordinates": coordinates_to_json(cert.homology_coordinates),
        "limit_carrier": open_set_to_json(cert.limit_carrier),
        "boundary_limit_carrier": open_set_to_json(cert.boundary_limit_carrier),
        "bounds": {
            "main": bound_to_json(cert.bound_main),
            "boundary": bound_to_json(cert.bound_boundary),
        },
        "obstruction": obstruction_to_json(cert.obstruction),
        "valid": cert.valid,
    }


def bordism_certificate_to_json(cert: BordismCertificate) -> dict:
    return {
        "kind": BORDISM_KIND,
        "k": cert.k,
        "bordism": bordism_to_json(cert.bordism),
        "target": target_to_json(cert.target),
        "vertex_map": vertex_map_to_json(cert.map)["vertex_map"],
        "nullbordism_verdict": verdict_to_json(cert.nullbordism_verdict),
        "singular_set": singular_set_to_json(cert.sigma),
        "complement_verdict": verdict_to_json(cert.complement_verdict),
        "limit_carrier": open_set_to_json(cert.limit_carrier),
        "side_limit_carrier": open_set_to_json(cert.side_limit_carrier),
        "bounds": {
            "main": bound_to_json(cert.bound_main),
            "side": bound_to_json(cert.bound_side),
        },
        "obstruction": obstruction_to_json(cert.obstruction),
        "valid": cert.valid,
    }


def reverify_certificate(payload: Mapping) -> tuple[bool, list[str]]:
    """Rebuild the certified objects from an emitted certificate and rerun
    the pipeline; report every field that fails to reproduce."""
    from .pipeline import psi, verify_bordism_certificate

    kind = _object(payload, "certificate").get("kind")
    mismatches: list[str] = []

    def field(key: str) -> Any:
        return _field(payload, key, "certificate")

    if kind == PSEUDOCYCLE_KIND:
        circuit = circuit_from_json(field("circuit"))
        target = target_from_json(field("target"))
        a = vertex_map_from_json({"vertex_map": field("vertex_map")}, circuit.L, target.X)
        orientation = orientation_from_json(field("orientation"))
        cert = psi(circuit, a, target, orientation=orientation)
        fresh = pseudocycle_certificate_to_json(cert)
    elif kind == BORDISM_KIND:
        bordism = bordism_from_json(field("bordism"))
        target = target_from_json(field("target"))
        d = vertex_map_from_json({"vertex_map": field("vertex_map")}, bordism.N, target.X)
        cert = verify_bordism_certificate(bordism, d, target)
        fresh = bordism_certificate_to_json(cert)
    else:
        raise MalformedInputError(f"unknown certificate kind {kind!r}")
    for key in sorted(set(payload) | set(fresh)):
        if payload.get(key) != fresh.get(key):
            mismatches.append(key)
    return not mismatches, mismatches
