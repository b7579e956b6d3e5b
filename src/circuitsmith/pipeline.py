"""End-to-end certificate pipelines.

Each stage runs here only, and a failed stage raises ``PipelineError`` with
its name and witnesses; no later stage executes.  The prefixes nest:
``circuit_stage`` checks the circuit axioms, ``fundamental_class_stages``
adds the orientation and the fundamental class, ``evaluate_stages`` the
input check and the evaluation in homology.  ``psi`` is ``evaluate_stages``
followed by records, and each partial CLI command calls the prefix it needs.
``verify_bordism_certificate`` runs ``nullbordism_stage`` and then checks
the complement of the case-c singular set (``manifold-complement``).

The records are theorems of the construction, so they are not checked: the
singular set has codimension two and holds no codimension-two simplex of the
boundary, a simplicial map never raises dimension, the complement retracts
onto a complex of dimension at most 3, where every group of sphere
diffeomorphisms consulted is trivial, and in case b the circuit axioms make
the complement a PL manifold (``circuits.circuit_complement_verdict``).
``tests/test_pipeline.py`` asserts them on seeded random certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import (
    BordismData,
    CircuitVerdict,
    RelativeCircuitData,
    SingularSet,
    circuit_complement_verdict,
    singular_set,
    verify_circuit,
    verify_manifold_complement,
    verify_nullbordism,
)
from .complexes import OpenSimplexSet, SimplicialComplex, SimplicialMap
from .errors import MapError, OrientationError, PipelineError
from .homology import (
    Coordinates,
    IntChain,
    OrientationAssignment,
    evaluate,
    fundamental_class,
    orient_circuit,
)
from .obstructions import ObstructionReport, cw_dimension_bound


@dataclass(frozen=True)
class TargetPair:
    """A target complex with a closed subcomplex."""

    X: SimplicialComplex
    A: SimplicialComplex

    def __post_init__(self) -> None:
        if not self.A.is_subcomplex_of(self.X):
            raise PipelineError("target", "subpair is not a subcomplex of the target")

    @classmethod
    def absolute(cls, X: SimplicialComplex) -> "TargetPair":
        return cls(X, SimplicialComplex.empty())


@dataclass(frozen=True)
class DimensionBound:
    name: str
    limit_dimension: int
    max_allowed: int

    @property
    def ok(self) -> bool:
        return self.limit_dimension <= self.max_allowed


@dataclass(frozen=True)
class PseudocycleCertificate:
    circuit: RelativeCircuitData
    target: TargetPair
    map: SimplicialMap
    k: int
    circuit_verdict: CircuitVerdict
    sigma: SingularSet
    complement_verdict: CircuitVerdict
    orientation: OrientationAssignment
    fundamental: IntChain
    homology_coordinates: Coordinates
    limit_carrier: OpenSimplexSet
    boundary_limit_carrier: OpenSimplexSet
    bound_main: DimensionBound
    bound_boundary: DimensionBound
    obstruction: ObstructionReport

    @property
    def valid(self) -> bool:
        return (
            self.circuit_verdict.valid
            and self.complement_verdict.valid
            and self.bound_main.ok
            and self.bound_boundary.ok
            and self.obstruction.all_vanish
        )


def _passed(stage: str, message: str, verdict: CircuitVerdict) -> CircuitVerdict:
    """The verdict, once valid; otherwise stage ``stage`` fails with the
    witnesses of its failed checks."""
    if not verdict.valid:
        raise PipelineError(stage, message, verdict.witnesses(), verdict.unknown)
    return verdict


def circuit_stage(circuit: RelativeCircuitData) -> CircuitVerdict:
    """Stage ``verify-circuit``: the circuit axioms."""
    return _passed("verify-circuit", "circuit axioms failed", verify_circuit(circuit))


def nullbordism_stage(R: BordismData) -> CircuitVerdict:
    """Stage ``verify-nullbordism``: the nullbordism axioms."""
    return _passed("verify-nullbordism", "nullbordism axioms failed",
                   verify_nullbordism(R, R.designated_circuit()))


def _carrier(a: SimplicialMap, punctures: SimplicialComplex) -> OpenSimplexSet:
    """Limit carrier of ``a`` on the complement of ``punctures``.

    The target is compact, so this is the limit set of the compactified map
    with no target punctures: the images of the puncture simplices.
    """
    return OpenSimplexSet(a.target, frozenset(a.apply(s) for s in punctures.simplices))


def fundamental_class_stages(
    circuit: RelativeCircuitData, orientation: OrientationAssignment | None = None
) -> tuple[CircuitVerdict, OrientationAssignment, IntChain]:
    """``psi`` up to its fundamental class: stages ``verify-circuit``,
    ``orientation`` and ``fundamental-class``.

    A given ``orientation`` is trusted only once its signs are 1 or -1 on
    exactly the k-simplices of the circuit; otherwise the orientation stage
    fails.
    """
    verdict = circuit_stage(circuit)
    if orientation is None:
        orientation = orient_circuit(circuit)
    elif orientation.orientable:
        tops = set(circuit.L.simplices_of_dim(circuit.k))
        off = {s for s, c in orientation.signs.items() if s not in tops or c not in (1, -1)}
        off |= tops.difference(orientation.signs)
        if off:
            raise PipelineError(
                "orientation",
                f"given signs must be 1 or -1 on exactly the {circuit.k}-simplices of the circuit",
                sorted(off, key=lambda s: s.sort_key),
            )
    if not orientation.orientable:
        raise PipelineError("orientation", "circuit is not orientable", orientation.witness_cycle)
    try:
        z = fundamental_class(circuit, orientation)
    except OrientationError as exc:
        raise PipelineError("fundamental-class", str(exc), exc.witness)
    return verdict, orientation, z


def evaluate_stages(
    circuit: RelativeCircuitData,
    a: SimplicialMap,
    target: TargetPair,
    orientation: OrientationAssignment | None = None,
) -> tuple[CircuitVerdict, OrientationAssignment, IntChain, Coordinates]:
    """``psi`` up to its homology coordinates: stage ``input``, then
    ``fundamental_class_stages``, then stage ``evaluate``."""
    if a.source.simplices != circuit.L.simplices:
        raise PipelineError("input", "map source must be the circuit complex")
    if a.target.simplices != target.X.simplices:
        raise PipelineError("input", "map target must be the target complex")
    verdict, orientation, z = fundamental_class_stages(circuit, orientation)
    try:
        coords = evaluate(a, z, target.A, circuit.K)
    except MapError as exc:
        raise PipelineError("evaluate", str(exc))
    return verdict, orientation, z, coords


def psi(
    circuit: RelativeCircuitData,
    a: SimplicialMap,
    target: TargetPair,
    orientation: OrientationAssignment | None = None,
) -> PseudocycleCertificate:
    """Certify a singular relative circuit as a pseudocycle.

    Stages run in order: ``evaluate_stages``, that is the input, circuit
    axioms, orientation, fundamental class and homology evaluation; the
    first failing stage raises ``PipelineError`` with its witnesses.  The
    singular set, its complement verdict, the limit carriers, dimension
    bounds and obstruction report are then recorded.
    """
    k = circuit.k
    verdict, orientation, z, coords = evaluate_stages(circuit, a, target, orientation)
    sigma = singular_set("b", circuit)
    limit_carrier = _carrier(a, sigma.complex)
    boundary_carrier = _carrier(a, sigma.complex.intersection(circuit.K))

    return PseudocycleCertificate(
        circuit=circuit,
        target=target,
        map=a,
        k=k,
        circuit_verdict=verdict,
        sigma=sigma,
        complement_verdict=circuit_complement_verdict(circuit),
        orientation=orientation,
        fundamental=z,
        homology_coordinates=coords,
        limit_carrier=limit_carrier,
        boundary_limit_carrier=boundary_carrier,
        bound_main=DimensionBound("main", limit_carrier.dim, max(-1, k - 2)),
        bound_boundary=DimensionBound("boundary", boundary_carrier.dim, max(-1, k - 3)),
        obstruction=cw_dimension_bound("b", circuit),
    )


@dataclass(frozen=True)
class BordismCertificate:
    bordism: BordismData
    target: TargetPair
    map: SimplicialMap
    k: int
    nullbordism_verdict: CircuitVerdict
    sigma: SingularSet
    complement_verdict: CircuitVerdict
    limit_carrier: OpenSimplexSet
    side_limit_carrier: OpenSimplexSet
    bound_main: DimensionBound
    bound_side: DimensionBound
    obstruction: ObstructionReport

    @property
    def valid(self) -> bool:
        return (
            self.nullbordism_verdict.valid
            and self.complement_verdict.valid
            and self.bound_main.ok
            and self.bound_side.ok
            and self.obstruction.all_vanish
        )


def verify_bordism_certificate(
    R: BordismData,
    d_map: SimplicialMap,
    target: TargetPair,
) -> BordismCertificate:
    """Certify a nullbordism of its designated sub-circuit, which inherits
    the bordism's singular set.

    Stages run in order: nullbordism axioms (before any singular-set
    construction), then the case-c singular set and its manifold checks;
    the limit carriers, dimension bounds and obstruction report are then
    recorded.
    """
    k = R.k
    if d_map.source.simplices != R.N.simplices:
        raise PipelineError("input", "map source must be the bordism complex")
    if d_map.target.simplices != target.X.simplices:
        raise PipelineError("input", "map target must be the target complex")

    verdict = nullbordism_stage(R)
    sigma = singular_set("c", R)
    complement = _passed("manifold-complement", "complement of the singular set failed manifold checks",
                         verify_manifold_complement("c", R, sigma))

    limit_carrier = _carrier(d_map, sigma.complex)
    side = SimplicialComplex.from_simplices(R.M.simplices - R.L.simplices)
    side_carrier = _carrier(d_map, sigma.complex.intersection(side))

    return BordismCertificate(
        bordism=R,
        target=target,
        map=d_map,
        k=k,
        nullbordism_verdict=verdict,
        sigma=sigma,
        complement_verdict=complement,
        limit_carrier=limit_carrier,
        side_limit_carrier=side_carrier,
        bound_main=DimensionBound("main", limit_carrier.dim, max(-1, k - 1)),
        bound_side=DimensionBound("side-boundary", side_carrier.dim, max(-1, k - 2)),
        obstruction=cw_dimension_bound("c", R),
    )


@dataclass(frozen=True)
class InvarianceVerdict:
    coordinates_equal: bool
    targets_match: bool
    ends_embedded: bool
    maps_commute: bool
    bordism_valid: bool

    @property
    def verdict(self) -> bool:
        return (
            self.coordinates_equal
            and self.targets_match
            and self.ends_embedded
            and self.maps_commute
            and self.bordism_valid
        )


def bordism_invariance_check(
    cert1: PseudocycleCertificate,
    cert2: PseudocycleCertificate,
    bordism_cert: BordismCertificate,
    end1: SimplicialMap,
    end2: SimplicialMap,
) -> InvarianceVerdict:
    """Evaluation coordinates must agree across a bordism whose designated
    circuit contains both certified ends compatibly."""
    targets_match = (
        cert1.target.X.simplices == cert2.target.X.simplices
        and cert1.target.A.simplices == cert2.target.A.simplices
        and bordism_cert.target.X.simplices == cert1.target.X.simplices
    )
    coords_equal = (
        cert1.homology_coordinates == cert2.homology_coordinates
        if targets_match
        else False
    )

    def embeds(end: SimplicialMap, cert: PseudocycleCertificate) -> bool:
        if end.source.simplices != cert.circuit.L.simplices:
            return False
        if not end.is_vertex_injective():
            return False
        designated = bordism_cert.bordism.L.simplices
        return all(end.apply(s) in designated for s in cert.circuit.L.maximal_simplices)

    ends_embedded = embeds(end1, cert1) and embeds(end2, cert2)

    def commutes(end: SimplicialMap, cert: PseudocycleCertificate) -> bool:
        return all(
            bordism_cert.map.apply_vertex(end.apply_vertex(v)) == cert.map.apply_vertex(v)
            for v in cert.circuit.L.vertices
        )

    maps_commute = ends_embedded and commutes(end1, cert1) and commutes(end2, cert2)
    return InvarianceVerdict(
        coordinates_equal=coords_equal,
        targets_match=targets_match,
        ends_embedded=ends_embedded,
        maps_commute=maps_commute,
        bordism_valid=bordism_cert.valid,
    )
