"""Circuits (pseudomanifolds), their singular sets, and bordism constructions.

A relative k-circuit is a compact polyhedron that is a PL k-manifold away
from a singular subcomplex of dimension at most k-2, whose boundary is again
a circuit with the induced singular set.  This module verifies those axioms
at the level of a chosen triangulation, constructs the three codimension-two
singular sets whose complements are manifolds, and provides gluing, cylinder
and subdivision-prism constructions for bordism arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .complexes import (
    OpenSimplexSet,
    PrismResult,
    ProductResult,
    Simplex,
    SimplicialComplex,
    build_complex,
    product_complex,
    relabel,
    star,
    subdivision_prism,
)
from .errors import ContractError, MapError, StructureError
from .recognition import RegionVerdict, region_is_pl_manifold


@dataclass(frozen=True)
class RelativeCircuitData:
    """A candidate relative circuit: complex, boundary subcomplex, dimension,
    and singular-set candidate."""

    L: SimplicialComplex
    K: SimplicialComplex
    k: int
    S: SimplicialComplex

    def __post_init__(self) -> None:
        if not self.K.is_subcomplex_of(self.L):
            raise StructureError("boundary is not a subcomplex of the circuit complex")
        if not self.S.is_subcomplex_of(self.L):
            raise StructureError("singular candidate is not a subcomplex of the circuit complex")

    @classmethod
    def closed(cls, L: SimplicialComplex, k: int, S: SimplicialComplex | None = None) -> "RelativeCircuitData":
        return cls(L, SimplicialComplex.empty(), k, S or SimplicialComplex.empty())


@dataclass(frozen=True)
class BordismData:
    """A candidate nullbordism: ambient complex N, its boundary M, the
    designated sub-circuit (L, K) inside M, dimension k of the sub-circuit,
    and the bordism's own singular candidate."""

    N: SimplicialComplex
    M: SimplicialComplex
    L: SimplicialComplex
    K: SimplicialComplex
    k: int
    S: SimplicialComplex

    def __post_init__(self) -> None:
        if not self.M.is_subcomplex_of(self.N):
            raise StructureError("M is not a subcomplex of N")
        if not self.L.is_subcomplex_of(self.M):
            raise StructureError("the designated circuit complex is not inside M")
        if not self.K.is_subcomplex_of(self.L):
            raise StructureError("the designated boundary is not inside the circuit complex")
        if not self.S.is_subcomplex_of(self.N):
            raise StructureError("singular candidate is not a subcomplex of N")

    def designated_circuit(self) -> RelativeCircuitData:
        return RelativeCircuitData(self.L, self.K, self.k, self.S.intersection(self.L))

    def as_circuit(self) -> RelativeCircuitData:
        return RelativeCircuitData(self.N, self.M, self.k + 1, self.S)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witnesses: tuple[Simplex, ...] = ()
    detail: str = ""
    unknown: bool = False


@dataclass(frozen=True)
class CircuitVerdict:
    checks: tuple[CheckResult, ...]

    @cached_property
    def unknown(self) -> bool:
        return any(c.unknown for c in self.checks)

    @cached_property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks) and not self.unknown

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed or c.unknown)

    def witnesses(self) -> tuple[Simplex, ...]:
        out: list[Simplex] = []
        for c in self.failures():
            out.extend(c.witnesses)
        return tuple(out)


def _sorted_witnesses(simplices) -> tuple[Simplex, ...]:
    return tuple(sorted(simplices, key=lambda s: s.sort_key))


def _verify_circuit_checks(data: RelativeCircuitData, prefix: str = "") -> list[CheckResult]:
    L, K, k, S = data.L, data.K, data.k, data.S
    checks: list[CheckResult] = []
    if not L.simplices:
        checks.append(CheckResult(prefix + "empty", True, detail="empty circuit is vacuously valid"))
        return checks

    if L.dim != k:
        checks.append(
            CheckResult(
                prefix + "dimension",
                False,
                _sorted_witnesses(L.maximal_simplices),
                f"complex has dimension {L.dim}, circuit dimension is {k}",
            )
        )
        return checks

    s_bad = [s for s in S.simplices if s.dim > k - 2]
    checks.append(
        CheckResult(
            prefix + "singular-dimension",
            not s_bad,
            _sorted_witnesses(s_bad),
            f"singular set must have dimension <= {k - 2}",
        )
    )

    impure = [s for s in L.maximal_simplices if s.dim != k]
    checks.append(
        CheckResult(
            prefix + "purity",
            not impure,
            _sorted_witnesses(impure),
            "every simplex must be a face of a top-dimensional simplex",
        )
    )

    if s_bad or impure:
        return checks

    checks += _region_checks(
        L, S.simplices, k, K.simplices,
        (prefix + "manifold-complement", "complement of the singular set must be a PL manifold"),
        (
            prefix + "boundary-match",
            "manifold boundary must be exactly the designated boundary minus the singular set",
        ),
    )
    sub = RelativeCircuitData(K, SimplicialComplex.empty(), k - 1, S.intersection(K))
    checks += _verify_circuit_checks(sub, prefix=prefix + "boundary/")
    return checks


def verify_circuit(data: RelativeCircuitData) -> CircuitVerdict:
    """Check the circuit axioms for the given triangulated candidate."""
    if data.L.simplices and data.L.dim != data.k:
        raise StructureError(
            f"dimension mismatch: complex has dimension {data.L.dim}, expected {data.k}"
        )
    return CircuitVerdict(tuple(_verify_circuit_checks(data)))


def boundary_circuit(data: RelativeCircuitData) -> RelativeCircuitData:
    """The boundary as an absolute circuit with the induced singular set."""
    verdict = verify_circuit(data)
    if not verdict.valid:
        raise ContractError(
            f"boundary_circuit called on an invalid circuit: {[c.name for c in verdict.failures()]}"
        )
    return RelativeCircuitData(
        data.K, SimplicialComplex.empty(), data.k - 1, data.S.intersection(data.K)
    )


def verify_nullbordism(R: BordismData, Q: RelativeCircuitData) -> CircuitVerdict:
    """Check that R is a nullbordism of its designated sub-circuit Q."""
    checks: list[CheckResult] = []
    designation_ok = (
        R.L.simplices == Q.L.simplices
        and R.K.simplices == Q.K.simplices
        and R.k == Q.k
    )
    witnesses = _sorted_witnesses(R.L.simplices ^ Q.L.simplices) if not designation_ok else ()
    checks.append(
        CheckResult(
            "designation",
            designation_ok,
            witnesses,
            "the circuit must be the designated subcomplex of the bordism",
        )
    )
    if not designation_ok:
        return CircuitVerdict(tuple(checks))

    checks.append(
        CheckResult(
            "circuit-in-boundary",
            Q.L.is_subcomplex_of(R.M),
            _sorted_witnesses(Q.L.simplices - R.M.simplices),
            "the designated circuit must lie in the bordism boundary",
        )
    )

    if R.N.simplices and R.N.dim != R.k + 1:
        checks.append(
            CheckResult(
                "bordism-dimension",
                False,
                _sorted_witnesses(R.N.maximal_simplices),
                f"bordism complex has dimension {R.N.dim}, expected {R.k + 1}",
            )
        )
        return CircuitVerdict(tuple(checks))

    checks.extend(_verify_circuit_checks(R.as_circuit(), prefix="bordism/"))
    checks.extend(_verify_circuit_checks(Q, prefix="circuit/"))

    s_on_q = R.S.simplices & Q.L.simplices
    mism = s_on_q ^ Q.S.simplices
    checks.append(
        CheckResult(
            "singular-compatibility",
            not mism,
            _sorted_witnesses(mism),
            "the bordism singular set must meet the circuit exactly in its singular set",
        )
    )
    s_on_k = R.S.simplices & Q.K.simplices
    mism_k = s_on_k ^ (Q.S.simplices & Q.K.simplices)
    checks.append(
        CheckResult(
            "singular-boundary-compatibility",
            not mism_k,
            _sorted_witnesses(mism_k),
            "induced identity on the circuit boundary",
        )
    )
    return CircuitVerdict(tuple(checks))


@dataclass(frozen=True)
class SingularSet:
    """One of the three explicit codimension-two singular sets."""

    case: str                       # "a", "b" or "c"
    complex: SimplicialComplex
    ambient_dim: int

    def __post_init__(self) -> None:
        if self.case not in ("a", "b", "c"):
            raise StructureError(f"unknown singular-set case {self.case!r}")
        # ``singular_set`` meets the codimension bound by construction; a
        # singular set built directly is checked.  The empty set meets it in
        # every ambient dimension.
        if self.complex.simplices and self.complex.dim > self.ambient_dim - 2:
            raise StructureError(
                f"singular set has dimension {self.complex.dim}, ambient is {self.ambient_dim}"
            )

    @property
    def dim(self) -> int:
        return self.complex.dim

    @property
    def codim(self) -> int:
        if self.complex.dim < 0:
            return self.ambient_dim + 1
        return self.ambient_dim - self.complex.dim

    def members(self) -> frozenset[Simplex]:
        return self.complex.simplices


def _case(
    case: str, data: RelativeCircuitData | BordismData
) -> tuple[SimplicialComplex, SimplicialComplex, int, int]:
    """The host complex, its designated boundary, the ambient dimension n and
    the skeleton cutoff r of a singular-set case.

    Case a is an absolute k-circuit (n = k, r = n - 2), case b a relative
    k-circuit (n = k, r = n - 3) and case c a nullbordism of a k-circuit
    (n = k + 1, r = n - 4).  The singular set holds the whole r-skeleton,
    and its complement retracts onto a complex of dimension at most n - r - 1.
    """
    if case == "c":
        if not isinstance(data, BordismData):
            raise StructureError("case c expects bordism data")
        return data.N, data.M, data.k + 1, data.k - 3
    if case not in ("a", "b"):
        raise StructureError(f"unknown case {case!r}")
    if not isinstance(data, RelativeCircuitData):
        raise StructureError(f"case {case} expects circuit data")
    if case == "a" and data.K.simplices:
        raise StructureError("case a expects an absolute circuit (empty boundary)")
    return data.L, data.K, data.k, (data.k - 2 if case == "a" else data.k - 3)


def singular_set(case: str, data: RelativeCircuitData | BordismData) -> SingularSet:
    """The case-specific singular set whose complement is a PL manifold: the
    (n-2)-skeleton of the host minus the boundary's (n-2)-simplices, and in
    case c also minus the star of the circuit boundary's (k-2)-simplices."""
    host, boundary, n, _ = _case(case, data)
    members = {
        s
        for s in host.simplices
        if s.dim < n - 2 or (s.dim == n - 2 and s not in boundary.simplices)
    }
    if case == "c":
        edge = OpenSimplexSet.of(host, (s for s in data.K.simplices if s.dim == data.k - 2))
        members -= star(edge, host).members
    return SingularSet(case, SimplicialComplex(frozenset(members)), n)


def _region_checks(
    host: SimplicialComplex,
    removed: frozenset[Simplex],
    dim: int,
    boundary: frozenset[Simplex],
    region_check: tuple[str, str],
    boundary_check: tuple[str, str],
) -> list[CheckResult]:
    """Two checks, each given as (name, detail): the host minus ``removed`` is
    a PL dim-manifold, and its manifold boundary is ``boundary`` minus
    ``removed``."""
    region = region_is_pl_manifold(OpenSimplexSet(host, host.simplices - removed), dim)
    mismatch = region.boundary ^ (boundary - removed)
    unknown = region.verdict is RegionVerdict.UNKNOWN
    note = f"; Unknown at a link of dimension {dim - region.witness.dim - 1}" if unknown else ""
    return [
        CheckResult(
            region_check[0],
            region.verdict is not RegionVerdict.NO,
            (region.witness,) if region.witness is not None else (),
            region_check[1] + note,
            unknown=unknown,
        ),
        CheckResult(boundary_check[0], not mismatch, _sorted_witnesses(mismatch), boundary_check[1]),
    ]


def _complement_checks(n: int) -> tuple[tuple[str, str], tuple[str, str]]:
    """(name, detail) of the region and boundary checks of a complement."""
    return (("complement", f"complement must be a PL {n}-manifold"),
            ("complement-boundary", "manifold boundary must match"))


def verify_manifold_complement(
    case: str, data: RelativeCircuitData | BordismData, sigma: SingularSet
) -> CircuitVerdict:
    """Confirm that the complement of the singular set is a manifold with the
    predicted boundary, entirely through link analysis."""
    if sigma.case != case:
        raise StructureError("singular set was built for a different case")
    host, boundary, n, _ = _case(case, data)
    members = sigma.members()
    checks = _region_checks(host, members, n, boundary.simplices, *_complement_checks(n))
    if case == "c":
        checks += _region_checks(
            data.L, members, data.k, data.K.simplices,
            ("designated-circuit", f"complement must be a PL {data.k}-manifold"),
            ("designated-circuit-boundary", "manifold boundary must match"),
        )
        checks.append(
            CheckResult(
                "properly-embedded",
                data.L.is_subcomplex_of(data.M),
                _sorted_witnesses(data.L.simplices - data.M.simplices),
                "the designated circuit must sit inside the bordism boundary",
            )
        )
    return CircuitVerdict(tuple(checks))


def circuit_complement_verdict(data: RelativeCircuitData) -> CircuitVerdict:
    """The case-b verdict of ``verify_manifold_complement`` on a circuit that
    passes ``verify_circuit``, read off without recognition.

    The circuit axioms make L minus S a PL k-manifold with boundary K minus
    S, classifying every simplex in the host L.  S has dimension at most k-2
    and meets K in dimension at most k-3, so it lies in the case-b singular
    set; the complement of that set is an open part of L minus S, and its
    boundary is K minus the singular set, as predicted.  Both checks pass.
    """
    return CircuitVerdict(tuple(CheckResult(name, True, detail=d) for name, d in _complement_checks(data.k)))


def skeleton_complement_inclusions(
    case: str, data: RelativeCircuitData | BordismData, sigma: SingularSet
) -> bool:
    """The manifold part lies in the complement of a low skeleton: every
    simplex of dimension at most the case cutoff r belongs to the singular
    set."""
    if sigma.case != case:
        raise StructureError("singular set was built for a different case")
    host, _, _, r = _case(case, data)
    members = sigma.members()
    return all(s in members for s in host.simplices if s.dim <= r)


@dataclass(frozen=True)
class GlueResult:
    data: RelativeCircuitData
    verdict: CircuitVerdict
    left_vertex_map: dict[int, int]
    right_vertex_map: dict[int, int]
    reversed_right: bool


def glue(
    A: RelativeCircuitData,
    B: RelativeCircuitData,
    interface_a: SimplicialComplex,
    interface_b: SimplicialComplex,
    iso: Mapping[int, int],
    reverse_orientation: bool = True,
) -> GlueResult:
    """Identify two circuits along isomorphic boundary subcomplexes.

    ``iso`` maps interface_a vertices to interface_b vertices and must induce
    a simplicial isomorphism.  The result's boundary is the closure of the
    unidentified boundary parts, its singular set is the image of both
    singular sets, and its circuit validity is re-verified, never assumed.
    The orientation flag records whether the right side enters with reversed
    orientation (the usual convention when composing bordisms); the
    underlying unoriented complex is unaffected.
    """
    if A.k != B.k:
        raise StructureError(f"cannot glue circuits of different dimensions {A.k} and {B.k}")
    if not interface_a.is_subcomplex_of(A.K):
        raise StructureError("left interface must be a subcomplex of the left boundary")
    if not interface_b.is_subcomplex_of(B.K):
        raise StructureError("right interface must be a subcomplex of the right boundary")
    iso = dict(iso)
    if sorted(iso.keys()) != list(interface_a.vertices):
        raise MapError("iso must be defined exactly on the left interface vertices")
    if sorted(iso.values()) != list(interface_b.vertices):
        raise MapError("iso must hit exactly the right interface vertices")
    mapped = {Simplex.of(iso[v] for v in s.vertices) for s in interface_a.simplices}
    if mapped != set(interface_b.simplices):
        raise MapError("iso is not a simplicial isomorphism of the interfaces")

    left_map = {v: v for v in A.L.vertices}
    inverse = {w: v for v, w in iso.items()}
    fresh = max([*A.L.vertices, -1]) + 1
    right_map: dict[int, int] = {}
    for v in B.L.vertices:
        if v in inverse:
            right_map[v] = inverse[v]
        else:
            right_map[v] = fresh
            fresh += 1

    right_L = relabel(B.L, right_map)
    right_K = relabel(B.K, right_map)
    right_S = relabel(B.S, right_map)
    overlap = (A.L.simplices & right_L.simplices) - interface_a.simplices
    if overlap:
        raise StructureError(
            "identification collapses distinct simplices onto "
            f"{sorted(overlap)[0]}; subdivide the inputs first"
        )
    L_new = A.L.union(right_L)

    interface = interface_a.simplices
    boundary_members = (A.K.simplices - interface) | (right_K.simplices - interface)
    K_new = SimplicialComplex.from_simplices(boundary_members)
    S_new = A.S.union(right_S)

    data = RelativeCircuitData(L_new, K_new, A.k, S_new)
    verdict = verify_circuit(data)
    return GlueResult(data, verdict, left_map, right_map, reverse_orientation)


@dataclass(frozen=True)
class CylinderResult:
    bordism: BordismData
    product: ProductResult
    bottom_vertex_map: dict[int, int]
    top_vertex_map: dict[int, int]
    bottom: SimplicialComplex
    top: SimplicialComplex


def cylinder(Q: RelativeCircuitData) -> CylinderResult:
    """The product bordism from a circuit to itself.

    The designated sub-circuit is the disjoint union of the two ends; the
    cylinder's singular set is the prism over the circuit's singular set.
    """
    verdict = verify_circuit(Q)
    if not verdict.valid:
        raise ContractError("cylinder requires a verified circuit")
    edge = build_complex([[0, 1]])
    prod = product_complex(Q.L, edge)
    zero, one = Simplex((0,)), Simplex((1,))

    def level(s: Simplex) -> Simplex:
        return prod.project_right(s)

    end0 = SimplicialComplex(frozenset(s for s in prod.complex.simplices if level(s) == zero))
    end1 = SimplicialComplex(frozenset(s for s in prod.complex.simplices if level(s) == one))
    side = SimplicialComplex(
        frozenset(s for s in prod.complex.simplices if prod.project_left(s) in Q.K.simplices)
    )
    M = end0.union(end1).union(side)
    ends = end0.union(end1)
    ends_K = SimplicialComplex(
        frozenset(
            s
            for s in ends.simplices
            if prod.project_left(s) in Q.K.simplices
        )
    )
    S_cyl = SimplicialComplex(
        frozenset(s for s in prod.complex.simplices if prod.project_left(s) in Q.S.simplices)
    )
    bordism = BordismData(prod.complex, M, ends, ends_K, Q.k, S_cyl)
    bottom = {v: prod.lift(v, 0) for v in Q.L.vertices}
    top = {v: prod.lift(v, 1) for v in Q.L.vertices}
    return CylinderResult(bordism, prod, bottom, top, end0, end1)


@dataclass(frozen=True)
class SubdivisionBordismResult:
    bordism: BordismData
    prism: PrismResult
    bottom_circuit: RelativeCircuitData
    top_circuit: RelativeCircuitData
    bottom_vertex_map: dict[int, int]           # original vertex -> prism vertex
    top_carrier: dict[int, Simplex]             # prism top vertex -> original simplex


def subdivision_bordism(Q: RelativeCircuitData) -> SubdivisionBordismResult:
    """Prism bordism between a circuit and its barycentric subdivision."""
    verdict = verify_circuit(Q)
    if not verdict.valid:
        raise ContractError("subdivision bordism requires a verified circuit")
    prism = subdivision_prism(Q.L)
    bottom, top = prism.bottom, prism.top
    side = prism.over(Q.K)
    M = bottom.union(top).union(side)
    ends = bottom.union(top)
    bottom_K = SimplicialComplex(frozenset(side.simplices & bottom.simplices))
    top_K = SimplicialComplex(frozenset(side.simplices & top.simplices))
    S = prism.over(Q.S)
    ends_K = bottom_K.union(top_K)
    bordism = BordismData(prism.complex, M, ends, ends_K, Q.k, S)
    bottom_circuit = RelativeCircuitData(
        bottom, bottom_K, Q.k, SimplicialComplex(frozenset(S.simplices & bottom.simplices))
    )
    top_circuit = RelativeCircuitData(
        top, top_K, Q.k, SimplicialComplex(frozenset(S.simplices & top.simplices))
    )
    top_carrier = {pv: s for s, pv in prism.top_vertex.items()}
    return SubdivisionBordismResult(
        bordism, prism, bottom_circuit, top_circuit, dict(prism.bottom_vertex), top_carrier
    )
