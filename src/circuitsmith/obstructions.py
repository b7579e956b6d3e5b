"""Dual complexes, CW dimension bounds, and smoothing-obstruction reports.

The complement of a skeleton deformation-retracts onto a low-dimensional
dual subcomplex of the barycentric subdivision; the dimension of that dual
complex bounds the CW dimension of the complement.  Smoothings of the
manifold complements exist and are unique up to concordance whenever the
relevant groups of sphere diffeomorphisms vanish; every bound here is at
most 3, where those groups are trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import BordismData, RelativeCircuitData, _case
from .complexes import (
    SimplicialComplex,
    SubdivisionResult,
    barycentric_subdivision,
    join_decompose,
)
from .errors import MalformedInputError, StructureError


@dataclass(frozen=True)
class DualComplexResult:
    complex: SimplicialComplex
    subdivision: SubdivisionResult
    r: int
    ambient_dim: int

    @property
    def dim(self) -> int:
        return self.complex.dim


def dual_complex(K: SimplicialComplex, r: int) -> DualComplexResult:
    """Subcomplex of the barycentric subdivision spanned by chains starting
    strictly above dimension r.

    Its dimension is at most dim K - r - 1, and every subdivision simplex
    splits uniquely into a low chain and a member chain.  Both are theorems;
    ``test_criterion_6_dual_complex_bounds`` asserts them.
    """
    if r < 0 or r > K.dim:
        raise MalformedInputError(f"need 0 <= r <= {K.dim}, got {r}")
    sd = barycentric_subdivision(K)
    members = set()
    for s in sd.complex.simplices:
        low, _ = join_decompose(sd.chain_of(s), r)
        if not low:
            members.add(s)
    return DualComplexResult(SimplicialComplex(frozenset(members)), sd, r, K.dim)


# Gamma_n, the diffeomorphisms of S^(n-1) modulo those that extend over the
# disk, is trivial for n <= 6 (Kervaire-Milnor, "Groups of homotopy spheres
# I", 1963, with the classical cases n <= 3).  Every CW bound is at most 3,
# so every group a report consults is trivial.
GAMMA_GROUPS = ("0",) * 7


@dataclass(frozen=True)
class ObstructionReport:
    """Existence and uniqueness obstructions for smoothing a manifold
    complement, certified by a CW dimension bound."""

    case: str
    cw_dimension_bound: int
    required_gamma: tuple[int, ...]
    all_vanish: bool
    dual_complex_dim: int
    gamma_groups: tuple[str, ...] = ()


def cw_dimension_bound(
    case: str,
    data: RelativeCircuitData | BordismData,
) -> ObstructionReport:
    """CW dimension bound for the complement of the case singular set, plus
    the consulted obstruction groups.

    The complement retracts onto the dual complex above the r-skeleton of
    the n-dimensional host, so the bound is n - r - 1: 1, 2 and 3 for cases
    a, b and c.

    Existence obstructions live one dimension below the cohomology degree
    and uniqueness obstructions at the degree, so a bound of b consults the
    groups in dimensions 0..b; vanishing is derived from ``GAMMA_GROUPS``.

    For 0 <= r <= dim the witness is the dual complex above the r-skeleton,
    whose dimension is dim - r - 1 (a flag from an (r+1)-face up to a top
    simplex is a longest member chain); it is used in that closed form here
    and checked against ``dual_complex`` by the test suite and the
    ``dual-complex`` subcommand.
    """
    host, _, n, r = _case(case, data)
    bound = n - r - 1
    if host.simplices and 0 <= r <= host.dim:
        witness_dim = host.dim - r - 1
    else:
        # Low-dimensional circuits: the complex itself is the witness.
        witness_dim = host.dim
    if witness_dim > bound:
        raise StructureError(
            f"case {case} witness dimension {witness_dim} exceeds the bound {bound}"
        )
    required = tuple(range(0, bound + 1))
    groups = tuple(GAMMA_GROUPS[d] for d in required)
    all_vanish = all(g == "0" for g in groups)
    return ObstructionReport(case, bound, required, all_vanish, witness_dim, groups)
