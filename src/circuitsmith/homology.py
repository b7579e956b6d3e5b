"""Integer simplicial homology of complex pairs, circuit orientations,
fundamental classes, and evaluation of singular circuits in homology.

Homology here gives Betti numbers, torsion and the coordinates of a class;
it chooses no cycle basis.  All arithmetic is exact (Python ints).  Bases
are the canonically sorted simplices, and the reduction and the Smith-form
transforms are deterministic, so homology coordinates are reproducible
across runs.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from typing import Mapping

from .circuits import RelativeCircuitData
from .complexes import Simplex, SimplicialComplex, SimplicialMap
from .errors import (
    ContractError,
    MapError,
    OrientationError,
    ResourceLimitError,
    StructureError,
)
from .snf import Matrix, _eliminate, identity, mat_vec, smith_normal_form, zeros

# The most cells a dense matrix may have; a larger one would exhaust memory
# instead of failing here.  Only cores are made dense, and the core of a
# subdivided sphere has one cell in degree 0 and one in the top degree.
MAX_DENSE_CELLS = 50_000_000


def _check_dense(k: int, *shapes: tuple[str, int, int]) -> None:
    """Raise ``ResourceLimitError`` before allocating when one of the named
    (what, rows, cols) dense matrices has more than ``MAX_DENSE_CELLS`` cells."""
    for what, rows, cols in shapes:
        if rows * cols > MAX_DENSE_CELLS:
            raise ResourceLimitError(
                f"{what} of degree {k} has shape {rows} x {cols}, "
                f"over the dense limit of {MAX_DENSE_CELLS} cells"
            )


@dataclass
class IntChain:
    """A finite integer combination of same-dimension simplices."""

    degree: int
    coefficients: dict[Simplex, int]

    def __post_init__(self) -> None:
        self.coefficients = {s: c for s, c in self.coefficients.items() if c}
        for s in self.coefficients:
            if s.dim != self.degree:
                raise StructureError(f"{s} has dimension {s.dim}, chain degree is {self.degree}")

    @classmethod
    def zero(cls, degree: int) -> "IntChain":
        return cls(degree, {})

    def __add__(self, other: "IntChain") -> "IntChain":
        if self.degree != other.degree:
            raise StructureError("cannot add chains of different degrees")
        out = dict(self.coefficients)
        for s, c in other.coefficients.items():
            out[s] = out.get(s, 0) + c
        return IntChain(self.degree, out)

    def __neg__(self) -> "IntChain":
        return IntChain(self.degree, {s: -c for s, c in self.coefficients.items()})

    def __sub__(self, other: "IntChain") -> "IntChain":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntChain)
            and self.degree == other.degree
            and self.coefficients == other.coefficients
        )

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    @property
    def support(self) -> frozenset[Simplex]:
        return frozenset(self.coefficients)

    def items(self) -> list[tuple[Simplex, int]]:
        return sorted(self.coefficients.items(), key=lambda sc: sc[0].sort_key)


def chain_boundary(z: IntChain) -> IntChain:
    """Alternating-sign simplicial boundary."""
    out: dict[Simplex, int] = {}
    for s, c in z.coefficients.items():
        for i, f in enumerate(s.facets()):
            # facets() lists the face opposite vertex i at position i
            sign = (-1) ** i
            out[f] = out.get(f, 0) + sign * c
    return IntChain(z.degree - 1, out)


@dataclass(frozen=True)
class Coordinates:
    """Coordinates of a homology class: free part plus torsion residues."""

    degree: int
    free: tuple[int, ...]
    torsion: tuple[int, ...]
    torsion_orders: tuple[int, ...]


@dataclass
class _Reduction:
    """The chain complex left when no unit entry is left in any boundary,
    and the log that projects chains onto it."""

    cells: dict[int, list[int]]    # basis indices of the core cells of each degree
    columns: dict[int, list[dict[int, int]]]  # the core boundary of each core cell
    log: dict[int, list[tuple[int, int, dict[int, int]]]]  # (r, u, boundary of c) for
                                                           # each pair whose row r has that degree


@dataclass
class _DegreeData:
    """What coordinates read in one degree of the core: Qinv of the outgoing
    boundary with its rank, and P of the kernel-coordinate matrix with its
    nonzero invariant factors."""

    rank_boundary_out: int         # rank of the outgoing boundary (degree)
    diagonal: tuple[int, ...]      # nonzero invariant factors of the incoming
                                   # boundary, as many as its rank
    qinv: Matrix                   # inverse column transform of the outgoing boundary
    p2: Matrix                     # row transform of the kernel-coordinate matrix


class HomologyResult:
    """Integer homology of a pair: Betti numbers, torsion and coordinates.

    Nothing is eliminated up front.  The first query reduces the relative
    chain complex once, over every degree, by elementary reductions on unit
    entries of the sparse boundary columns (Kaczynski, Mrozek and Slusarek,
    Computers Math. Applic. 1998), and keeps the small core that is left
    and the log of the reductions.  Betti numbers and torsion are read from
    the core's boundaries; coordinates replay the log of their degree to
    project a cycle onto the core, then read two tracked dense eliminations
    of the core.  Each elimination runs on first use and is kept.
    """

    def __init__(self, K: SimplicialComplex, A: SimplicialComplex | None = None):
        A = A or SimplicialComplex.empty()
        if not A.is_subcomplex_of(K):
            raise StructureError("relative subcomplex must sit inside the complex")
        self.K = K
        self.A = A
        self._reduced: _Reduction | None = None
        self._degrees: dict[int, _DegreeData] = {}
        self._diagonals: dict[int, list[int]] = {}
        self._bases: dict[int, tuple[Simplex, ...]] = {}
        for d in range(0, K.dim + 1):
            self._bases[d] = tuple(
                s for s in K.simplices_of_dim(d) if s not in A.simplices
            )

    def _columns(self, k: int) -> list[list[tuple[int, int]]]:
        """Each degree-k basis simplex's relative boundary as (row, sign) pairs;
        a facet in neither the degree-(k-1) basis nor A raises ``ContractError``."""
        index = {s.vertices: i for i, s in enumerate(self._bases.get(k - 1, ()))}
        columns = []
        for s in self._bases.get(k, ()):
            vs = s.vertices
            column = []
            for i in range(len(vs) if k else 0):
                f = vs[:i] + vs[i + 1 :]
                row = index.get(f)
                if row is not None:
                    column.append((row, -1 if i % 2 else 1))
                elif Simplex(f) not in self.A.simplices:
                    raise ContractError(f"{s} has the face {list(f)}, which is not in "
                                        "the complex: the simplex set must be face-closed")
            columns.append(column)
        return columns

    def _reduction(self) -> _Reduction:
        """Reduce every degree by unit pivots, once.

        Each pass takes the columns of each degree d+1 in order and pivots
        on a unit u = <dc, r> of column c that lies in the row r with the
        fewest nonzeros.  Column operations col -= <col, r> u dc clear row r
        from the other columns, which leaves the same remainder as row
        operations would; then c and r are dropped, with the row of c in the
        boundary above and the column of r in the boundary below, and
        (r, u, dc) is logged under degree d.  Passes repeat until no unit is
        left in any degree."""
        if self._reduced is not None:
            return self._reduced
        top = len(self._bases) - 1
        cols = {d: [dict(column) for column in self._columns(d)] for d in range(1, top + 1)}
        # rows[d][r]: the live columns of degree d+1 whose boundary meets r
        rows: dict[int, list[set[int]]] = {d: [set() for _ in self._bases[d]] for d in range(top)}
        for d, columns in cols.items():
            for j, col in enumerate(columns):
                for r in col:
                    rows[d - 1][r].add(j)
        paired: dict[int, set[int]] = {d: set() for d in range(top + 1)}
        log: dict[int, list[tuple[int, int, dict[int, int]]]] = {d: [] for d in range(top + 1)}
        found = True
        while found:
            found = False
            for d in range(top):
                columns, support = cols[d + 1], rows[d]
                for c, col in enumerate(columns):
                    pivot = None
                    for r, x in col.items():
                        if (x == 1 or x == -1) and (pivot is None or len(support[r]) < len(support[pivot])):
                            pivot = r
                    if pivot is None:
                        continue
                    found = True
                    u = col[pivot]
                    for j in support[pivot]:
                        if j == c:
                            continue
                        other = columns[j]
                        f = other.pop(pivot) * u  # <other, r> / u, as u = 1 / u
                        for r, x in col.items():
                            if r == pivot:
                                continue
                            y = other.get(r, 0) - f * x
                            if y:
                                other[r] = y
                                support[r].add(j)
                            else:
                                del other[r]
                                support[r].discard(j)
                    for r in col:
                        support[r].discard(c)
                    support[pivot].clear()
                    columns[c] = {}
                    if d + 1 < top:
                        above = cols[d + 2]
                        for j in rows[d + 1][c]:
                            del above[j][c]
                        rows[d + 1][c].clear()
                    if d > 0:
                        for r in cols[d][pivot]:
                            rows[d - 1][r].discard(pivot)
                        cols[d][pivot] = {}
                    paired[d + 1].add(c)
                    paired[d].add(pivot)
                    log[d].append((pivot, u, col))
        cells = {d: [i for i in range(len(self._bases[d])) if i not in paired[d]] for d in range(top + 1)}
        self._reduced = _Reduction(cells, {d: [cols[d][j] for j in cells[d]] for d in cols}, log)
        return self._reduced

    def _core_boundary(self, k: int) -> tuple[Matrix, int, int]:
        """The dense core boundary from degree k to k-1, without the rows
        that no column meets, and its shape."""
        core = self._reduction()
        columns = core.columns.get(k, ())
        live = sorted({r for col in columns for r in col})
        m, n = len(live), len(core.cells.get(k, ()))
        _check_dense(k, ("core boundary", m, n))
        at = {r: i for i, r in enumerate(live)}
        a = zeros(m, n)
        for j, col in enumerate(columns):
            for r, x in col.items():
                a[at[r]][j] = x
        return a, m, n

    def _diagonal(self, k: int) -> list[int]:
        """Nonzero invariant factors of the core boundary from degree k to k-1."""
        out = self._diagonals.get(k)
        if out is None:
            a, m, n = self._core_boundary(k)
            out = self._diagonals[k] = [d for d in _eliminate(a, m, n, None, None) if d]
        return out

    def _degree(self, k: int) -> _DegreeData:
        """What coordinates of degree k read, from the two tracked
        eliminations of the core; computed on first use and kept."""
        data = self._degrees.get(k)
        if data is not None:
            return data
        a, rows, n = self._core_boundary(k)
        _check_dense(k, ("column transform", n, n))
        qinv = identity(n)
        r_out = sum(1 for d in _eliminate(a, rows, n, None, qinv) if d)
        core = self._reduction()
        above = core.columns.get(k + 1, ())
        cols, m_rows = len(above), n - r_out
        _check_dense(k, ("kernel-coordinate matrix", m_rows, cols),
                     ("kernel row transform", m_rows, m_rows), ("kernel column transform", cols, cols))
        # Rows r_out.. of Qinv times the incoming boundary; the rows above
        # r_out vanish because boundaries are cycles, so they are never formed.
        at = {r: i for i, r in enumerate(core.cells[k])}
        m = [[sum(row[at[r]] * x for r, x in column.items()) for column in above] for row in qinv[r_out:]]
        snf_in = smith_normal_form(m, cols=cols)
        diagonal = tuple(d for d in snf_in.diagonal if d)
        data = self._degrees[k] = _DegreeData(r_out, diagonal, qinv, snf_in.P)
        return data

    def betti(self, k: int) -> int:
        if k not in self._bases:
            return 0
        return len(self._reduction().cells[k]) - len(self._diagonal(k)) - len(self._diagonal(k + 1))

    def torsion(self, k: int) -> tuple[int, ...]:
        if k not in self._bases:
            return ()
        return tuple(d for d in self._diagonal(k + 1) if d > 1)

    def betti_numbers(self) -> tuple[int, ...]:
        return tuple(self.betti(k) for k in range(0, max(self.K.dim, 0) + 1))

    def _chain_vector(self, z: IntChain) -> list[int]:
        basis = self._bases[z.degree]
        index = {s: i for i, s in enumerate(basis)}
        vec = [0] * len(basis)
        for s, c in z.coefficients.items():
            i = index.get(s)
            if i is None:
                if s in self.A.simplices:
                    continue  # relative chain: A-simplices are quotiented away
                raise StructureError(f"{s} is not a simplex of the complex")
            vec[i] = c
        return vec

    def coordinates(self, z: IntChain) -> Coordinates:
        """Homology coordinates of a relative cycle."""
        k = z.degree
        if k not in self._bases:
            return Coordinates(k, (), (), ())
        vec = self._chain_vector(z)
        # The projection cannot see a non-cycle: a cell paired downward
        # projects to zero.
        if any(s not in self.A.simplices for s in chain_boundary(z).support):
            raise ContractError("chain is not a relative cycle")
        core = self._reduction()
        for r, u, column in core.log[k]:
            f = vec[r] * u
            if f:
                for s, x in column.items():
                    vec[s] -= f * x
        data = self._degree(k)
        kappa = mat_vec(data.qinv, [vec[i] for i in core.cells[k]])[data.rank_boundary_out :]
        w = mat_vec(data.p2, kappa)
        residues = tuple(w[i] % d for i, d in enumerate(data.diagonal) if d > 1)
        orders = tuple(d for d in data.diagonal if d > 1)
        return Coordinates(k, tuple(w[len(data.diagonal) :]), residues, orders)


def homology(K: SimplicialComplex, A: SimplicialComplex | None = None) -> HomologyResult:
    return HomologyResult(K, A)


@dataclass(frozen=True)
class OrientationAssignment:
    """Signs on the top simplices of a circuit's manifold part."""

    signs: Mapping[Simplex, int]
    orientable: bool
    witness_cycle: tuple[Simplex, ...] = ()


def orient_circuit(Q: RelativeCircuitData) -> OrientationAssignment:
    """Propagate compatible orientations across shared facets outside the
    singular set, component by component.  A facet f of a top simplex t whose
    row in the link table of L holds two vertices, t's and w, joins t to
    u = f + w, whose incidence sign on f is (-1)^j for j the position of w."""
    links = Q.L._links
    singular = {s.vertices for s in Q.S.simplices}
    tops = {t.vertices: t for t in Q.L.simplices_of_dim(Q.k)}
    signs: dict[tuple[int, ...], int] = {}
    parent: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    for root in tops:
        if root in signs:
            continue
        signs[root] = 1
        parent[root] = None
        stack = [root]
        while stack:
            tv = stack.pop()
            for i in range(len(tv)):
                fv = tv[:i] + tv[i + 1 :]
                row = links.get(fv, ())  # the empty facet of a vertex has no row
                if len(row) != 2 or fv in singular:
                    continue
                (a,), (b,) = row
                w = b if a == tv[i] else a
                j = bisect(fv, w)
                uv = fv[:j] + (w,) + fv[j:]
                needed = -signs[tv] * (-1) ** (i + j)
                if uv not in signs:
                    signs[uv] = needed
                    parent[uv] = tv
                    stack.append(uv)
                elif signs[uv] != needed:
                    cycle = _conflict_cycle(parent, tv, uv)
                    return OrientationAssignment({}, False, tuple(tops[v] for v in cycle))
    return OrientationAssignment({tops[v]: c for v, c in signs.items()}, True)


def _conflict_cycle(
    parent: Mapping[tuple[int, ...], tuple[int, ...] | None], a: tuple[int, ...], b: tuple[int, ...]
) -> list[tuple[int, ...]]:
    def path(t: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = [t]
        while parent[t] is not None:
            t = parent[t]  # type: ignore[assignment]
            out.append(t)
        return out

    pa, pb = path(a), path(b)
    common = set(pa) & set(pb)
    cut_a = next(i for i, t in enumerate(pa) if t in common)
    cut_b = next(i for i, t in enumerate(pb) if t in common)
    return pa[: cut_a + 1] + pb[:cut_b][::-1]


def fundamental_class(Q: RelativeCircuitData, o: OrientationAssignment) -> IntChain:
    """Signed sum of the top simplices; a cycle rel the boundary subcomplex."""
    if not o.orientable:
        raise OrientationError("circuit is not orientable", witness=o.witness_cycle)
    tops = Q.L.simplices_of_dim(Q.k)
    missing = [t for t in tops if t not in o.signs]
    if missing:
        raise ContractError(f"orientation does not cover {missing[0]}")
    z = IntChain(Q.k, {t: o.signs[t] for t in tops})
    # The signs come from the caller, so a leak is an orientation at fault.
    stray = [s for s in chain_boundary(z).support if s not in Q.K.simplices]
    if stray:
        leak = min(stray, key=lambda s: s.sort_key)
        raise OrientationError(
            f"fundamental chain boundary leaks outside the designated boundary at {leak}",
            witness=(leak,),
        )
    return z


def induced_boundary_orientation(
    Q: RelativeCircuitData, o: OrientationAssignment
) -> OrientationAssignment:
    """Orientation the boundary circuit inherits from the fundamental chain.

    The signs come from the caller; a boundary facet whose coefficient is not
    1 or -1 raises ``OrientationError`` with that facet as witness.
    """
    z = fundamental_class(Q, o)
    bz = chain_boundary(z)
    signs: dict[Simplex, int] = {}
    for s, c in bz.coefficients.items():
        if c not in (1, -1):
            raise OrientationError(
                f"boundary coefficient {c} at {s} is not a unit", witness=(s,)
            )
        signs[s] = c
    return OrientationAssignment(signs, True)


def pushforward(a: SimplicialMap, z: IntChain) -> IntChain:
    """Chain-level image; degenerate simplex images contribute zero."""
    out: dict[Simplex, int] = {}
    for s, c in z.coefficients.items():
        image = [a.apply_vertex(v) for v in s.vertices]
        if len(set(image)) != len(image):
            continue
        order = sorted(range(len(image)), key=lambda i: image[i])
        sign = _permutation_sign(order)
        t = Simplex(tuple(image[i] for i in order))
        out[t] = out.get(t, 0) + sign * c
    return IntChain(z.degree, out)


def _permutation_sign(perm: list[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def evaluate(
    a: SimplicialMap,
    z: IntChain,
    A: SimplicialComplex | None = None,
    domain_boundary: SimplicialComplex | None = None,
) -> Coordinates:
    """Coordinates of the pushed-forward relative cycle in the target pair.

    ``domain_boundary`` must map into ``A`` for the pushforward to be a map
    of pairs; violations raise.
    """
    A = A or SimplicialComplex.empty()
    boundary = domain_boundary or SimplicialComplex.empty()
    for s in boundary.maximal_simplices:
        if a.apply(s) not in A.simplices:
            raise MapError(f"not a map of pairs: {s} lands on {a.apply(s)} outside the subpair")
    # Coordinates quotient the simplices of A away.
    return homology(a.target, A).coordinates(pushforward(a, z))
