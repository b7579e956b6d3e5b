"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtime-limited criteria time themselves and fail when over budget.
"""

from __future__ import annotations

import json
import random
import time

from circuitsmith import (
    BordismData,
    CompactifiedMap,
    PuncturedComplex,
    RelativeCircuitData,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    TargetPair,
    barycentric_subdivision,
    bordism_invariance_check,
    boundary_circuit,
    build_complex,
    chain_boundary,
    compose,
    cylinder,
    dual_complex,
    evaluate,
    fundamental_class,
    homology,
    induced_boundary_orientation,
    is_proper,
    join_decompose,
    limit_set,
    orient_circuit,
    preimage_restrict,
    product,
    product_complex,
    psi,
    restrict_closed,
    singular_set,
    skeleton_complement_inclusions,
    subdivision_bordism,
    verify_bordism_certificate,
    verify_circuit,
    verify_manifold_complement,
)
from circuitsmith.limits import is_surjective
from circuitsmith.obstructions import GAMMA_GROUPS
from circuitsmith.serialize import (
    dumps,
    pseudocycle_certificate_to_json,
    reverify_certificate,
)

from .conftest import simplex_boundary_complex
from .generators import (
    random_complex,
    random_compactified_map,
    random_outer_map,
    random_punctured,
    random_subcomplex,
    small_map_for_products,
)
from .oracles import (
    assert_composition_laws,
    assert_cover_law,
    assert_preimage_law,
    assert_product_laws,
    assert_restriction_laws,
    oracle_homology,
)


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def subdivided_disk_pair():
    triangle = build_complex([[0, 1, 2]])
    boundary = build_complex([[0, 1], [1, 2], [0, 2]])
    sd = barycentric_subdivision(triangle)
    K = SimplicialComplex(
        frozenset(
            s
            for s in sd.complex.simplices
            if all(sd.barycenter_of[u] in boundary.simplices for u in s.vertices)
        )
    )
    return RelativeCircuitData(sd.complex, K, 2, SimplicialComplex.empty()), sd


def annulus_pair():
    circle = build_complex([[0, 1], [1, 2], [0, 2]])
    path = build_complex([[0, 1], [1, 2], [2, 3]])
    pr = product_complex(circle, path)
    end0 = SimplicialComplex(
        frozenset(s for s in pr.complex.simplices if pr.project_right(s) == Simplex((0,)))
    )
    end3 = SimplicialComplex(
        frozenset(s for s in pr.complex.simplices if pr.project_right(s) == Simplex((3,)))
    )
    return RelativeCircuitData(pr.complex, end0.union(end3), 2, SimplicialComplex.empty())


def test_criterion_1_homology_oracle_equivalence():
    rng = random.Random(20240301)
    start = time.perf_counter()
    checked_complexes = 0
    while checked_complexes < 100:
        K = random_complex(
            rng, n_vertices=rng.randint(6, 13), n_generators=rng.randint(2, 12), max_dim=3
        )
        if len(K) > 300:
            continue
        H = homology(K)
        betti, torsion = oracle_homology(K)
        assert list(H.betti_numbers()) == betti
        for k in range(0, max(K.dim, 0) + 1):
            assert sorted(H.torsion(k)) == torsion.get(k, [])
        checked_complexes += 1
    checked_pairs = 0
    while checked_pairs < 20:
        K = random_complex(rng, n_vertices=9, n_generators=8, max_dim=3)
        if len(K) > 300:
            continue
        A = random_subcomplex(rng, K)
        H = homology(K, A)
        betti, torsion = oracle_homology(K, A)
        assert list(H.betti_numbers()) == betti
        for k in range(0, max(K.dim, 0) + 1):
            assert sorted(H.torsion(k)) == torsion.get(k, [])
        checked_pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"100 complexes + 20 pairs vs dense oracle in {elapsed:.1f}s")


def test_criterion_2_circuit_catalog():
    for k in (0, 1, 2, 3):
        K = simplex_boundary_complex(k + 1)
        verdict = verify_circuit(RelativeCircuitData.closed(K, k))
        assert verdict.valid, f"boundary of the {k + 1}-simplex must be a closed {k}-circuit"
        assert not verdict.unknown

    wedge = build_complex(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
         [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6]]
    )
    wedge_verdict = verify_circuit(
        RelativeCircuitData.closed(wedge, 2, build_complex([[3]]))
    )
    assert wedge_verdict.valid and not wedge_verdict.unknown

    butterfly = build_complex([[0, 1, 2], [2, 3, 4]])
    outer = build_complex([[0, 1], [0, 2], [1, 2], [2, 3], [2, 4], [3, 4]])
    bad = verify_circuit(
        RelativeCircuitData(butterfly, outer, 2, build_complex([[2]]))
    )
    assert not bad.valid
    assert Simplex((2,)) in bad.witnesses()
    assert not bad.unknown
    report(2, "sphere catalog, wedge, and butterfly witness all exact")


def test_criterion_3_singular_set_theorems():
    wedge = build_complex(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
         [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6]]
    )
    wedge_circuit = RelativeCircuitData.closed(wedge, 2, build_complex([[3]]))
    sphere = RelativeCircuitData.closed(simplex_boundary_complex(3), 2)
    circle = RelativeCircuitData.closed(build_complex([[0, 1], [1, 2], [0, 2]]), 1)
    three_sphere = RelativeCircuitData.closed(simplex_boundary_complex(4), 3)
    disk = RelativeCircuitData(
        build_complex([[0, 1, 2]]),
        build_complex([[0, 1], [1, 2], [0, 2]]),
        2,
        SimplicialComplex.empty(),
    )
    solid = RelativeCircuitData(
        build_complex([[0, 1, 2, 3]]), simplex_boundary_complex(3), 3, SimplicialComplex.empty()
    )
    sub_disk, _ = subdivided_disk_pair()
    annulus = annulus_pair()

    solid_bordism = BordismData(
        build_complex([[0, 1, 2, 3]]),
        simplex_boundary_complex(3),
        simplex_boundary_complex(3),
        SimplicialComplex.empty(),
        2,
        SimplicialComplex.empty(),
    )
    fixtures = [
        ("a", circle), ("a", sphere), ("a", three_sphere), ("a", wedge_circuit),
        ("b", disk), ("b", sub_disk), ("b", solid), ("b", wedge_circuit), ("b", annulus),
        ("c", solid_bordism),
        ("c", cylinder(circle).bordism),
        ("c", cylinder(wedge_circuit).bordism),
        ("c", subdivision_bordism(circle).bordism),
    ]
    checked = 0
    for case, data in fixtures:
        sigma = singular_set(case, data)
        for s in sigma.complex.simplices:
            for f in s.facets():
                assert f in sigma.complex.simplices
        assert sigma.dim <= sigma.ambient_dim - 2
        verdict = verify_manifold_complement(case, data, sigma)
        assert verdict.valid, f"case {case} manifold conclusions failed"
        assert not verdict.unknown
        assert skeleton_complement_inclusions(case, data, sigma)
        checked += 1
    report(3, f"{checked} fixture/case pairs: face-closed, codim 2, manifold complements")


def test_criterion_4_limit_calculus_laws():
    rng = random.Random(424242)
    instances = 0
    lower_bound_checks = 0
    while instances < 55:
        f = random_compactified_map(
            rng,
            domain=random_punctured(rng, n_vertices=6, n_generators=4, max_dim=2),
            target_size=rng.randint(2, 4),
        )
        lf = limit_set(f)

        # properness is emptiness of the limit set
        assert is_proper(f) == lf.is_empty
        # the limit dimension never exceeds the puncture dimension
        assert lf.limit_dimension <= f.domain.S.dim

        # closed restriction shrinks the limit set and its dimension
        sub = [s for s in f.domain.W.sorted_simplices if rng.random() < 0.4]
        if sub:
            assert_restriction_laws(f, restrict_closed(f, SimplicialComplex.from_simplices(sub)))

        # closed covers: the limit set is the union, the dimension the max
        maxes = list(f.domain.W.maximal_simplices)
        half = [s for s in maxes if rng.random() < 0.5]
        W1 = (
            SimplicialComplex.from_simplices(half)
            if half
            else SimplicialComplex.empty()
        )
        rest = [s for s in maxes if s not in set(half)]
        W2 = (
            SimplicialComplex.from_simplices(rest)
            if rest
            else SimplicialComplex.empty()
        )
        left, right = assert_cover_law(f, W1, W2)
        left_dim = max((s.dim for s in left), default=-1)
        right_dim = max((s.dim for s in right), default=-1)
        assert lf.limit_dimension == max(left_dim, right_dim)

        # product law; a proper second factor bounds the product dimension
        p1 = small_map_for_products(rng)
        p2 = small_map_for_products(rng)
        assert_product_laws(p1, p2, product(p1, p2))
        compact_dom = PuncturedComplex.compact(
            random_complex(rng, n_vertices=4, n_generators=3, max_dim=2)
        )
        proper_factor = random_compactified_map(rng, domain=compact_dom, target_size=3)
        assert is_proper(proper_factor)
        assert_product_laws(p1, proper_factor, product(p1, proper_factor))

        # composition sandwich, with equality for a proper outer map
        h = random_outer_map(rng, f.target, proper=True)
        assert is_proper(h)
        assert_composition_laws(f, h, compose(f, h))
        h2 = random_outer_map(rng, f.target, proper=False)
        fh2 = compose(f, h2)
        assert_composition_laws(f, h2, fh2)
        # composite limit dimension is bounded by the max of the factors
        assert limit_set(fh2).limit_dimension <= max(
            lf.limit_dimension, limit_set(h2).limit_dimension
        )
        # a dimension-preserving outer map cannot lower the limit dimension
        h3 = random_outer_map(rng, f.target, vertex_injective=True)
        assert limit_set(compose(f, h3)).limit_dimension >= lf.limit_dimension
        lower_bound_checks += 1

        # a surjective proper inner map preserves the outer limit set
        from circuitsmith.complexes import offset_labels

        copy, mapping = offset_labels(f.domain.W, 700)
        dbl = SimplicialComplex(f.domain.W.simplices | copy.simplices)
        punctures = SimplicialComplex(
            f.domain.S.simplices
            | frozenset(
                Simplex.of(mapping[v] for v in s.vertices)
                for s in f.domain.S.simplices
            )
        )
        fold_dom = PuncturedComplex(dbl, punctures)
        fold_vm = {v: v for v in f.domain.W.vertices}
        fold_vm.update({mapping[v]: v for v in f.domain.W.vertices})
        fold = CompactifiedMap(
            fold_dom, f.domain, SimplicialMap.from_dict(dbl, f.domain.W, fold_vm)
        )
        assert is_surjective(fold) and is_proper(fold)
        assert limit_set(compose(fold, f)).members() == lf.members()

        point = PuncturedComplex.compact(build_complex([[999]]))
        proj = product(f, CompactifiedMap.identity(point))
        lifted = frozenset(
            Simplex.of(proj.target_product.lift(u, 999) for u in s.vertices)
            for s in lf.members()
        )
        assert limit_set(proj.map).members() == lifted

        # projection along a compact factor: the composite with the
        # projection has the same limit set and dimension
        compact_factor = build_complex([[880, 881]])
        pr = product_complex(f.domain.W, compact_factor)
        pr_punctures = SimplicialComplex(
            frozenset(
                s
                for s in pr.complex.simplices
                if pr.project_left(s) in f.domain.S.simplices
            )
        )
        pr_dom = PuncturedComplex(pr.complex, pr_punctures)
        f_pr = CompactifiedMap(
            pr_dom,
            f.target,
            SimplicialMap.from_dict(
                pr.complex,
                f.target.W,
                {pid: f.g.apply_vertex(uv[0]) for pid, uv in pr.vertex_pairs.items()},
            ),
        )
        assert limit_set(f_pr).members() == lf.members()
        assert limit_set(f_pr).limit_dimension == lf.limit_dimension

        # preimage restriction lands inside the intersection
        pool = [s for s in f.target.W.sorted_simplices if rng.random() < 0.3]
        if pool:
            A = SimplicialComplex.from_simplices(pool)
            assert_preimage_law(f, A, preimage_restrict(f, A))

        instances += 1

    assert instances >= 50 and lower_bound_checks >= 50

    # Example fixture: the identity of the open interval is proper, the
    # composite with the circle wrap limits to one point, hence is not proper.
    path = build_complex([[0, 1], [1, 2], [2, 3], [3, 4]])
    interval = PuncturedComplex(path, build_complex([[0], [4]]))
    ident = CompactifiedMap.identity(interval)
    assert is_proper(ident)
    square = build_complex([[10, 11], [11, 12], [12, 13], [10, 13]])
    circle = PuncturedComplex.compact(square)
    wrap = CompactifiedMap(
        interval,
        circle,
        SimplicialMap.from_dict(path, square, {0: 10, 1: 11, 2: 12, 3: 13, 4: 10}),
    )
    composite = compose(ident, wrap)
    assert limit_set(composite).members() == frozenset({Simplex((10,))})
    assert not is_proper(composite)
    report(4, f"{instances} randomized maps x full law battery, plus the interval/wrap fixture")


def test_criterion_5_fundamental_class_suite():
    solid = RelativeCircuitData(
        build_complex([[0, 1, 2, 3]]), simplex_boundary_complex(3), 3, SimplicialComplex.empty()
    )
    disk = RelativeCircuitData(
        build_complex([[0, 1, 2]]),
        build_complex([[0, 1], [1, 2], [0, 2]]),
        2,
        SimplicialComplex.empty(),
    )
    sub_disk, _ = subdivided_disk_pair()
    annulus = annulus_pair()
    relative_fixtures = [disk, sub_disk, solid, annulus]
    for data in relative_fixtures:
        o = orient_circuit(data)
        z = fundamental_class(data, o)
        b = boundary_circuit(data)
        zb = fundamental_class(b, induced_boundary_orientation(data, o))
        assert chain_boundary(z) == zb

    sphere = RelativeCircuitData.closed(simplex_boundary_complex(3), 2)
    H = homology(sphere.L)
    assert H.betti(2) == 1 and not H.torsion(2)
    z = fundamental_class(sphere, orient_circuit(sphere))
    coords = evaluate(SimplicialMap.identity(sphere.L), z)
    assert coords.free in ((1,), (-1,))

    hexagon = build_complex([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]])
    circle = build_complex([[0, 1], [1, 2], [0, 2]])
    hex_circuit = RelativeCircuitData.closed(hexagon, 1)
    zh = fundamental_class(hex_circuit, orient_circuit(hex_circuit))
    wrap = SimplicialMap.from_dict(hexagon, circle, {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2})
    assert evaluate(wrap, zh).free in ((2,), (-2,))
    report(5, f"{len(relative_fixtures)} relative fixtures + generator and degree-2 evaluations")


def test_criterion_6_dual_complex_bounds():
    catalog = {
        "triangle": build_complex([[0, 1, 2]]),
        "solid-tetra": build_complex([[0, 1, 2, 3]]),
        "sphere": simplex_boundary_complex(3),
        "three-sphere": simplex_boundary_complex(4),
    }
    total = 0
    for name, K in catalog.items():
        sd = barycentric_subdivision(K)
        for r in range(0, K.dim + 1):
            result = dual_complex(K, r)
            assert result.dim <= K.dim - r - 1, f"{name} at r={r}"
            seen = set()
            for s in sd.complex.sorted_simplices:
                chain = sd.chain_of(s)
                low, high = join_decompose(chain, r)
                assert low + high == chain
                assert all(t.dim <= r for t in low) and all(t.dim > r for t in high)
                assert (low, high) not in seen
                seen.add((low, high))
            total += 1
    report(6, f"{total} (complex, r) pairs: dimension bounds and unique join splits")


def test_criterion_7_psi_pipeline_end_to_end():
    start = time.perf_counter()
    triangle = build_complex([[0, 1, 2]])
    boundary = build_complex([[0, 1], [1, 2], [0, 2]])
    disk = RelativeCircuitData(triangle, boundary, 2, SimplicialComplex.empty())
    target = TargetPair(triangle, boundary)

    certs = []
    cert = psi(disk, SimplicialMap.identity(triangle), target)
    certs.append(cert)

    sub_disk, sd = subdivided_disk_pair()
    last_vertex = {v: max(sd.barycenter_of[v].vertices) for v in sd.complex.vertices}
    a_sub = SimplicialMap.from_dict(sub_disk.L, triangle, last_vertex)
    cert_sub = psi(sub_disk, a_sub, target)
    certs.append(cert_sub)

    wedge = build_complex(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
         [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6]]
    )
    wedge_circuit = RelativeCircuitData.closed(wedge, 2, build_complex([[3]]))
    cert_wedge = psi(
        wedge_circuit,
        SimplicialMap.identity(wedge),
        TargetPair.absolute(wedge),
    )
    certs.append(cert_wedge)

    for c in certs:
        assert c.valid
        predicted = frozenset(c.map.apply(s) for s in c.sigma.complex.simplices)
        assert c.limit_carrier.members == predicted
        assert c.bound_main.limit_dimension <= max(-1, c.k - 2)
        assert c.bound_boundary.limit_dimension <= max(-1, c.k - 3)
        assert c.obstruction.all_vanish
        # vanishing was derived from GAMMA_GROUPS for every needed index
        assert c.obstruction.required_gamma == (0, 1, 2)
        assert c.obstruction.gamma_groups == tuple(GAMMA_GROUPS[d] for d in (0, 1, 2))
        payload = json.loads(dumps(pseudocycle_certificate_to_json(c)))
        ok, mismatches = reverify_certificate(payload)
        assert ok and not mismatches

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(7, f"3 certificates, exact carriers, derived obstructions, re-verified in {elapsed:.1f}s")


def test_criterion_8_bordism_invariance():
    circle = build_complex([[0, 1], [1, 2], [0, 2]])
    circuit = RelativeCircuitData.closed(circle, 1)
    target = TargetPair.absolute(circle)

    sb = subdivision_bordism(circuit)
    vm = {pv: v for v, pv in sb.bottom_vertex_map.items()}
    vm.update({pv: max(s.vertices) for pv, s in sb.top_carrier.items()})
    dmap = SimplicialMap.from_dict(sb.bordism.N, circle, vm)
    bcert = verify_bordism_certificate(sb.bordism, dmap, target)
    assert bcert.valid

    cert_b = psi(sb.bottom_circuit, dmap.restrict(sb.bottom_circuit.L), target)
    cert_t = psi(sb.top_circuit, dmap.restrict(sb.top_circuit.L), target)
    e_b = SimplicialMap.from_dict(
        sb.bottom_circuit.L, sb.bordism.N, {v: v for v in sb.bottom_circuit.L.vertices}
    )
    e_t = SimplicialMap.from_dict(
        sb.top_circuit.L, sb.bordism.N, {v: v for v in sb.top_circuit.L.vertices}
    )
    verdict = bordism_invariance_check(cert_b, cert_t, bcert, e_b, e_t)
    assert verdict.verdict
    assert cert_b.homology_coordinates == cert_t.homology_coordinates

    # a 2-sphere version through the prism of the tetra boundary
    sphere = RelativeCircuitData.closed(simplex_boundary_complex(3), 2)
    sphere_target = TargetPair.absolute(sphere.L)
    sb2 = subdivision_bordism(sphere)
    vm2 = {pv: v for v, pv in sb2.bottom_vertex_map.items()}
    vm2.update({pv: max(s.vertices) for pv, s in sb2.top_carrier.items()})
    dmap2 = SimplicialMap.from_dict(sb2.bordism.N, sphere.L, vm2)
    bcert2 = verify_bordism_certificate(sb2.bordism, dmap2, sphere_target)
    assert bcert2.valid
    cert_b2 = psi(sb2.bottom_circuit, dmap2.restrict(sb2.bottom_circuit.L), sphere_target)
    cert_t2 = psi(sb2.top_circuit, dmap2.restrict(sb2.top_circuit.L), sphere_target)
    assert cert_b2.homology_coordinates == cert_t2.homology_coordinates

    # maps of different degree: coordinates differ and no bordism certifies them
    hexagon = build_complex([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]])
    hex_circuit = RelativeCircuitData.closed(hexagon, 1)
    degree_two = SimplicialMap.from_dict(
        hexagon, circle, {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2}
    )
    cert_two = psi(hex_circuit, degree_two, target)
    cert_one = psi(circuit, SimplicialMap.identity(circle), target)
    assert cert_one.homology_coordinates != cert_two.homology_coordinates
    cyl = cylinder(circuit)
    proj = SimplicialMap.from_dict(
        cyl.bordism.N, circle, {pid: uv[0] for pid, uv in cyl.product.vertex_pairs.items()}
    )
    purported = verify_bordism_certificate(cyl.bordism, proj, target)
    e1 = SimplicialMap.from_dict(
        circuit.L, cyl.bordism.N, {v: cyl.bottom_vertex_map[v] for v in circuit.L.vertices}
    )
    e2 = SimplicialMap.from_dict(
        hexagon, cyl.bordism.N, {v: cyl.top_vertex_map[v % 3] for v in hexagon.vertices}
    )
    bad = bordism_invariance_check(cert_one, cert_two, purported, e1, e2)
    assert not bad.verdict and not bad.coordinates_equal
    report(8, "subdivision cylinders agree at both ends; degree mismatch rejected")
