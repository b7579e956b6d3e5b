from __future__ import annotations

import random

import pytest

from circuitsmith import (
    CompactifiedMap,
    PuncturedComplex,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    build_complex,
    compose,
    is_proper,
    limit_set,
    preimage_restrict,
    product,
    restrict_closed,
)
from circuitsmith.errors import MapError, StructureError
from circuitsmith.limits import is_surjective

from .generators import (
    random_compactified_map,
    random_outer_map,
    random_punctured,
    small_map_for_products,
)
from .oracles import (
    assert_composition_laws,
    assert_cover_law,
    assert_preimage_law,
    assert_product_laws,
    assert_restriction_laws,
)


@pytest.fixture
def open_interval():
    """The open interval as a punctured path."""
    path = build_complex([[0, 1], [1, 2], [2, 3], [3, 4]])
    return PuncturedComplex(path, build_complex([[0], [4]]))


@pytest.fixture
def circle():
    return PuncturedComplex.compact(
        build_complex([[10, 11], [11, 12], [12, 13], [10, 13]])
    )


@pytest.fixture
def interval_identity(open_interval):
    return CompactifiedMap.identity(open_interval)


@pytest.fixture
def circle_wrap(open_interval, circle):
    g = SimplicialMap.from_dict(
        open_interval.W, circle.W, {0: 10, 1: 11, 2: 12, 3: 13, 4: 10}
    )
    return CompactifiedMap(open_interval, circle, g)


class TestPuncturedComplex:
    def test_density_enforced(self):
        path = build_complex([[0, 1]])
        with pytest.raises(StructureError):
            PuncturedComplex(path, path)

    def test_puncture_containment_enforced(self):
        path = build_complex([[0, 1]])
        with pytest.raises(Exception):
            PuncturedComplex(path, build_complex([[7]]))

    def test_interior_maps_must_avoid_target_punctures(self, open_interval):
        target = PuncturedComplex(
            build_complex([[5, 6], [6, 7]]), build_complex([[5]])
        )
        with pytest.raises(MapError):
            CompactifiedMap(
                open_interval,
                target,
                SimplicialMap.from_dict(
                    open_interval.W, target.W, {0: 5, 1: 5, 2: 6, 3: 6, 4: 7}
                ),
            )


class TestLimitSet:
    def test_identity_of_open_interval_is_proper(self, interval_identity):
        assert limit_set(interval_identity).is_empty
        assert is_proper(interval_identity)

    def test_circle_wrap_limits_to_base_point(self, circle_wrap):
        result = limit_set(circle_wrap)
        assert result.members() == frozenset({Simplex((10,))})
        assert result.limit_dimension == 0
        assert not is_proper(circle_wrap)

    def test_compact_domain_always_proper(self, circle):
        f = CompactifiedMap.identity(circle)
        assert is_proper(f)

    def test_empty_limit_dimension_is_minus_one(self, interval_identity):
        assert limit_set(interval_identity).limit_dimension == -1


class TestCompose:
    def test_example_one_reconstructed(self, interval_identity, circle_wrap):
        composite = compose(interval_identity, circle_wrap)
        assert limit_set(interval_identity).is_empty
        assert limit_set(composite).members() == frozenset({Simplex((10,))})
        assert not is_proper(composite)
        assert_composition_laws(interval_identity, circle_wrap, composite)

    def test_identity_outer_keeps_limit(self, circle_wrap, circle):
        ident = CompactifiedMap.identity(circle)
        composite = compose(circle_wrap, ident)
        assert limit_set(composite).members() == limit_set(circle_wrap).members()
        assert_composition_laws(circle_wrap, ident, composite)

    def test_mismatched_middle_rejected(self, interval_identity, circle_wrap):
        with pytest.raises(StructureError):
            compose(circle_wrap, circle_wrap)

    def test_surjective_proper_inner_preserves_outer_limit(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(20):
            middle = random_punctured(rng, n_vertices=6, n_generators=4, max_dim=2)
            fold_W = middle.W
            # fold: disjoint double of the middle, mapped by folding
            from circuitsmith.complexes import offset_labels

            copy, mapping = offset_labels(fold_W, 500)
            dbl = SimplicialComplex(fold_W.simplices | copy.simplices)
            punctures = SimplicialComplex(
                middle.S.simplices
                | frozenset(
                    Simplex.of(mapping[v] for v in s.vertices)
                    for s in middle.S.simplices
                )
            )
            dom = PuncturedComplex(dbl, punctures)
            vm = {v: v for v in fold_W.vertices}
            vm.update({mapping[v]: v for v in fold_W.vertices})
            fold = CompactifiedMap(
                dom, middle, SimplicialMap.from_dict(dbl, fold_W, vm)
            )
            assert is_surjective(fold) and is_proper(fold)
            h = random_outer_map(rng, middle)
            lhs = limit_set(h).members()
            rhs = limit_set(compose(fold, h)).members()
            assert lhs == rhs
            checked += 1
        assert checked == 20


class TestProduct:
    def test_proper_times_proper_is_proper(self, interval_identity):
        result = product(interval_identity, interval_identity)
        assert is_proper(result.map)
        assert_product_laws(interval_identity, interval_identity, result)

    def test_identity_times_wrap(self, interval_identity, circle_wrap):
        result = product(interval_identity, circle_wrap)
        assert_product_laws(interval_identity, circle_wrap, result)
        # limit = (closure of the interval image) x {base point}
        assert limit_set(result.map).limit_dimension == 1

    def test_product_with_point_preserves_limit(self, circle_wrap):
        pt = PuncturedComplex.compact(build_complex([[77]]))
        result = product(circle_wrap, CompactifiedMap.identity(pt))
        assert (
            limit_set(result.map).limit_dimension
            == limit_set(circle_wrap).limit_dimension
        )

    def test_non_monotone_factors_still_simplicial(self, circle_wrap, open_interval, circle):
        # a wrap running backwards exercises the adapted vertex order
        g = SimplicialMap.from_dict(
            open_interval.W, circle.W, {0: 10, 1: 13, 2: 12, 3: 11, 4: 10}
        )
        backwards = CompactifiedMap(open_interval, circle, g)
        result = product(circle_wrap, backwards)
        assert_product_laws(circle_wrap, backwards, result)


class TestRestrict:
    def test_restrict_to_whole_is_identity_on_limits(self, circle_wrap):
        result = restrict_closed(circle_wrap, circle_wrap.domain.W)
        assert limit_set(result).members() == limit_set(circle_wrap).members()

    def test_restrict_to_half_shrinks_limit(self, circle_wrap):
        half = SimplicialComplex.from_simplices(
            [Simplex((0, 1)), Simplex((1, 2))]
        )
        result = restrict_closed(circle_wrap, half)
        assert limit_set(result).members() == frozenset({Simplex((10,))})
        assert_restriction_laws(circle_wrap, result)

    def test_union_law(self, circle_wrap):
        W1 = SimplicialComplex.from_simplices([Simplex((0, 1)), Simplex((1, 2))])
        W2 = SimplicialComplex.from_simplices([Simplex((2, 3)), Simplex((3, 4))])
        left, right = assert_cover_law(circle_wrap, W1, W2)
        assert left == right == frozenset({Simplex((10,))})

    def test_puncture_only_restriction_is_empty(self, circle_wrap):
        just_puncture = SimplicialComplex.from_simplices([Simplex((0,))])
        result = restrict_closed(circle_wrap, just_puncture)
        assert limit_set(result).is_empty


class TestPreimage:
    def test_whole_target_reproduces_limit(self, circle_wrap, circle):
        result = preimage_restrict(circle_wrap, circle.W)
        assert limit_set(result).members() == limit_set(circle_wrap).members()

    def test_subcomplex_missing_limit_gives_empty(self, circle_wrap):
        A = build_complex([[12]])
        result = preimage_restrict(circle_wrap, A)
        assert limit_set(result).is_empty

    def test_flattened_wrap_is_tight_at_base_point(self, open_interval, circle):
        # ends mapped constantly onto the base point: the preimage of the
        # base point is a noncompact closed set limiting exactly there
        g = SimplicialMap.from_dict(
            open_interval.W, circle.W, {0: 10, 1: 10, 2: 11, 3: 10, 4: 10}
        )
        flat = CompactifiedMap(open_interval, circle, g)
        A = build_complex([[10]])
        result = preimage_restrict(flat, A)
        assert limit_set(result).members() == frozenset({Simplex((10,))})
        assert limit_set(result).members() == limit_set(flat).members() & A.simplices


def agree_at_infinity(f, h):
    """f and h agree on every puncture vertex, hence on every puncture
    simplex."""
    return all(f.g.apply_vertex(v) == h.g.apply_vertex(v) for v in f.domain.S.vertices)


class TestEqualAtInfinity:
    def test_same_ends_different_inside(self, open_interval, circle, circle_wrap):
        g = SimplicialMap.from_dict(
            open_interval.W, circle.W, {0: 10, 1: 13, 2: 12, 3: 11, 4: 10}
        )
        other = CompactifiedMap(open_interval, circle, g)
        assert agree_at_infinity(circle_wrap, other)
        assert limit_set(circle_wrap).members() == limit_set(other).members()

    def test_different_ends(self, open_interval, circle, circle_wrap):
        g = SimplicialMap.from_dict(
            open_interval.W, circle.W, {0: 10, 1: 11, 2: 12, 3: 12, 4: 13}
        )
        other = CompactifiedMap(open_interval, circle, g)
        assert not agree_at_infinity(circle_wrap, other)
        assert limit_set(other).members() == frozenset({Simplex((10,)), Simplex((13,))})


class TestProperness:
    def test_pair_isomorphisms_are_proper(self):
        rng = random.Random(61)
        count = 0
        for _ in range(15):
            dom = random_punctured(rng, n_vertices=6, n_generators=4, max_dim=2)
            verts = list(dom.W.vertices)
            shuffled = verts[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(verts, shuffled))
            from circuitsmith.complexes import relabel

            target = PuncturedComplex(
                relabel(dom.W, mapping), relabel(dom.S, mapping) if dom.S.simplices else SimplicialComplex.empty()
            )
            f = CompactifiedMap(
                dom, target, SimplicialMap.from_dict(dom.W, target.W, mapping)
            )
            assert is_proper(f)
            count += 1
        assert count == 15

    def test_injective_extension_alone_is_not_enough(self, open_interval):
        # same complex, no target punctures: the inclusion of the open
        # interval in the closed one is injective but not proper
        target = PuncturedComplex.compact(open_interval.W)
        f = CompactifiedMap(
            open_interval, target, SimplicialMap.identity(open_interval.W)
        )
        assert f.g.is_vertex_injective()
        assert not is_proper(f)


def _moved_inside(rng, f):
    """A map that agrees with f on every puncture vertex and differs from it
    on some interior vertex, or None if no draw gives one."""
    images = {v: f.g.apply_vertex(v) for v in f.domain.W.vertices}
    interior = [v for v in f.domain.W.vertices if v not in f.domain.S.vertices]
    targets = list(f.target.W.vertices)
    for _ in range(10):
        vm = {**images, **{v: rng.choice(targets) for v in interior}}
        if vm == images:
            continue
        try:
            return CompactifiedMap(
                f.domain, f.target, SimplicialMap.from_dict(f.domain.W, f.target.W, vm)
            )
        except MapError:
            continue  # an interior simplex landed on a puncture
    return None


class TestRandomizedSmoke:
    def test_random_maps_satisfy_all_internal_laws(self):
        """Every law of the limit calculus, on seeded random maps."""
        rng = random.Random(97)
        other = random.Random(98)  # its own stream, so the moved maps leave the draws of rng alone
        agreeing = 0
        for _ in range(15):
            f = random_compactified_map(rng)
            assert is_proper(f) == limit_set(f).is_empty
            sub = [s for s in f.domain.W.sorted_simplices if rng.random() < 0.4]
            if sub:
                assert_restriction_laws(f, restrict_closed(f, SimplicialComplex.from_simplices(sub)))
            maxes = f.domain.W.maximal_simplices
            half = len(maxes) // 2
            assert_cover_law(
                f,
                SimplicialComplex.from_simplices(maxes[:half]),
                SimplicialComplex.from_simplices(maxes[half:]),
            )
            h = random_outer_map(rng, f.target, proper=bool(rng.getrandbits(1)))
            assert_composition_laws(f, h, compose(f, h))
            # No interior simplex of f hits the middle punctures, so the
            # composite has f's punctures, and h carries f's limit set into
            # the target space.
            middle = h.domain.S.simplices
            hits = {s for s in f.domain.W.simplices if f.apply(s) in middle}
            assert hits <= f.domain.S.simplices
            assert not {h.apply(s) for s in limit_set(f).members()} & h.target.S.simplices
            p1 = small_map_for_products(rng)
            p2 = small_map_for_products(rng)
            assert_product_laws(p1, p2, product(p1, p2))
            A_pool = [s for s in f.target.W.sorted_simplices if rng.random() < 0.3]
            if A_pool:
                A = SimplicialComplex.from_simplices(A_pool)
                assert_preimage_law(f, A, preimage_restrict(f, A))
            # A map that agrees with f on every puncture vertex has f's limit set.
            moved = _moved_inside(other, f)
            if moved is not None:
                assert agree_at_infinity(f, moved)
                assert limit_set(moved).members() == limit_set(f).members()
                agreeing += 1
        assert agreeing >= 10
