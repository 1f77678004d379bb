import itertools
import random

import pytest

from posettop.cohen_macaulay import is_cm_poset
from posettop.constructions import boolean, chain, rees, weighted_segre
from posettop.posets import dual, is_isomorphic, require_rank_info
from posettop.semigroups import (
    GradingMap,
    HomogeneousSemigroup,
    SemigroupError,
    build_semigroup,
    grading_map,
    koszul_necessary_test,
    lower_interval,
    natural_semigroup,
    open_interval_below,
    punctured_veronese_semigroup,
    rees_semigroup,
    segre_semigroup,
    semigroup_from_json,
    semigroup_to_json,
    split_pair,
)

from test_constructions import is_order_isomorphism
from test_posets import boolean_lattice


class TestBuild:
    def test_naturals(self):
        N = build_semigroup([(1,)])
        assert N.degree((5,)) == 5

    def test_n2(self):
        N2 = natural_semigroup(2)
        assert N2.generators == ((0, 1), (1, 0))

    def test_non_homogeneous_rejected(self):
        with pytest.raises(SemigroupError, match="not homogeneous"):
            build_semigroup([(1, 0), (1, 1)])

    def test_zero_generator_rejected(self):
        with pytest.raises(SemigroupError, match="zero"):
            build_semigroup([(1, 0), (0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(SemigroupError, match="duplicate"):
            build_semigroup([(1,), (1,)])

    def test_scaled_functional(self):
        # generators of coordinate sum 3, weight all ones, scale 3
        S = punctured_veronese_semigroup(3)
        assert S.scale == 3
        assert S.degree((3, 0, 0)) == 1
        assert S.degree((3, 3, 0)) == 2

    def test_fractional_degree_rejected(self):
        S = punctured_veronese_semigroup(3)
        with pytest.raises(SemigroupError, match="non-integral"):
            S.degree((1, 0, 0))


class TestEnumeration:
    def test_n2_layers(self):
        N2 = natural_semigroup(2)
        layers = N2.enumerate_up_to(2)
        assert [len(x) for x in layers] == [1, 2, 3]

    def test_veronese_family_generator_counts(self):
        assert len(punctured_veronese_semigroup(2).generators) == 2
        assert len(punctured_veronese_semigroup(3).generators) == 9
        assert len(punctured_veronese_semigroup(4).generators) == 34

    def test_lambda3_first_layer(self):
        S = punctured_veronese_semigroup(3)
        assert S.enumerate_up_to(1)[1] == sorted(S.generators)

    def test_naturals_prefix(self):
        N = build_semigroup([(1,)])
        layers = N.enumerate_up_to(5)
        assert [x for layer in layers for x in layer] == [(m,) for m in range(6)]

    def test_layer_cap(self):
        S = build_semigroup([(1, 0), (0, 1)], layer_cap=3)
        with pytest.raises(Exception, match="cap"):
            S.enumerate_up_to(4)

    def test_membership(self):
        S = punctured_veronese_semigroup(2)  # generated by (2,0) and (0,2)
        assert S.contains((2, 2))
        assert not S.contains((1, 1))
        assert not S.contains((-2, 0))


class TestLowerIntervals:
    def test_chain_interval(self):
        N = build_semigroup([(1,)])
        P = lower_interval(N, (3,))
        assert is_isomorphic(P, chain(4))

    def test_diamond_interval(self):
        N2 = natural_semigroup(2)
        P = lower_interval(N2, (1, 1))
        assert is_isomorphic(P, boolean_lattice(2))

    def test_unreachable_rejected(self):
        S = punctured_veronese_semigroup(2)
        with pytest.raises(SemigroupError):
            lower_interval(S, (1, 1))

    def test_rank_equals_degree(self):
        S = punctured_veronese_semigroup(3)
        lam = tuple(a + b for a, b in zip((3, 0, 0), (0, 3, 0)))
        P = lower_interval(S, lam)
        info = require_rank_info(P)
        for v in P.labels:
            assert info.rank[v] == S.degree(v)

    def test_self_duality(self):
        # every computed lower interval is self-dual
        for S in (natural_semigroup(2), punctured_veronese_semigroup(2),
                  punctured_veronese_semigroup(3)):
            layers = S.enumerate_up_to(3)
            for m in range(1, 4):
                for lam in layers[m][:6]:
                    P = lower_interval(S, lam)
                    assert is_isomorphic(P, dual(P)), (S, lam)

    def test_translation_invariance(self):
        # [mu, lam] is isomorphic to [0, lam - mu] by the explicit shift
        from posettop.posets import closed_interval
        S = punctured_veronese_semigroup(2)
        layers = S.enumerate_up_to(4)
        for lam in layers[3]:
            P = lower_interval(S, lam)
            for mu in P.labels:
                diff = tuple(a - b for a, b in zip(lam, mu))
                upper = closed_interval(P, mu, lam)
                shifted = lower_interval(S, diff)
                mapping = {x: tuple(a - b for a, b in zip(x, mu))
                           for x in upper.labels}
                assert is_order_isomorphism(mapping, upper, shifted)

    def test_open_interval(self):
        N2 = natural_semigroup(2)
        P = open_interval_below(N2, (1, 1))
        assert len(P) == 2
        assert P.covers == ()


class TestKoszulTest:
    def test_free_semigroups_pass(self):
        for d in (1, 2, 3):
            for r in (2, 3, 4):
                rep = koszul_necessary_test(natural_semigroup(d), r)
                assert rep.passed, rep.describe()

    def test_non_koszul_semigroup_fails_with_witness(self):
        # the open interval below (6, 3) has two components where a
        # connected one is required
        S = build_semigroup([(3, 0), (2, 1), (0, 3)])
        for coeffs, name, detail in (("Q", "Q", "H~0 has rank 1 over Q"),
                                     (2, "GF(2)", "H~0 has rank 1 over GF(2)"),
                                     ("z-spherical", "Z-spherical", "H~0 = Z")):
            rep = koszul_necessary_test(S, 3, coeffs=coeffs)
            assert not rep.passed
            assert rep.coefficients == name
            assert rep.witness == ((6, 3), detail)
            assert rep.describe() == f"fails at (6, 3): {detail}"
            # the same violation text as the CM sweep of the closed interval
            cm = is_cm_poset(lower_interval(S, (6, 3)), coeffs)
            assert detail in [f.found for f in cm.failures]

    def test_lambda3_passes_rank3(self):
        S = punctured_veronese_semigroup(3)
        rep = koszul_necessary_test(S, 3)
        assert rep.passed, rep.describe()
        assert rep.elements_checked > 0
        # degree-2 intervals are antichains and need no homology
        assert rep.homology_runs == len(S.enumerate_up_to(3)[3])

    def test_rees_of_lambda3_passes_rank3(self):
        # Rees products of Koszul semigroup rings are Koszul; its intervals
        # include isomorphic pairs that find_isomorphism takes minutes on
        S = rees_semigroup(punctured_veronese_semigroup(3), natural_semigroup(2))
        rep = koszul_necessary_test(S, 3)
        assert rep.passed, rep.describe()
        assert rep.elements_checked == 718

    def test_lambda2_passes(self):
        rep = koszul_necessary_test(punctured_veronese_semigroup(2), 4)
        assert rep.passed

    def test_rank_bound_validated(self):
        with pytest.raises(SemigroupError):
            koszul_necessary_test(natural_semigroup(2), 1)

    def test_field_selector(self):
        rep = koszul_necessary_test(natural_semigroup(2), 3, coeffs=2)
        assert rep.passed
        assert rep.coefficients == "GF(2)"


class TestSegreSemigroup:
    def test_veronese_shape(self):
        N = build_semigroup([(1,)])
        view = segre_semigroup(N, N, (2,))  # g(1) = 2
        layers = view.enumerate_up_to(3)
        for m in range(4):
            assert layers[m] == [((2 * m,), (m,))]

    def test_veronese_intervals_are_chains(self):
        N = build_semigroup([(1,)])
        view = segre_semigroup(N, N, (2,))
        for k in (1, 2, 3):
            P = view.lower_interval(((2 * k,), (k,)))
            assert is_isomorphic(P, chain(k + 1))

    def test_standard_grading_is_plain_segre(self):
        N2 = natural_semigroup(2)
        N = build_semigroup([(1,)])
        view = segre_semigroup(N2, N, (1,))
        layers = view.enumerate_up_to(2)
        # pairs (x, m) with |x| = m: layer sizes 1, 2, 3
        assert [len(x) for x in layers] == [1, 2, 3]

    def test_interval_matches_weighted_segre_of_posets(self):
        N2 = natural_semigroup(2)
        N = build_semigroup([(1,)])
        view = segre_semigroup(N2, N, (2,))
        lam, gam = (2, 2), (2,)
        assert view.contains((lam, gam))
        P = view.lower_interval((lam, gam))
        left = lower_interval(N2, lam)
        right = lower_interval(N, gam)
        g = {y: 2 * y[0] for y in right.labels}
        W = weighted_segre(left, right, g).poset
        mapping = {p: p for p in P.labels}
        assert is_order_isomorphism(mapping, P, W)

    def test_grading_positivity_enforced(self):
        N2 = natural_semigroup(2)
        with pytest.raises(SemigroupError, match="positive"):
            grading_map(N2, (1, 0))

    def test_membership(self):
        N = build_semigroup([(1,)])
        view = segre_semigroup(N, N, (2,))
        assert view.contains(((4,), (2,)))
        assert not view.contains(((3,), (2,)))


class TestReesSemigroup:
    def test_naturals_rees_ring_shape(self):
        N = build_semigroup([(1,)])
        R = rees_semigroup(N, N)
        layers = R.enumerate_up_to(4)
        for m in range(5):
            assert layers[m] == [(m, b) for b in range(m + 1)]

    def test_interval_matches_rees_of_posets(self):
        # the semigroup interval [0, (a, b)] is the principal ideal below
        # (a, b) inside the Rees product of the coordinate intervals;
        # the full Rees product can hold extra elements incomparable to
        # the top (e.g. (2, 0) under (2, 1) over N * N)
        from posettop.posets import closed_interval
        N = build_semigroup([(1,)])
        R = rees_semigroup(N, N)
        for (a, b) in [(2, 1), (3, 2), (3, 0), (2, 2)]:
            P = lower_interval(R, (a, b))
            left = lower_interval(N, (a,))
            right = lower_interval(N, (b,))
            W = rees(left, right)
            ideal = closed_interval(W, ((0,), (0,)), ((a,), (b,)))
            mapping = {v: split_pair(v, 1) for v in P.labels}
            assert is_order_isomorphism(mapping, P, ideal)

    def test_rees_product_can_exceed_the_ideal(self):
        N = build_semigroup([(1,)])
        R = rees_semigroup(N, N)
        P = lower_interval(R, (2, 1))
        W = rees(lower_interval(N, (2,)), lower_interval(N, (1,)))
        assert len(W) == len(P) + 1  # (2, 0) is not below (2, 1)

    def test_interval_matches_rees_n2(self):
        from posettop.posets import closed_interval
        N2 = natural_semigroup(2)
        N = build_semigroup([(1,)])
        R = rees_semigroup(N2, N)
        lam = (1, 1, 1)
        P = lower_interval(R, lam)
        W = rees(lower_interval(N2, (1, 1)), lower_interval(N, (1,)))
        ideal = closed_interval(W, (((0, 0)), ((0,))), ((1, 1), (1,)))
        mapping = {v: split_pair(v, 2) for v in P.labels}
        assert is_order_isomorphism(mapping, P, ideal)

    def test_rank_inequality_below_elements(self):
        N2 = natural_semigroup(2)
        N = build_semigroup([(1,)])
        R = rees_semigroup(N2, N)
        P = lower_interval(R, (2, 1, 2))
        for v in P.labels:
            x, y = split_pair(v, 2)
            assert sum(x) >= sum(y)

    def test_koszul_test_on_rees(self):
        N = build_semigroup([(1,)])
        rep = koszul_necessary_test(rees_semigroup(N, N), 3)
        assert rep.passed, rep.describe()


class TestSerialization:
    def test_round_trip(self):
        S = punctured_veronese_semigroup(3)
        text = semigroup_to_json(S)
        S2 = semigroup_from_json(text)
        assert semigroup_to_json(S2) == text
        assert S2.generators == S.generators

    def test_bad_data(self):
        with pytest.raises(SemigroupError):
            semigroup_from_json('{"generators": [[1]]}')


class TestSelfDualityDegreeFour:
    def test_lower_intervals_to_degree_four(self):
        for S in (natural_semigroup(2), punctured_veronese_semigroup(2)):
            layers = S.enumerate_up_to(4)
            for m in range(1, 5):
                for lam in layers[m]:
                    P = lower_interval(S, lam)
                    assert is_isomorphic(P, dual(P)), (S, lam)
