import itertools
import random

import pytest

from posettop.constructions import (
    FiberIdeal,
    boolean,
    boolean_minus_bottom,
    chain,
    fiber_ideal,
    minors,
    product,
    rank_select,
    rees,
    rees_as_segre,
    rees_deranged,
    segre,
    subword,
    support_descents,
    weighted_segre,
    word_descents,
)
from posettop.complexes import f_vector, order_complex, reduced_euler
from posettop.posets import (
    ImpurePosetError,
    Poset,
    PosetError,
    augment,
    build_poset,
    dual,
    find_isomorphism,
    induced_subposet,
    is_isomorphic,
    iter_bits,
    mobius,
    open_interval,
    rank_map,
    require_rank_info,
)
from posettop.semigroups import lower_interval, natural_semigroup, segre_semigroup

from posettop import constructions
from construction_oracle import (
    pairwise_pullback,
    reference_poset_from_order,
    reference_fiber_ideal,
    reference_rees,
    reference_segre,
)
from test_posets import boolean_lattice, naive_mobius, random_poset


def two_chain():
    return build_poset(["q1", "q2"], [("q1", "q2")])


def is_order_isomorphism(mapping, P, Q):
    if set(mapping) != set(P.labels) or set(mapping.values()) != set(Q.labels):
        return False
    if len(mapping) != len(P):
        return False
    for a in P.labels:
        for b in P.labels:
            if P.leq(a, b) != Q.leq(mapping[a], mapping[b]):
                return False
    return True


class TestProduct:
    def test_two_chains_give_diamond(self):
        C = chain(2)
        D = product(C, C)
        assert is_isomorphic(D, boolean_lattice(2))

    def test_identity_factor(self):
        P = boolean_lattice(2)
        one = chain(1)
        assert is_isomorphic(product(P, one), P)

    def test_cube(self):
        B1 = boolean(1)
        cube = product(product(B1, B1), B1)
        assert is_isomorphic(cube, boolean_lattice(3))

    def test_order_is_componentwise(self):
        rng = random.Random(3)
        P = boolean(2)
        Q = chain(3)
        PQ = product(P, Q)
        for (p, q) in PQ.labels:
            for (p2, q2) in PQ.labels:
                expected = P.leq(p, p2) and Q.leq(q, q2)
                assert PQ.leq((p, q), (p2, q2)) == expected


class TestSegre:
    def test_b2_segre_square_size(self):
        B2 = boolean(2)
        S = segre(B2, rank_map(B2), B2, rank_map(B2))
        assert len(S) == 6  # 1 + 2*2 + 1

    def test_segre_realizes_rank_selection(self):
        B3 = boolean(3)
        Q = two_chain()
        g = {"q1": 1, "q2": 2}
        S = segre(B3, rank_map(B3), Q, g)
        R = rank_select(B3, {1, 2})
        f = find_isomorphism(S, R)
        assert f is not None

    def test_non_strict_counterexample(self):
        P = build_poset(["a", "b"], [])
        Q = two_chain()
        S = segre(P, {"a": 0, "b": 0}, Q, {"q1": 0, "q2": 0})
        # disjoint union of two chains of length 1
        assert len(S) == 4
        assert len(S.covers) == 2
        comps = {frozenset([x, y]) for (x, y) in S.cover_pairs()}
        assert len(comps) == 2

    def test_invalid_map_rejected(self):
        P = chain(2)
        with pytest.raises(PosetError):
            segre(P, {0: 1, 1: 0}, P, rank_map(P))


class TestWeightedSegre:
    def test_hypotheses_satisfied_for_rank(self):
        B2 = boolean(2)
        res = weighted_segre(B2, B2, rank_map(B2))
        assert res.hypotheses_satisfied
        assert res.g_strict and res.g_within_ranks
        assert is_isomorphic(res.poset, minors(2))

    def test_non_strict_flagged(self):
        P = build_poset(["a", "b"], [])
        Q = two_chain()
        res = weighted_segre(P, Q, {"q1": 0, "q2": 0})
        assert not res.g_strict
        assert "strict" in " ".join(res.notes())
        assert len(res.poset) == 4  # construction proceeds anyway

    def test_out_of_range_values_flagged(self):
        B3 = boolean(3)
        Q = two_chain()
        res = weighted_segre(B3, Q, {"q1": 0, "q2": 5})
        assert res.g_strict
        assert not res.g_within_ranks

    def test_impure_first_factor_rejected(self):
        P = build_poset(["a", "b", "c"], [("a", "b")])  # impure: chains 1 and 0
        with pytest.raises(ImpurePosetError):
            weighted_segre(P, chain(2), {0: 0, 1: 1})

    def test_rank_identity_when_hypotheses_hold(self):
        B3 = boolean(3)
        Q = rank_select(boolean(2), {0, 1, 2})
        res = weighted_segre(B3, Q, rank_map(Q))
        info = require_rank_info(res.poset)
        rq = require_rank_info(Q).rank
        for (p, q) in res.poset.labels:
            assert info.rank[(p, q)] == rq[q]


class TestRees:
    def test_r2_is_four_cycle(self):
        P = boolean_minus_bottom(2)
        R = rees(P, chain(2))
        assert len(R) == 4
        K = order_complex(R)
        assert f_vector(K) == (1, 4, 4)
        assert reduced_euler(K) == -1

    def test_single_element_second_factor(self):
        P = boolean_minus_bottom(3)
        R = rees(P, chain(1))
        assert is_isomorphic(R, P)

    def test_rank_is_first_coordinate_rank(self):
        P = boolean_minus_bottom(3)
        R = rees(P, chain(3))
        info = require_rank_info(R)
        for (A, c) in R.labels:
            assert info.rank[(A, c)] == len(A) - 1

    def test_impure_rejected(self):
        P = build_poset(["a", "b", "c"], [("a", "b")])
        with pytest.raises(ImpurePosetError):
            rees(P, chain(2))

    def test_order_definition(self):
        P = boolean_minus_bottom(3)
        Q = chain(3)
        R = rees(P, Q)
        rp = require_rank_info(P).rank
        rq = require_rank_info(Q).rank
        for (p, q) in R.labels:
            for (p2, q2) in R.labels:
                expected = (P.leq(p, p2) and Q.leq(q, q2)
                            and rp[p2] - rp[p] >= rq[q2] - rq[q])
                assert R.leq((p, q), (p2, q2)) == expected


class TestRankSelect:
    def test_middle_levels_of_b3(self):
        S = rank_select(boolean(3), {1, 2})
        assert len(S) == 6
        K = order_complex(S)
        assert f_vector(K) == (1, 6, 6)

    def test_full_rank_set_identity(self):
        B3 = boolean(3)
        assert rank_select(B3, {0, 1, 2, 3}) == B3

    def test_empty_selection(self):
        assert len(rank_select(boolean(3), set())) == 0


class TestReesAsSegre:
    def test_projection_is_isomorphism_b2(self):
        P = boolean_minus_bottom(2)
        Q = chain(2)
        res = rees_as_segre(P, Q)
        R = rees(P, Q)
        assert is_order_isomorphism(res.projection, res.segre_product, R)

    def test_single_element_q(self):
        P = boolean_minus_bottom(2)
        res = rees_as_segre(P, chain(1))
        assert is_isomorphic(res.segre_product, P)

    def test_projection_is_isomorphism_b3(self):
        P = boolean_minus_bottom(3)
        Q = chain(3)
        res = rees_as_segre(P, Q)
        R = rees(P, Q)
        assert is_order_isomorphism(res.projection, res.segre_product, R)


class TestFamilies:
    def test_boolean_3(self):
        B = boolean(3)
        assert len(B) == 8
        info = require_rank_info(B)
        assert all(info.rank[A] == len(A) for A in B.labels)

    def test_minors_2(self):
        M2 = minors(2)
        assert len(M2) == 6
        assert naive_mobius(M2, ((), ()), ((1, 2), (1, 2))) == 3  # oracle
        assert mobius(M2) == 3

    def test_chain_4(self):
        C = chain(4)
        assert len(C) == 4
        assert require_rank_info(C).top_rank == 3

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            chain(0)
        with pytest.raises(ValueError):
            boolean(0)
        with pytest.raises(ValueError):
            subword(10)

    def test_minors_matches_submatrix_poset(self):
        # independently built poset of (row set, column set) pairs
        for n in (1, 2, 3):
            subsets = []
            for k in range(n + 1):
                subsets.extend(itertools.combinations(range(1, n + 1), k))
            labels = [(a, b) for a in subsets for b in subsets if len(a) == len(b)]
            covers = []
            for (a, b) in labels:
                for (a2, b2) in labels:
                    if (len(a2) == len(a) + 1 and set(a) <= set(a2)
                            and set(b) <= set(b2)):
                        covers.append(((a, b), (a2, b2)))
            independent = build_poset(labels, covers)
            assert is_isomorphic(minors(n), independent)


class TestSubword:
    def test_count_n3(self):
        K = subword(3)
        assert len(K) == 15  # 3 + 6 + 6

    def test_count_formula(self):
        import math
        for n in (1, 2, 3, 4):
            expected = sum(math.factorial(n) // math.factorial(n - k)
                           for k in range(1, n + 1))
            assert len(subword(n)) == expected

    def test_containment_positive(self):
        K = subword(3)
        assert K.less("12", "132")

    def test_containment_negative(self):
        K = subword(3)
        assert not K.leq("21", "123")

    def test_rank_is_length_minus_one(self):
        info = require_rank_info(subword(3))
        assert all(info.rank[w] == len(w) - 1 for w in subword(3).labels)


class TestSupportDescents:
    def test_examples(self):
        assert support_descents("132") == ((1, 2, 3), 2)
        assert support_descents("1") == ((1,), 1)
        assert support_descents("321") == ((1, 2, 3), 3)

    def test_repeated_letter_rejected(self):
        with pytest.raises(ValueError):
            support_descents("121")

    def test_descent_positions(self):
        assert word_descents("132") == (2,)
        assert word_descents("321") == (1, 2)
        assert word_descents("123") == ()

    def test_projection_is_rank_preserving_poset_map(self):
        # exhaustively for n <= 4
        for n in (1, 2, 3, 4):
            K = subword(n)
            R = rees_deranged(n)
            rk = require_rank_info(K).rank
            rr = require_rank_info(R).rank
            img = {}
            for w in K.labels:
                supp, j = support_descents(w)
                img[w] = (supp, j - 1)
                assert img[w] in R
                assert rr[img[w]] == rk[w]
            for (w, w2) in K.cover_pairs():
                assert R.leq(img[w], img[w2])


class TestReesDeranged:
    def test_r2(self):
        R = rees_deranged(2)
        assert len(R) == 4
        K = order_complex(R)
        assert f_vector(K) == (1, 4, 4)

    def test_r1(self):
        assert len(rees_deranged(1)) == 1

    def test_element_count_formula(self):
        for n in (1, 2, 3, 4, 5):
            assert len(rees_deranged(n)) == n * 2 ** (n - 1)


class TestFiberIdeal:
    def test_minimal_case(self):
        fi = fiber_ideal(1, [1], 1)
        assert fi.poset.labels == ("1",)
        assert fi.consistent

    def test_i32_membership(self):
        fi = fiber_ideal(3, [1, 2, 3], 2)
        words = set(fi.poset.labels)
        assert words == {"1", "2", "3", "12", "21", "13", "31", "23", "32",
                         "132", "213", "231", "312"}
        assert fi.consistent

    def test_depends_only_on_size_and_class(self):
        for (n, A, i) in [(4, (1, 2), 2), (4, (2, 4), 2), (5, (1, 3, 5), 2)]:
            fi = fiber_ideal(n, A, i)
            ref = fiber_ideal(len(A), range(1, len(A) + 1), i)
            assert is_isomorphic(fi.poset, ref.poset)

    def test_consistency_flag_small(self):
        for n in (1, 2, 3, 4):
            for i in range(1, n + 1):
                assert fiber_ideal(n, range(1, n + 1), i).consistent

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            fiber_ideal(3, [], 1)
        with pytest.raises(ValueError):
            fiber_ideal(3, [1, 2], 3)
        with pytest.raises(ValueError):
            fiber_ideal(3, [4], 1)


class TestFiberConsistencyAllSubsets:
    def test_all_letter_sets_up_to_n5(self):
        # the fiber equals the generated ideal for every (A, i), n <= 5
        for n in (1, 2, 3, 4, 5):
            for k in range(1, n + 1):
                for A in itertools.combinations(range(1, n + 1), k):
                    for i in range(1, k + 1):
                        fi = fiber_ideal(n, A, i)
                        assert fi.consistent, (n, A, i)


class TestConstructedPosetsAreValid:
    def test_cover_sets_are_reduced_and_acyclic(self):
        # re-validating from scratch must accept every constructed cover
        # set and derive the same adjacency and linear extension from it
        B3 = boolean(3)
        C3 = chain(3)
        N3 = natural_semigroup(3)
        view = segre_semigroup(natural_semigroup(2), natural_semigroup(2), (1, 1))
        samples = [
            B3,
            C3,
            boolean_minus_bottom(3),
            product(B3, C3),
            # first factors whose index order is not a linear extension
            product(dual(B3), C3),
            product(build_poset("cba", [("a", "b"), ("b", "c")]), C3),
            segre(B3, rank_map(B3), B3, rank_map(B3)),
            rees(boolean_minus_bottom(3), C3),
            rank_select(B3, {1, 2}),
            rank_select(subword(4), {1, 3}),
            rees_as_segre(boolean_minus_bottom(2), chain(2)).segre_product,
            rees_as_segre(boolean_minus_bottom(2), chain(2)).chain_extension,
            subword(4),
            minors(3),
            rees_deranged(4),
            fiber_ideal(4, (1, 2, 3, 4), 2).poset,
            dual(rees_deranged(3)),
            augment(B3),
            build_poset(B3.labels[::-1], B3.cover_pairs() + (((), (1, 2, 3)),)),
            open_interval(B3, (), (1, 2, 3)),
            open_interval(subword(4), "1", "4321"),
            induced_subposet(B3, B3.labels[::-1]),
            lower_interval(N3, (2, 1, 1)),
            lower_interval(N3, (0, 0, 0)),
            view.lower_interval(((1, 1), (2, 0))),
        ]
        for P in samples:
            Q = Poset(P.labels, P.covers)  # runs full validation
            assert same_order_data(P, Q), P


def same_order_data(P, Q):
    """Labels, covers, adjacency and linear extension all agree."""
    return ((P.labels, P.covers, P._up_adj, P._down_adj, P.topo_order())
            == (Q.labels, Q.covers, Q._up_adj, Q._down_adj, Q.topo_order()))


def same_poset(P, Q):
    return P.labels == Q.labels and P.covers == Q.covers


def oracle_factors():
    # the last one's label order is not a linear extension
    backwards = build_poset(["c", "b", "a", "d"],
                            [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")])
    return ([chain(m) for m in (1, 2, 3, 4)]
            + [boolean(n) for n in (2, 3, 4)]
            + [boolean_minus_bottom(n) for n in (2, 3, 4)]
            + [backwards])


def random_monotone(P, rng):
    """A random order-preserving map from ``P`` into the naturals."""
    value = {}
    for i in P.topo_order():
        low = [value[P.labels[j]] for j in P._down_adj[i]]
        value[P.labels[i]] = max(low, default=0) + rng.randrange(2)
    return value


class TestMaskConstructionsMatchOracles:
    """The mask-arithmetic products and fibers against the pair-by-pair
    and word-by-word constructions in ``construction_oracle``."""

    def test_segre_and_rees_products(self):
        factors = oracle_factors()
        for P in factors:
            rp = dict(rank_map(P).values)
            for Q in factors:
                rq = dict(rank_map(Q).values)
                assert same_poset(segre(P, rp, Q, rq), reference_segre(P, rp, Q, rq))
                assert same_poset(rees(P, Q), reference_rees(P, Q))

    def test_weighted_segre_strict_and_not(self):
        factors = oracle_factors()
        for P in factors:
            rp = dict(rank_map(P).values)
            for Q in factors:
                rq = dict(rank_map(Q).values)
                halved = {q: r // 2 for q, r in rq.items()}
                for g in (rq, halved):
                    got = weighted_segre(P, Q, g)
                    assert same_poset(got.poset, reference_segre(P, rp, Q, g))
                assert weighted_segre(P, Q, halved).g_strict == (max(rq.values()) == 0)

    def test_segre_with_arbitrary_maps(self):
        rng = random.Random(7)
        factors = oracle_factors()
        for _ in range(20):
            P, Q = rng.choice(factors), rng.choice(factors)
            f, g = random_monotone(P, rng), random_monotone(Q, rng)
            assert same_poset(segre(P, f, Q, g), reference_segre(P, f, Q, g))

    def test_pullback_with_unequal_slacks(self):
        rng = random.Random(11)
        P, Q = boolean(3), boolean_minus_bottom(3)
        table = {(p, q): rng.choice([None, 0, 1, 2]) for p in P.labels for q in Q.labels}
        slack = lambda p, q: table[p, q]  # noqa: E731
        assert same_poset(constructions._pullback(P, Q, slack),
                          pairwise_pullback(P, Q, slack))

    def test_poset_from_order_covers(self):
        # labels and covers as the down-set construction finds them, also
        # when the index order is not a linear extension
        rng = random.Random(13)
        posets = [random_poset(rng, rng.randint(0, 14), rng.choice([0.2, 0.4, 0.7]))
                  for _ in range(40)]
        posets += [minors(4), rees_deranged(4), subword(4)]
        for P in posets:
            perm = list(range(len(P)))
            rng.shuffle(perm)
            for order in (range(len(P)), perm):
                at = {i: k for k, i in enumerate(order)}
                labels = [P.labels[i] for i in order]
                above = [sum(1 << at[j] for j in iter_bits(P.above_masks()[i]))
                         for i in order]
                got = constructions.poset_from_order(labels, above)
                ref = reference_poset_from_order(labels, above)
                assert (got.labels, got.covers) == (ref.labels, ref.covers)

    def test_named_families(self):
        B = boolean(4)
        r = dict(rank_map(B).values)
        assert same_poset(minors(4), reference_segre(B, r, B, r))
        for n in range(1, 7):
            assert same_poset(rees_deranged(n),
                              reference_rees(boolean_minus_bottom(n), chain(n)))

    def test_every_fiber_to_n5_and_full_alphabet_n6(self):
        cases = [(n, A, i) for n in range(1, 6) for k in range(1, n + 1)
                 for A in itertools.combinations(range(1, n + 1), k)
                 for i in range(1, k + 1)]
        cases += [(6, tuple(range(1, 7)), i) for i in range(1, 7)]
        for (n, A, i) in cases:
            got = fiber_ideal(n, A, i)
            ref = reference_fiber_ideal(n, A, i)
            assert same_poset(got.poset, ref.poset), (n, A, i)
            assert got.consistent == ref.consistent, (n, A, i)
            assert (got.n, got.letters, got.descent_class) == (n, A, i)

    def test_fiber_that_is_not_down_closed_raises(self, monkeypatch):
        K, R = subword(3), rees_deranged(3)
        image = list(constructions._word_projection(3))
        # "1" now maps to ((1, 2, 3), 2), outside the ideal below
        # ((1, 2, 3), 1), while "12" above it still maps inside
        image[K.index("1")] = R.index(((1, 2, 3), 2))
        monkeypatch.setattr(constructions, "_word_projection", lambda n: tuple(image))
        with pytest.raises(RuntimeError, match="not down-closed"):
            fiber_ideal(3, (1, 2, 3), 2)
