import itertools
import random
import time

import pytest

from posettop.constructions import boolean, chain, rees_deranged, subword
from posettop.homology import _place_masks
from posettop.posets import (
    ISO_SIZE_LIMIT,
    Bound,
    ImpurePosetError,
    Poset,
    PosetError,
    PosetMap,
    PurityFailure,
    RankInfo,
    SizeLimitError,
    augment,
    bounds,
    build_poset,
    closed_interval,
    dual,
    find_isomorphism,
    induced_subposet,
    is_isomorphic,
    is_pure,
    mobius,
    open_interval,
    poset_from_json,
    poset_to_json,
    rank_info,
    rank_map,
    require_rank_info,
)
from posettop.semigroups import (
    natural_semigroup,
    open_interval_below,
    punctured_veronese_semigroup,
    rees_semigroup,
)


def boolean_lattice(n):
    """Independent direct construction of the subset lattice of {1..n}."""
    labels = []
    for k in range(n + 1):
        labels.extend(tuple(sorted(c)) for c in itertools.combinations(range(1, n + 1), k))
    covers = [(a, b) for a in labels for b in labels
              if len(b) == len(a) + 1 and set(a) <= set(b)]
    return build_poset(labels, covers)


def boolean_top_first(n):
    """``boolean(n)`` with its labels listed top-first: its index order
    is not a linear extension."""
    B = boolean(n)
    return build_poset(B.labels[::-1], [(B.labels[i], B.labels[j]) for (i, j) in B.covers])


def naive_leq(P):
    """Reflexive-transitive closure computed by repeated squaring, slowly."""
    rel = {(a, b) for (a, b) in P.cover_pairs()}
    rel |= {(x, x) for x in P.labels}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def naive_mobius(P, x, y):
    """Textbook recursion mu(x,x)=1, mu(x,y) = -sum_{x<=z<y} mu(x,z)."""
    leq = naive_leq(P)
    memo = {}

    def mu(a, b):
        if a == b:
            return 1
        if (a, b) in memo:
            return memo[(a, b)]
        s = 0
        for z in P.labels:
            if (a, z) in leq and (z, b) in leq and z != b:
                s += mu(a, z)
        memo[(a, b)] = -s
        return -s

    return mu(x, y)


def random_poset(rng, n, p=0.3):
    labels = list(range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_poset(labels, pairs)


def random_pure_bounded_poset(rng, max_mid=8):
    """Bounded poset whose maximal chains all have the same length."""
    height = rng.randint(1, 4)
    levels = [[("lvl", h, k) for k in range(rng.randint(1, max(1, max_mid // height)))]
              for h in range(height)]
    covers = []
    for h in range(1, height):
        for x in levels[h]:
            lower = rng.sample(levels[h - 1], rng.randint(1, len(levels[h - 1])))
            covers.extend((lo, x) for lo in lower)
        for lo in levels[h - 1]:
            if not any(c[0] == lo for c in covers if c[1] in levels[h]):
                covers.append((lo, rng.choice(levels[h])))
    labels = ["bot"] + [x for lvl in levels for x in lvl] + ["top"]
    covers += [("bot", x) for x in levels[0]]
    covers += [(x, "top") for x in levels[-1]]
    return build_poset(labels, covers)


class TestBuildPoset:
    def test_three_chain(self):
        P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert len(P) == 3
        assert P.less("a", "c") and P.less("a", "b") and P.less("b", "c")
        assert not P.less("c", "a")

    def test_cycle_rejected(self):
        with pytest.raises(PosetError, match="cycle"):
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(PosetError, match="duplicate"):
            build_poset(["a", "a"], [])

    def test_unknown_label_rejected(self):
        with pytest.raises(PosetError, match="unknown"):
            build_poset(["a"], [("a", "z")])

    def test_redundant_pairs_are_reduced(self):
        P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert set(P.cover_pairs()) == {("a", "b"), ("b", "c")}

    def test_covers_are_brute_force_reduction(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(0, 8)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            P = build_poset(range(n), pairs)
            lt = {(a, b) for (a, b) in naive_leq(P) if a != b}
            # a < b with nothing in between
            expected = {(a, b) for (a, b) in lt
                        if not any((a, c) in lt and (c, b) in lt for c in range(n))}
            assert set(P.cover_pairs()) == expected

    def test_cycle_names_its_labels(self):
        labels = ["x", "a", "b", "y"]
        pairs = [("x", "a"), ("a", "b"), ("b", "a")]
        with pytest.raises(PosetError, match=r"cycle in the relation involving: a, b$"):
            build_poset(labels, pairs)
        with pytest.raises(PosetError, match=r"cycle in the relation involving: a, b$"):
            Poset(labels, [(0, 1), (1, 2), (2, 1)])

    def test_unvalidated_implied_pair_rejected(self):
        with pytest.raises(PosetError, match=r"not transitively reduced: \('a', 'c'\)"):
            Poset(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])

    def test_random_posets_are_reduced_and_acyclic(self):
        rng = random.Random(7)
        for _ in range(60):
            P = random_poset(rng, rng.randint(0, 10))
            # re-validating from scratch must accept the cover set unchanged
            Q = build_poset(P.labels, P.cover_pairs())
            assert set(Q.cover_pairs()) == set(P.cover_pairs())
            # order agrees with the naive closure
            leq = naive_leq(P)
            for a in P.labels:
                for b in P.labels:
                    assert P.leq(a, b) == ((a, b) in leq)


class TestRankInfo:
    def test_chain_ranks(self):
        P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        info = rank_info(P)
        assert isinstance(info, RankInfo)
        assert info.rank == {"a": 0, "b": 1, "c": 2}
        assert info.top_rank == 2

    def test_purity_failure_witness(self):
        P = build_poset(["a", "b", "c", "x", "y"],
                        [("a", "c"), ("b", "c"), ("a", "x"), ("x", "y")])
        info = rank_info(P)
        assert isinstance(info, PurityFailure)
        lengths = sorted((len(info.chain_a) - 1, len(info.chain_b) - 1))
        assert lengths == [1, 2]
        assert not is_pure(P)
        with pytest.raises(ImpurePosetError):
            require_rank_info(P)

    def test_boolean_lattice_rank(self):
        B3 = boolean_lattice(3)
        info = require_rank_info(B3)
        assert info.top_rank == 3
        assert all(info.rank[A] == len(A) for A in B3.labels)

    def test_empty_poset_rejected(self):
        with pytest.raises(PosetError):
            rank_info(build_poset([], []))
        assert is_pure(build_poset([], []))

    def test_augment_raises_top_rank_by_two(self):
        rng = random.Random(3)
        for _ in range(25):
            P = random_pure_bounded_poset(rng)
            t = require_rank_info(P).top_rank
            assert require_rank_info(augment(P)).top_rank == t + 2


class TestIntervals:
    def test_boolean_open_interval_full(self):
        B3 = boolean_lattice(3)
        I = open_interval(B3, (), (1, 2, 3))
        assert len(I) == 6
        assert set(I.labels) == {(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}

    def test_cover_pair_gives_empty_interval(self):
        P = build_poset(["a", "b"], [("a", "b")])
        assert len(open_interval(P, "a", "b")) == 0

    def test_upper_interval_antichain(self):
        B3 = boolean_lattice(3)
        I = open_interval(B3, (1,), (1, 2, 3))
        assert set(I.labels) == {(1, 2), (1, 3)}
        assert I.covers == ()

    def test_closed_interval(self):
        B3 = boolean_lattice(3)
        I = closed_interval(B3, (1,), (1, 2, 3))
        assert set(I.labels) == {(1,), (1, 2), (1, 3), (1, 2, 3)}

    def test_incomparable_endpoints_rejected(self):
        B3 = boolean_lattice(3)
        with pytest.raises(PosetError):
            open_interval(B3, (1,), (2, 3))

    def test_induced_subposet_relation(self):
        B3 = boolean_lattice(3)
        S = induced_subposet(B3, [(), (1,), (1, 2), (1, 2, 3)])
        # a chain: covers collapse the skipped comparabilities
        assert set(S.cover_pairs()) == {((), (1,)), ((1,), (1, 2)), ((1, 2), (1, 2, 3))}


def rebuilt_augment(P, labels):
    """``augment(P)``'s poset on ``labels`` as it was built before it
    shifted ``P``'s data: the bounds' covers are appended to ``P``'s
    shifted ones, and a fresh ``Poset`` sorts them and derives the rest."""
    n = len(P)
    covers = [(i + 1, j + 1) for (i, j) in P.covers]
    covers += [(0, i + 1) for i in range(n) if not P._down_adj[i]]
    covers += [(i + 1, n + 1) for i in range(n) if not P._up_adj[i]]
    if n == 0:
        covers.append((0, 1))
    return Poset(labels, covers)


def augment_corpus():
    """607 posets: curated ones (the empty poset, an antichain, one whose
    index order is not a linear extension), 300 random pure bounded posets
    and 300 random relations on shuffled labels, antichains and impure
    posets included."""
    rng = random.Random(23)
    corpus = [build_poset([], []), build_poset(["p"], []), build_poset("xyz", []),
              boolean(4), boolean_top_first(4), subword(4), rees_deranged(4)]
    corpus += [random_pure_bounded_poset(rng) for _ in range(300)]
    for _ in range(300):
        P = random_poset(rng, rng.randint(0, 10), rng.random())
        labels = list(P.labels)
        rng.shuffle(labels)
        corpus.append(build_poset(labels, P.cover_pairs()))
    return corpus


class TestAugment:
    def test_shifted_data_matches_a_rebuilt_poset(self):
        corpus = augment_corpus()
        assert len(corpus) == 607
        impure = 0
        for P in corpus:
            pure = len(P) > 0 and is_pure(P)  # caches P's rank data
            impure += len(P) > 0 and not pure
            A = augment(P)
            R = rebuilt_augment(P, A.labels)
            assert A.labels[1:-1] == P.labels
            assert A.covers == R.covers
            assert (A._up_adj, A._down_adj, A._index) == (R._up_adj, R._down_adj, R._index)
            assert A.topo_order() == R.topo_order()
            assert (A.above_masks(), A.below_masks()) == (R.above_masks(), R.below_masks())
            assert _place_masks(A, A.topo_order()) == _place_masks(R, R.topo_order())
            # rank data is shifted only from a pure P's, else derived on use
            assert (A._rank_result is not None) == pure
            assert rank_info(A) == rank_info(R)
        assert impure > 50

    def test_antichain_becomes_diamond(self):
        P = build_poset(["x", "y"], [])
        A = augment(P)
        assert len(A) == 4
        B2 = boolean_lattice(2)
        assert is_isomorphic(A, B2)

    def test_empty_becomes_two_chain(self):
        A = augment(build_poset([], []))
        assert len(A) == 2 and len(A.covers) == 1

    def test_singleton_becomes_three_chain(self):
        A = augment(build_poset(["p"], []))
        assert len(A) == 3
        assert require_rank_info(A).top_rank == 2

    def test_fresh_bounds_even_if_bounded(self):
        C = build_poset([0, 1], [(0, 1)])
        A = augment(C)
        assert len(A) == 4
        assert require_rank_info(A).top_rank == 3
        assert isinstance(A.minimal_elements()[0], Bound)


class TestMobius:
    def test_cover_pair(self):
        P = build_poset(["a", "b"], [("a", "b")])
        assert mobius(P, "a", "b") == -1
        assert mobius(P, "a", "a") == 1

    def test_boolean_3(self):
        B3 = boolean_lattice(3)
        assert naive_mobius(B3, (), (1, 2, 3)) == -1  # oracle
        assert mobius(B3, (), (1, 2, 3)) == -1
        assert mobius(B3) == -1  # bounded convenience form

    def test_incomparable_rejected(self):
        B3 = boolean_lattice(3)
        with pytest.raises(PosetError):
            mobius(B3, (1,), (2,))

    def test_against_naive_on_random_posets(self):
        rng = random.Random(11)
        for _ in range(30):
            P = random_poset(rng, rng.randint(1, 8))
            for x in P.labels:
                for y in P.labels:
                    if P.leq(x, y):
                        assert mobius(P, x, y) == naive_mobius(P, x, y)


class TestDual:
    def test_chain_self_dual(self):
        C = build_poset([0, 1, 2], [(0, 1), (1, 2)])
        assert is_isomorphic(dual(C), C)

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(20):
            P = random_poset(rng, rng.randint(0, 9))
            assert dual(dual(P)) == P

    def test_shares_the_label_index(self):
        # no label is hashed again; the order data is the reversed order's
        rng = random.Random(7)
        for _ in range(20):
            P = random_poset(rng, rng.randint(0, 9))
            D = dual(P)
            assert D._index is P._index
            assert all(D.index(x) == i for i, x in enumerate(P.labels))
            assert D.above_masks() == P.below_masks()
            assert D.covers == tuple(sorted((j, i) for i, j in P.covers))

    def test_v_becomes_wedge(self):
        V = build_poset(["b", "t1", "t2"], [("b", "t1"), ("b", "t2")])
        L = dual(V)
        assert len(L.maximal_elements()) == 1
        assert len(L.minimal_elements()) == 2


def crown(k, tag):
    """Minimal elements l_i below maximal h_i and h_(i-1), indices mod k."""
    lo = [(tag, "l", i) for i in range(k)]
    hi = [(tag, "h", i) for i in range(k)]
    return lo + hi, [(lo[i], hi[i]) for i in range(k)] + [(lo[i], hi[i - 1]) for i in range(k)]


def brute_isomorphic(P, Q):
    """Reference decision: try every bijection of the labels."""
    if len(P) != len(Q) or len(P.covers) != len(Q.covers):
        return False
    q_covers = set(Q.cover_pairs())
    for image in itertools.permutations(Q.labels):
        f = dict(zip(P.labels, image))
        if all((f[a], f[b]) in q_covers for (a, b) in P.cover_pairs()):
            return True
    return False


def assert_witness(P, Q, f):
    assert sorted(f.values(), key=repr) == sorted(Q.labels, key=repr)
    for a in P.labels:
        for b in P.labels:
            assert P.leq(a, b) == Q.leq(f[a], f[b])


def timed_isomorphism(P, Q, budget):
    start = time.perf_counter()
    f = find_isomorphism(P, Q)
    assert time.perf_counter() - start < budget
    return f


class TestIsomorphism:
    def test_diamond_is_b2(self):
        D = build_poset(["0", "x", "y", "1"],
                        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
        f = find_isomorphism(D, boolean_lattice(2))
        assert f is not None
        assert f["0"] == () and f["1"] == (1, 2)

    def test_chain_vs_antichain(self):
        C = build_poset([0, 1], [(0, 1)])
        A = build_poset([0, 1], [])
        assert not is_isomorphic(C, A)

    def test_boolean_self_dual(self):
        B3 = boolean_lattice(3)
        assert is_isomorphic(B3, dual(B3))

    def test_size_limit(self):
        assert ISO_SIZE_LIMIT == 512
        assert is_isomorphic(chain(512), chain(512))
        P = chain(513)
        for search in (find_isomorphism, is_isomorphic):
            with pytest.raises(SizeLimitError, match="ISO_SIZE_LIMIT = 512 elements, got 513"):
                search(P, chain(513))
        # posets of different sizes are told apart before the limit
        assert find_isomorphism(P, chain(512)) is None

    def test_reflexive_symmetric_on_random_corpus(self):
        rng = random.Random(13)
        posets = [random_poset(rng, rng.randint(1, 8)) for _ in range(12)]
        for P in posets:
            assert is_isomorphic(P, P)
        for P in posets:
            for Q in posets:
                assert is_isomorphic(P, Q) == is_isomorphic(Q, P)

    def test_witness_is_an_isomorphism(self):
        rng = random.Random(17)
        for _ in range(10):
            P = random_poset(rng, 7)
            perm = list(P.labels)
            rng.shuffle(perm)
            relab = dict(zip(P.labels, perm))
            Q = build_poset(perm, [(relab[a], relab[b]) for (a, b) in P.cover_pairs()])
            f = find_isomorphism(P, Q)
            assert f is not None
            for a in P.labels:
                for b in P.labels:
                    assert P.leq(a, b) == Q.leq(f[a], f[b])

    def test_rees_veronese_intervals(self):
        # two isomorphic 36-element intervals of Rees(Lambda_3, N^2) on which
        # backtracking without refinement ran for minutes
        S = rees_semigroup(punctured_veronese_semigroup(3), natural_semigroup(2))
        P = open_interval_below(S, (1, 3, 5, 1, 1))
        Q = open_interval_below(S, (3, 3, 3, 0, 1))
        assert (len(P), len(P.covers)) == (len(Q), len(Q.covers)) == (36, 108)
        f = timed_isomorphism(P, Q, 5.0)
        assert f is not None
        assert_witness(P, Q, f)

    def test_symmetric_inputs_within_budget(self):
        B8 = boolean_lattice(8)
        f = timed_isomorphism(B8, dual(B8), 5.0)
        assert f is not None
        assert_witness(B8, dual(B8), f)
        A = build_poset(range(300), [])
        f = timed_isomorphism(A, build_poset(range(300, 600), []), 1.0)
        assert f == {i: i + 300 for i in range(300)}

    def test_crowns_not_isomorphic(self):
        # every element of both has the same colour after refinement
        labels, covers = crown(12, 0)
        one = build_poset(labels, covers)
        la, ca = crown(6, 1)
        lb, cb = crown(6, 2)
        two = build_poset(la + lb, ca + cb)
        assert timed_isomorphism(one, two, 5.0) is None
        assert timed_isomorphism(two, one, 5.0) is None

    def test_matches_brute_force(self):
        rng = random.Random(23)
        found = 0
        for t in range(200):
            n = rng.randint(1, 6)
            P = random_poset(rng, n, rng.choice([0.2, 0.4, 0.6]))
            if t % 2:
                image = list(P.labels)
                rng.shuffle(image)
                relabel = dict(zip(P.labels, image))
                Q = build_poset(image, [(relabel[a], relabel[b]) for (a, b) in P.cover_pairs()])
            else:
                Q = random_poset(rng, n, rng.choice([0.2, 0.4, 0.6]))
            f = find_isomorphism(P, Q)
            assert (f is not None) == brute_isomorphic(P, Q)
            if f is not None:
                assert_witness(P, Q, f)
                found += 1
        assert 100 <= found < 200


class TestPosetMap:
    def test_rank_map_is_strict(self):
        g = rank_map(boolean_lattice(3))
        assert g.strict
        assert g((1, 2)) == 2

    def test_non_monotone_rejected(self):
        C = build_poset([0, 1], [(0, 1)])
        with pytest.raises(PosetError):
            PosetMap(C, {0: 1, 1: 0})

    @pytest.mark.parametrize("values", [{0: False, 1: True}, {0: 0, 1: True},
                                        {0: 0, 1: 1.0}, {0: -1, 1: 1}])
    def test_values_outside_n_rejected(self, values):
        # a bool is refused, though Python counts it an int
        C = build_poset([0, 1], [(0, 1)])
        with pytest.raises(PosetError, match="values in N"):
            PosetMap(C, values)

    def test_weak_map_not_strict(self):
        C = build_poset([0, 1], [(0, 1)])
        f = PosetMap(C, {0: 0, 1: 0})
        assert not f.strict

    def test_map_into_poset_target(self):
        C = build_poset([0, 1], [(0, 1)])
        B2 = boolean_lattice(2)
        f = PosetMap(C, {0: (), 1: (1, 2)}, target=B2)
        assert f.strict


class TestSerialization:
    def test_round_trip_bit_exact(self):
        B3 = boolean_lattice(3)
        text = poset_to_json(B3)
        P = poset_from_json(text)
        assert poset_to_json(P) == text

    def test_element_order_fixes_indices(self):
        text = '{"elements": ["z", "a"], "covers": [["z", "a"]]}'
        P = poset_from_json(text)
        assert P.labels == ("z", "a")

    def test_bad_json_rejected(self):
        with pytest.raises(PosetError):
            poset_from_json('{"covers": []}')


def test_bounds():
    B2 = boolean_lattice(2)
    assert bounds(B2) == ((), (1, 2))
    with pytest.raises(PosetError):
        bounds(build_poset(["a", "b"], []))
