import itertools

import pytest

from posettop.constructions import minors
from posettop.permutations import (
    FlagVector,
    ascent_set,
    derangements,
    descent_set,
    falling_chains_segre_square,
    flag_vector_boolean,
    no_common_ascent_pairs,
)
from posettop.posets import mobius


def pairs_with_nested_descents(n):
    """Pairs of permutations of ``1..n`` where the first's descent set is
    contained in the second's; equinumerous with the no-common-ascent
    pairs."""
    descents = [descent_set(p) for p in itertools.permutations(range(1, n + 1))]
    return sum(d1 <= d2 for d1 in descents for d2 in descents)


def reversal(w):
    return tuple(reversed(w))


class TestDescents:
    def test_examples(self):
        assert descent_set("132") == frozenset({2})
        assert descent_set((1, 2, 3, 4)) == frozenset()
        assert descent_set("321") == frozenset({1, 2})

    def test_ascents_complement_descents(self):
        for p in itertools.permutations(range(1, 5)):
            assert descent_set(p) | ascent_set(p) == frozenset(range(1, 4))
            assert not descent_set(p) & ascent_set(p)

    def test_repeats_rejected(self):
        with pytest.raises(ValueError):
            descent_set("121")
        with pytest.raises(ValueError):
            descent_set("")


class TestDerangements:
    def test_small_values(self):
        assert derangements(1) == 0
        assert derangements(2) == 1
        assert derangements(3) == 2
        assert derangements(4) == 9
        assert derangements(5) == 44
        assert derangements(6) == 265
        assert derangements(7) == 1854

    def test_brute_force_oracle(self):
        # independent enumeration, not the library's internal cross-check
        for n in range(1, 7):
            count = 0
            for p in itertools.permutations(range(1, n + 1)):
                if all(p[i] != i + 1 for i in range(n)):
                    count += 1
            assert derangements(n) == count

    def test_validation(self):
        with pytest.raises(ValueError):
            derangements(0)


class TestNoCommonAscent:
    def test_small_values(self):
        assert no_common_ascent_pairs(1) == 1
        assert no_common_ascent_pairs(2) == 3
        assert no_common_ascent_pairs(3) == 19

    def test_brute_force_oracle(self):
        for n in (2, 3, 4):
            perms = list(itertools.permutations(range(1, n + 1)))
            count = 0
            for a in perms:
                for b in perms:
                    asc_a = {t for t in range(n - 1) if a[t] < a[t + 1]}
                    asc_b = {t for t in range(n - 1) if b[t] < b[t + 1]}
                    if not asc_a & asc_b:
                        count += 1
            assert no_common_ascent_pairs(n) == count

    def test_bound(self):
        with pytest.raises(ValueError):
            no_common_ascent_pairs(7)


class TestFlagVector:
    def test_n3_table(self):
        fv = flag_vector_boolean(3)
        J1 = frozenset({1})
        assert fv.alpha[J1] == 3
        assert fv.beta[J1] == 2
        assert fv.alpha[frozenset()] == 1
        assert fv.beta[frozenset()] == 1

    def test_alpha_empty_always_one(self):
        for n in (1, 2, 3, 4, 5):
            fv = flag_vector_boolean(n)
            assert fv.alpha[frozenset()] == 1
            assert fv.beta[frozenset()] == 1

    def test_n3_alpha_beta_sum(self):
        assert flag_vector_boolean(3).alpha_beta_sum() == 1 * 1 + 3 * 2 + 3 * 2 + 6 * 1

    def test_alpha_counts_subsets_directly(self):
        # alpha_J must equal the direct count of permutations with
        # descent set contained in J
        for n in (2, 3, 4):
            fv = flag_vector_boolean(n)
            for J in fv.alpha:
                direct = sum(1 for p in itertools.permutations(range(1, n + 1))
                             if descent_set(p) <= J)
                assert fv.alpha[J] == direct


    @pytest.mark.parametrize("n", [10, 25])
    def test_bound(self, n):
        # refused before any permutation is listed
        with pytest.raises(ValueError, match="n <= 9"):
            flag_vector_boolean(n)


class TestFallingChains:
    def test_small_values(self):
        assert falling_chains_segre_square(1) == 1
        assert falling_chains_segre_square(2) == 3
        assert falling_chains_segre_square(3) == 19

    def test_total_chain_count_sanity(self):
        # all maximal chains of the submatrix poset are permutation pairs
        import math
        M = minors(3)
        up = {x: M.upper_covers(x) for x in M.labels}
        total = 0
        stack = [((), ())]
        while stack:
            x = stack.pop()
            ups = up[(x, x) if False else x]
            if not ups:
                total += 1
            else:
                stack.extend(ups)
        assert total == math.factorial(3) ** 2

    def test_bound(self):
        with pytest.raises(ValueError):
            falling_chains_segre_square(7)


class TestIdentities:
    def test_four_way_identity(self):
        for n in (1, 2, 3, 4):
            mu = mobius(minors(n))
            nca = no_common_ascent_pairs(n)
            falling = falling_chains_segre_square(n)
            fv = flag_vector_boolean(n).alpha_beta_sum()
            assert (-1) ** n * mu == nca == falling == fv, n

    def test_nested_descent_count_matches(self):
        for n in (1, 2, 3, 4):
            assert pairs_with_nested_descents(n) == no_common_ascent_pairs(n)

    def test_reversal_bijection(self):
        # reversing both words maps disjoint-descent pairs onto
        # no-common-ascent pairs
        for n in (2, 3, 4):
            perms = list(itertools.permutations(range(1, n + 1)))
            disjoint = {(a, b) for a in perms for b in perms
                        if not (descent_set(a) & descent_set(b))}
            image = {(reversal(a), reversal(b)) for (a, b) in disjoint}
            nca = {(a, b) for a in perms for b in perms
                   if not (ascent_set(a) & ascent_set(b))}
            assert image == nca


class TestWiderBounds:
    def test_beta_inclusion_exclusion_n6(self):
        # flag_vector_boolean asserts the identity internally for all J
        fv = flag_vector_boolean(6)
        assert fv.alpha[frozenset()] == 1

    def test_reversal_bijection_n5(self):
        perms = list(itertools.permutations(range(1, 6)))
        disjoint = sum(1 for a in perms for b in perms
                       if not (descent_set(a) & descent_set(b)))
        assert disjoint == no_common_ascent_pairs(5)

    def test_four_way_identity_n5(self):
        n = 5
        mu = mobius(minors(n))
        assert (-1) ** n * mu == no_common_ascent_pairs(n) \
            == falling_chains_segre_square(n) \
            == flag_vector_boolean(n).alpha_beta_sum()
