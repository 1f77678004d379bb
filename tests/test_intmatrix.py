import itertools
import math
import random

import pytest

from posettop.intmatrix import (
    IntegerMatrix,
    MatrixError,
    _divisibility_chain,
    is_prime,
    rank_mod_p,
    rank_over_rationals,
    smith_normal_form,
)


def random_matrix(rng, max_dim=5, max_entry=6):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    rows = [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)]
    return IntegerMatrix.from_rows(rows)


def det_laplace(rows):
    """Determinant by cofactor expansion (oracle for small matrices)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det_laplace(minor)
    return total


def determinantal_divisors(M):
    """gcd of all k x k minors for each k (oracle for Smith diagonal)."""
    rows = M.to_rows()
    out = []
    for k in range(1, min(M.nrows, M.ncols) + 1):
        g = 0
        for ri in itertools.combinations(range(M.nrows), k):
            for ci in itertools.combinations(range(M.ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det_laplace(sub))
        out.append(g)
    return out


def apply_random_unimodular(M, rng, steps=12):
    rows = M.to_rows()
    m, n = M.nrows, M.ncols
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 0 and m > 1:
            i, j = rng.sample(range(m), 2)
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            for r in rows:
                r[i] += c * r[j]
        elif kind == 2 and m > 1:
            i, j = rng.sample(range(m), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 3:
            i = rng.randrange(m)
            rows[i] = [-a for a in rows[i]]
    return IntegerMatrix.from_rows(rows)


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(IntegerMatrix.identity(3)).diagonal == (1, 1, 1)

    def test_already_diagonal_chain(self):
        M = IntegerMatrix.from_rows([[2, 0], [0, 4]])
        assert smith_normal_form(M).diagonal == (2, 4)

    def test_coprime_diagonal_merges(self):
        M = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        assert smith_normal_form(M).diagonal == (1, 6)

    def test_zero_matrix(self):
        M = IntegerMatrix(2, 3)
        s = smith_normal_form(M)
        assert s.diagonal == (0, 0)
        assert s.rank == 0

    def test_divisibility_chain_random(self):
        rng = random.Random(23)
        for _ in range(120):
            M = random_matrix(rng)
            diag = smith_normal_form(M).diagonal
            nz = [d for d in diag if d]
            assert all(d > 0 for d in nz)
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0
            # zeros only at the end
            assert list(diag).index(0) == len(nz) if 0 in diag else True

    def test_determinant_preserved_on_nonsingular(self):
        rng = random.Random(5)
        found = 0
        while found < 40:
            n = rng.randint(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            d = det_laplace(rows)
            if d == 0:
                continue
            found += 1
            diag = smith_normal_form(IntegerMatrix.from_rows(rows)).diagonal
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(d)

    def test_against_determinantal_divisors(self):
        rng = random.Random(17)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            M = IntegerMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
            diag = smith_normal_form(M).diagonal
            dd = determinantal_divisors(M)
            prod = 1
            for k, d in enumerate(diag):
                prod *= d
                assert prod == dd[k], (M.to_rows(), diag, dd)

    def test_unimodular_invariance(self):
        rng = random.Random(31)
        for _ in range(40):
            M = random_matrix(rng, 4)
            N = apply_random_unimodular(M, rng)
            assert smith_normal_form(M).diagonal == smith_normal_form(N).diagonal

    @pytest.mark.parametrize("planted, expected", [
        ((1, 2, 4, 12, 0, 0), (1, 2, 4, 12)),
        ((12, 0, 4, 2, 1), (1, 2, 4, 12)),
        # not a divisibility chain: diag(a, b) ~ diag(gcd, lcm) must merge it
        ((9, 4, 10, 6), (1, 2, 6, 180)),
        ((3, 2, 3, 2, 0, 5), (1, 1, 1, 6, 30)),
    ])
    def test_planted_diagonal_recovered(self, planted, expected):
        rng = random.Random(sum(planted))
        for _ in range(12):
            m = rng.randint(len(planted), 30)
            n = rng.randint(len(planted), 30)
            rows_at = rng.sample(range(m), len(planted))
            cols_at = rng.sample(range(n), len(planted))
            D = IntegerMatrix(m, n, dict(zip(zip(rows_at, cols_at), planted)))
            N = apply_random_unimodular(D, rng, steps=m + n)
            pad = min(m, n) - len(expected)
            assert smith_normal_form(N).diagonal == expected + (0,) * pad

    def test_divisibility_chain_against_prime_exponents(self):
        # the invariant factors of a diagonal sort each prime's exponents
        def factor(x):
            out, p = {}, 2
            while x > 1:
                while x % p == 0:
                    out[p] = out.get(p, 0) + 1
                    x //= p
                p += 1
            return out

        rng = random.Random(59)
        for _ in range(300):
            diag = [rng.choice((1, 2, 3, 4, 6, 8, 9, 10, 12, 25, 36, 49))
                    for _ in range(rng.randint(0, 12))]
            exps = {}
            for i, x in enumerate(diag):
                for p, e in factor(x).items():
                    exps.setdefault(p, [0] * len(diag))[i] = e
            expected = [1] * len(diag)
            for p, es in exps.items():
                for i, e in enumerate(sorted(es)):
                    expected[i] *= p ** e
            assert _divisibility_chain(diag) == expected, diag

    def test_deterministic(self):
        rng = random.Random(1)
        for _ in range(10):
            M = random_matrix(rng)
            assert smith_normal_form(M) == smith_normal_form(M)


class TestFieldRanks:
    def test_rank_q_matches_snf_rank(self):
        rng = random.Random(41)
        for _ in range(80):
            M = random_matrix(rng)
            assert rank_over_rationals(M) == smith_normal_form(M).rank

    def test_rank_mod_p_from_divisors(self):
        # over GF(p) the rank is the number of divisors not killed by p
        rng = random.Random(43)
        for p in (2, 3, 5, 7):
            for _ in range(40):
                M = random_matrix(rng, 4)
                diag = smith_normal_form(M).diagonal
                expected = sum(1 for d in diag if d and d % p)
                assert rank_mod_p(M, p) == expected

    def test_rank_mod_2_bitpacked_path(self):
        # [[2,1],[0,3]] reduces to [[0,1],[0,1]] over GF(2)
        M = IntegerMatrix.from_rows([[2, 1], [0, 3]])
        assert rank_mod_p(M, 2) == 1
        assert rank_mod_p(IntegerMatrix.from_rows([[1, 1], [1, 0]]), 2) == 2
        assert rank_mod_p(IntegerMatrix.from_rows([[2, 4], [6, 8]]), 2) == 0

    def test_composite_rejected(self):
        with pytest.raises(MatrixError, match="not prime"):
            rank_mod_p(IntegerMatrix.identity(2), 4)


class TestMatrixBasics:
    def test_matmul(self):
        A = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        B = IntegerMatrix.from_rows([[0, 1], [1, 0]])
        assert (A @ B).to_rows() == [[2, 1], [4, 3]]

    def test_shape_mismatch(self):
        with pytest.raises(MatrixError):
            IntegerMatrix.identity(2) @ IntegerMatrix.identity(3)

    def test_ragged_rejected(self):
        with pytest.raises(MatrixError):
            IntegerMatrix.from_rows([[1], [1, 2]])

    def test_transpose(self):
        A = IntegerMatrix.from_rows([[1, 2, 3]])
        assert A.transpose().to_rows() == [[1], [2], [3]]


def test_is_prime():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(-3, 200):
        assert is_prime(n) == slow(n), n
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31)
