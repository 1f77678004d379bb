"""Property-based checks of the structural invariants."""

import random

from hypothesis import given, settings, strategies as st

from posettop.complexes import f_vector, order_complex, reduced_euler, simplicial_complex
from posettop.homology import betti, integral_homology
from posettop.intmatrix import IntegerMatrix, smith_normal_form
from posettop.posets import (
    PosetError,
    build_poset,
    dual,
    is_isomorphic,
    mobius,
    open_interval,
)

from homology_oracle import elimination_betti
from test_posets import naive_leq


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    edges = draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
        max_size=14))
    return n, edges


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    covers = [(a, b) for (a, b) in pairs if a < b]
    return build_poset(list(range(n)), covers)


@st.composite
def small_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    facets = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
        min_size=1, max_size=6))
    return simplicial_complex(list(range(n)), facets)


@st.composite
def small_matrices(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=m, max_size=m))
    return IntegerMatrix.from_rows(rows)


class TestPosetProperties:
    @given(edge_lists())
    @settings(max_examples=120, deadline=None)
    def test_build_poset_validates_or_builds(self, case):
        n, edges = case
        try:
            P = build_poset(list(range(n)), edges)
        except PosetError:
            return  # cycle or bad label: rejected is fine
        leq = naive_leq(P)
        for a in P.labels:
            for b in P.labels:
                assert P.leq(a, b) == ((a, b) in leq)
        # covers are a transitive reduction: re-building is a fixed point
        assert set(build_poset(P.labels, P.cover_pairs()).cover_pairs()) == \
            set(P.cover_pairs())

    @given(small_posets())
    @settings(max_examples=80, deadline=None)
    def test_dual_is_involution_and_reverses_order(self, P):
        D = dual(P)
        assert dual(D) == P
        for a in P.labels:
            for b in P.labels:
                assert P.leq(a, b) == D.leq(b, a)

    @given(small_posets())
    @settings(max_examples=60, deadline=None)
    def test_mobius_of_dual_swaps_arguments(self, P):
        D = dual(P)
        for x in P.labels:
            for y in P.labels:
                if P.leq(x, y):
                    assert mobius(P, x, y) == mobius(D, y, x)

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_isomorphism_reflexive(self, P):
        assert is_isomorphic(P, P)

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_mobius_is_interval_euler(self, P):
        for x in P.labels:
            for y in P.labels:
                if x != y and P.leq(x, y):
                    K = order_complex(open_interval(P, x, y))
                    assert mobius(P, x, y) == reduced_euler(K)


class TestComplexProperties:
    @given(small_complexes())
    @settings(max_examples=80, deadline=None)
    def test_euler_is_alternating_betti_sum(self, K):
        s = betti(K, "Q")
        total = sum((-1) ** i * s.betti(i) for i in range(len(s.groups)))
        assert total == reduced_euler(K)

    @given(small_complexes())
    @settings(max_examples=60, deadline=None)
    def test_integral_matches_field_ranks(self, K):
        z = integral_homology(K)
        assert z.over_field("Q") == elimination_betti(K, "Q")
        assert z.over_field(2) == elimination_betti(K, 2)

    @given(small_complexes())
    @settings(max_examples=60, deadline=None)
    def test_f_vector_counts_faces(self, K):
        fv = f_vector(K)
        layers = K.faces_by_dim()
        assert fv[0] == 1
        assert tuple(fv[1:]) == tuple(len(x) for x in layers)


class TestMatrixProperties:
    @given(small_matrices())
    @settings(max_examples=100, deadline=None)
    def test_snf_divisibility_chain(self, M):
        diag = smith_normal_form(M).diagonal
        nz = [d for d in diag if d]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert len(diag) == min(M.nrows, M.ncols)

    @given(small_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_snf_invariant_under_row_ops(self, M, rnd):
        rows = M.to_rows()
        rng = random.Random(rnd.randint(0, 10 ** 9))
        for _ in range(6):
            i = rng.randrange(M.nrows)
            j = rng.randrange(M.nrows)
            if i != j:
                c = rng.randint(-2, 2)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        N = IntegerMatrix.from_rows(rows)
        assert smith_normal_form(M).diagonal == smith_normal_form(N).diagonal
