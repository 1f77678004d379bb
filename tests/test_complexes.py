import itertools
import random

import pytest

from posettop.complexes import (
    ComplexError,
    SimplicialComplex,
    _drop_non_maximal,
    barycentric_subdivision,
    chain_count_by_size,
    complex_from_json,
    complex_segre,
    complex_to_json,
    empty_complex,
    f_vector,
    face_poset,
    full_simplex,
    order_complex,
    poset_chains_by_size,
    rank_coloring,
    reduced_euler,
    simplex_boundary,
    simplicial_complex,
    type_select,
    void_complex,
)
from posettop.homology import betti, integral_homology
from posettop.posets import build_poset, is_isomorphic, open_interval

from test_posets import boolean_lattice, random_poset


def random_complex(rng, max_vertices=8):
    nv = rng.randint(1, max_vertices)
    verts = list(range(nv))
    nfac = rng.randint(1, 6)
    facets = []
    for _ in range(nfac):
        size = rng.randint(1, min(nv, 4))
        facets.append(rng.sample(verts, size))
    return simplicial_complex(verts, facets)


class TestConstruction:
    def test_facets_canonicalized(self):
        K = simplicial_complex("abc", [["b", "a"], ["a"], ["c", "b"]])
        assert K.facets == ((0, 1), (1, 2))

    def test_void_vs_empty(self):
        assert void_complex().is_void
        assert not void_complex().is_empty
        assert empty_complex().is_empty
        assert empty_complex().dim == -1
        with pytest.raises(ComplexError):
            void_complex().dim

    def test_nested_faces_dropped_at_codimension_one(self):
        faces = {(0, 1, 2), (0, 1), (1, 2), (0, 2), (3,), (2, 3)}
        assert sorted(_drop_non_maximal(faces)) == [(0, 1, 2), (2, 3)]

    def test_nested_faces_dropped_at_higher_codimension(self):
        faces = {(0, 1, 2, 3), (1,), (0, 3), (4,), (1, 2, 4)}
        assert sorted(_drop_non_maximal(faces)) == [(0, 1, 2, 3), (1, 2, 4)]

    def test_duplicate_facets_kept_once(self):
        K = simplicial_complex("abc", [["a", "b"], ["b", "a"], ["a", "b", "a"], ["c"], ["c"]])
        assert K.facets == ((0, 1), (2,))

    def test_lone_empty_face(self):
        assert _drop_non_maximal({()}) == [()]
        assert _drop_non_maximal({(), (0,)}) == [(0,)]
        assert simplicial_complex("a", [[]]).is_empty

    def test_maximal_faces_match_pairwise_test(self):
        rng = random.Random(8)
        for _ in range(200):
            nv = rng.randint(1, 7)
            faces = {tuple(sorted(rng.sample(range(nv), rng.randint(0, nv))))
                     for _ in range(rng.randint(1, 10))}
            expected = {f for f in faces if not any(set(f) < set(g) for g in faces)}
            assert sorted(_drop_non_maximal(faces)) == sorted(expected), faces

    def test_unknown_vertex(self):
        with pytest.raises(ComplexError):
            simplicial_complex("ab", [["a", "z"]])

    def test_faces_closed_under_subsets(self):
        rng = random.Random(2)
        for _ in range(30):
            K = random_complex(rng)
            layers = K.faces_by_dim()
            all_faces = set(f for layer in layers for f in layer)
            for f in all_faces:
                for k in range(1, len(f)):
                    for sub in itertools.combinations(f, k):
                        assert sub in all_faces


class TestOrderComplex:
    def test_chain_gives_full_simplex(self):
        P = build_poset("abc", [("a", "b"), ("b", "c")])
        K = order_complex(P)
        assert K.facets == ((0, 1, 2),)
        assert K.dim == 2

    def test_antichain_gives_points(self):
        P = build_poset(range(4), [])
        K = order_complex(P)
        assert K.facets == ((0,), (1,), (2,), (3,))

    def test_boolean_interval_is_hexagon(self):
        P = open_interval(boolean_lattice(3), (), (1, 2, 3))
        K = order_complex(P)
        fv = f_vector(K)
        assert fv == (1, 6, 6)
        assert reduced_euler(K) == -1

    def test_dimension_is_longest_chain_length(self):
        rng = random.Random(5)
        for _ in range(20):
            P = random_poset(rng, rng.randint(1, 8))
            K = order_complex(P)
            layers = poset_chains_by_size(P)
            assert K.dim == len(layers) - 1

    def test_chain_enumeration_matches_generic_path(self):
        rng = random.Random(9)
        for _ in range(25):
            P = random_poset(rng, rng.randint(1, 7))
            K = order_complex(P)
            generic = SimplicialComplex(K.vertices, K.facets)  # no source poset
            assert K.faces_by_dim() == generic.faces_by_dim()
            assert f_vector(K) == f_vector(generic)

    def test_empty_poset(self):
        K = order_complex(build_poset([], []))
        assert K.is_empty

    def test_facets_are_listed_on_first_read_only(self):
        K = order_complex(boolean_lattice(4))
        for ask in (integral_homology, betti, f_vector, reduced_euler,
                    SimplicialComplex.faces_by_dim):
            ask(K)
        assert not K.is_void and not K.is_empty
        assert K._facets is None
        assert len(K.facets) == 24  # one maximal chain per permutation
        assert K._facets is K.facets

    def test_facets_are_the_maximal_chains(self):
        rng = random.Random(12)
        for _ in range(50):
            P = random_poset(rng, rng.randint(1, 7))
            x = P.labels
            chains = [c for k in range(1, len(x) + 1)
                      for c in itertools.combinations(range(len(x)), k)
                      if all(P.less(x[a], x[b]) or P.less(x[b], x[a])
                             for a, b in itertools.combinations(c, 2))]
            brute = [c for c in chains if not any(set(c) < set(d) for d in chains)]
            K = order_complex(P)
            assert K.facets == tuple(sorted(brute))
            assert complex_to_json(K) == complex_to_json(SimplicialComplex(K.vertices, brute))

    def test_queries_do_not_list_facets(self):
        # repr, dim, has_face, == and hash of an order complex come from its
        # poset and equal those of the explicit complex on its facets
        rng = random.Random(14)
        pairs = [(random_poset(rng, n), random_poset(rng, n))
                 for n in (rng.randint(1, 7) for _ in range(40))]
        pairs.append((build_poset("ab", [("a", "b")]), build_poset("ab", [("b", "a")])))
        for P, Q in pairs:
            K, L, other = order_complex(P), order_complex(P), order_complex(Q)
            explicit = SimplicialComplex(K.vertices, order_complex(P).facets)
            explicit_other = SimplicialComplex(other.vertices, order_complex(Q).facets)
            assert repr(K) == repr(explicit)
            assert K.dim == explicit.dim
            for k in range(len(K.vertices) + 1):
                for face in itertools.combinations(K.vertices, k):
                    assert K.has_face(face) == explicit.has_face(face)
            assert K == L and hash(K) == hash(L) == hash(explicit)
            assert (K == other) == (explicit == explicit_other)
            if K == other:
                assert hash(K) == hash(other)
            assert K._facets is L._facets is other._facets is None
            assert K == explicit and explicit == L

    def test_facets_are_needed_without_a_poset(self):
        with pytest.raises(ComplexError):
            SimplicialComplex((1, 2), None)


class TestFacePoset:
    def test_single_edge(self):
        K = simplicial_complex("ab", [["a", "b"]])
        P = face_poset(K)
        assert len(P) == 3
        assert set(P.labels) == {("a",), ("b",), ("a", "b")}

    def test_triangle_boundary(self):
        P = face_poset(simplex_boundary(3))
        assert len(P) == 6

    def test_point(self):
        P = face_poset(simplicial_complex("a", [["a"]]))
        assert len(P) == 1


class TestBarycentric:
    def test_edge_becomes_path(self):
        K = simplicial_complex("ab", [["a", "b"]])
        S = barycentric_subdivision(K)
        assert f_vector(S) == (1, 3, 2)

    def test_point_stays_point(self):
        K = simplicial_complex("a", [["a"]])
        S = barycentric_subdivision(K)
        assert f_vector(S) == (1, 1)

    def test_triangle_boundary_becomes_hexagon(self):
        S = barycentric_subdivision(simplex_boundary(3))
        assert f_vector(S) == (1, 6, 6)
        assert reduced_euler(S) == -1

    def test_euler_preserved(self):
        rng = random.Random(11)
        for _ in range(15):
            K = random_complex(rng, 6)
            assert reduced_euler(barycentric_subdivision(K)) == reduced_euler(K)

    def test_void_and_empty(self):
        assert barycentric_subdivision(void_complex()).is_void
        assert barycentric_subdivision(empty_complex()).is_empty


class TestTypeSelect:
    def test_all_colors_identity(self):
        K = simplex_boundary(3)
        c = {v: v for v in K.vertices}
        S = type_select(K, c, {1, 2, 3})
        assert S.facets == K.facets

    def test_no_colors_empty(self):
        K = simplex_boundary(3)
        c = {v: v for v in K.vertices}
        assert type_select(K, c, set()).is_empty

    def test_rank_one_selection(self):
        P = open_interval(boolean_lattice(3), (), (1, 2, 3))
        K = order_complex(P)
        c = rank_coloring(P)
        S = type_select(K, c, {1})
        assert f_vector(S) == (1, 3)

    def test_matches_rank_selection(self):
        # type selection of an order complex = order complex of rank selection
        from posettop.constructions import rank_select
        for S_ranks in [{0}, {1}, {0, 2}, {1, 2}, {0, 1, 2}]:
            P = boolean_lattice(3)
            K = order_complex(P)
            c = rank_coloring(P, shift=0)
            left = type_select(K, c, S_ranks)
            right = order_complex(rank_select(P, S_ranks))
            left_faces = {tuple(left.vertices[i] for i in f)
                          for layer in left.faces_by_dim() for f in layer}
            right_faces = {tuple(right.vertices[i] for i in f)
                           for layer in right.faces_by_dim() for f in layer}
            assert left_faces == right_faces


class TestComplexSegre:
    def test_bool_colors_refused(self):
        # JSON's true is no color 1
        K = simplicial_complex([1, 2], [[1, 2]])
        with pytest.raises(ComplexError, match="integers"):
            complex_segre(K, {1: True, 2: 2}, K, {1: 1, 2: 2})
        with pytest.raises(ComplexError, match="integers"):
            complex_segre(K, {1: 1, 2: 2}, K, {1: 1, 2: True})
        with pytest.raises(ComplexError, match="integers"):
            type_select(K, {1: True, 2: 2}, {1})

    def test_matched_edge(self):
        K = simplicial_complex([1, 2], [[1, 2]])
        c = {1: 1, 2: 2}
        S = complex_segre(K, c, K, c)
        assert S.facet_labels() == (((1, 1), (2, 2)),)

    def test_color_mismatch_shrinks(self):
        K1 = simplicial_complex([1, 2], [[1, 2]])
        K2 = simplicial_complex([1, 2], [[1], [2]])
        S = complex_segre(K1, {1: 1, 2: 2}, K2, {1: 1, 2: 1})
        # K2 vertices both colored 1, so only pairs with color 1 appear
        assert S.facet_labels() == (((1, 1),), ((1, 2),))

    def test_non_bijective_facet_rejected(self):
        K = simplicial_complex([1, 2], [[1, 2]])
        with pytest.raises(ComplexError, match="bijection"):
            complex_segre(K, {1: 1, 2: 1}, K, {1: 1, 2: 2})

    def test_non_injective_second_rejected(self):
        K = simplicial_complex([1, 2], [[1, 2]])
        with pytest.raises(ComplexError, match="injective"):
            complex_segre(K, {1: 1, 2: 2}, K, {1: 1, 2: 1})

    def test_dimension_precondition(self):
        K1 = simplicial_complex([1], [[1]])
        K2 = simplicial_complex([1, 2], [[1, 2]])
        with pytest.raises(ComplexError, match="dimension"):
            complex_segre(K1, {1: 1}, K2, {1: 1, 2: 2})

    def test_matches_poset_segre_on_b2(self):
        from posettop.constructions import weighted_segre
        from posettop.posets import rank_map
        B2 = boolean_lattice(2)
        K = order_complex(B2)
        c = rank_coloring(B2)  # ranks shifted to 1..3
        S = complex_segre(K, c, K, c)
        M2 = weighted_segre(B2, B2, rank_map(B2)).poset
        KM = order_complex(M2)
        s_faces = {frozenset(S.vertices[i] for i in f)
                   for layer in S.faces_by_dim() for f in layer}
        m_faces = {frozenset(KM.vertices[i] for i in f)
                   for layer in KM.faces_by_dim() for f in layer}
        assert s_faces == m_faces


class TestEuler:
    def test_empty_complex(self):
        assert reduced_euler(empty_complex()) == -1

    def test_full_simplex_contractible(self):
        assert reduced_euler(full_simplex(3)) == 0

    def test_hexagon(self):
        P = open_interval(boolean_lattice(3), (), (1, 2, 3))
        assert reduced_euler(order_complex(P)) == -1

    def test_void_rejected(self):
        with pytest.raises(ComplexError):
            reduced_euler(void_complex())
        assert f_vector(void_complex()) == (0,)

    def test_chain_count_matches_enumeration(self):
        rng = random.Random(13)
        for _ in range(20):
            P = random_poset(rng, rng.randint(1, 8))
            counts = chain_count_by_size(P)
            layers = poset_chains_by_size(P)
            assert counts == [len(x) for x in layers]


class TestSerialization:
    def test_round_trip(self):
        K = simplex_boundary(3)
        text = complex_to_json(K)
        K2 = complex_from_json(text)
        assert complex_to_json(K2) == text

    def test_face_consistency(self):
        rng = random.Random(3)
        for _ in range(10):
            K = random_complex(rng, 6)
            K2 = complex_from_json(complex_to_json(K))
            assert [[str(v) for v in f] for f in K.facet_labels()] == \
                [list(f) for f in K2.facet_labels()]


class TestBarycentricHomology:
    def test_homology_preserved_with_torsion(self):
        from posettop.homology import integral_homology
        from test_homology import projective_plane
        corpus = [simplex_boundary(3), simplex_boundary(4), projective_plane()]
        rng = random.Random(23)
        corpus += [random_complex(rng, 8) for _ in range(12)]
        for K in corpus:
            assert integral_homology(barycentric_subdivision(K)) == \
                integral_homology(K)


class TestTypeSelectExhaustive:
    def test_matches_rank_selection_b3_b4(self):
        import itertools as it
        from posettop.constructions import boolean, rank_select
        for n in (3, 4):
            P = boolean(n)
            K = order_complex(P)
            c = rank_coloring(P, shift=0)
            for r in range(n + 2):
                for S in it.combinations(range(n + 1), r):
                    S = set(S)
                    left = type_select(K, c, S)
                    right = order_complex(rank_select(P, S))
                    lf = {tuple(left.vertices[i] for i in f)
                          for layer in left.faces_by_dim() for f in layer}
                    rf = {tuple(right.vertices[i] for i in f)
                          for layer in right.faces_by_dim() for f in layer}
                    assert lf == rf, (n, S)
