import random

import pytest

from posettop.complexes import (
    empty_complex,
    order_complex,
    reduced_euler,
    simplex_boundary,
    simplicial_complex,
    void_complex,
)
from posettop.homology import (
    HomologySummary,
    betti,
    boundary_matrices,
    check_chain_complex,
    homology,
    integral_homology,
    make_summary,
    parse_coefficients,
    summary_to_data,
)
from posettop.intmatrix import IntegerMatrix
from posettop.posets import build_poset, mobius, open_interval

from homology_oracle import elimination_betti, snf_homology
from test_complexes import random_complex
from test_posets import boolean_lattice, random_pure_bounded_poset


# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def projective_plane():
    return simplicial_complex(range(1, 7), RP2_FACETS)


def hexagon():
    return order_complex(open_interval(boolean_lattice(3), (), (1, 2, 3)))


class TestBoundaryMatrices:
    def test_single_edge(self):
        K = simplicial_complex("ab", [["a", "b"]])
        mats = boundary_matrices(K)
        assert mats[0].to_rows() == [[1, 1]]
        assert mats[1].to_rows() == [[-1], [1]]

    def test_boundary_squared_zero_tetrahedron(self):
        assert check_chain_complex(boundary_matrices(simplex_boundary(4)))

    def test_boundary_squared_zero_random(self):
        rng = random.Random(71)
        for _ in range(40):
            K = random_complex(rng)
            assert check_chain_complex(boundary_matrices(K))

    def test_hexagon_shape(self):
        mats = boundary_matrices(hexagon())
        d1 = mats[1]
        assert (d1.nrows, d1.ncols) == (6, 6)
        per_col = {}
        for (r, c), v in d1.entries.items():
            per_col[c] = per_col.get(c, 0) + 1
            assert v in (1, -1)
        assert all(n == 2 for n in per_col.values())

    def test_void_rejected(self):
        with pytest.raises(Exception):
            boundary_matrices(void_complex())


class TestFieldBetti:
    def test_point_trivial(self):
        K = simplicial_complex("a", [["a"]])
        assert betti(K, "Q").is_trivial()

    def test_hexagon_circle(self):
        s = betti(hexagon(), "Q")
        assert s.betti(0) == 0 and s.betti(1) == 1
        assert s.nonzero_dims() == (1,)

    def test_projective_plane_by_field(self):
        K = projective_plane()
        over_q = betti(K, "Q")
        assert over_q.is_trivial()
        over_2 = betti(K, 2)
        assert over_2.betti(1) == 1 and over_2.betti(2) == 1
        over_3 = betti(K, 3)
        assert over_3.is_trivial()

    def test_empty_complex_marker(self):
        s = betti(empty_complex(), "Q")
        assert s.empty_complex
        assert s.concentrated_in(-1)

    def test_field_selector_parsing(self):
        assert parse_coefficients("gf:2") == parse_coefficients(2) == 2
        with pytest.raises(ValueError, match="not prime"):
            parse_coefficients(4)
        with pytest.raises(ValueError):
            parse_coefficients("gf:notanumber")
        K = hexagon()
        assert betti(K, "gf:2") == betti(K, 2)
        with pytest.raises(ValueError, match="not a field"):
            betti(K, "z")


class TestIntegralHomology:
    def test_sphere(self):
        s = integral_homology(simplex_boundary(4))
        assert s.nonzero_dims() == (2,)
        assert s.betti(2) == 1 and s.torsion(2) == ()

    def test_projective_plane_torsion(self):
        s = integral_homology(projective_plane())
        assert s.nonzero_dims() == (1,)
        assert s.betti(1) == 0
        assert s.torsion(1) == (2,)

    def test_direct_path_agrees(self):
        for K in (simplex_boundary(3), simplex_boundary(4),
                  projective_plane(), hexagon()):
            assert integral_homology(K) == snf_homology(K)

    def test_direct_path_agrees_random(self):
        rng = random.Random(77)
        for _ in range(60):
            K = random_complex(rng)
            assert integral_homology(K) == snf_homology(K)

    def test_full_simplex_contractible(self):
        P = build_poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert integral_homology(order_complex(P)).is_trivial()

    def test_universal_coefficients(self):
        from posettop.constructions import rees_deranged, subword
        rng = random.Random(79)
        corpus = [random_complex(rng) for _ in range(50)]
        corpus += [order_complex(subword(3)), order_complex(rees_deranged(4))]
        for K in corpus:
            z = integral_homology(K)
            for f in ("Q", 2, 3):
                assert z.over_field(f) == elimination_betti(K, f), (K.facets, f)

    def test_over_field_keeps_torsion_above_the_top_group(self):
        # Tor(Z/2, GF(2)) puts a class in dimension 2 of the projective
        # plane, one above its top integral group
        z = integral_homology(projective_plane())
        assert len(z.groups) == 2
        over2 = z.over_field(2)
        assert over2.nonzero_dims() == (1, 2)
        assert str(over2) == "H~1 = GF(2), H~2 = GF(2) (GF(2))"
        assert z.over_field(3).is_trivial()

    def test_disjoint_edges(self):
        K = simplicial_complex(range(4), [[0, 1], [2, 3]])
        s = integral_homology(K)
        assert s.nonzero_dims() == (0,)
        assert s.betti(0) == 1


class TestSummaries:
    def test_euler_from_betti(self):
        rng = random.Random(83)
        for _ in range(40):
            K = random_complex(rng)
            s = betti(K, "Q")
            euler = sum((-1) ** i * s.betti(i) for i in range(len(s.groups)))
            assert euler == reduced_euler(K)

    def test_summary_json_shape(self):
        s = make_summary("Z", {1: (1, (2,)), 3: (0, ())})
        assert summary_to_data(s) == {
            "coefficients": "Z", "dims": {"1": {"betti": 1, "torsion": [2]}}}

    def test_concentration(self):
        s = make_summary("Z", {2: (3, ())})
        assert s.concentrated_in(2)
        assert not s.concentrated_in(1)
        assert make_summary("Z", {}).concentrated_in(5)  # trivial: any dim
        assert HomologySummary("Z", (), empty_complex=True).concentrated_in(-1)

    def test_group_rendering(self):
        s = make_summary("Z", {1: (2, (2, 4))})
        assert s.group_str(1) == "Z^2 + Z/2 + Z/4"
        assert s.group_str(0) == "0"
        assert make_summary("GF(2)", {3: (9, ())}).group_str(3) == "GF(2)^9"
        assert make_summary("Q", {2: (2, ())}).group_str(2) == "Q^2"
        over2 = betti(projective_plane(), 2)
        assert str(over2) == "H~1 = GF(2), H~2 = GF(2) (GF(2))"

    def test_homology_coefficient_dispatch(self):
        K = projective_plane()
        assert homology(K) == integral_homology(K)
        assert homology(K, "Z") == integral_homology(K)
        assert homology(K, "z-spherical") == integral_homology(K)
        assert homology(K, 2) == elimination_betti(K, 2)
        assert homology(K, "Q") == elimination_betti(K, "Q")


class TestHallCrossCheck:
    def test_mobius_equals_interval_euler(self):
        rng = random.Random(97)
        for _ in range(30):
            P = random_pure_bounded_poset(rng)
            for x in P.labels:
                for y in P.labels:
                    if P.leq(x, y) and x != y:
                        K = order_complex(open_interval(P, x, y))
                        assert mobius(P, x, y) == reduced_euler(K)


class TestDirectPathOnRealPosets:
    def test_subword_and_deranged_rees_medium(self):
        # the engine and the full-matrix SNF agree on real mid-size complexes
        from posettop.constructions import rees_deranged, subword, fiber_ideal
        for P in (subword(4), rees_deranged(4),
                  fiber_ideal(4, (1, 2, 3, 4), 2).poset):
            K = order_complex(P)
            assert integral_homology(K) == snf_homology(K)

    def test_derangement_ranks_over_q(self):
        # the free rank is the derangement number in the top dimension
        from posettop.constructions import rees_deranged, subword
        assert str(betti(order_complex(rees_deranged(5)), "Q")) == "H~4 = Q^44 (Q)"
        assert str(betti(order_complex(subword(4)), "Q")) == "H~3 = Q^9 (Q)"

    def test_barycentric_projective_plane(self):
        K = projective_plane()
        from posettop.complexes import barycentric_subdivision
        B = barycentric_subdivision(K)
        s = integral_homology(B)
        assert s.torsion(1) == (2,)
        assert s == snf_homology(B)
